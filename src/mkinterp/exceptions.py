"""Exception and warning types shared across the package."""


class PointOutsideDomain(ValueError):
    """A point violates the domain box (beyond the face tolerance)."""


class UntabulatedPoint(ValueError):
    """A custom-table model was evaluated at a point not in its table."""


class OddOrderUnsupported(ValueError):
    """The multi-kernel order m must be even and at least 2."""


class DimensionMismatch(ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class DuplicateNodes(ValueError):
    """Two data points coincide (pairwise distance below 1e-12)."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"nodes {i} and {j} coincide")


class NotConverged(RuntimeError):
    """The iterative solver stopped before reaching its tolerance.

    Carries the best-effort ``SolveReport`` in ``self.report``.
    """

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(
            message
            or f"solver stopped ({report.stop_reason}) at residual "
            f"{report.residual_norm:.3e} after {report.iterations} iterations"
        )


class SingularDesignWarning(UserWarning):
    """The feature Gram lacks full row rank; the system may be inconsistent."""


class InvalidExponent(ValueError):
    """Norm exponent p must satisfy 1 < p < infinity."""


class ZeroFunction(ValueError):
    """The norm's Gateaux derivative is undefined at the zero function."""
