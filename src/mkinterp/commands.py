"""The ``mkinterp`` subcommands, imported by :func:`mkinterp.cli.main` after parsing.

Nothing here imports ``mkinterp.cli``: under ``python -m`` it runs as
``__main__``, and an import would run it a second time.

Configuration is a flat ``key = value`` text file (``#`` comments allowed)
whose keys mirror the command-line flags; flags override file values.
Numeric CSV output uses shortest round-trip decimals.  A subcommand imports
only the modules it runs: ``eval`` loads neither the solver nor ``power``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from contextlib import suppress
from itertools import chain

import numpy as np

from .exceptions import DuplicateNodes, NotConverged, SingularDesignWarning
from .features import Domain, FeatureModel, _distinct, domain_grid, tabulated
from .interpolant import (
    NodeSet,
    _solved,
    banach_norm_direct,
    banach_norm_via_tensor,
    evaluate_many,
    from_json,
    to_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 5

# CSV rows are read and converted, or formatted and written, this many at a
# time; a chunk's strings set the peak memory of reading and writing.
CSV_CHUNK_ROWS = 2048

_DEFAULTS = {
    "kernel": "power",
    "order": 2,
    "truncation": 8,
    "decay": 0.5,
    "domain": "-1:1",
    "tol": 1e-10,
    "seed": 0,
    "grid": 101,
    "fnorm": 1.0,
    "node_counts": None,
}


class CliInputError(ValueError):
    """Malformed input; maps to exit code 2."""


def parse_domain(text: str) -> Domain:
    lowers, uppers = [], []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise CliInputError(f"bad domain segment {part!r}; expected lo:hi")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError as err:
            raise CliInputError(f"bad domain segment {part!r}") from err
        lowers.append(lo)
        uppers.append(hi)
    return Domain(lowers, uppers)


def read_config(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliInputError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (piece.strip() for piece in line.split("=", 1))
            cfg[key] = value
    return cfg


def _merge_settings(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in read_config(args.config).items():
            if key not in _DEFAULTS:
                raise CliInputError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    try:
        for key in ("order", "truncation", "seed", "grid"):
            cfg[key] = int(cfg[key])
        for key in ("decay", "tol", "fnorm"):
            cfg[key] = float(cfg[key])
    except ValueError as err:
        raise CliInputError(f"bad setting: {err}") from None
    return cfg


def build_model(cfg: dict, dim: int) -> FeatureModel:
    domain = parse_domain(str(cfg["domain"]))
    if domain.dim != dim:
        raise CliInputError(
            f"domain has dimension {domain.dim} but data has dimension {dim}"
        )
    kernel = str(cfg["kernel"])
    if kernel == "power":
        return FeatureModel.power_series(domain, cfg["truncation"], cfg["decay"])
    if kernel == "trig":
        return FeatureModel.trigonometric(domain, cfg["truncation"], cfg["decay"])
    if kernel == "custom":
        raise CliInputError("custom kernels must be loaded through the API")
    raise CliInputError(f"unknown kernel family {kernel!r}")


def read_points_csv(path: str, expect_values: bool, allow_empty: bool = False):
    """Read a CSV with header x1..xd[,y]; returns (points, values or None).

    One ``csv.reader`` reads every row once, and each ``CSV_CHUNK_ROWS`` rows
    go to :func:`_table`.  Where a row cannot be read (an overlong field, a
    byte that is not UTF-8), the rows before it are checked first.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise CliInputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        d = len(header) - 1 if header[-1:] == ["y"] else len(header)  # coordinates
        if d < 1 or header[:d] != [f"x{i + 1}" for i in range(d)]:
            raise CliInputError(f"{path}: header must be x1,...,xd[,y]")
        if expect_values and d == len(header):
            raise CliInputError(f"{path}: missing y column")
        tables, chunk, first = [], [], 2  # rows are counted from the header's 1
        try:
            for row in rows:
                chunk.append(row)
                if len(chunk) == CSV_CHUNK_ROWS:
                    tables.append(_table(path, chunk, len(header), first))
                    chunk, first = [], first + len(chunk)
        except (csv.Error, UnicodeDecodeError):
            _table(path, chunk, len(header), first)
            raise
    table = np.concatenate([*tables, _table(path, chunk, len(header), first)])
    if table.shape[0] == 0 and not allow_empty:
        raise CliInputError(f"{path}: no data rows")
    if d < len(header):
        return np.ascontiguousarray(table[:, :d]), table[:, d].copy()
    return table, None


def _table(path: str, rows: list, width: int, first: int) -> np.ndarray:
    """The (n, width) table of CSV rows, the first of them row ``first``; the first bad
    row raises CliInputError, and blank rows are dropped."""
    if set(map(len, rows)) <= {0, width}:
        with suppress(ValueError):  # a cell that is not a number
            table = np.reshape(list(map(float, chain.from_iterable(rows))), (-1, width))
            if np.isfinite(table).all():
                return table
    for lineno, row in enumerate(rows, start=first):
        if not any(map(str.strip, row)):
            continue  # a blank row
        if len(row) != width:
            raise CliInputError(f"{path}:{lineno}: expected {width} fields")
        try:
            nums = [float(cell) for cell in row]
        except ValueError:
            raise CliInputError(f"{path}:{lineno}: non-numeric field") from None
        if not all(math.isfinite(v) for v in nums):
            raise CliInputError(f"{path}:{lineno}: non-finite field")
    return _table(path, [row for row in rows if any(map(str.strip, row))], width, first)


def _node_set(points, values) -> NodeSet:
    try:
        return NodeSet(points, values)
    except DuplicateNodes as err:
        i, j = err.pair
        raise CliInputError(f"duplicate points at rows {i + 2} and {j + 2}") from err


def _cells(chunk: np.ndarray, dense: bool) -> tuple:
    """CSV cells of a column chunk: ``repr`` of a float (once per float if ``dense``, else
    once per distinct bit pattern), blank for NaN, else ``str``; and ``dense`` for the next
    chunk: this one was, or had over half its floats distinct."""
    if chunk.dtype.kind != "f":
        return list(map(str, chunk.tolist())), dense
    if dense:
        if not np.isnan(chunk).any():
            return list(map(repr, chunk.tolist())), True
        return ["" if v != v else repr(v) for v in chunk.tolist()], True  # v != v: NaN
    values, index = _distinct(chunk)
    texts = np.array(list(map(repr, values.tolist())), dtype=object)
    texts[np.isnan(values)] = ""
    return texts[index].tolist(), 2 * values.size > chunk.size


def _write_csv(path: str, header, *columns) -> None:
    """Write equal-length 1-d arrays as CSV columns under ``header`` (see ``_cells``),
    ``CSV_CHUNK_ROWS`` rows to one string and one write."""
    dense = [False] * len(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells, dense = zip(*[_cells(column[start:start + CSV_CHUNK_ROWS], flag)
                                 for column, flag in zip(columns, dense)])
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    from .solver import SolverOptions
    cfg = _merge_settings(args)
    points, values = read_points_csv(args.data, expect_values=True)
    nodes = _node_set(points, values)
    model = build_model(cfg, points.shape[1])
    with warnings.catch_warnings():
        # the library warns before any Newton step; here that ends the fit
        warnings.simplefilter("error", SingularDesignWarning)
        s = _solved(model, nodes, cfg["order"], SolverOptions(residual_tol=cfg["tol"]))
    if not np.isfinite(s.report.residual_norm):
        # an overflowed iterate has no faithful JSON form; write nothing
        raise NotConverged(s.report, "solver overflowed (non-finite residual); "
                           "no output written")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_json(s) + "\n")
    report_path = args.report or args.out + ".report.json"
    report_doc = {
        "converged": s.report.converged,
        "stop_reason": s.report.stop_reason,
        "residual_norm": s.report.residual_norm,
        "iterations": s.report.iterations,
        "norm": banach_norm_via_tensor(s),
        "order": cfg["order"],
        "n": nodes.n,
        "truncation": model.truncation,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
    if not s.report.converged:
        raise NotConverged(s.report)
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.interpolant, "r", encoding="utf-8") as fh:
        s = from_json(fh.read())
    if args.points:
        points, _ = read_points_csv(args.points, expect_values=False, allow_empty=True)
    else:
        cfg = _merge_settings(args)
        points = domain_grid(s.model.domain, cfg["grid"])

    header = [f"x{i + 1}" for i in range(points.shape[1])] + ["s", "flag"]
    # a points file of another dimension has no row inside the domain
    if points.shape[1] == s.model.domain.dim:
        inside = s.model.domain.contains(points)
    else:
        inside = np.zeros(points.shape[0], dtype=bool)
    found = inside.copy()
    found[inside] = tabulated(s.model, points[inside])
    values = np.full(points.shape[0], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        values[found] = evaluate_many(s, points[found])
    overflow = found & ~np.isfinite(values)
    if np.any(overflow):
        raise ValueError(f"interpolant overflows at point {points[np.argmax(overflow)].tolist()}")
    flags = np.empty(points.shape[0], dtype=object)
    flags[:] = "outside_domain"  # one str shared by the rows; np.full would make one per row
    flags[inside] = "untabulated"
    flags[found] = ""
    _write_csv(args.out, header, *points.T, values, flags)
    return EXIT_OK if np.all(found) else EXIT_DOMAIN


def cmd_power(args) -> int:
    from .power import power_report
    cfg = _merge_settings(args)
    points, values = read_points_csv(args.nodes, expect_values=False)
    nodes = _node_set(points, values if values is not None else np.zeros(len(points)))
    model = build_model(cfg, points.shape[1])
    grid = domain_grid(model.domain, cfg["grid"])
    report = power_report(model, nodes, cfg["order"], grid, f_norm=cfg["fnorm"])
    header = [f"x{i + 1}" for i in range(model.domain.dim)] + ["p_m", "p_2", "bound"]
    _write_csv(args.out, header, *grid.T, report.p_m, report.p_2, report.bound)
    reasons = report.stop_reasons
    for reason in sorted(set(reasons[reasons != "converged"])):
        stopped = reasons == reason
        print(f"warning: {stopped.sum()} of {reasons.size} P_m points stopped ({reason}); "
              f"P_m <= {report.p_m[stopped].max():.2g}", file=sys.stderr)
    return EXIT_OK


def cmd_study(args) -> int:
    from .power import convergence_study
    from .solver import SolverOptions
    cfg = _merge_settings(args)
    try:
        counts = [int(piece) for piece in str(cfg["node_counts"]).split(",")]
    except ValueError:
        raise CliInputError("node_counts must be a comma-separated integer list") from None
    if not counts or counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise CliInputError("node_counts must be strictly increasing and at least 1")

    domain = parse_domain(str(cfg["domain"]))
    model = build_model(cfg, domain.dim)
    rng = np.random.default_rng(cfg["seed"])
    f_alpha = rng.standard_normal(model.truncation)
    opts = SolverOptions(residual_tol=cfg["tol"])
    eval_grid = domain_grid(model.domain, cfg["grid"])

    with warnings.catch_warnings(record=True) as caught:
        # a row with more nodes than features is consistent: one stderr line per message
        warnings.simplefilter("always", SingularDesignWarning)
        result = convergence_study(model, f_alpha, cfg["order"], counts, eval_grid, opts)
    singular = [str(w.message) for w in caught if issubclass(w.category, SingularDesignWarning)]
    for w in caught:
        if not issubclass(w.category, SingularDesignWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    slope = np.nan if result.slope is None else result.slope
    table = np.array([[r.h, r.max_error, r.max_bound, slope] for r in result.rows], dtype=float)
    _write_csv(args.out, ["n", "h", "max_error", "max_bound", "slope"],
               np.array([r.n for r in result.rows]), *table.T)
    for message in dict.fromkeys(singular):
        print(f"warning: {message}", file=sys.stderr)

    f_norm = banach_norm_direct(f_alpha, cfg["order"] / (cfg["order"] - 1))
    return EXIT_OK if result.bound_dominates(1e-6 * (1.0 + f_norm)) else 1
