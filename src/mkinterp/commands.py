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

# Output rows are formatted and written this many at a time; a chunk's
# strings set the peak memory of `eval`.
CSV_CHUNK_ROWS = 2048
CSV_BLOCK_CHARS = 1 << 16  # input text is read and converted this much at a time

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
            if key not in _DEFAULTS and key != "node_counts":
                raise CliInputError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in list(_DEFAULTS) + ["node_counts"]:
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
    if cfg["grid"] < 2:
        raise CliInputError(f"grid must be at least 2 points per dimension, got {cfg['grid']}")
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

    The body is read ``CSV_BLOCK_CHARS`` characters at a time, each block
    cut after its last newline and converted by :func:`_convert`.  Once a
    block is refused the file is scanned again row by row, from its first
    data row; only the scan words errors.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise CliInputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        has_values = header[-1:] == ["y"]
        coord_names = header[:-1] if has_values else header
        d = len(coord_names)
        if d < 1 or coord_names != [f"x{i + 1}" for i in range(d)]:
            raise CliInputError(f"{path}: header must be x1,...,xd[,y]")
        if expect_values and not has_values:
            raise CliInputError(f"{path}: missing y column")
        table = _convert_blocks(fh, len(header))
    if table is None:
        table = _scan(path, len(header))
    if table.shape[0] == 0 and not allow_empty:
        raise CliInputError(f"{path}: no data rows")
    if has_values:
        return np.ascontiguousarray(table[:, :d]), table[:, d].copy()
    return table, None


def _convert_blocks(fh, width: int):
    """The table of the CSV body left in ``fh``, block by block through
    :func:`_convert`, or None once a block is refused.  A block ends after
    its last newline, so no line, and no ``\r\n``, spans two blocks."""
    blocks, rest = [np.empty((0, width))], ""
    while True:
        chunk = fh.read(CSV_BLOCK_CHARS)
        text = rest + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        if cut:
            blocks.append(_convert(text[:cut], width))
            if blocks[-1] is None:
                return None
        rest = text[cut:]
        if not chunk:
            return np.concatenate(blocks)


def _scan(path: str, width: int):
    """The table of a CSV body read row by row by the ``csv`` module; raises
    CliInputError naming the line of the first bad row."""
    table = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        for lineno, row in enumerate(rows, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise CliInputError(f"{path}:{lineno}: expected {width} fields")
            try:
                nums = [float(cell) for cell in row]
            except ValueError:
                raise CliInputError(f"{path}:{lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in nums):
                raise CliInputError(f"{path}:{lineno}: non-finite field")
            table.append(nums)
    return np.array(table, dtype=float).reshape(len(table), width)


def _convert(body: str, width: int):
    """The (n, width) table of a block of CSV lines, or None where the
    ``csv`` module might split it otherwise (a lone carriage return, a field
    over its size limit) or a nonblank line is not ``width`` finite numbers
    (a quoted one never is).  Cells go through ``float``, as in the scan, so
    bit for bit."""
    text = body.replace("\r\n", "\n")
    if "\r" in text:
        return None
    lines = list(filter(None, text.split("\n")))  # blank lines are skipped
    if (max(map(len, lines), default=0) > csv.field_size_limit()
            or {line.count(",") for line in lines} - {width - 1}):
        return None
    try:
        cells = list(map(float, ",".join(lines).split(","))) if lines else []
    except ValueError:
        return None
    table = np.reshape(cells, (-1, width))
    return table if np.isfinite(table).all() else None


def _node_set(points, values) -> NodeSet:
    try:
        return NodeSet(points, values)
    except DuplicateNodes as err:
        i, j = err.pair
        raise CliInputError(f"duplicate points at rows {i + 2} and {j + 2}") from err


def _cells(chunk: np.ndarray, dense: bool) -> tuple:
    """CSV cells of a column chunk: ``repr`` of a float, blank for NaN, else ``str``.

    ``repr`` (shortest round-trip, never quoted) runs once per float if
    ``dense``, else once per distinct float, told apart by bit pattern.  Also
    returns ``dense`` for the next chunk: this one was, or had over half its
    floats distinct.
    """
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
    """Write equal-length 1-d arrays as CSV columns under ``header`` (see ``_cells``).

    Each ``CSV_CHUNK_ROWS`` rows are built as one string and written at once,
    so a large output's Python objects are never all alive together.
    """
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
    except (KeyError, ValueError):
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
