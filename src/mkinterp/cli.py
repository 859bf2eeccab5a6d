"""Command-line front end: fit, evaluate, power reports, convergence studies.

Exit codes are part of the contract: 0 success, 1 a study whose error
exceeded its bound, 2 malformed input (including a malformed model file,
a node outside the domain or an unwritable output), 3 solver not
converged, 4 singular design (feature Gram without full row rank),
5 evaluation points outside the domain (or, for a custom feature table,
not tabulated).  Subcommands raise; ``main`` alone turns an exception into
an exit code, through ``_EXIT_CODES``.

Configuration is a flat ``key = value`` text file (``#`` comments allowed)
whose keys mirror the command-line flags; flags override file values.
Numeric CSV output uses shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .exceptions import DuplicateNodes, NotConverged, SingularGram
from .features import Domain, FeatureModel, tabulated
from .interpolant import (
    Interpolant,
    NodeSet,
    banach_norm_direct,
    banach_norm_via_tensor,
    evaluate_many,
    from_json,
    to_json,
)
from .power import convergence_study, domain_grid, power_report
from .solver import SolverOptions, solve_multilinear
from .tensors import FeatureGram

EXIT_OK = 0
EXIT_DOMAIN = 5

# Exception type -> exit code, used by main alone; the first match wins.
# Every library check on outside input raises a ValueError subclass.
_EXIT_CODES = {
    NotConverged: 3,
    SingularGram: 4,  # a ValueError, so it must precede ValueError
    ValueError: 2,
    KeyError: 2,  # a model document missing a field
    TypeError: 2,  # a model document field of the wrong JSON type
    OverflowError: 2,  # a model document integer too large for a float
    OSError: 2,  # a file that cannot be read or written
    csv.Error: 2,  # a CSV line the csv module cannot split, such as an overlong field
}

# Output rows are formatted and written this many at a time.
CSV_CHUNK_ROWS = 4096

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
    if cfg["order"] < 2 or cfg["order"] % 2:
        raise CliInputError(f"order must be even and >= 2, got {cfg['order']}")
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
    """Read a CSV with header x1..xd[,y]; returns (points, values or None)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
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
        points, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CliInputError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                nums = [float(cell) for cell in row]
            except ValueError:
                raise CliInputError(f"{path}:{lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in nums):
                raise CliInputError(f"{path}:{lineno}: non-finite field")
            if has_values:
                points.append(nums[:-1])
                values.append(nums[-1])
            else:
                points.append(nums)
    pts = np.asarray(points, dtype=float).reshape(len(points), d)
    if pts.shape[0] == 0 and not allow_empty:
        raise CliInputError(f"{path}: no data rows")
    return pts, (np.asarray(values, dtype=float) if has_values else None)


def _node_set(points, values) -> NodeSet:
    try:
        return NodeSet(points, values)
    except DuplicateNodes as err:
        i, j = err.pair
        raise CliInputError(f"duplicate points at rows {i + 2} and {j + 2}") from err


def _cells(chunk: np.ndarray) -> list:
    """CSV cells of a column chunk: ``repr`` of a float, blank for NaN, else ``str``.

    ``repr`` is the shortest round-trip form and never needs CSV quoting.
    """
    if chunk.dtype.kind != "f":
        return list(map(str, chunk.tolist()))
    cells = list(map(repr, chunk.tolist()))
    for i in np.flatnonzero(np.isnan(chunk)).tolist():
        cells[i] = ""
    return cells


def _write_csv(path: str, header, *columns) -> None:
    """Write equal-length 1-d arrays as CSV columns under ``header`` (see ``_cells``).

    Each ``CSV_CHUNK_ROWS`` rows are built as one string and written at once,
    so a large output's Python objects are never all alive together.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = [_cells(column[start:start + CSV_CHUNK_ROWS]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    cfg = _merge_settings(args)
    points, values = read_points_csv(args.data, expect_values=True)
    nodes = _node_set(points, values)
    model = build_model(cfg, points.shape[1])
    gram = FeatureGram.from_model(model, nodes.points)
    if not gram.full_row_rank:  # A_2 = V V^T is singular exactly then
        detail = (f"truncation K={model.truncation} < n={nodes.n}"
                  if model.truncation < nodes.n else "rank-deficient feature Gram")
        raise SingularGram(f"singular design ({detail})")

    opts = SolverOptions(residual_tol=cfg["tol"])
    report = solve_multilinear(gram, cfg["order"], nodes.values, opts)
    if not np.isfinite(report.residual_norm):
        # an overflowed iterate has no faithful JSON form; write nothing
        raise NotConverged(report, "solver overflowed (non-finite residual); "
                           "no output written")
    s = Interpolant(model, nodes, cfg["order"], report.coefficients, gram, report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_json(s) + "\n")
    report_path = args.report or args.out + ".report.json"
    report_doc = {
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "norm": banach_norm_via_tensor(s),
        "order": cfg["order"],
        "n": nodes.n,
        "truncation": model.truncation,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
    if not report.converged:
        raise NotConverged(report)
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.interpolant, "r", encoding="utf-8") as fh:
        s = from_json(fh.read())
    if args.points:
        points, _ = read_points_csv(args.points, expect_values=False, allow_empty=True)
    else:
        cfg = _merge_settings(args)
        points = domain_grid(s.model.domain, cfg["grid"])

    d = s.model.domain.dim
    header = [f"x{i + 1}" for i in range(d)] + ["s", "flag"]
    # a points file of another dimension has no row inside the domain
    if points.shape[1] == d:
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
    flags = np.full(points.shape[0], "outside_domain", dtype=object)
    flags[inside] = "untabulated"
    flags[found] = ""
    _write_csv(args.out, header, *points.T, values, flags)
    return EXIT_OK if np.all(found) else EXIT_DOMAIN


def cmd_power(args) -> int:
    cfg = _merge_settings(args)
    points, values = read_points_csv(args.nodes, expect_values=False)
    nodes = _node_set(points, values if values is not None else np.zeros(len(points)))
    model = build_model(cfg, points.shape[1])
    grid = domain_grid(model.domain, cfg["grid"])
    report = power_report(model, nodes, cfg["order"], grid, f_norm=cfg["fnorm"])
    header = [f"x{i + 1}" for i in range(model.domain.dim)] + ["p_m", "p_2", "bound"]
    _write_csv(args.out, header, *grid.T, report.p_m, report.p_2, report.bound)
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = _merge_settings(args)
    try:
        counts = [int(piece) for piece in str(cfg["node_counts"]).split(",")]
    except (KeyError, ValueError):
        raise CliInputError("node_counts must be a comma-separated integer list") from None
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise CliInputError("node_counts must be strictly increasing")

    domain = parse_domain(str(cfg["domain"]))
    model = build_model(cfg, domain.dim)
    rng = np.random.default_rng(cfg["seed"])
    f_alpha = rng.standard_normal(model.truncation)
    opts = SolverOptions(residual_tol=cfg["tol"])
    eval_grid = domain_grid(model.domain, cfg["grid"])

    result = convergence_study(model, f_alpha, cfg["order"], counts, eval_grid, opts)
    slope = np.nan if result.slope is None else result.slope
    table = np.array([[r.h, r.max_error, r.max_bound, slope] for r in result.rows], dtype=float)
    _write_csv(args.out, ["n", "h", "max_error", "max_bound", "slope"],
               np.array([r.n for r in result.rows]), *table.T)

    f_norm = banach_norm_direct(f_alpha, cfg["order"] / (cfg["order"] - 1))
    return EXIT_OK if result.bound_dominates(1e-6 * (1.0 + f_norm)) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--kernel", choices=["power", "trig"], help="feature family")
    p.add_argument("--order", type=int, help="even interpolation order m")
    p.add_argument("--truncation", type=int, help="number of features K")
    p.add_argument("--decay", type=float, help="weight decay parameter")
    p.add_argument("--domain", help="box as lo:hi[,lo:hi...]")
    p.add_argument("--seed", type=int,
                   help="RNG seed; only study uses it, to draw its target")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mkinterp",
                                     description="multi-kernel scattered-data interpolation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an interpolant from a data CSV")
    p_fit.add_argument("data", help="CSV with header x1,...,xd,y")
    p_fit.add_argument("--out", required=True, help="interpolant JSON path")
    p_fit.add_argument("--report", help="fit report JSON path")
    p_fit.add_argument("--tol", type=float, help="solver residual tolerance")
    _add_model_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a serialized interpolant")
    p_eval.add_argument("interpolant", help="interpolant JSON path")
    p_eval.add_argument("--points", help="CSV of evaluation points (x1,...,xd)")
    p_eval.add_argument("--grid", type=int, help="uniform grid points per dimension")
    p_eval.add_argument("--out", required=True, help="output CSV path")
    p_eval.add_argument("--config", help="flat key = value configuration file")
    p_eval.set_defaults(func=cmd_eval)

    p_power = sub.add_parser("power", help="power function report on a grid")
    p_power.add_argument("nodes", help="CSV of data nodes (x1,...,xd[,y])")
    p_power.add_argument("--out", required=True, help="output CSV path")
    p_power.add_argument("--grid", type=int, help="evaluation grid per dimension")
    p_power.add_argument("--fnorm", type=float, help="target norm in the error bound")
    _add_model_flags(p_power)
    p_power.set_defaults(func=cmd_power)

    p_study = sub.add_parser("study", help="fill-distance convergence study")
    p_study.add_argument("--node-counts", dest="node_counts",
                         help="strictly increasing list, e.g. 4,8,16,32")
    p_study.add_argument("--out", required=True, help="output CSV path")
    p_study.add_argument("--grid", type=int, help="evaluation grid per dimension")
    p_study.add_argument("--tol", type=float, help="solver residual tolerance")
    _add_model_flags(p_study)
    p_study.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
