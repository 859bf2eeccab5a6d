"""Command-line front end: fit, evaluate, power reports, convergence studies.

Exit codes are part of the contract: 0 success, 1 a study whose error
exceeded its bound, 2 malformed input (including a malformed model file,
a node outside the domain, an unwritable output or a grid too large to
allocate), 3 solver not
converged, 4 singular design (feature Gram without full row rank),
5 evaluation points outside the domain (or, for a custom feature table,
not tabulated).  Subcommands raise; ``main`` alone turns an exception into
an exit code, through ``_EXIT_CODES``.

This module holds the parser alone and loads no numpy: ``main`` imports
the subcommands (:mod:`mkinterp.commands`) once argparse has accepted one.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .exceptions import NotConverged, SingularDesignWarning

# Exception type -> exit code, used by main alone; the first match wins.
# Every library check on outside input raises a ValueError subclass.
_EXIT_CODES = {
    NotConverged: 3,
    SingularDesignWarning: 4,  # the solver's rank warning, raised as an error by cmd_fit
    ValueError: 2,
    KeyError: 2,  # a model document missing a field
    TypeError: 2,  # a model document field of the wrong JSON type
    OverflowError: 2,  # a model document integer too large for a float
    OSError: 2,  # a file that cannot be read or written
    csv.Error: 2,  # a CSV line the csv module cannot split, such as an overlong field
    MemoryError: 2,  # a --grid too large to allocate
}


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

    p_eval = sub.add_parser("eval", help="evaluate a serialized interpolant")
    p_eval.add_argument("interpolant", help="interpolant JSON path")
    p_eval.add_argument("--points", help="CSV of evaluation points (x1,...,xd)")
    p_eval.add_argument("--grid", type=int, help="uniform grid points per dimension")
    p_eval.add_argument("--out", required=True, help="output CSV path")
    p_eval.add_argument("--config", help="flat key = value configuration file")

    p_power = sub.add_parser("power", help="power function report on a grid")
    p_power.add_argument("nodes", help="CSV of data nodes (x1,...,xd[,y])")
    p_power.add_argument("--out", required=True, help="output CSV path")
    p_power.add_argument("--grid", type=int, help="evaluation grid per dimension")
    p_power.add_argument("--fnorm", type=float, help="target norm in the error bound")
    _add_model_flags(p_power)

    p_study = sub.add_parser("study", help="fill-distance convergence study")
    p_study.add_argument("--node-counts", dest="node_counts",
                         help="strictly increasing list, e.g. 4,8,16,32")
    p_study.add_argument("--out", required=True, help="output CSV path")
    p_study.add_argument("--grid", type=int, help="evaluation grid per dimension")
    p_study.add_argument("--tol", type=float, help="solver residual tolerance")
    _add_model_flags(p_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import commands  # numpy and the package load only past the parser
    try:
        return getattr(commands, f"cmd_{args.command}")(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
