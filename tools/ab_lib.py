"""Paired timing of one benchmark workload's library steps in two mkinterp source trees.

    python3 tools/ab_lib.py PARENT_SRC CHANGE_SRC --workload power_bound --seed 11 --rounds 30

Each tree's package is loaded in this one process under its own name
(``ab_parent``, ``ab_change``), and ``bench/workloads.py`` once per tree,
imported unmodified while ``mkinterp`` names that tree's package.  Each
tree gets the seeded inputs in its own temporary directory, and its own CLI
runs the workload's prerequisite fits there.  Every round then runs the
library steps (``Workload.lib_steps``) once per tree, alternating which
tree goes first, and times each pass with ``perf_counter``; the results are
checked after the round.  One untimed pass per tree first imports what the
steps import.  ``--smoke`` takes the benchmark's reduced sizes.

It prints, per tree, the median and quartiles of the round totals and each
step's median, then the median and quartiles of the paired ratio
change / parent and the number of rounds in which the change was faster,
for the totals and, below them, for each step, so that a gain confined to
one step shows.
A drift of the machine's speed reaches both sides of a pair, so a gain far
below the benchmark's spread (about 10%, see ``bench/README.md``) shows.
Exits 0, or 1 when a step's outcome is ``failed`` or differs between trees;
an exception in a step or a check ends the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LABELS = ("parent", "change")


def _load(name: str, path: Path, package_dir: Path | None = None):
    """Execute the file at ``path`` as the module ``name``, dropping any earlier
    module of that name and its submodules."""
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(label: str, src: Path):
    """The benchmark's workloads module as ``ab_<label>_workloads``, bound to the
    tree's package loaded as ``ab_<label>``."""
    package = _load(f"ab_{label}", src / "mkinterp" / "__init__.py", src / "mkinterp")
    saved = sys.modules.get("mkinterp")
    sys.modules["mkinterp"] = package
    try:
        workloads = _load(f"ab_{label}_workloads", ROOT / "bench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["mkinterp"]
        else:
            sys.modules["mkinterp"] = saved
    return workloads


def set_up(workloads, name, seed, smoke, src: Path, work: Path):
    """The workload's inputs in ``work``, its prerequisite fits run by the tree's
    CLI, and its prepared library steps."""
    sizes = workloads.SMOKE if smoke else workloads.FULL
    workload = workloads.WORKLOADS[name](seed, sizes, work)
    workload.generate()
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_VARS})
    for args, check in workload.prerequisites():
        done = subprocess.run([sys.executable, "-m", "mkinterp.cli", *args], cwd=work, env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if check(done.returncode) != workloads.OK:
            raise RuntimeError(f"{src}: mkinterp {' '.join(args)} exited {done.returncode}\n"
                               f"{done.stderr}")
    workload.prepare()
    return workload.lib_steps()


def timed_pass(steps):
    """``(seconds per step, results)`` of one pass over the steps."""
    seconds, results = [], []
    for step in steps:
        start = perf_counter()
        results.append(step.call())
        seconds.append(perf_counter() - start)
    return seconds, results


def quartiles(values) -> tuple:
    """``(lower quartile, median, upper quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def paired(parent, change) -> str:
    """Median and quartiles of the paired ratios change / parent, and the rounds in which
    the change was faster."""
    ratios = [b / a for a, b in zip(parent, change)]
    q1, q2, q3 = quartiles(ratios)
    wins = sum(ratio < 1.0 for ratio in ratios)
    return (f"median {q2:.3f}, quartiles {q1:.3f}-{q3:.3f}; "
            f"the change was faster in {wins} of {len(ratios)} rounds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's reduced sizes")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in trees:
        if not (src / "mkinterp" / "cli.py").is_file():
            parser.error(f"no mkinterp sources under {src}")
    loaded = [load_tree(label, src) for label, src in zip(LABELS, trees)]
    if args.workload not in loaded[0].WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(loaded[0].WORKLOADS)}")

    with tempfile.TemporaryDirectory() as tmp:
        steps = []
        for label, src, workloads in zip(LABELS, trees, loaded):
            (Path(tmp) / label).mkdir()
            steps.append(set_up(workloads, args.workload, args.seed, args.smoke, src,
                                Path(tmp) / label))
            timed_pass(steps[-1])
        per_step = [[[] for _ in side] for side in steps]
        outcomes = [Counter(), Counter()]
        for number in range(args.rounds):
            order = (0, 1) if number % 2 == 0 else (1, 0)
            for side in order:
                seconds, results = timed_pass(steps[side])
                for times, took in zip(per_step[side], seconds):
                    times.append(took)
                for step, result in zip(steps[side], results):
                    outcomes[side][(step.name, step.check(result))] += 1

    totals = [[sum(round_) for round_ in zip(*side)] for side in per_step]
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds"
          f"{' (smoke sizes)' if args.smoke else ''}, library steps: "
          + ", ".join(step.name for step in steps[0]))
    for label, side, total in zip(LABELS, per_step, totals):
        q1, q2, q3 = quartiles(total)
        print(f"{label:>8}  median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s;  "
              + ", ".join(f"{step.name} {statistics.median(times):.4f} s"
                          for step, times in zip(steps[0], side)))
    print(f"change / parent  {paired(*totals)}")
    for step, parent, change in zip(steps[0], *per_step):
        print(f"  {step.name}  {paired(parent, change)}")
    for label, counts in zip(LABELS, outcomes):
        print(f"{label:>8}  outcomes "
              + json.dumps({f"{name}: {kind}": count for (name, kind), count in counts.items()}))
    failed = any(kind == loaded[0].FAILED for counts in outcomes for _, kind in counts)
    return 1 if failed or outcomes[0] != outcomes[1] else 0


if __name__ == "__main__":
    # one BLAS thread and one CPU, as the benchmark runs; set before numpy loads
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as err:
        print(f"warning: running unpinned: {err}", file=sys.stderr)
    sys.exit(main())
