#!/usr/bin/env python3
"""Benchmark of the mkinterp command-line tool and library.

Run from the root of a checkout:

    python3 bench/run.py --workload eval_grid --seed 1 --seconds 30 --trace 0

Workloads: eval_grid, fit_large, power_bound (see README.md here). One
client runs a closed loop: each command waits for the previous one.

``--trace 0`` times the workload's CLI commands, one fresh
``python -m mkinterp.cli`` process each, and the same work through the
library API in this process, round after round for ``--seconds``. It
reports the end-to-end metrics: ``cli_s``, ``lib_s``, ``setup_s``,
``peak_rss_mb`` and ``ok_ratio``. Every time is scaled by a speed probe
run on the same CPU after each step (see speed.py).

``--trace 1`` reports the per-layer metrics instead: it adds a cProfile
pass for exact call counts and, in each round, a pass of the library work
with spans around the public calls of each module.

Every output is checked. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (environment stamp, samples, spans) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# One BLAS thread: the plain single-threaded baseline, the same for this
# process and every CLI child.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
IMPORT_PROBE = [sys.executable, "-c", "import mkinterp.cli"]

END_TO_END_UNITS = {
    "cli_s": "s",
    "lib_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "1",
}
PER_LAYER_UNITS = {
    "features.calls": "count",
    "features.points_per_s": "1/s",
    "tensors.gram_s": "s",
    "tensors.rank_svds": "count",
    "solver.solve_s": "s",
    "solver.iterations": "count",
    "solver.iter_s": "s",
    "solver.converged_ratio": "1",
    "interpolant.evaluate_many_s": "s",
    "interpolant.from_json_s": "s",
    "interpolant.to_json_s": "s",
    "power.pm_point_s.p50": "s",
    "power.pm_point_s.p95": "s",
    "power.p2_point_s.p50": "s",
    "power.p2_point_s.p95": "s",
    "power.study_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """A prerequisite of the timed work failed; the run cannot continue."""


class Launcher:
    """The small process (bench/launcher.py) that starts every CLI command."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def cli(self, args, cwd) -> dict:
        return self.run([sys.executable, "-m", "mkinterp.cli", *args], cwd)

    def close(self):
        """Close stdin and wait: the launcher exits once its command ends,
        and it kills a command that outlives its timeout."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Outcomes of every checked operation in the run."""

    def __init__(self):
        self.counts = {"ok": 0, "unsolved": 0, "failed": 0}
        self.failures = []

    def add(self, name, outcome, detail=""):
        self.counts[outcome] += 1
        if outcome == "failed":
            self.failures.append({"step": name, "detail": detail[-2000:]})

    @property
    def attempted(self):
        return sum(self.counts.values())


def checked(check, value):
    """Run a check; a check that raises counts as a failed operation."""
    try:
        return check(value), ""
    except Exception:  # the run goes on and reports the failure
        return "failed", traceback.format_exc()


class StepTimes:
    """Per step name: wall times and wall times scaled by the speed probe."""

    def __init__(self, probe):
        self.probe = probe
        self.wall = {}
        self.scaled = {}

    def add(self, name, wall):
        self.wall.setdefault(name, []).append(wall)
        self.scaled.setdefault(name, []).append(self.probe.scale(wall))

    def last_scale(self) -> float:
        """Scaled over wall time, summed over the latest sample of each step."""
        return (sum(v[-1] for v in self.scaled.values())
                / sum(v[-1] for v in self.wall.values()))

    def total(self) -> float:
        """Sum over steps of each step's median scaled time."""
        return sum(statistics.median(v) for v in self.scaled.values())

    def record(self):
        return {"wall": self.wall, "scaled": self.scaled}


def cli_pass(launcher, workload, steps, times, tally):
    peak_kb = 0
    for step in steps:
        reply = launcher.cli(step.args, workload.work)
        times.add(step.name, reply["wall_s"])
        peak_kb = max(peak_kb, reply["maxrss_kb"])
        outcome, detail = checked(step.check, reply["exit"])
        tally.add("cli: " + step.name, outcome, detail or reply["stderr"])
    return peak_kb


def lib_pass(steps, times, tally, tracer=None):
    """Time each library step; check the results after the last one."""
    results = []
    with tracer.installed() if tracer else nullcontext():
        for step in steps:
            start = perf_counter()
            try:
                result = step.call()
            except Exception as err:  # reported as a failed operation
                result = err
            times.add(step.name, perf_counter() - start)
            results.append(result)
    for step, result in zip(steps, results):
        outcome, detail = checked(step.check, result)
        tally.add("lib: " + step.name, outcome, detail)


def set_up(workload, launcher) -> float:
    """Inputs, prerequisite fits and one CLI start; returns the wall time."""
    start = perf_counter()
    workload.generate()
    replies = [(args, launcher.cli(args, workload.work), check)
               for args, check in workload.prerequisites()]
    help_reply = launcher.cli(["--help"], workload.work)
    workload.prepare()
    elapsed = perf_counter() - start
    for args, reply, check in replies:
        outcome, detail = checked(check, reply["exit"])
        if outcome != "ok":
            raise SetupError(f"mkinterp {' '.join(args)}: {outcome} (exit {reply['exit']})\n"
                             f"{detail}{reply['stderr']}")
    if help_reply["exit"] != 0:
        raise SetupError("the CLI does not start:\n" + help_reply["stderr"])
    return elapsed


def rounds(seconds):
    """Yield round numbers while the next round should end within `seconds`."""
    start = perf_counter()
    number = 0
    while True:
        round_start = perf_counter()
        yield number
        number += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def measure(workload, launcher, probe, seconds, tally):
    """End-to-end metrics: set-up, then CLI and library rounds for `seconds`."""
    setup = StepTimes(probe)
    for _ in range(SETUP_REPS):
        setup.add("setup", set_up(workload, launcher))
    cli_steps, lib_steps = workload.cli_steps(), workload.lib_steps()
    cli, lib = StepTimes(probe), StepTimes(probe)
    peak_kb = 0
    for _ in rounds(seconds):
        peak_kb = max(peak_kb, cli_pass(launcher, workload, cli_steps, cli, tally))
        lib_pass(lib_steps, lib, tally)
    metrics = {
        "cli_s": cli.total(),
        "lib_s": lib.total(),
        "setup_s": setup.total(),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ratio": tally.counts["ok"] / tally.attempted,
    }
    samples = {"setup": setup.record(), "cli": cli.record(), "lib": lib.record()}
    return metrics, samples, {}


def measure_layers(workload, launcher, probe, seconds, tally, order):
    """Per-layer metrics: a count pass, then untraced and traced rounds."""
    import tracing

    set_up(workload, launcher)
    cli_steps, lib_steps = workload.cli_steps(), workload.lib_steps()
    start = perf_counter()
    results = []
    counts = tracing.count_calls(lambda: results.extend(s.call() for s in lib_steps))
    for step, result in zip(lib_steps, results):
        outcome, detail = checked(step.check, result)
        tally.add("count pass: " + step.name, outcome, detail)

    cli, lib, traced, imports = (StepTimes(probe) for _ in range(4))
    layers = []
    tracer = None
    for number in rounds(seconds - (perf_counter() - start)):
        cli_pass(launcher, workload, cli_steps, cli, tally)
        lib_pass(lib_steps, lib, tally)
        tracer = tracing.Tracer(f"{workload.name}:{workload.seed}:{number}")
        lib_pass(lib_steps, traced, tally, tracer)
        layers.append(tracing.layer_metrics(tracer, order, traced.last_scale()))
        imports.add("import", launcher.run(IMPORT_PROBE, workload.work)["wall_s"])

    metrics = {"features.calls": counts["features.calls"],
               "tensors.rank_svds": counts["tensors.rank_svds"]}
    for key in layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["cli.import_s"] = len(cli_steps) * imports.total()
    metrics["cli.overhead_s"] = cli.total() - lib.total()
    metrics["trace.overhead_s"] = traced.total() - lib.total()
    metrics = {key: metrics[key] for key in PER_LAYER_UNITS}
    samples = {"cli": cli.record(), "lib": lib.record(), "traced_lib": traced.record(),
               "import_probe": imports.record(), "layers": layers}
    trace = {"spans": tracer.span_records(), "span_totals": tracer.totals_by_name(),
             "features": tracer.features, "missing_targets": tracer.missing}
    return metrics, samples, trace


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mkinterp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, np, study_seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seeds": {"workload": args.seed, "study": study_seed},
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["eval_grid", "fit_large", "power_bound"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mkinterp" / "cli.py").is_file():
        print(f"error: no mkinterp sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The loop is sequential, so one CPU loses nothing; sharing it keeps the
    # speed probe on the CPU where the CLI children and library calls run.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as err:
        print(f"warning: running unpinned: {err}", file=sys.stderr)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    # The launcher starts before numpy is imported so that it stays small,
    # and numpy is imported only after the BLAS thread setting is in place.
    launcher = Launcher()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        import numpy as np

        import speed
        import workloads

        work.mkdir(parents=True, exist_ok=True)
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, work)
        tally = Tally()
        probe = speed.SpeedProbe()
        if args.trace:
            metrics, samples, trace = measure_layers(workload, launcher, probe, args.seconds,
                                                     tally, workloads.ORDER)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, trace = measure(workload, launcher, probe, args.seconds, tally)
            units = END_TO_END_UNITS
        samples["probe_s"] = probe.samples
        env = stamp(args, np, workloads.STUDY_SEED)
    except SetupError as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    record = {"stamp": env, "metrics": metrics, "outcomes": tally.counts,
              "failures": tally.failures, "samples": samples, **trace}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for failure in tally.failures:
        print(f"FAILED {failure['step']}\n{failure['detail']}", file=sys.stderr)
    for kind, times in samples.items():
        if isinstance(times, dict) and "scaled" in times:
            for step, walls in times["wall"].items():
                print(f"{kind:>12}  {step:<28} median wall {statistics.median(walls):.4f} s,"
                      f" scaled {statistics.median(times['scaled'][step]):.4f} s"
                      f"  ({len(walls)} samples)")
    print(f"speed probe  median {statistics.median(probe.samples):.4f} s"
          f"  ({len(probe.samples)} samples)")
    print("outcomes " + json.dumps(tally.counts))
    print("stamp " + json.dumps(env))
    print("record " + str(out_file.relative_to(ROOT)))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
