#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Runs every workload in BENCHMARK.json once at reduced sizes, with
``--trace 0`` and ``--trace 1``, and checks that the result line names
every metric of BENCHMARK.json with its unit and that no operation failed.
Run from the root of a checkout:

    python3 bench/smoke.py

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"outcome correct={result.get('correct')} failed={result.get('failed')}")
    printed = result.get("metrics", {})
    for metric in metrics:
        entry = printed.get(metric["name"])
        if entry is None:
            problems.append(f"missing metric {metric['name']}")
        elif entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {metric['name']}: {entry}")
    extra = set(printed) - {m["name"] for m in metrics}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, workload["name"], trace)
            status = "ok" if not problems else "FAILED"
            print(f"{workload['name']:<12} trace={trace}  {status}")
            for problem in problems:
                print("    " + problem)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
