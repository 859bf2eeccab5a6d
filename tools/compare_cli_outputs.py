"""Compare the CLI outputs of two mkinterp source trees on the benchmark workloads.

    python3 tools/compare_cli_outputs.py PARENT_SRC CHANGE_SRC --seed 3 [--workload NAME ...]

For each workload of ``bench/workloads.py`` (imported, never modified), or
for each one named by a ``--workload`` option, which may be repeated, the
script writes the seeded inputs into one temporary directory per tree and
runs there, as ``python -m mkinterp.cli`` with that tree on ``PYTHONPATH``,
the invocations of ``USAGE`` (help texts and usage errors), then every
prerequisite and CLI step.  It compares the two directories file by file,
with the exit code, stderr and stdout of each step.  Paths of the tree and of
the directory are masked in stderr and stdout.  It prints every difference and exits
0 only if everything is identical, 1 otherwise.  A CSV that differs in
values only (same header, same row count) is summarised per column: the
largest relative and absolute differences of each numeric column that
differs, and the names of the identical columns.  A JSON file whose two
documents have the same shape is summarised the same way per key, the
items of a list sharing the key of the list.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Invocations that end inside argparse: the help texts and one usage error per subcommand.
USAGE = [["--help"], *([command, "--help"] for command in ("fit", "eval", "power", "study")),
         ["fit", "--out", "m.json"], ["eval", "--out", "v.csv"], ["power", "--out", "p.csv"],
         ["study"]]


def run_steps(workloads, name, seed, src: Path, work: Path) -> list:
    """``(args, exit code, stderr, stdout)`` of ``USAGE`` and each step of a
    workload, run in ``work``."""
    workload = workloads.WORKLOADS[name](seed, workloads.FULL, work)
    workload.generate()
    steps = USAGE + [args for args, _ in workload.prerequisites()]
    steps += [step.args for step in workload.cli_steps()]
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_VARS})
    results = []
    for args in steps:
        done = subprocess.run([sys.executable, "-m", "mkinterp.cli", *args], cwd=work, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        masked = [text.replace(str(src), "<src>").replace(str(work), "<work>")
                  for text in (done.stderr, done.stdout)]
        results.append((args, done.returncode, *masked))
    return results


def _difference(a: str, b: str) -> tuple:
    """``(|a - b| / max(|a|, |b|), |a - b|)`` of two numeric cells; ValueError
    if either is not a finite number."""
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite cell {a!r} or {b!r}")
    gap = abs(x - y)
    return (gap / max(abs(x), abs(y)) if gap else 0.0), gap


def _summary(columns) -> str:
    """``name ≤ r relative, a absolute`` for each ``(name, cell pairs)`` whose cells
    differ (``name differs`` where a cell is not a finite number), then the
    identical names."""
    differ, same = [], []
    for name, cells in columns:
        pairs = [(a, b) for a, b in cells if a != b]
        if not pairs:
            same.append(name)
            continue
        try:
            relative, gap = map(max, zip(*(_difference(a, b) for a, b in pairs)))
            differ.append(f"{name} ≤ {relative:.2g} relative, {gap:.2g} absolute")
        except ValueError:
            differ.append(f"{name} differs")
    return "; ".join(differ + ([", ".join(same) + " identical"] if same else []))


def csv_columns(parent: bytes, change: bytes):
    """Per-column summary of two CSVs with the same header and row count, such
    as ``max_bound ≤ 5.4e-14 relative, 1.1e-16 absolute; n, h identical``; None
    for any other pair."""
    rows_a = list(csv.reader(io.StringIO(parent.decode("utf-8", "replace"))))
    rows_b = list(csv.reader(io.StringIO(change.decode("utf-8", "replace"))))
    if not rows_a or rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return None
    width = len(rows_a[0])
    if any(len(row) != width for row in rows_a + rows_b):
        return None
    return _summary((column, [(a[j], b[j]) for a, b in zip(rows_a[1:], rows_b[1:])])
                    for j, column in enumerate(rows_a[0]))


def _json_leaves(doc, key=""):
    """``(key, JSON text)`` of each scalar of a document: an object's members
    are named ``key.member``, and a list's items share the key of the list."""
    if isinstance(doc, dict):
        for member, value in doc.items():
            yield from _json_leaves(value, f"{key}.{member}" if key else member)
    elif isinstance(doc, list):
        for item in doc:
            yield from _json_leaves(item, key)
    else:
        yield key, json.dumps(doc)


def json_keys(parent: bytes, change: bytes):
    """Per-key summary of two JSON documents of the same shape, such as
    ``residual_norm ≤ 0.31 relative, 1.9e-14 absolute; converged, iterations
    identical``; None for any other pair."""
    try:
        leaves_a = list(_json_leaves(json.loads(parent)))
        leaves_b = list(_json_leaves(json.loads(change)))
    except ValueError:
        return None
    if [key for key, _ in leaves_a] != [key for key, _ in leaves_b]:
        return None
    keys = {}
    for (key, a), (_, b) in zip(leaves_a, leaves_b):
        keys.setdefault(key, []).append((a, b))
    return _summary(keys.items())


def differences(name, parent, change) -> list:
    """Lines naming each step and file in which two runs of a workload differ."""
    (parent_steps, parent_dir), (change_steps, change_dir) = parent, change
    found = []
    for (args, code_a, *texts_a), (_, code_b, *texts_b) in zip(parent_steps, change_steps):
        step = f"{name}: mkinterp {' '.join(args)}"
        if code_a != code_b:
            found.append(f"{step}: exit {code_a} -> {code_b}")
        for stream, a, b in zip(("stderr", "stdout"), texts_a, texts_b):
            if a != b:
                found.append(f"{step}: {stream} differs\n  parent: {a!r}\n  change: {b!r}")
    files_a = {p.relative_to(parent_dir) for p in parent_dir.rglob("*") if p.is_file()}
    files_b = {p.relative_to(change_dir) for p in change_dir.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        found.append(f"{name}: {rel} only in the {'parent' if rel in files_a else 'change'}")
    for rel in sorted(files_a & files_b):
        data_a, data_b = (parent_dir / rel).read_bytes(), (change_dir / rel).read_bytes()
        if data_a != data_b:
            summarise = {".csv": csv_columns, ".json": json_keys}.get(rel.suffix)
            columns = summarise(data_a, data_b) if summarise else None
            found.append(f"{name}: {rel} differs" + (f": {columns}" if columns else ""))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="compare only this workload (repeatable; default: all)")
    args = parser.parse_args(argv)
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in trees:
        if not (src / "mkinterp" / "cli.py").is_file():
            parser.error(f"no mkinterp sources under {src}")
    sys.path[:0] = [str(ROOT / "bench"), str(trees[1])]
    import workloads

    names = list(dict.fromkeys(args.workload or workloads.WORKLOADS))
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            runs = []
            for label, src in zip(("parent", "change"), trees):
                work = Path(tmp) / f"{name}-{label}"
                work.mkdir()
                runs.append((run_steps(workloads, name, args.seed, src, work), work))
            diff = differences(name, *runs)
            print(f"{name}: {len(runs[0][0])} steps, "
                  f"{sum(1 for p in runs[0][1].rglob('*') if p.is_file())} files, "
                  f"{'identical' if not diff else f'{len(diff)} differences'}")
            found += diff
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
