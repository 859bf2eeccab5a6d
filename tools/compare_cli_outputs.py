"""Compare the CLI outputs of two mkinterp source trees on the benchmark workloads.

    python3 tools/compare_cli_outputs.py PARENT_SRC CHANGE_SRC --seed 3 [--workload NAME ...]

It runs ``USAGE`` (help texts and usage errors) and ``MALFORMED`` (odd or
bad inputs, an overflow and a stalled study) once per tree, as the group
``cli``; then, for each workload of ``bench/workloads.py`` (imported, never
modified) or each one named by a repeatable ``--workload`` option, it writes
the seeded inputs and runs every prerequisite and CLI step.  Each group runs
in one temporary directory per tree, each step as ``python -m mkinterp.cli``
with the tree on ``PYTHONPATH``, and the two directories are compared file
by file, with the exit code, stderr and stdout of each step, in one line
such as ``cli: 22 steps, 18 files, identical``.  Paths of the tree and of
the directory are masked in stderr and stdout.  It prints every difference and exits
0 only if everything is identical, 1 otherwise.  A CSV that differs in
values only (same header, same row count) is summarised per column: the
largest relative and absolute differences of each numeric column that
differs, and the names of the identical columns.  A JSON file whose two
documents have the same shape is summarised the same way per key, the
items of a list sharing the key of the list.  It also prints each step's
peak RSS in both trees, which does not change the exit status: a small
launcher process (this script, run with ``--serve``) starts the steps and
reads each one's ``ru_maxrss`` with ``os.wait4``, so no step inherits the
resident set of this process, which has loaded numpy; a step still reads
at least the launcher's own, about 15 MiB.  Each tree's launcher and steps
get their own empty ``PYTHONPYCACHEPREFIX``, so neither tree reads bytecode
from a ``__pycache__``: a tree with fresh bytecode would otherwise show a
lower peak RSS on every step than a copied tree without.
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
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Invocations that end inside argparse: the help texts and one usage error per subcommand.
USAGE = [["--help"], *([command, "--help"] for command in ("fit", "eval", "power", "study")),
         ["fit", "--out", "m.json"], ["eval", "--out", "v.csv"], ["power", "--out", "p.csv"],
         ["study"]]


def _model_file(nodes: bytes, coefficients: bytes = b"[1.0, 1.0]") -> bytes:
    """A 1-d ``power`` model file of two nodes, ``nodes`` and ``coefficients`` its JSON members."""
    return (b'{"family": "power", "domain": {"lower": [-1.0], "upper": [1.0]}, "truncation": 2, '
            b'"weights": [1.0, 1.0], "order": 4, "nodes": ' + nodes
            + b', "values": [1.0, 2.0], "coefficients": ' + coefficients + b'}')


# A hand-written 1-d model whose custom table holds the nodes 0 and 0.5.
CUSTOM_MODEL = (b'{"family": "custom", "domain": {"lower": [-1.0], "upper": [1.0]}, '
                b'"truncation": 2, "weights": [1.0, 2.0], "order": 4, '
                b'"nodes": [[0.0], [0.5]], "values": [1.0, 2.0], "coefficients": [1.0, 0.5], '
                b'"table_points": [[0.0], [0.5]], "table_features": [[1.0, 0.0], [1.0, 0.5]]}')

# (file, bytes, invocation): each file is written into the ``cli`` group's
# directory and read by its invocation (None: the invocation reads no file).
# The first gives `eval` a model, and so does `m_custom.json` (the CLI's one
# route into a custom table).
MALFORMED = [
    ("m_good.csv", b"x1,y\n0,1\n0.5,2\n", ["fit", "m_good.csv", "--out", "m_good.json"]),
    ("m_quoted.csv", b'x1,y\n"0",1\n0.5,"2"\n', ["fit", "m_quoted.csv", "--out", "m_quoted.json"]),
    ("m_late.csv", b"x1\n" + b"0.5\n" * 2048 + b"0.25,\n",
     ["eval", "m_good.json", "--points", "m_late.csv", "--out", "m_late_v.csv"]),
    ("m_nan.csv", b"x1,y\n0,1\n0.5,nan\n", ["fit", "m_nan.csv", "--out", "m_nan.json"]),
    ("m_overlong.csv", b"x1\n0.5\n" + b"0" * csv.field_size_limit() + b"1\n",
     ["eval", "m_good.json", "--points", "m_overlong.csv", "--out", "m_overlong_v.csv"]),
    ("m_utf8.csv", b"x1,y\n0,1\n0.\xff5,2\n", ["fit", "m_utf8.csv", "--out", "m_utf8.json"]),
    ("m_close.json", _model_file(b"[[0.0], [1e-13]]"),
     ["eval", "m_close.json", "--grid", "3", "--out", "m_close_v.csv"]),
    ("m_nan_node.json", _model_file(b"[[0.0], [NaN]]"),
     ["eval", "m_nan_node.json", "--grid", "3", "--out", "m_nan_node_v.csv"]),
    ("m_dup.csv", b"x1,y\n0,1\n0.5,2\n0,3\n", ["fit", "m_dup.csv", "--out", "m_dup.json"]),
    ("m_custom.json", CUSTOM_MODEL,
     ["eval", "m_custom.json", "--grid", "3", "--out", "m_custom_grid.csv"]),
    # tabulated, untabulated and outside the domain
    ("m_custom.csv", b"x1\n0.5\n0.25\n2\n",
     ["eval", "m_custom.json", "--points", "m_custom.csv", "--out", "m_custom_v.csv"]),
    # t = V^T c = (5e102, 5e102): alpha = t^3 is finite, but s(1) = 2.5e308 is not
    ("m_overflow.json", _model_file(b"[[0.0], [0.5]]", b"[-5e102, 1e103]"),
     ["eval", "m_overflow.json", "--grid", "3", "--out", "m_overflow_v.csv"]),
    # the first row's fit stalls at the rounding floor: exit 3
    (None, None, ["study", "--node-counts", "4,8", "--kernel", "trig", "--truncation", "9",
                  "--order", "4", "--grid", "11", "--tol", "1e-300", "--out", "m_stall.csv"]),
]


def fixed_steps(src: Path, work: Path) -> list:
    """:func:`run` of ``USAGE`` and ``MALFORMED`` in ``work``, which they alone write."""
    for name, data, _ in MALFORMED:
        if name:
            (work / name).write_bytes(data)
    return run(USAGE + [args for _, _, args in MALFORMED], src, work)


def run_steps(workloads, name, seed, src: Path, work: Path) -> list:
    """:func:`run` of each prerequisite and CLI step of a workload in ``work``."""
    workload = workloads.WORKLOADS[name](seed, workloads.FULL, work)
    workload.generate()
    steps = [args for args, _ in workload.prerequisites()]
    return run(steps + [step.args for step in workload.cli_steps()], src, work)


def run(steps, src: Path, work: Path) -> list:
    """``(args, exit code, stderr, stdout, peak RSS in KiB)`` of each invocation,
    run in ``work`` with ``src`` on ``PYTHONPATH`` by one launcher process, with
    an empty bytecode cache of their own."""
    results = []
    with tempfile.TemporaryDirectory() as cache, subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"], cwd=work,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache,
                     **{var: "1" for var in BLAS_VARS}),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as launcher:
        for args in steps:
            launcher.stdin.write(json.dumps([sys.executable, "-m", "mkinterp.cli", *args]) + "\n")
            launcher.stdin.flush()
            code, stderr, stdout, maxrss_kb = json.loads(launcher.stdout.readline())
            masked = [text.replace(str(src), "<src>").replace(str(work), "<work>")
                      for text in (stderr, stdout)]
            results.append((args, code, *masked, maxrss_kb))
    return results


def serve() -> int:
    """The launcher: for each JSON argv on stdin, run it and answer with one
    JSON line ``[exit code, stderr, stdout, ru_maxrss in KiB]``.  The pipes
    are read on threads, so a full pipe cannot block the child."""
    for line in sys.stdin:
        with subprocess.Popen(json.loads(line), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            texts = {}
            readers = [threading.Thread(target=lambda name=name: texts.update(
                {name: getattr(child, name).read()})) for name in ("stderr", "stdout")]
            for reader in readers:
                reader.start()
            _, status, usage = os.wait4(child.pid, 0)
            for reader in readers:
                reader.join()
            child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([child.returncode, texts["stderr"], texts["stdout"], usage.ru_maxrss]),
              flush=True)
    return 0


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
    """Lines naming each step and file in which two runs of a group differ;
    a step's peak RSS, if given, is not compared."""
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
        for name in ["cli", *names]:
            runs = []
            for label, src in zip(("parent", "change"), trees):
                work = Path(tmp) / f"{name}-{label}"
                work.mkdir()
                runs.append((fixed_steps(src, work) if name == "cli"
                             else run_steps(workloads, name, args.seed, src, work), work))
            diff = differences(name, *runs)
            print(f"{name}: {len(runs[0][0])} steps, "
                  f"{sum(1 for p in runs[0][1].rglob('*') if p.is_file())} files, "
                  f"{'identical' if not diff else f'{len(diff)} differences'}")
            for (step, *_, parent_kb), (*_, change_kb) in zip(runs[0][0], runs[1][0]):
                print(f"{name}: mkinterp {' '.join(step)}: peak RSS "
                      f"{parent_kb / 1024:.2f} -> {change_kb / 1024:.2f} MiB")
            found += diff
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["--serve"] else main())
