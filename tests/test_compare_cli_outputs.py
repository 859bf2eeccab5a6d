import contextlib
import importlib.util
import io
import os
import py_compile
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC, TOOL = ROOT / "src", ROOT / "tools" / "compare_cli_outputs.py"
spec = importlib.util.spec_from_file_location("compare_cli_outputs", TOOL)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def run_dir(root, name, files):
    work = root / name
    work.mkdir()
    for rel, data in files.items():
        (work / rel).write_bytes(data)
    return work


def test_identical_runs_report_nothing(tmp_path):
    steps = [(["fit", "a.csv"], 0, "")]
    a = run_dir(tmp_path, "a", {"m.json": b"{}"})
    b = run_dir(tmp_path, "b", {"m.json": b"{}"})
    assert compare.differences("w", (steps, a), (steps, b)) == []


def test_every_kind_of_difference_is_named(tmp_path):
    a = run_dir(tmp_path, "a", {"m.json": b"{}", "old.csv": b"x"})
    b = run_dir(tmp_path, "b", {"m.json": b"{ }", "new.csv": b"x"})
    found = compare.differences("w", ([(["fit"], 0, "")], a), ([(["fit"], 3, "error: x\n")], b))
    assert found[0] == "w: mkinterp fit: exit 0 -> 3"
    assert found[1].startswith("w: mkinterp fit: stderr differs")
    assert found[2:] == ["w: new.csv only in the change", "w: old.csv only in the parent",
                         "w: m.json differs"]


def test_help_text_differences_are_named(tmp_path):
    a, b = run_dir(tmp_path, "a", {}), run_dir(tmp_path, "b", {})
    parent = [(["--help"], 0, "", "usage: mkinterp\n"), (["study"], 2, "usage: x\n", "")]
    change = [(["--help"], 0, "", "usage: mkinterp \n"), (["study"], 2, "usage: y\n", "")]
    assert compare.differences("w", (parent, a), (change, b)) == [
        "w: mkinterp --help: stdout differs\n  parent: 'usage: mkinterp\\n'\n"
        "  change: 'usage: mkinterp \\n'",
        "w: mkinterp study: stderr differs\n  parent: 'usage: x\\n'\n  change: 'usage: y\\n'"]
    assert ["--help"] in compare.USAGE and ["fit", "--help"] in compare.USAGE


@pytest.fixture
def ran(monkeypatch):
    """The ``(group, tree)`` of each ``fixed_steps`` and ``run_steps`` call, which run nothing."""
    calls = []
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(compare, "fixed_steps", lambda src, work: calls.append(("cli", src)) or [])
    monkeypatch.setattr(compare, "run_steps", lambda workloads, name, seed, src, work:
                        calls.append((name, src)) or [])
    return calls


def test_workload_option_picks_the_workloads_in_order(ran, capsys):
    argv = [str(SRC), str(SRC), "--seed", "3", "--workload", "power_bound",
            "--workload", "eval_grid", "--workload", "power_bound"]
    assert compare.main(argv) == 0
    groups = ["cli", "power_bound", "eval_grid"]
    assert ran == [(name, SRC) for name in groups for _ in range(2)]
    assert capsys.readouterr().out.splitlines() == [f"{name}: 0 steps, 0 files, identical"
                                                    for name in groups]


@pytest.mark.parametrize("names", [[], ["fit_large"], ["eval_grid", "fit_large", "power_bound"]])
def test_fixed_cases_run_once_per_tree_whatever_the_workloads(ran, names):
    argv = [str(SRC), str(SRC), "--seed", "3"] + [f"--workload={name}" for name in names]
    assert compare.main(argv) == 0
    assert [name for name, _ in ran].count("cli") == 2


@pytest.fixture(scope="module")
def fixed_run():
    """The parent's ``cli`` steps and files, and the lines printed, of one stubbed ``main``."""
    seen, differences, out = {}, compare.differences, io.StringIO()

    def keep(name, parent, change):  # each step and output file of the parent's run
        seen[name] = parent[0], {p.name: p.read_bytes() for p in parent[1].iterdir()}
        return differences(name, parent, change)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(sys, "path", list(sys.path))
        patch.setattr(compare, "run_steps", lambda *args: [])
        patch.setattr(compare, "differences", keep)
        assert compare.main([str(SRC), str(SRC), "--seed", "3", "--workload", "eval_grid"]) == 0
    return (*seen["cli"], out.getvalue().splitlines())


INVOCATIONS = compare.USAGE + [args for *_, args in compare.MALFORMED]


def test_peak_rss_of_each_step_is_printed(fixed_run):
    _, files, lines = fixed_run
    assert lines[0] == f"cli: {len(INVOCATIONS)} steps, {len(files)} files, identical"
    assert lines[1 + len(INVOCATIONS):] == ["eval_grid: 0 steps, 0 files, identical"]
    for line, args in zip(lines[1:], INVOCATIONS):
        rss = re.fullmatch(re.escape(f"cli: mkinterp {' '.join(args)}: peak RSS ")
                           + r"(\d+\.\d\d) -> (\d+\.\d\d) MiB", line)
        assert rss and all(1.0 < float(mib) < 1024.0 for mib in rss.groups()), line


def test_malformed_inputs_of_a_tree_match_its_own(fixed_run):
    steps, files, lines = fixed_run
    assert [args for args, *_ in steps] == INVOCATIONS
    assert lines[0].endswith(", identical")  # and main returned 0
    assert [code for _, code, *_ in steps[:len(compare.USAGE)]] == [0] * 5 + [2] * 4
    # keyed by the file an invocation reads, else by its subcommand
    codes = {name or args[0]: (code, err) for (name, _, args), (_, code, err, *_)
             in zip(compare.MALFORMED, steps[len(compare.USAGE):])}
    assert codes["m_good.csv"] == codes["m_quoted.csv"] == (0, "")
    assert codes["m_late.csv"] == (2, "error: m_late.csv:2050: expected 1 fields\n")
    assert codes["m_nan.csv"] == (2, "error: m_nan.csv:3: non-finite field\n")
    assert codes["m_overlong.csv"][0] == codes["m_utf8.csv"][0] == 2
    assert codes["m_close.json"] == (2, "error: nodes 0 and 1 coincide\n")
    assert codes["m_nan_node.json"] == (2, "error: nodes and values must be finite\n")
    assert codes["m_dup.csv"] == (2, "error: duplicate points at rows 2 and 4\n")
    assert codes["m_custom.json"] == codes["m_custom.csv"] == (5, "")
    assert codes["m_custom_nan.json"] == (2, "error: table points and features must be finite\n")
    assert codes["m_overflow.json"] == (2, "error: interpolant overflows at point [1.0]\n")
    code, err = codes["study"]
    assert code == 3 and err.startswith("error: solver stopped (stalled) at residual ")
    assert err.endswith(" after 8 iterations\n")
    assert not {"m_overflow_v.csv", "m_stall.csv", "m_custom_nan_v.csv"} & set(files)
    assert files["m_custom_grid.csv"].decode().splitlines()[1:] == [
        "-1.0,,untabulated", "0.0,3.375,", "1.0,,untabulated"]
    rows = files["m_custom_v.csv"].decode().splitlines()
    assert rows[0] == "x1,s,flag"
    assert [row.split(",")[2] for row in rows[1:]] == ["", "untabulated", "outside_domain"]
    assert float(rows[1].split(",")[1]) > 0


def test_steps_read_no_bytecode_from_the_tree(tmp_path):
    # the tree's __pycache__ holds a cli.pyc that passes the timestamp check
    # against cli.py (same size and mtime) but prints something else
    package = tmp_path / "src" / "mkinterp"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    cli, stamp = package / "cli.py", (1_000_000_000, 1_000_000_000)
    cli.write_text('print("cached")\n')
    os.utime(cli, stamp)
    cached = package / "__pycache__" / f"cli.{sys.implementation.cache_tag}.pyc"
    py_compile.compile(str(cli), cfile=str(cached), doraise=True,
                       invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    cli.write_text('print("source")\n')
    os.utime(cli, stamp)
    work = tmp_path / "work"
    work.mkdir()
    [(_, code, _, stdout, _)] = compare.run([[]], tmp_path / "src", work)
    assert (code, stdout) == (0, "source\n")


def test_every_workload_by_default(ran):
    assert compare.main([str(SRC), str(SRC), "--seed", "3"]) == 0
    assert [name for name, _ in ran[::2]] == ["cli", "eval_grid", "fit_large", "power_bound"]


def test_unknown_workload_is_a_usage_error(ran, capsys):
    with pytest.raises(SystemExit) as exit_info:
        compare.main([str(SRC), str(SRC), "--seed", "3", "--workload", "eval_gird"])
    assert exit_info.value.code == 2
    assert "unknown workload 'eval_gird'" in capsys.readouterr().err
    assert ran == []


def test_csv_values_differ_per_column(tmp_path):
    steps = [(["study"], 0, "")]
    a = run_dir(tmp_path, "a", {"study.csv": b"n,h,max_bound,flag\n4,0.5,2.0,\n8,0.25,1e-3,x\n"})
    b = run_dir(tmp_path, "b", {"study.csv": b"n,h,max_bound,flag\n4,0.5,2.5,\n8,0.25,1e-3,y\n"})
    assert compare.differences("w", (steps, a), (steps, b)) == [
        "w: study.csv differs: max_bound ≤ 0.2 relative, 0.5 absolute; flag differs; "
        "n, h identical"]


def test_csv_values_near_zero_give_both_differences(tmp_path):
    steps = [(["eval"], 0, "")]
    a = run_dir(tmp_path, "a", {"v.csv": b"x1,s\n0,1e-3\n1,2.0\n2,-0.0\n"})
    b = run_dir(tmp_path, "b", {"v.csv": b"x1,s\n0,1.0000000000013e-3\n1,2.0\n2,0.0\n"})
    assert compare.differences("w", (steps, a), (steps, b)) == [
        "w: v.csv differs: s ≤ 1.3e-12 relative, 1.3e-15 absolute; x1 identical"]


@pytest.mark.parametrize("change", [b"n,s\n4,1\n", b"n,h\n4,1\n8,2\n", b"n,h\n4\n", b""])
def test_csv_of_another_shape_only_differs(tmp_path, change):
    steps = [(["study"], 0, "")]
    a = run_dir(tmp_path, "a", {"s.csv": b"n,h\n4,2\n"})
    b = run_dir(tmp_path, "b", {"s.csv": change})
    assert compare.differences("w", (steps, a), (steps, b)) == ["w: s.csv differs"]


def test_json_values_differ_per_key(tmp_path):
    steps = [(["fit"], 0, "")]
    a = run_dir(tmp_path, "a", {"fit4.json.report.json": (
        b'{"converged": true, "stop_reason": "converged", "residual_norm": 2e-14,'
        b' "iterations": 6, "domain": {"lower": [-1.0, 0.0]}, "c": [1.0, 2.0, 3.0]}')})
    b = run_dir(tmp_path, "b", {"fit4.json.report.json": (
        b'{"converged": true, "stop_reason": "stalled", "residual_norm": 2.5e-14,'
        b' "iterations": 6, "domain": {"lower": [-1.0, 0.0]}, "c": [1.0, 2.5, 3.5]}')})
    assert compare.differences("w", (steps, a), (steps, b)) == [
        "w: fit4.json.report.json differs: stop_reason differs; "
        "residual_norm ≤ 0.2 relative, 5e-15 absolute; c ≤ 0.2 relative, 0.5 absolute; "
        "converged, iterations, domain.lower identical"]


@pytest.mark.parametrize("change", [b'{"n": 4, "h": 1}', b'{"n": [4, 5]}', b'{"n": {"a": 4}}',
                                    b'[4]', b'{"n": 4', b'\xff'])
def test_json_of_another_shape_only_differs(tmp_path, change):
    steps = [(["fit"], 0, "")]
    a = run_dir(tmp_path, "a", {"m.json": b'{"n": 4}'})
    b = run_dir(tmp_path, "b", {"m.json": change})
    assert compare.differences("w", (steps, a), (steps, b)) == ["w: m.json differs"]
