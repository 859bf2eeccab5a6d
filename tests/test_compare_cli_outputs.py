import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_cli_outputs.py"
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
    """The ``(workload, tree)`` of each ``run_steps`` call, which runs nothing."""
    calls = []
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(compare, "run_steps", lambda workloads, name, seed, src, work:
                        calls.append((name, src)) or [])
    return calls


def test_workload_option_picks_the_workloads_in_order(ran, capsys):
    src = ROOT / "src"
    argv = [str(src), str(src), "--seed", "3", "--workload", "power_bound",
            "--workload", "eval_grid", "--workload", "power_bound"]
    assert compare.main(argv) == 0
    assert ran == [("power_bound", src), ("power_bound", src), ("eval_grid", src),
                   ("eval_grid", src)]
    assert capsys.readouterr().out.splitlines() == ["power_bound: 0 steps, 0 files, identical",
                                                    "eval_grid: 0 steps, 0 files, identical"]


def test_every_workload_by_default(ran):
    src = ROOT / "src"
    assert compare.main([str(src), str(src), "--seed", "3"]) == 0
    assert [name for name, _ in ran[::2]] == ["eval_grid", "fit_large", "power_bound"]


def test_unknown_workload_is_a_usage_error(ran, capsys):
    src = ROOT / "src"
    with pytest.raises(SystemExit) as exit_info:
        compare.main([str(src), str(src), "--seed", "3", "--workload", "eval_gird"])
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
