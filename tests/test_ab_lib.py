import importlib.util
import sys
from pathlib import Path

import pytest

import mkinterp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "ab_lib.py"
spec = importlib.util.spec_from_file_location("ab_lib", TOOL)
ab_lib = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_lib)


def test_a_tree_against_itself_at_smoke_sizes(capsys):
    argv = [str(SRC), str(SRC), "--workload", "power_bound", "--seed", "1", "--rounds", "2",
            "--smoke"]
    assert ab_lib.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("power_bound seed 1, 2 rounds (smoke sizes), library steps: "
                        "power_report, convergence_study")
    assert lines[1].startswith("  parent  median ") and lines[2].startswith("  change  median ")
    assert lines[3].startswith("change / parent  median ")
    assert lines[3].endswith("of 2 rounds")
    outcomes = '{"power_report: ok": 2, "convergence_study: ok": 2}'
    assert lines[4:] == [f"  parent  outcomes {outcomes}", f"  change  outcomes {outcomes}"]
    # the trees were loaded under their own names; the test's package is untouched
    assert sys.modules["mkinterp"] is mkinterp
    assert sys.modules["ab_parent"].__file__ == str(SRC / "mkinterp" / "__init__.py")
    assert sys.modules["ab_parent_workloads"].mk is sys.modules["ab_parent"]
    assert sys.modules["ab_change_workloads"].mk is sys.modules["ab_change"]


@pytest.mark.parametrize("argv, message", [
    (["--workload", "power_bond", "--seed", "1"], "unknown workload 'power_bond'"),
    (["--workload", "power_bound", "--seed", "1", "--rounds", "0"], "--rounds must be at least 1"),
])
def test_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        ab_lib.main([str(SRC), str(SRC), *argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
