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


# Each workload's library steps, in the order the tool runs and prints them.
STEPS = {
    "eval_grid": ["evaluate 2-d grid", "evaluate 3-d points"],
    "fit_large": ["fit 3-d m=4", "fit 3-d m=6", "fit 3-d m=8", "fit repro m=6"],
    "power_bound": ["power_report", "convergence_study"],
}


@pytest.mark.parametrize("workload", list(STEPS))
def test_a_tree_against_itself_at_smoke_sizes(capsys, workload):
    # every workload, so that each of its library checks runs against the tree
    argv = [str(SRC), str(SRC), "--workload", workload, "--seed", "1", "--rounds", "2",
            "--smoke"]
    assert ab_lib.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{workload} seed 1, 2 rounds (smoke sizes), library steps: "
                        + ", ".join(STEPS[workload]))
    assert lines[1].startswith("  parent  median ") and lines[2].startswith("  change  median ")
    assert lines[3].startswith("change / parent  median ")
    assert lines[3].endswith("of 2 rounds")
    outcomes = "{" + ", ".join(f'"{step}: ok": 2' for step in STEPS[workload]) + "}"
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
