import importlib.util
import re
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
    ratio = (r"median \d+\.\d{3}, quartiles \d+\.\d{3}-\d+\.\d{3}; "
             r"the change was faster in [012] of 2 rounds")
    assert re.fullmatch("change / parent  " + ratio, lines[3])
    # then each step's paired ratio, in the order the steps run
    width = len(STEPS[workload])
    for step, line in zip(STEPS[workload], lines[4:4 + width], strict=True):
        assert re.fullmatch(f"  {re.escape(step)}  {ratio}", line)
    outcomes = "{" + ", ".join(f'"{step}: ok": 2' for step in STEPS[workload]) + "}"
    assert lines[4 + width:] == [f"  parent  outcomes {outcomes}",
                                 f"  change  outcomes {outcomes}"]
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


def test_paired_ratio_line():
    # ratios 0.5, 1.0 and 1.25: a tie counts as no win
    assert ab_lib.paired([1.0, 2.0, 4.0], [0.5, 2.0, 5.0]) == (
        "median 1.000, quartiles 0.750-1.125; the change was faster in 1 of 3 rounds")
