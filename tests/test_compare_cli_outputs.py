import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_cli_outputs.py"
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
