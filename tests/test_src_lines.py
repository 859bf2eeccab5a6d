import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_total_equals_the_line_count_of_the_files(capsys):
    assert src_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(lines) == len(files) + 2  # a header and the total
    name, total, *kinds = lines[-1].split()
    assert name == "total"
    assert int(total) == sum(path.read_bytes().count(b"\n") for path in files)
    assert sum(map(int, kinds)) == int(total)


def test_every_line_has_one_kind():
    text = '''"""Module docstring,
on two lines."""

import os  # code with a trailing comment

# a comment alone


def f():
    """A one-line docstring."""
    x = """a string

that is no docstring"""
    return x
'''
    assert src_lines.split(text) == {"code": 6, "docstring": 3, "comment": 1, "blank": 4}
