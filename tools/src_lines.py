"""Line counts of the package's modules, split into code, docstring, comment and blank lines.

    python3 tools/src_lines.py [SRC]

SRC defaults to the repository's ``src``.  Each ``*.py`` file under it is
one row, and the last row is the total.  Every line is of one kind: a
docstring line lies in a docstring (the string that opens a module, class
or function body, on one line or several, blank lines included); otherwise
it is code if it holds any token but a comment (``tokenize``), so a line
of code with a trailing comment is code and every line of a multi-line
string that is not a docstring is code; a comment line holds a comment
alone, and a blank line holds nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(text: str) -> set:
    """Numbers of the lines that docstrings of the module's source span."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, bodies) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def split(text: str) -> dict:
    """How many lines of a module's source are of each kind, keyed by ``KINDS``."""
    kinds = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            for row in range(token.start[0], token.end[0] + 1):
                if kinds.get(row) != "code":
                    kinds[row] = "comment" if token.type == tokenize.COMMENT else "code"
    docs = docstring_lines(text)
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, len(text.splitlines()) + 1):
        counts["docstring" if row in docs else kinds.get(row, "blank")] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    src = parser.parse_args(argv).src
    rows = [(path.relative_to(src).as_posix(), split(path.read_text(encoding="utf-8")))
            for path in sorted(src.rglob("*.py"))]
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    print(f"{'module':<28}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<28}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
