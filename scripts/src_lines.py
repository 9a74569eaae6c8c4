#!/usr/bin/env python3
"""Count the lines of src/evofuzzy by kind, per file and in sum.

    python3 scripts/src_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's src/evofuzzy.  Every line of a file
falls into exactly one column:

    docstring  a line of a module, class or function docstring, the blank
               lines inside it included
    comment    a line whose only token is a comment
    blank      a line of whitespace only, outside a docstring
    code       every other line: statements, their continuation lines and
               the lines of a string that is not a docstring

so total = code + docstring + comment + blank.  Docstrings are found with
ast and comments with tokenize, so a "#" inside a string is not a comment.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of a module tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The counts of COLUMNS for the source text of one file."""
    docs = docstring_lines(ast.parse(text))
    # lines that hold a token other than a comment or a line break
    coded = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            coded.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno in docs:
            kind = "docstring"
        elif lineno in coded:
            kind = "code"
        elif line.strip():
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else ROOT / "src" / "evofuzzy"
    rows = [(path.name, count(path.read_text())) for path in sorted(src.glob("*.py"))]
    rows.append(("sum", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    print(f"{'file':14s}" + "".join(f"{c:>11s}" for c in COLUMNS))
    for name, r in rows:
        print(f"{name:14s}" + "".join(f"{r[c]:11d}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
