"""Count the code lines of each src/capscale module.

    python3 tests/count_code_lines.py

A code line is a line that is not blank, not a comment alone and not
part of a module, class or function docstring. Prints one line per
module, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capscale"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for n, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and n not in docstrings
    )


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text("utf-8"))
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
