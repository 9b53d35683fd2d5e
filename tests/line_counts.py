"""Line counts of the package: for each src/prefixnormal/*.py the lines of
code, docstring, comment and blank, then the lines of _kernel.c and the
totals.

    python tests/line_counts.py [SRC]

SRC is the directory that holds the package, `src` by default.  A line is
a docstring line when it lies in the first statement of a module, class or
function body and that statement is a string; otherwise it is blank when
it holds only whitespace, a comment line when it holds only a comment, and
a code line else.  pytest does not collect this file.
"""

import ast
import sys
from pathlib import Path


def counts(path: Path) -> tuple[int, int, int, int]:
    """(code, docstring, comment, blank) lines of one Python file."""
    source = path.read_text()
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    blank = comment = 0
    for number, line in enumerate(lines, 1):
        if number in doc:
            continue
        text = line.strip()
        if not text:
            blank += 1
        elif text.startswith("#"):
            comment += 1
    return len(lines) - len(doc) - comment - blank, len(doc), comment, blank


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src") / "prefixnormal"
    total = [0, 0, 0, 0]
    print(f"{'file':<16}{'code':>6}{'doc':>6}{'comment':>8}{'blank':>6}{'lines':>7}")
    for path in sorted(package.glob("*.py")):
        row = counts(path)
        total = [a + b for a, b in zip(total, row)]
        print(f"{path.name:<16}" + "".join(f"{v:>{w}}" for v, w in zip(row, (6, 6, 8, 6)))
              + f"{sum(row):>7}")
    print(f"{'total .py':<16}" + "".join(f"{v:>{w}}" for v, w in zip(total, (6, 6, 8, 6)))
          + f"{sum(total):>7}")
    c_lines = len((package / "_kernel.c").read_text().splitlines())
    print(f"{'_kernel.c':<16}{c_lines:>33}")
    print(f"{'total':<16}{sum(total) + c_lines:>33}")


if __name__ == "__main__":
    main(sys.argv[1:])
