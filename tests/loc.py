"""Line counts of the package: per module of src/latcert and in total, all
lines and code lines, that is without docstrings, comments and blank lines.

    python tests/loc.py [package directory]

A docstring is the leading string statement of a module, class or function;
a comment line is one whose first non-blank character is '#'.  Not a test:
pytest collects only test_*.py.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the module, class and function docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(package: Path) -> None:
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    default = Path(__file__).resolve().parents[1] / "src" / "latcert"
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else default)
