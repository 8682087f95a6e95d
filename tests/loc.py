"""Line counts of the package: per module of src/latcert and in total, all
lines and code lines, that is without docstrings, comments and blank lines.

    python tests/loc.py [package directory] [--against <git ref>]

With --against, each row also gives the change from the package's modules
at that git ref, read with ``git show``: a module new since the ref counts
from 0, and one deleted since shows 0 lines with a negative change.

A docstring is the leading string statement of a module, class or function;
a comment line is one whose first non-blank character is '#'.  Not a test:
pytest collects only test_*.py.
"""

import argparse
import ast
import subprocess
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


def count(text: str, name: str) -> tuple:
    """(all lines, code lines) of the Python source text of file name."""
    skip = docstring_lines(ast.parse(text, filename=name))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def git(package: Path, *args) -> str:
    """The stdout of git run in package; CalledProcessError if it fails."""
    return subprocess.run(["git", "-C", str(package), *args], check=True,
                          capture_output=True, text=True).stdout


def counts_at(package: Path, ref: str) -> dict:
    """Module name -> (all lines, code lines) of the package's .py files at
    the git ref."""
    names = [name for name in git(package, "ls-tree", "--name-only", ref, "--", ".").split()
             if name.endswith(".py")]
    return {name: count(git(package, "show", f"{ref}:./{name}"), name) for name in names}


def main(package: Path, against: str | None) -> None:
    now = {path.name: count(path.read_text(), str(path))
           for path in sorted(package.glob("*.py"))}
    then = {} if against is None else counts_at(package, against)
    names = sorted(now.keys() | then.keys())
    for table in (now, then):
        table["total"] = tuple(map(sum, zip((0, 0), *table.values())))
    width = max(map(len, [*names, "module"])) + 2
    header = f"{'module':<{width}}{'lines':>7}{'code':>7}"
    print(header if against is None else f"{header}{'d lines':>9}{'d code':>8}")
    for name in [*names, "total"]:
        (lines, code), (lines0, code0) = now.get(name, (0, 0)), then.get(name, (0, 0))
        row = f"{name:<{width}}{lines:>7}{code:>7}"
        print(row if against is None else f"{row}{lines - lines0:>+9}{code - code0:>+8}")


if __name__ == "__main__":
    default = Path(__file__).resolve().parents[1] / "src" / "latcert"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=default)
    parser.add_argument("--against", metavar="REF",
                        help="also print the change from the package at this git ref")
    args = parser.parse_args()
    try:
        main(args.package, args.against)
    except subprocess.CalledProcessError as exc:
        parser.exit(2, f"error: git {' '.join(exc.cmd[3:])}: {exc.stderr.strip()}\n")
