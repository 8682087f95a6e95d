import ast
from pathlib import Path

import latcert


def test_no_assert_guards_in_package():
    # `python -O` strips assert statements, so a guard must raise instead
    found = []
    for path in sorted(Path(latcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
