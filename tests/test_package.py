import argparse
import ast
import inspect
from pathlib import Path

import latcert
from latcert.cli import build_parser


def test_no_assert_guards_in_package():
    # `python -O` strips assert statements, so a guard must raise instead
    found = []
    for path in sorted(Path(latcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_every_subcommand_flag_is_read_by_its_command():
    # a flag that is accepted and then ignored misleads the user: each flag a
    # subcommand defines must appear as args.<dest> in that subcommand's fn
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    unread = []
    for name, parser in subparsers.choices.items():
        tree = ast.parse(inspect.getsource(parser.get_default("fn")))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if action.option_strings and action.dest != "help"
                   and action.dest not in read]
    assert not unread, f"flags no command reads: {unread}"
