import argparse
import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import latcert
from latcert.cli import build_parser
from latcert.lattice32 import make_shell, save_shell


def test_no_assert_guards_in_package():
    # `python -O` strips assert statements, so a guard must raise instead
    found = []
    for path in sorted(Path(latcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _imports(path) -> list:
    """(top-level module name, line) of each import statement of a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        found += [(name.split(".")[0], node.lineno) for name in names if name]
    return found


def test_no_dataclasses_in_package():
    # dataclasses imports inspect and generates each record's methods with
    # exec, at every start of the CLI; the records are named tuples and Shell
    # a plain class
    found = [f"{path.name}:{line}"
             for path in sorted(Path(latcert.__file__).parent.glob("*.py"))
             for name, line in _imports(path) if name == "dataclasses"]
    assert not found, f"dataclasses imported in the package: {found}"


def test_gf2codes_imports_no_numpy():
    # a code is its generator rows as bit masks: no 0/1 matrix copy of them
    path = Path(latcert.__file__).parent / "gf2codes.py"
    found = [line for name, line in _imports(path) if name == "numpy"]
    assert not found, f"gf2codes imports numpy at lines {found}"


def test_no_unused_imports():
    # a name bound by an import (other than from __future__) must be used
    # as a name somewhere in its module
    tests = Path(__file__).parent
    paths = sorted(Path(latcert.__file__).parent.glob("*.py")) + sorted(tests.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.parent.name}/{path.name}:{node.lineno} {bound}"
                           for alias in node.names
                           if (bound := (alias.asname or alias.name).split(".")[0])
                           not in used]
    assert not unused, f"imports never used: {unused}"


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


# runs one command through cli.main in a fresh interpreter, then names the
# heavy modules it loaded on the last stderr line
_WATCHED = {"numpy", "mpmath", "dataclasses", "inspect", "latcert.lpcert"}
_LOADED = (
    "import sys\n"
    "from latcert.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    f"    print(*sorted({sorted(_WATCHED)} & sys.modules.keys()), file=sys.stderr)\n"
)


def _loaded(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv, absent", [
    (["--help"], {"numpy", "mpmath", "latcert.lpcert", "latcert.exactmath",
                  "latcert.gegenbauer", "fractions"}),
    (["certify-max", "--poly", "builtin:maxcode", "--T", "(0,1/4)", "--s", "1/2",
      "--strength", "3"], {"numpy", "mpmath"}),
    (["certify-design", "--poly", "builtin:mindesign", "--T", "(-1/4,0)U(1/4,1/2)",
      "--tau", "7"], {"numpy", "mpmath"}),
    (["energy", "--potential", "invlin"], {"numpy", "mpmath", "latcert.lpcert"}),
    (["energy", "--potential", "riesz:4"], {"numpy", "mpmath", "latcert.lpcert"}),
    (["energy", "--potential", "expt", "--precision", "30"], {"numpy", "latcert.lpcert"}),
    (["energy", "--potential", "gauss:7/4"], {"numpy", "latcert.lpcert"}),
    (["energy", "--potential", "riesz:3"], {"numpy", "latcert.lpcert"}),
], ids=["help", "certify-max", "certify-design", "energy-invlin", "energy-riesz-even",
        "energy-expt", "energy-gauss", "energy-riesz-odd"])
def test_certificate_commands_do_not_load_the_shell_layer(argv, absent):
    # nor mpmath for an exact potential, nor lpcert outside the LP commands,
    # nor dataclasses and inspect, which generated code for the records
    absent = absent | {"dataclasses", "inspect"}
    loaded = _loaded(*argv)
    assert not loaded & absent, f"{argv[0]} loaded {sorted(loaded & absent)}"


@pytest.mark.parametrize("spec", ["expt", "gauss:7/4", "riesz:3"])
def test_transcendental_potentials_load_mpmath(spec):
    # the control: the exact potentials above run without it
    assert "mpmath" in _loaded("energy", "--potential", spec)


def test_verify_loads_the_shell_layer(tmp_path):
    # the control: a command that reads a shell does load numpy, and no
    # verify or energy run loads lpcert
    path = tmp_path / "small.shell"
    save_shell(make_shell([[4, 4, 0, 0], [-4, -4, 0, 0]]), path)
    for argv in (["verify", "--shell", str(path), "--sample", "10"],
                 ["verify", "--shell", str(path), "--full"],
                 ["energy", "--shell", str(path), "--potential", "invlin"]):
        loaded = _loaded(*argv)
        assert "numpy" in loaded and "latcert.lpcert" not in loaded, (argv, loaded)
