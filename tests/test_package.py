import argparse
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latcert
from latcert.cli import build_parser
from latcert.lattice32 import Shell, save_shell


def test_no_assert_guards_in_package():
    # `python -O` strips assert statements, so a guard must raise instead
    found = []
    for path in sorted(Path(latcert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _scopes(match) -> list:
    """'module:scope' of each AST node of the package that match(node) is
    true of, the scope being the enclosing class and function names joined
    by dots."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif match(child):
                found.append(f"{path.name}:{scope}")
            visit(child, path, inner)

    for path in sorted(Path(latcert.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return found


def _callers(name: str) -> list:
    """_scopes of each call of the function name in the package."""
    return _scopes(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_negation_closure_has_one_check():
    # every Shell is closed under negation: the kernels take a Shell and
    # rely on it, so only the constructor refuses rows that are not (a
    # canonical file that is not goes to the constructor too)
    refusals = _scopes(lambda node: isinstance(node, ast.Constant)
                       and node.value == "shell is not closed under negation")
    assert refusals == ["lattice32.py:Shell.__new__"]


def test_rows_are_looked_up_by_one_bisection():
    # _half_index is the one bisection of a Shell's first half, a loop that
    # narrows lo and hi, and no row is compared as an np.void record
    def bisects(node):
        return (isinstance(node, ast.While) and {"lo", "hi"} <= {
            name.id for name in ast.walk(node.test) if isinstance(name, ast.Name)}
            or isinstance(node, ast.Call) and "searchsorted" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)))

    assert _scopes(bisects) == ["lattice32.py:_half_index"]
    assert sorted(_callers("_half_index")) == ["lattice32.py:Shell.index_of",
                                               "sphercode.py:_image_labels"]
    assert _scopes(lambda node: isinstance(node, ast.Attribute) and node.attr == "void") == []


def test_a_shell_is_made_in_one_place():
    # every Shell is built from its own first half by _own_half, which alone
    # sets half: by object.__setattr__, as Shell refuses assignment
    def sets_half(node):
        return (isinstance(node, ast.Attribute) and node.attr == "half"
                and isinstance(node.ctx, ast.Store)
                or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__setattr__"
                and any(isinstance(arg, ast.Constant) and arg.value == "half"
                        for arg in node.args))

    assert _scopes(sets_half) == ["lattice32.py:_own_half"]
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "__new__"
                   and any(getattr(arg, "id", None) == "Shell" for arg in node.args)
                   ) == ["lattice32.py:_own_half"]


def test_the_energy_verdict_is_decided_in_energycert():
    # EnergyCertificate.on_shell sums a shell's energy and decides its
    # verdict; cmd_energy and the selftest call it
    assert _callers("code_energy") == ["energycert.py:EnergyCertificate.on_shell"]


def test_endpoint_flags_are_read_only_by_interval():
    # the region algebra compares Interval.start and Interval.end keys; the
    # open/closed flags are read by Interval itself and by the sign sampler,
    # which evaluates at the ends the interval holds
    readers = _scopes(lambda node: isinstance(node, ast.Attribute)
                      and node.attr in ("lo_closed", "hi_closed"))
    outside = [scope for scope in readers if not scope.startswith("exactmath.py:Interval.")
               and scope != "exactmath.py:_sample_points"]
    assert readers and not outside, f"endpoint flags read outside Interval: {outside}"


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


# runs one command through cli.main in a fresh interpreter, then gives on
# the last stderr line its threads (0 without /proc/self/task) and the heavy
# modules it loaded
_WATCHED = {"numpy", "numpy.random", "mpmath", "dataclasses", "inspect", "latcert.lpcert"}
_LOADED = (
    "import os, sys\n"
    "from latcert.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else []\n"
    f"    print(len(tasks), *sorted({sorted(_WATCHED)} & sys.modules.keys()), file=sys.stderr)\n"
)


def _loaded(*argv) -> tuple:
    """(threads, loaded modules) of the command, run with two OpenBLAS
    threads asked for in its environment."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    tasks, *loaded = proc.stderr.splitlines()[-1].split()
    return int(tasks), set(loaded)


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
    _, loaded = _loaded(*argv)
    assert not loaded & absent, f"{argv[0]} loaded {sorted(loaded & absent)}"


@pytest.mark.parametrize("spec", ["expt", "gauss:7/4", "riesz:3"])
def test_transcendental_potentials_load_mpmath(spec):
    # the control: the exact potentials above run without it
    assert "mpmath" in _loaded("energy", "--potential", spec)[1]


def test_verify_loads_the_shell_layer(tmp_path):
    # the control: a command that reads a shell does load numpy, and no
    # verify or energy run loads lpcert.  Only the sampled pass draws its
    # points with numpy.random, whose import costs about 5 MB of peak RSS
    path = tmp_path / "small.shell"
    save_shell(Shell([[4, 4, 0, 0], [-4, -4, 0, 0]]), path)
    for argv, sampled in ((["verify", "--shell", str(path), "--sample", "10"], True),
                          (["verify", "--shell", str(path), "--full"], False),
                          (["energy", "--shell", str(path), "--potential", "invlin"], False)):
        _, loaded = _loaded(*argv)
        assert "numpy" in loaded and "latcert.lpcert" not in loaded, (argv, loaded)
        assert ("numpy.random" in loaded) is sampled, (argv, loaded)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_the_cli_runs_openblas_on_one_thread(tmp_path):
    # the environment asks for two threads, but the CLI sets one before numpy
    # loads, so OpenBLAS starts no thread of its own
    path = tmp_path / "small.shell"
    save_shell(Shell([[4, 4, 0, 0], [-4, -4, 0, 0]]), path)
    tasks, loaded = _loaded("verify", "--shell", str(path), "--full")
    assert "numpy" in loaded and tasks == 1
