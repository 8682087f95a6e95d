"""The golden corpus of CLI runs under tests/golden: one file per argv form.

Each file holds the command on its first line, with the inputs as
placeholders, then the exit code, stdout and stderr of the command run
in-process through ``conftest.run_cli``, every input path in them replaced
by its placeholder; a run that writes {out} ends with the sha256 of that
file.  ``test_golden.py`` compares every file byte for byte.

A change that alters a report on purpose regenerates the files:

    PYTHONPATH=src python tests/golden_corpus.py

This rewrites each file from its own first line (it never adds or drops a
case); to add a case, write a new file holding just the command line and
run the script.  Not a test: pytest collects only test_*.py.
"""

import hashlib
import json
import shlex
import sys
import tempfile
from pathlib import Path

from conftest import PAIRS_4, run_cli
from latcert.exactmath import poly_to_json
from latcert.gf2codes import extended_quadratic_residue_32, reed_muller_2_5
from latcert.lattice32 import build_shell, make_shell, save_shell
from latcert.lpcert import MIN_DESIGN_POLY

GOLDEN = Path(__file__).parent / "golden"


# +-(4,4,0,0), +-(0,0,4,4), +-(4,0,4,0): antipodal but not distance invariant,
# as the last pair sees 1/2 twice and the others see 0 twice
BENT = [[v * sign for v in row] for row in ([4, 4, 0, 0], [0, 0, 4, 4], [4, 0, 4, 0])
        for sign in (1, -1)]


def write_inputs(directory: Path, rm_shell, xqr_shell) -> dict:
    """Placeholder -> path of each input in directory: the rm2_5, xqr32,
    24-point and 6-point bent shell files, the min-design polynomial as
    JSON and the 16 x 32 identity generator matrix (not self-dual), written
    there, and two paths with no file yet."""
    paths = {f"{{{name}}}": str(directory / f"{name}.shell")
             for name in ("rm2_5", "xqr32", "small", "bent", "missing", "out")}
    paths["{poly}"] = str(directory / "poly.json")
    paths["{ident}"] = str(directory / "ident.txt")
    save_shell(rm_shell, paths["{rm2_5}"])
    save_shell(xqr_shell, paths["{xqr32}"])
    save_shell(make_shell(PAIRS_4), paths["{small}"])
    save_shell(make_shell(BENT), paths["{bent}"])
    Path(paths["{poly}"]).write_text(json.dumps(poly_to_json(MIN_DESIGN_POLY)))
    Path(paths["{ident}"]).write_text("".join("0" * j + "1" + "0" * (31 - j) + "\n"
                                              for j in range(16)))
    return paths


def render(command: str, paths: dict) -> str:
    """The golden text of one command line: the line itself, then the run's
    exit code, stdout and stderr with each path put back as its placeholder,
    and the sha256 of {out} when the command names it."""
    argv = shlex.split(command)[1:]
    for placeholder, path in paths.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    code, out, err = run_cli(*argv)
    text = f"{command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
    for placeholder, path in paths.items():
        text = text.replace(path, placeholder)
    if "{out}" in command:
        digest = hashlib.sha256(Path(paths["{out}"]).read_bytes()).hexdigest()
        text += f"--- sha256 {{out}}\n{digest}\n"
    return text


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp), build_shell(reed_muller_2_5()),
                             build_shell(extended_quadratic_residue_32()))
        for path in sorted(GOLDEN.glob("*.txt")):
            command = path.read_text().split("\n", 1)[0]
            text = render(command, paths)
            if text != path.read_text():
                path.write_text(text)
                print(f"rewrote {path.name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
