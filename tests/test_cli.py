import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import (PAIRS_4, bit_rows, cli_vocabulary, e8_power_code, e8_root_rows,
                      poly_potential, run_cli, save_generator_matrix)
from golden_corpus import write_inputs
from latcert import energycert, gf2codes, lattice32, sphercode
from latcert.exactmath import Polynomial
from latcert.gf2codes import code_report
from latcert.lattice32 import save_shell


@pytest.fixture(scope="module")
def shell_file(tmp_path_factory):
    # build once through the CLI so the build command itself is exercised
    path = tmp_path_factory.mktemp("shells") / "rm.shell"
    assert run_cli("build", "--code", "rm2_5", "--out", str(path)).returncode == 0
    return path


@pytest.fixture(scope="module")
def small_shell_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("shells") / "small.shell"
    save_shell(lattice32.Shell(PAIRS_4), path)
    return path


def run_process(*argv, flags=(), timeout=None):
    """Run the CLI in a fresh interpreter, for the tests where the process
    itself is under test: -O, a timeout, determinism across processes and
    the module's exit status.  Every other test runs it in-process."""
    return subprocess.run([sys.executable, *flags, "-m", "latcert.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv, rc", [
    (["energy", "--potential", "invlin"], 0),
    (["certify-max", "--poly", "builtin:maxcode", "--T", "empty", "--s", "1/2",
      "--strength", "3"], 1),
    (["energy", "--potential", "coulomb"], 2),
], ids=["valid", "invalid", "usage"])
def test_the_module_exits_with_the_status_of_main(argv, rc):
    # python -m latcert.cli prints what main prints and exits with its status
    proc = run_process(*argv)
    assert proc.returncode == rc
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*argv)


def test_certify_design_poly_file_must_be_factored(tmp_path):
    args = ("certify-design", "--T", "(-1/4,0)U(1/4,1/2)", "--tau", "7", "--poly")
    for name, obj in [
        ("dense", {"dense": ["0", "1"]}),
        ("no_factors", {"factored": {"leading": "1"}}),
        ("short_factor", {"factored": {"leading": "1", "factors": [["0"]]}}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = run_cli(*args, str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and '"factored"' in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, extra", [
    ("certify-max", ["--s", "1/2", "--strength", "3"]),
    ("certify-design", ["--tau", "1000000"]),
])
def test_lp_commands_reject_a_degree_above_the_cap_before_expanding(tmp_path, command, extra):
    # expanding (t - 1/2)^1000000 would take far longer than the timeout
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"factored": {"leading": "1", "factors": [["1/2", "1000000"]]}}))
    proc = run_process(command, "--poly", str(path), *extra, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == "error: degree 1000000 above the configured cap 64\n"


def _unit_rows(k: int, n: int, support) -> list:
    """k rows of length n; row i has ones at support(i)."""
    return [[int(j in support(i)) for j in range(n)] for i in range(k)]


def test_build_non_extremal_code_exits_one(tmp_path):
    codes = [
        ("e8x4", bit_rows(e8_power_code()),
         "code has weight-4 words; lattice is not extremal"),
        ("weight2", _unit_rows(16, 32, lambda i: {2 * i, 2 * i + 1}),
         "code is not doubly even"),
        ("k8n16", _unit_rows(8, 16, lambda i: {i, i + 8}),
         "need a [32,16] code, got [16,8]"),
    ]
    for name, generator, failure in codes:
        gen = tmp_path / f"{name}.txt"
        rows = ("".join(map(str, row)) for row in generator)
        gen.write_text("\n".join(rows) + "\n")
        out = tmp_path / "shell.txt"
        proc = run_cli("build", "--code", str(gen), "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout) == {
            "command": "build",
            "code": str(gen),
            "valid": False,
            "failure": failure,
        }
        assert not out.exists()


@pytest.mark.parametrize("code, rc", [("rm2_5", 0), ("e8x4", 1)])
def test_build_checks_the_code_once(tmp_path, monkeypatch, code, rc):
    # enumerating and weighing the 2^16 codewords is most of a build's code
    # check, and the build takes its words from that one enumeration
    calls, enumerations = [], []
    masks = gf2codes.BinaryCode.codeword_masks

    def counted(c, *by_weight):
        calls.append(c.name)
        return code_report(c, *by_weight)

    monkeypatch.setattr(gf2codes, "code_report", counted)
    monkeypatch.setattr(lattice32, "code_report", counted)
    monkeypatch.setattr(gf2codes.BinaryCode, "codeword_masks",
                        lambda c: enumerations.append(1) or masks(c))
    if code == "e8x4":
        code = tmp_path / "e8x4.txt"
        save_generator_matrix(e8_power_code(), code)
    proc = run_cli("build", "--code", str(code), "--out", str(tmp_path / "s.txt"))
    assert proc.returncode == rc
    assert len(calls) == len(enumerations) == 1
    assert json.loads(proc.stdout)["valid"] is (rc == 0)


@pytest.mark.parametrize("argv", [
    ["build", "--code", "rm2_5", "--out", "{out}"],
    ["verify", "--shell", "{shell}", "--full"],
    ["venkov", "--shell", "{shell}", "--witness", "--sample", "5"],
], ids=["build", "verify-full", "venkov"])
def test_shell_commands_check_the_norms_once(shell_file, tmp_path, monkeypatch, argv):
    # s.s = 32 is checked when the Shell is made, not again by a pass or a save
    calls = []
    check_norms = lattice32._check_norms
    monkeypatch.setattr(lattice32, "_check_norms",
                        lambda *a: calls.append(1) or check_norms(*a))
    argv = [a.format(out=tmp_path / "s.shell", shell=shell_file) for a in argv]
    proc = run_cli(*argv)
    assert proc.returncode == 0
    assert len(calls) == 1
    assert json.loads(proc.stdout)["valid"] is True


def test_shell_commands_never_make_the_full_rows(shell_file, tmp_path, monkeypatch):
    # a Shell stores its first half and reads every mirror row through its
    # row accessor: no command builds the full array, not even to look up
    # the Venkov witness pair
    def refuse(self):
        raise RuntimeError("Shell.vectors read")

    monkeypatch.setattr(lattice32.Shell, "vectors", property(refuse))
    for argv in (["build", "--code", "rm2_5", "--out", str(tmp_path / "s.shell")],
                 ["verify", "--shell", str(shell_file), "--full"],
                 ["verify", "--shell", str(shell_file), "--sample", "100"],
                 ["venkov", "--shell", str(shell_file), "--witness"],
                 ["energy", "--shell", str(shell_file), "--potential", "invlin"],
                 ["selftest"]):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_venkov_witness_and_sample(shell_file):
    proc = run_cli(
        "venkov", "--shell", str(shell_file), "--witness", "--sample", "5",
        "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["witness_e22"] == 60
    assert len(record["sampled_e22"]) == 5
    assert all(v % 2 == 0 and 0 <= v <= 60 for v in record["sampled_e22"])


def test_verify_sampled_report(shell_file):
    proc = run_cli("verify", "--shell", str(shell_file), "--sample", "300")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["count"] == 146880
    assert record["design_strength"] == 7
    assert record["histogram_mode"] == "extrapolated-from-sample"
    assert record["inner_products"] == ["-1", "-1/2", "-1/4", "0", "1/4", "1/2"]
    assert record["distance_distribution"]["0"] == 80910
    assert 10 in record["extra_vanishing_moments"]


def test_verify_full_on_small_shell(small_shell_file):
    proc = run_cli("verify", "--shell", str(small_shell_file), "--full")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["histogram_mode"] == "full"
    assert record["invariant"] is True
    assert record["points_checked"] == 24


def test_json_reports_are_deterministic(shell_file):
    args = ("venkov", "--shell", str(shell_file), "--sample", "4", "--seed", "9")
    first = run_process(*args)
    second = run_process(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_text_format(shell_file):
    proc = run_cli("--format", "text", "venkov", "--shell", str(shell_file),
                   "--witness")
    assert proc.returncode == 0
    assert "witness_e22: 60" in proc.stdout


def _outside_the_bound(request, case):
    if case != "rm2_5-variant":
        e8 = e8_root_rows()
        return e8 if case == "e8" else np.pad(e8, ((0, 0), (0, 24)))
    # one antipodal pair of rm2_5 replaced by +-(2 on {0,...,6,8}), which has
    # inner products +-3/8 with some rows of the shell
    V = request.getfixturevalue("rm_shell").result.vectors.copy()
    V[0] = 0
    V[0, [0, 1, 2, 3, 4, 5, 6, 8]] = 2
    V[-1] = -V[0]
    return V


@pytest.mark.parametrize("case, failure, gap", [
    ("e8", "shell dimension is 8; the bound needs 32", "-11158271588"),
    ("e8-padded", "shell has 240 points; the bound needs 146880", "-11158271588"),
    ("rm2_5-variant", "shell has inner product -3/8 in T = (-1/2,-1/4)U(1/4,1/2)",
     "700564/45045"),
], ids=["e8", "e8-padded", "rm2_5-variant"])
def test_energy_rejects_a_shell_the_bound_does_not_cover(request, tmp_path, case, failure,
                                                         gap):
    # the certificate is valid, but the bound holds only for 146880 points
    # in dimension 32 with no inner product in T: exit 1, and the energy
    # still comes from the shell's own histogram
    path = tmp_path / "outside.shell"
    save_shell(lattice32.Shell(_outside_the_bound(request, case)), path)
    proc = run_cli("energy", "--shell", str(path), "--potential", "invlin")
    assert proc.returncode == 1
    record = json.loads(proc.stdout)
    assert (record["valid"], record["failure"], record["gap"]) == (False, failure, gap)


@pytest.mark.parametrize("spec, gap", [("gauss:7/4", "0.0")])
def test_energy_of_the_design_is_the_bound_exactly(shell_file, spec, gap):
    # the shell's histogram is N A_t, so its energy is the bound's own sum:
    # no rounding residue under mpmath (golden energy-shell-invlin-rm2_5
    # pins the exact case)
    proc = run_cli("energy", "--shell", str(shell_file), "--potential", spec)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["code_energy"] == record["lower_bound"]
    assert (record["valid"], record["gap"]) == (True, gap)


@pytest.mark.parametrize("spec", ["invlin", "riesz:2"])
def test_energy_fails_when_an_exact_code_energy_is_below_the_bound(shell_file, monkeypatch,
                                                                   spec):
    # once the bound's hypotheses hold, its conclusion is checked exactly:
    # an exact potential's code energy one below the bound fails the record
    code_energy = energycert.code_energy
    monkeypatch.setattr(energycert, "code_energy", lambda *a, **k: code_energy(*a, **k) - 1)
    proc = run_cli("energy", "--shell", str(shell_file), "--potential", spec)
    assert proc.returncode == 1
    record = json.loads(proc.stdout)
    bound = record["lower_bound"]
    failure = f"code energy {Fraction(bound) - 1} is below the lower bound {bound}"
    assert (record["valid"], record["failure"], record["gap"]) == (False, failure, "-1")


@pytest.mark.parametrize("shell, energy, gap", [
    ("shell_file", "-674032320", "0"),
    ("small_shell_file", "-120", "674032200"),
], ids=["rm2_5", "outside-the-bound"])
def test_energy_of_an_invalid_certificate_keeps_its_failure(request, monkeypatch, shell,
                                                            energy, gap):
    # a bound that fails its own checks reports that failure, not the shell's
    # hypotheses (the small shell is 4-dimensional), with the shell's energy
    # and gap all the same: -N (4590 - 1) on rm2_5, the bound's own sum, and
    # -24 (1 + 16/4) on the 24 points, each with one antipode and 16 at +-1/2
    h = poly_potential(Polynomial([0, 0, -1]))  # -t^2, not absolutely monotone
    monkeypatch.setattr(energycert, "potential_by_spec", lambda spec: h)
    proc = run_cli("energy", "--shell", str(request.getfixturevalue(shell)),
                   "--potential", "invlin")
    assert proc.returncode == 1
    record = json.loads(proc.stdout)
    failure = ("divided difference h[t_1] = -1 is negative; potential is not absolutely "
               "monotone on these nodes")
    assert (record["valid"], record["failure"]) == (False, failure)
    assert (record["code_energy"], record["gap"]) == (energy, gap)


@pytest.mark.parametrize("precision", ["10001", "1000000"])
@pytest.mark.parametrize("shell", [False, True])
def test_energy_rejects_precision_above_the_cap(small_shell_file, precision, shell):
    # the cap is checked before any work, so even a million digits exits at once
    argv = ["energy", "--potential", "expt", f"--precision={precision}"]
    proc = run_process(*argv, *(["--shell", str(small_shell_file)] if shell else []),
                       timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: precision must be at most 10000 digits, got {precision}\n"


@pytest.mark.parametrize("leading", ["1/0"], ids=["poly-leading"])
def test_malformed_rationals_exit_two(tmp_path, leading):
    # a p/0 in a polynomial file; golden error-rational-* pin --s, --T and gauss
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"factored": {"leading": leading, "factors": [["1/2", "1"]]}}))
    rc, out, err = run_cli("certify-design", "--poly", str(poly), "--tau", "7")
    assert (rc, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: polynomial JSON must be") and err.endswith("'1/0'\n")


@pytest.mark.parametrize("leading, factor, message", [
    (0.1, ["1/4", 1], "not an exact rational: 0.1"),
    ("1", [0.5, 1], "not an exact rational: 0.5"),
    ("1", ["1/4", 1.5], "not an integer multiplicity: 1.5"),
    ("1", [True, 1], "not an exact rational: True"),
], ids=["float-leading", "float-root", "fractional-multiplicity", "bool-root"])
def test_poly_json_values_must_be_exact(tmp_path, leading, factor, message):
    # a JSON float is a binary value, int() would truncate 1.5 to 1, and
    # true is not 1
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"factored": {"leading": leading,
                                             "factors": [["-1/2", 1], factor]}}))
    proc = run_cli("certify-design", "--poly", str(poly), "--tau", "3")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(message)


@pytest.mark.parametrize("spec, name", [
    ("riesz:1000", "riesz:1000"), ("riesz:007", "riesz:7"), ("gauss:2/4", "gauss:1/2"),
])
def test_energy_accepts_digits_and_names_the_potential(spec, name):
    proc = run_cli("energy", "--potential", spec)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["potential"] == name


def test_verify_full_runs_one_orbit_pass(small_shell_file, monkeypatch):
    calls = []
    orbit_pass = sphercode._orbit_pass
    monkeypatch.setattr(
        sphercode, "_orbit_pass", lambda shell: calls.append(shell.count) or orbit_pass(shell)
    )
    proc = run_cli("verify", "--shell", str(small_shell_file), "--full")
    assert proc.returncode == 0
    assert calls == [24]
    assert json.loads(proc.stdout)["histogram"] == {
        "-1": 24, "-1/2": 192, "0": 144, "1/2": 192
    }


@pytest.mark.parametrize(
    "header, body, message",
    [
        ("n=4 count=2", "4 4 0 0\n-4 -4 0 200\n", "'200'"),
        ("n=4 count=2", "4 4 0 0\n-4 -4 0 1.5\n", "'1.5'"),
        ("n=4 count=2", "4 4 0 0 # antipode\n-4 -4 0 0\n", "'#'"),
        ("n=4 count=2", "4 4 0 0\n0 4 4 0\n", "shell is not closed under negation"),
        ("n=4 count=0", "", "nonempty shell"),
        ("n=0 count=0", "", "bad shell header"),
        ("n=-2 count=2", "4 4\n-4 -4\n", "bad shell header"),
        ("n=4 count", "4 4 0 0\n-4 -4 0 0\n", "bad shell header"),
    ],
)
def test_malformed_shell_file_exits_two(tmp_path, header, body, message):
    path = tmp_path / "bad.shell"
    path.write_text(f"latcert-shell v1 {header} scale=2sqrt2\n{body}")
    for mode in ("--full", "--sample=10"):
        proc = run_cli("verify", "--shell", str(path), mode)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("edit, rc, stderr", [
    (lambda b: b.replace(b"v1", b"v1\xff", 1), 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte\n"),
    (lambda b: b.replace(b" 4", b" 4\xff", 1), 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 81: invalid start byte\n"),
    (lambda b: b.replace(b"\n", b"\r\n"), 0, ""),
    (lambda b: b[:-1], 0, ""),
], ids=["non-utf-8-header", "non-utf-8-body", "crlf", "no-final-newline"])
def test_shell_files_outside_the_saved_grammar(small_shell_file, tmp_path, edit, rc, stderr):
    # read by np.loadtxt as before: the same shell, or the same error line
    path = tmp_path / "edited.shell"
    path.write_bytes(edit(small_shell_file.read_bytes()))
    proc = run_cli("verify", "--shell", str(path), "--full")
    assert (proc.returncode, proc.stderr) == (rc, stderr)
    if rc == 0:
        assert proc.stdout == run_cli("verify", "--shell", str(small_shell_file), "--full").stdout


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("body, message", [
    ("4 4 0 0\n-4 -4 0 4-\n", "could not convert string '4-' to int8"),
    ("4 4 0 0\n-4 -4 0\n", "the number of columns changed from 4 to 3"),
], ids=["bad-token", "ragged-row"])
def test_shell_grammar_checks_hold_under_optimize(tmp_path, flags, body, message):
    # -O drops asserts: the reader's checks must still send these to an error line
    path = tmp_path / "bad.shell"
    path.write_text(f"latcert-shell v1 n=4 count=2 scale=2sqrt2\n{body}")
    proc = run_process("verify", "--shell", str(path), "--full", flags=flags)
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and message in line


def test_internal_check_failure_exits_one(small_shell_file, monkeypatch):
    column_counts = sphercode._column_counts

    def drop_one_count(shell, cols, rows=None, out=None):
        table = column_counts(shell, cols, rows, out)
        table[2 * 32, 0] -= 1  # lose the first column's self pair
        return table

    monkeypatch.setattr(sphercode, "_column_counts", drop_one_count)
    rc, _, err = run_cli("verify", "--shell", str(small_shell_file), "--full")
    assert rc == 1
    assert err.startswith("error: internal check failed: histogram total")
    assert "Traceback" not in err


def test_venkov_sample_gives_up_on_a_shell_with_no_orthogonal_pair(tmp_path):
    # it gives up after 10000 draws with no pair, whatever the sample size
    path = tmp_path / "pair.shell"
    save_shell(lattice32.Shell([[4, 4, 0, 0], [-4, -4, 0, 0]]), path)
    for sample in ("1", "20"):
        assert run_cli("venkov", "--shell", str(path), "--sample", sample) == (
            2, "", "error: no orthogonal pair found within budget; malformed shell\n")


def test_build_into_a_missing_directory_exits_two_before_building(tmp_path, monkeypatch):
    # the error line open() gives, without the build that it would follow
    calls = []
    monkeypatch.setattr(lattice32, "build_shell", calls.append)
    out = tmp_path / "missing" / "rm.shell"
    assert run_cli("build", "--code", "rm2_5", "--out", str(out)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert calls == [] and not out.parent.exists()


# The CLI contract's grammar: every subcommand but selftest (seconds; golden
# pins it), each option with the values a command takes, boundaries included,
# and values it refuses.  None is a bare switch, ... leaves the option out.
# The paths are the golden inputs that load in milliseconds: not {rm2_5}, {xqr32}.
_SHELLS = (["{small}", "{bent}"], ["{missing}", "{out}", "{poly}", "{ident}"])
_POLYS = (["builtin:maxcode", "builtin:mindesign", "{poly}"],
          ["builtin:nope", "{missing}", "{small}"])
_DIMS = ([..., "32", "2"], ["1", "0", "x"])
_SAMPLES = ([..., "1", "5"], ["0", "-5", "x"])
_SEEDS = ([..., "0", "9"], ["-1", "x"])
_REGIONS = ([..., "empty", "(0,1/4)", "(-1/4,0)U(1/4,1/2)", "(0,1/8]U[1/8,1/4)"],
            ["[-1,1]", "(1/2,0)", "(0,1/0)", "x"])
_GRAMMAR = {
    "build": {"--code": (["{ident}"], ["{small}", "{missing}", "rm2_6"]),
              "--out": (["{out}"], [])},
    "verify": {"--shell": _SHELLS, "--full": ([..., None], []), "--sample": _SAMPLES,
               "--seed": _SEEDS, "--cap": ([..., "1", "12", "64"], ["0", "65", "-3", "x"])},
    "certify-max": {"--poly": _POLYS, "--dim": _DIMS, "--T": _REGIONS,
                    "--s": (["1/2", "-1", "1"], ["2", "1/0", "x"]),
                    "--strength": (["3", "1", "0"], ["x"])},
    "certify-design": {"--poly": _POLYS, "--dim": _DIMS, "--T": _REGIONS,
                       "--tau": (["7", "8"], ["3", "-1", "x"])},
    "energy": {"--shell": ([..., "{small}", "{bent}"], _SHELLS[1]),
               "--potential": (["invlin", "expt", "riesz:1", "riesz:2", "riesz:1000", "gauss:7/4"],
                               ["riesz:0", "gauss:0", "gauss:1/0", "invlin:3", "coulomb"]),
               "--precision": ([..., "1", "3", "60"], ["0", "-3", "10001", "x"])},
    "venkov": {"--shell": _SHELLS, "--witness": ([..., None], []), "--sample": _SAMPLES,
               "--seed": _SEEDS},
}


@st.composite
def cli_argvs(draw):
    """(argv, --format, whether argparse must refuse it).  Half the draws may
    take refused values; one in three has a fault: an unknown subcommand or
    format, the removed --threads, or its first option left out."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    fmt = draw(st.sampled_from([None, "json", "text"]))
    fault = draw(st.sampled_from([None] * 8 + ["subcommand", "format", "threads", "omit"]))
    malformed = draw(st.booleans())
    options = []
    for flag, (takes, refuses) in _GRAMMAR[command].items():
        value = draw(st.sampled_from(takes + refuses if malformed else takes))
        if value is None:
            options.append([flag])
        elif value is not ...:
            options.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    options = draw(st.permutations(options))[fault == "omit":]
    fmt = "xml" if fault == "format" else fmt
    head = (["--format", fmt] if fmt else []) + (["--threads", "2"] if fault == "threads" else [])
    command = "no-such-command" if fault == "subcommand" else command
    argv = [*head, command, *(arg for option in options for arg in option)]
    return argv, fmt, fault in ("subcommand", "format", "threads")


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("contract"))


def test_the_contract_grammar_draws_every_subcommand_and_option():
    assert cli_vocabulary() == {*_GRAMMAR, "selftest", "--format"}.union(*_GRAMMAR.values())


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
@example(drawn=(["no-such-command"], None, True))
@example(drawn=(["--threads", "2", "selftest"], None, True))  # the removed flag
def test_cli_contract(contract_inputs, drawn):
    argv, fmt, usage_error = drawn
    for placeholder, path in contract_inputs.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    code, out, err = run_cli(*argv)
    event(f"exit {code}, {'usage' if err.startswith('usage: ') else 'run'}")
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:  # one error line: the command's own, or argparse's after its usage
        *usage, line = err.splitlines()
        assert out == "" and err == "\n".join([*usage, line]) + "\n"
        assert re.match(r"latcert[\w -]*: error: " if usage else "error: ", line)
        assert not usage or usage[0].startswith("usage: latcert") and "error:" not in str(usage)
    elif fmt == "text":
        valid = [line for line in out.splitlines() if line.startswith("valid: ")]
        assert err == "" and valid == [f"valid: {code == 0}"]
    else:
        assert err == "" and json.loads(out)["valid"] is (code == 0)
    assert not usage_error or (code == 2 and err.startswith("usage: latcert"))
