import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import bit_rows, e8_power_code, e8_root_rows, save_generator_matrix
from latcert import gf2codes, lattice32, sphercode
from latcert.cli import main
from latcert.exactmath import poly_to_json
from latcert.gf2codes import code_report
from latcert.lattice32 import save_shell
from latcert.lpcert import MIN_DESIGN_POLY


@pytest.fixture(scope="module")
def shell_file(tmp_path_factory):
    # build once through the CLI so the build command itself is exercised
    path = tmp_path_factory.mktemp("shells") / "rm.shell"
    rc = main(["build", "--code", "rm2_5", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def small_shell_file(tmp_path_factory):
    from latcert.lattice32 import make_shell

    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (4, -4):
                for sj in (4, -4):
                    row = [0, 0, 0, 0]
                    row[i], row[j] = si, sj
                    rows.append(row)
    path = tmp_path_factory.mktemp("shells") / "small.shell"
    save_shell(make_shell(rows), path)
    return path


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "latcert.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_certify_max_fixture_exit_zero():
    proc = run_cli(
        "certify-max", "--poly", "builtin:maxcode", "--dim", "32",
        "--T", "(0,1/4)", "--s", "1/2", "--strength", "3",
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["valid"] is True
    assert record["bound"] == "146880"
    assert record["coefficients"][2] == "-31/196608"


def test_certify_max_invalid_exit_one():
    proc = run_cli(
        "certify-max", "--poly", "builtin:maxcode", "--dim", "32",
        "--T", "(0,1/4)", "--s", "1/2", "--strength", "1",
    )
    assert proc.returncode == 1
    record = json.loads(proc.stdout)
    assert record["valid"] is False


def test_certify_design_fixture():
    proc = run_cli(
        "certify-design", "--poly", "builtin:mindesign", "--dim", "32",
        "--T", "(-1/4,0)U(1/4,1/2)", "--tau", "7",
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["valid"] is True and record["bound"] == "146880"


def test_certify_design_poly_from_file(tmp_path):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(
        json.dumps(
            {
                "factored": {
                    "leading": "1",
                    "factors": [["0", "1"], ["-1", "1"], ["-1/2", "2"],
                                ["-1/4", "1"], ["1/4", "1"], ["1/2", "1"]],
                }
            }
        )
    )
    proc = run_cli(
        "certify-design", "--poly", str(poly_path), "--dim", "32",
        "--T", "(-1/4,0)U(1/4,1/2)", "--tau", "7",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bound"] == "146880"


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
    path = tmp_path / "mindesign.json"
    path.write_text(json.dumps(poly_to_json(MIN_DESIGN_POLY)))
    from_file = run_cli(*args, str(path))
    builtin = run_cli(*args, "builtin:mindesign")
    assert from_file.returncode == builtin.returncode == 0
    assert from_file.stdout == builtin.stdout


@pytest.mark.parametrize("command, extra", [
    ("certify-max", ["--s", "1/2", "--strength", "3"]),
    ("certify-design", ["--tau", "1000000"]),
])
def test_lp_commands_reject_a_degree_above_the_cap_before_expanding(tmp_path, command, extra):
    # expanding (t - 1/2)^1000000 would take far longer than the timeout
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"factored": {"leading": "1", "factors": [["1/2", "1000000"]]}}))
    proc = run_cli(command, "--poly", str(path), *extra, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == "error: degree 1000000 above the configured cap 64\n"


def test_energy_without_shell():
    proc = run_cli("energy", "--potential", "invlin")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["valid"] is True
    assert record["lower_bound"] == record["dual_form"]
    assert record["code_energy"] is None


def test_usage_errors_exit_two():
    assert run_cli("certify-max", "--poly", "builtin:nope", "--s", "1/2",
                   "--strength", "3").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("venkov", "--shell", "/nonexistent/shell.txt",
                   "--witness").returncode == 2
    assert run_cli("energy", "--potential", "coulomb").returncode == 2
    assert run_cli("--threads", "2", "selftest").returncode == 2  # flag removed


def _unit_rows(k: int, n: int, support) -> list:
    """k rows of length n; row i has ones at support(i)."""
    return [[int(j in support(i)) for j in range(n)] for i in range(k)]


def test_build_non_extremal_code_exits_one(tmp_path):
    codes = [
        ("e8x4", bit_rows(e8_power_code()),
         "code has weight-4 words; lattice is not extremal"),
        ("identity", _unit_rows(16, 32, lambda i: {i}), "code is not self-dual"),
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
def test_build_checks_the_code_once(tmp_path, monkeypatch, capsys, code, rc):
    # enumerating and weighing the 2^16 codewords is most of a build's code check
    calls = []

    def counted(c):
        calls.append(c.name)
        return code_report(c)

    monkeypatch.setattr(gf2codes, "code_report", counted)
    monkeypatch.setattr(lattice32, "code_report", counted)
    if code == "e8x4":
        code = tmp_path / "e8x4.txt"
        save_generator_matrix(e8_power_code(), code)
    assert main(["build", "--code", str(code), "--out", str(tmp_path / "s.txt")]) == rc
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is (rc == 0)


@pytest.mark.parametrize("argv", [
    ["build", "--code", "rm2_5", "--out", "{out}"],
    ["verify", "--shell", "{shell}", "--full"],
    ["venkov", "--shell", "{shell}", "--witness", "--sample", "5"],
], ids=["build", "verify-full", "venkov"])
def test_shell_commands_check_the_norms_once(shell_file, tmp_path, monkeypatch, capsys,
                                             argv):
    # s.s = 32 is checked when the Shell is made, not again by a pass or a save
    calls = []
    check_norms = lattice32._check_norms
    monkeypatch.setattr(lattice32, "_check_norms",
                        lambda *a: calls.append(1) or check_norms(*a))
    argv = [a.format(out=tmp_path / "s.shell", shell=shell_file) for a in argv]
    assert main(argv) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is True


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
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_text_format(shell_file):
    proc = run_cli("--format", "text", "venkov", "--shell", str(shell_file),
                   "--witness")
    assert proc.returncode == 0
    assert "witness_e22: 60" in proc.stdout


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert "25/25 fixtures passed" in proc.stdout


def test_energy_with_small_shell_and_gap(small_shell_file):
    proc = run_cli("energy", "--shell", str(small_shell_file),
                   "--potential", "invlin")
    # the 24-point shell is not the 146880 design, so the gap is nonzero, the
    # bound does not cover it, and the command still reports the certificate
    assert proc.returncode == 1, proc.stderr
    record = json.loads(proc.stdout)
    assert record["code_energy"] is not None
    assert record["gap"] != "0"
    assert record["valid"] is False
    assert record["failure"] == "shell dimension is 4; the bound needs 32"


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


@pytest.mark.parametrize("case, failure", [
    ("e8", "shell dimension is 8; the bound needs 32"),
    ("e8-padded", "shell has 240 points; the bound needs 146880"),
    ("rm2_5-variant", "shell has inner product -3/8 in T = (-1/2,-1/4)U(1/4,1/2)"),
], ids=["e8", "e8-padded", "rm2_5-variant"])
def test_energy_rejects_a_shell_the_bound_does_not_cover(request, tmp_path, capsys,
                                                         case, failure):
    # the certificate is valid, but the bound holds only for 146880 points
    # in dimension 32 with no inner product in T: exit 1, energy still given
    path = tmp_path / "outside.shell"
    save_shell(lattice32.make_shell(_outside_the_bound(request, case)), path)
    assert main(["energy", "--shell", str(path), "--potential", "invlin"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["valid"], record["failure"]) == (False, failure)
    assert record["code_energy"] is not None and record["gap"] is not None


@pytest.mark.parametrize("precision", ["0", "-3"])
@pytest.mark.parametrize("shell", [False, True])
def test_energy_rejects_precision_below_one(small_shell_file, precision, shell):
    argv = ["energy", "--potential", "expt", f"--precision={precision}"]
    proc = run_cli(*argv, *(["--shell", str(small_shell_file)] if shell else []))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: precision must be at least 1 digit, got {precision}\n"


@pytest.mark.parametrize("precision", ["10001", "1000000"])
@pytest.mark.parametrize("shell", [False, True])
def test_energy_rejects_precision_above_the_cap(small_shell_file, precision, shell):
    # the cap is checked before any work, so even a million digits exits at once
    argv = ["energy", "--potential", "expt", f"--precision={precision}"]
    proc = run_cli(*argv, *(["--shell", str(small_shell_file)] if shell else []), timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: precision must be at most 10000 digits, got {precision}\n"


@pytest.mark.parametrize("spec", ["invlin", "riesz:2", "riesz:8"])
def test_energy_rejects_precision_for_an_exact_potential(capsys, spec):
    # an exact potential never reads the precision, so the flag would be ignored
    assert main(["energy", "--potential", spec, "--precision", "60"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --precision applies only to expt, gauss and odd riesz, not {spec}\n"


@pytest.mark.parametrize("extra, message", [
    ([], "nothing to check: give --witness or --sample of at least 1"),
    (["--sample=0"], "nothing to check: give --witness or --sample of at least 1"),
    (["--sample=-5"], "--sample must be at least 1, got -5"),
    (["--witness", "--sample=-5"], "--sample must be at least 1, got -5"),
])
def test_venkov_rejects_a_run_that_checks_nothing(extra, message):
    # the arguments are checked before the shell is read
    proc = run_cli("venkov", "--shell", "/nonexistent/shell.txt", *extra)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_venkov_witness_on_a_shell_of_another_dimension(small_shell_file):
    proc = run_cli("venkov", "--shell", str(small_shell_file), "--witness")
    assert proc.returncode == 2
    assert proc.stderr == "error: probe has shape (32,), expected (4,)\n"


@pytest.mark.parametrize(
    "flag, value",
    [("--sample", "0"), ("--sample", "-5"), ("--cap", "0"), ("--cap", "-3"), ("--cap", "65")],
)
def test_verify_rejects_sample_or_cap_below_one(tmp_path, flag, value):
    # the shell does not exist: each flag is checked before the shell is read
    proc = run_cli("verify", "--shell", str(tmp_path / "missing.shell"), f"{flag}={value}")
    assert proc.returncode == 2, proc.stderr
    bound = "at most 64" if int(value) > 1 else "at least 1"
    assert proc.stderr == f"error: {flag} must be {bound}, got {value}\n"


@pytest.mark.parametrize("extra", [["--sample=5"], ["--seed=9"], ["--sample=5", "--seed=9"],
                                   ["--sample=1000"]])
def test_verify_full_rejects_sample_and_seed(tmp_path, extra):
    # --full checks every point, so a sample size or seed would be ignored;
    # the flags are checked before the shell is read
    proc = run_cli("verify", "--shell", str(tmp_path / "missing.shell"), "--full", *extra)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: --full checks every point: --sample and --seed do not apply\n"


@pytest.mark.parametrize("argv, message", [
    (["certify-max", "--poly", "builtin:maxcode", "--s", "1/0", "--strength", "3"], "'1/0'"),
    (["certify-max", "--poly", "builtin:maxcode", "--T", "(0,1/0)", "--s", "1/2",
      "--strength", "3"], "'1/0'"),
    (["certify-design", "--poly", "builtin:mindesign", "--T", "(0,1/4,1)", "--tau", "7"],
     "bad interval syntax: '(0,1/4,1)'"),
    (["energy", "--potential", "gauss:1/0"], "'1/0'"),
    (["certify-design", "--poly", "{poly}", "--tau", "7"], "polynomial JSON must be"),
], ids=["s", "T", "T-three-ends", "gauss", "poly-leading"])
def test_malformed_rationals_exit_two(tmp_path, argv, message):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"factored": {"leading": "1/0", "factors": [["1/2", "1"]]}}))
    proc = run_cli(*(a.format(poly=poly) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and message in line
    assert "Traceback" not in proc.stderr


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


_SPEC_GRAMMAR = "expected invlin, expt, riesz:<digits> or gauss:<p/q>"
_RIESZ_RANGE = "the riesz exponent must be in 1..1000"


_BAD_SPECS = [
    ("invlin:3", _SPEC_GRAMMAR),
    ("invlin:", _SPEC_GRAMMAR),
    ("expt:junk", _SPEC_GRAMMAR),
    ("riesz", _SPEC_GRAMMAR),
    ("riesz:4_0", _SPEC_GRAMMAR),
    ("riesz:+4", _SPEC_GRAMMAR),
    ("riesz: 4", _SPEC_GRAMMAR),
    ("riesz:x", _SPEC_GRAMMAR),
    ("riesz:4.0", _SPEC_GRAMMAR),
    ("riesz:\u0664", _SPEC_GRAMMAR),  # ARABIC-INDIC DIGIT FOUR, which int() reads
    ("riesz:0", _RIESZ_RANGE),
    ("riesz:1001", _RIESZ_RANGE),
    ("riesz:4900", _RIESZ_RANGE),
    ("riesz:" + "9" * 5000, _RIESZ_RANGE),  # above int()'s 4300-digit limit
    ("gauss:0.5", _SPEC_GRAMMAR),
    ("gauss:+1", _SPEC_GRAMMAR),
    ("gauss:-1", _SPEC_GRAMMAR),
    ("gauss: 1/2", _SPEC_GRAMMAR),
    ("gauss:", _SPEC_GRAMMAR),
    ("gauss:0", "the gauss parameter must be positive"),
    ("gauss:0/3", "the gauss parameter must be positive"),
]


@pytest.mark.parametrize("spec, reason", _BAD_SPECS,
                         ids=[spec[:16] for spec, _ in _BAD_SPECS])
def test_energy_rejects_a_potential_spec_outside_the_grammar(spec, reason):
    # each of these ran, or failed with Python's message, before the spec
    # grammar: the argument was ignored or read as another number
    proc = run_cli("energy", "--potential", spec)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: bad potential {spec!r}: {reason}\n"


@pytest.mark.parametrize("spec, name", [
    ("riesz:1000", "riesz:1000"), ("riesz:007", "riesz:7"), ("gauss:2/4", "gauss:1/2"),
])
def test_energy_accepts_digits_and_names_the_potential(spec, name):
    proc = run_cli("energy", "--potential", spec)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["potential"] == name


def test_verify_full_runs_one_orbit_pass(small_shell_file, monkeypatch, capsys):
    calls = []
    orbit_pass = sphercode._orbit_pass
    monkeypatch.setattr(
        sphercode, "_orbit_pass", lambda v: calls.append(len(v)) or orbit_pass(v)
    )
    assert main(["verify", "--shell", str(small_shell_file), "--full"]) == 0
    assert calls == [24]
    assert json.loads(capsys.readouterr().out)["histogram"] == {
        "-1": 24, "-1/2": 192, "0": 144, "1/2": 192
    }


@pytest.mark.parametrize(
    "header, body, message",
    [
        ("n=4 count=2", "4 4 0 0\n-4 -4 0 200\n", "'200'"),
        ("n=4 count=2", "4 4 0 0\n-4 -4 0 1.5\n", "'1.5'"),
        ("n=4 count=2", "4 4 0 0 # antipode\n-4 -4 0 0\n", "'#'"),
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
    proc = subprocess.run([sys.executable, *flags, "-m", "latcert.cli", "verify",
                           "--shell", str(path), "--full"], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and message in line


def test_internal_check_failure_exits_one(small_shell_file, monkeypatch, capsys):
    column_counts = sphercode._column_counts

    def drop_one_count(F, cols, rows=None):
        table = column_counts(F, cols, rows)
        table[2 * 32, 0] -= 1  # lose the first column's self pair
        return table

    monkeypatch.setattr(sphercode, "_column_counts", drop_one_count)
    assert main(["verify", "--shell", str(small_shell_file), "--full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: histogram total")
    assert "Traceback" not in err
