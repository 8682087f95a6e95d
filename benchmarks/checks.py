"""Output checks for every benchmark operation, against the paper's values.

Each check takes ``(exit_code, stdout, stderr)`` of one latcert CLI call and
returns ``None`` when the output is right, or a one-line reason when it is
not.  An operation fails when it exits with an unexpected code, prints a
traceback, or any checked field differs from the paper's value.

Nothing here imports latcert: the expected values are computed
independently from the distance distribution of the 146880-point code.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction

N = 146880

# distance distribution A_t of every point of the shell
PAPER_A = {
    Fraction(-1): 1,
    Fraction(-1, 2): 1240,
    Fraction(-1, 4): 31744,
    Fraction(0): 80910,
    Fraction(1, 4): 31744,
    Fraction(1, 2): 1240,
    Fraction(1): 1,
}

# The verify report is the same for every seed: the permuted shells are
# isometric, and neither the shell path nor the sampling seed is printed.
VERIFY_SHA256 = {
    "full": "e054c065184edbe1a4a29b0301cafdc8858950fd3361844db9c3fa7a92bb60ab",
    "sampled": "fb0337660d93a2f6f1358cf37d602fe7da26e1bf893219e3a5d2e634602c1443",
}


def _parse(exit_code, stdout, stderr, expect_exit):
    """The JSON record of a call, or a failure reason string."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if exit_code != expect_exit:
        return f"exit code {exit_code}, expected {expect_exit}"
    try:
        return json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON record"


def _mismatch(record: dict, expected: dict):
    for key, want in expected.items():
        if record.get(key) != want:
            return f"{key} = {record.get(key)!r}, expected {want!r}"
    return None


def check_help(exit_code, stdout, stderr):
    if "Traceback" in stderr or exit_code != 0:
        return f"--help exited {exit_code}"
    return None if stdout.startswith("usage: latcert") else "no usage text"


def check_build(exit_code, stdout, stderr):
    rec = _parse(exit_code, stdout, stderr, 0)
    if isinstance(rec, str):
        return rec
    return _mismatch(rec, {"command": "build", "count": N, "valid": True})


def check_verify(mode: str, points: int, exit_code, stdout, stderr):
    """``mode`` is "full" or "sampled"; ``points`` the points checked."""
    rec = _parse(exit_code, stdout, stderr, 0)
    if isinstance(rec, str):
        return rec
    expected = {
        "command": "verify",
        "count": N,
        "distance_distribution": {str(t): a for t, a in PAPER_A.items()},
        "histogram": {str(t): N * a for t, a in PAPER_A.items() if t != 1},
        "inner_products": [str(t) for t in sorted(PAPER_A) if t != 1],
        "design_strength": 7,
        "extra_vanishing_moments": [9, 10, 11],
        "invariant": True,
        "valid": True,
        "invariance_mode": mode,
        "points_checked": points,
        "histogram_mode": "full" if mode == "full" else "extrapolated-from-sample",
    }
    bad = _mismatch(rec, expected)
    if bad:
        return bad
    moments = rec.get("moments") or []
    if len(moments) < 8 or any(m != "0" for m in moments[:7]) or moments[7] == "0":
        return f"moments {moments[:8]} are not M_1..M_7 = 0, M_8 != 0"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != VERIFY_SHA256[mode]:
        return f"report sha256 {digest} differs from the reference {VERIFY_SHA256[mode]}"
    return None


def check_venkov(sample: int, seed: int, exit_code, stdout, stderr):
    rec = _parse(exit_code, stdout, stderr, 0)
    if isinstance(rec, str):
        return rec
    bad = _mismatch(
        rec, {"command": "venkov", "witness_e22": 60, "seed": seed, "valid": True}
    )
    if bad:
        return bad
    values = rec.get("sampled_e22")
    if not isinstance(values, list) or len(values) != sample:
        return f"expected {sample} sampled e_2,2 values"
    if not all(isinstance(v, int) and v % 2 == 0 and 0 <= v <= 60 for v in values):
        return "a sampled e_2,2 value is odd or outside [0, 60]"
    return None


def check_bound_certificate(command: str, T: str, valid: bool, exit_code, stdout, stderr):
    """certify-max / certify-design: bound 146880; an empty T is invalid."""
    rec = _parse(exit_code, stdout, stderr, 0 if valid else 1)
    if isinstance(rec, str):
        return rec
    bad = _mismatch(rec, {"command": command, "bound": str(N), "T": T, "valid": valid})
    if bad:
        return bad
    if (rec.get("failure") is None) != valid:
        return f"failure field {rec.get('failure')!r} does not match valid={valid}"
    return None


def potential_value(spec: str, t: Fraction):
    """h(t) exactly (Fraction) where the potential is rational, otherwise
    as a Decimal in the caller's context."""
    name, _, arg = spec.partition(":")
    if name == "invlin":
        return 1 / (2 - 2 * t)
    if name == "riesz" and int(arg) % 2 == 0:
        return (2 - 2 * t) ** -(int(arg) // 2)
    d = Decimal(t.numerator) / Decimal(t.denominator)
    if name == "expt":
        return d.exp()
    if name == "gauss":
        a = Fraction(arg)
        return (-(Decimal(a.numerator) / Decimal(a.denominator)) * (2 - 2 * d)).exp()
    if name == "riesz":
        return 1 / (2 - 2 * d).sqrt() ** int(arg)
    raise ValueError(f"unknown potential {spec!r}")


def expected_energy(spec: str):
    """N * sum over t != 1 of A_t h(t): the bound, attained by the shell."""
    with localcontext() as ctx:
        ctx.prec = 80
        total = sum(a * potential_value(spec, t) for t, a in PAPER_A.items() if t != 1)
        return N * total


def check_energy(spec: str, precision: int | None, exit_code, stdout, stderr):
    rec = _parse(exit_code, stdout, stderr, 0)
    if isinstance(rec, str):
        return rec
    bad = _mismatch(
        rec,
        {
            "command": "energy",
            "potential": spec,
            "valid": True,
            "failure": None,
            "error_sign": "nonnegative",
        },
    )
    if bad:
        return bad
    if not all(rec.get("partial_products_positive_definite") or [False]):
        return "a partial product is not positive definite"
    want = expected_energy(spec)
    if isinstance(want, Fraction):
        if rec.get("lower_bound") != str(want) or rec.get("dual_form") != str(want):
            return f"lower bound {rec.get('lower_bound')} is not exactly {want}"
        return None
    if rec.get("precision_digits") != precision:
        return f"precision_digits {rec.get('precision_digits')}, expected {precision}"
    # mpmath works at `precision` digits and prints 40 significant ones
    tol = Decimal(10) ** -(min(precision, 40) - 10)
    try:
        got = Decimal(rec.get("lower_bound"))
    except (TypeError, InvalidOperation):
        return f"lower bound {rec.get('lower_bound')!r} is not a number"
    if not abs(got - want) <= tol * abs(want):
        return f"lower bound {got} differs from {want:.45g}"
    return None
