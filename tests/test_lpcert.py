from fractions import Fraction

import pytest

from latcert.exactmath import EMPTY_REGION, factored
from latcert.gegenbauer import gegenbauer_expand, integrate_weighted
from latcert.lpcert import (
    BUILTIN_POLYNOMIALS,
    MAX_CODE_EXPANSION,
    MAX_CODE_POLY,
    MAX_CODE_T,
    MIN_DESIGN_POLY,
    MIN_DESIGN_T,
    P7_EXPANSION,
    P7_POLY,
    builtin_polynomial,
    certify_max_code,
    certify_min_design,
)
from latcert.sphercode import moments

H = Fraction(1, 2)
N = 146880


def test_max_code_certificate_fixture():
    cert = certify_max_code(MAX_CODE_POLY, 32, MAX_CODE_T, H, strength=3)
    assert cert.valid
    assert cert.bound == N
    assert cert.sign_report.verdict == "nonpositive"
    assert cert.expansion.coeffs == MAX_CODE_EXPANSION


def test_max_code_fails_at_lower_assumed_strength():
    cert = certify_max_code(MAX_CODE_POLY, 32, MAX_CODE_T, H, strength=1)
    assert not cert.valid
    assert "f_2" in cert.failure
    assert cert.bound == N  # the bound value itself is unchanged, just unproven


def test_max_code_antipodal_pair_bound():
    # 1 + t on the single admissible inner product -1: the classic bound |C| <= 2.
    # (With s = 0 the polynomial is positive inside (-1, 0], so the same
    # certificate must be rejected with an exact witness.)
    p = factored(1, [(-1, 1)])
    cert = certify_max_code(p, 32, EMPTY_REGION, Fraction(-1), strength=0)
    assert cert.valid
    assert cert.bound == 2
    loose = certify_max_code(p, 32, EMPTY_REGION, Fraction(0), strength=0)
    assert not loose.valid
    assert loose.sign_report.positive_witness is not None
    assert p(loose.sign_report.positive_witness) > 0


def test_max_code_requires_positive_f0():
    with pytest.raises(ValueError, match="f_0"):
        certify_max_code(factored(1, [(0, 1)]), 32, EMPTY_REGION, 0, 0)


def test_min_design_certificate_fixture():
    cert = certify_min_design(MIN_DESIGN_POLY, 32, MIN_DESIGN_T, tau=7)
    assert cert.valid
    assert cert.bound == N
    assert cert.expansion.coeffs[0] == Fraction(1, 69632)


def test_min_design_square_bound():
    cert = certify_min_design(factored(1, [(-1, 2)]), 32, EMPTY_REGION, tau=2)
    assert cert.valid
    assert cert.expansion.coeffs[0] == 1 + Fraction(1, 32)
    assert cert.bound == Fraction(128, 33)


def test_min_design_rejects_degree_above_tau():
    p = factored(1, [(-1, 2), (0, 2), (H, 2), (Fraction(1, 4), 2)])  # degree 8
    with pytest.raises(ValueError, match="exceeds tau"):
        certify_min_design(p, 32, EMPTY_REGION, tau=7)


def test_min_design_invalid_with_witness():
    # t has a sign change on [-1,1]; certificate must carry a witness
    p = factored(1, [(0, 1), (-1, 1)])  # t(t+1) >= 0 fails on (-1,0)
    cert = certify_min_design(p, 32, EMPTY_REGION, tau=2)
    assert not cert.valid
    assert p(cert.sign_report.negative_witness) < 0


def test_bound_is_scale_free():
    for scale in (Fraction(3), Fraction(1, 7), Fraction(22, 5)):
        p = factored(scale, MAX_CODE_POLY.factors)
        cert = certify_max_code(p, 32, MAX_CODE_T, H, strength=3)
        assert cert.valid and cert.bound == N


def test_equality_forcing_on_shell(rm_shell, rm_hist):
    # every histogram support point is a root, so the pair sum vanishes; and
    # every moment that meets a nonzero coefficient vanishes too
    hist = rm_hist.result
    pair_sum = sum(c * MAX_CODE_POLY(t) for t, c in hist.counts.items())
    assert pair_sum == 0
    mv = moments(rm_shell.result, 10, hist)
    coeffs = MAX_CODE_EXPANSION
    assert sum(coeffs[i] * mv[i] for i in range(1, 11)) == 0
    # main identity then forces f(1) N = f_0 N^2, i.e. N = f(1)/f_0
    f1 = MAX_CODE_POLY(Fraction(1))
    f0 = coeffs[0]
    assert f1 * N == f0 * N * N


def test_certificate_chain_inequalities_on_shell(rm_shell, rm_hist):
    hist = rm_hist.result
    lhs_pairs = sum(c * MAX_CODE_POLY(t) for t, c in hist.counts.items())
    assert MAX_CODE_POLY(Fraction(1)) * N >= lhs_pairs
    mv = moments(rm_shell.result, 10, hist)
    rhs = MAX_CODE_EXPANSION[0] * N * N + sum(
        MAX_CODE_EXPANSION[i] * mv[i] for i in range(1, 11)
    )
    assert rhs >= MAX_CODE_EXPANSION[0] * N * N


# f_0 of each builtin: the reference tables' first entries and the
# tight-design value
BUILTIN_F0 = {
    "maxcode": MAX_CODE_EXPANSION[0],
    "mindesign": Fraction(1, 69632),
    "p7": P7_EXPANSION[0],
}


def test_builtin_fixture_table():
    assert BUILTIN_POLYNOMIALS == {
        "maxcode": MAX_CODE_POLY, "mindesign": MIN_DESIGN_POLY, "p7": P7_POLY
    }
    for name, poly in BUILTIN_POLYNOMIALS.items():
        assert builtin_polynomial(name) is poly

    assert MAX_CODE_EXPANSION[8] == 0
    assert MAX_CODE_POLY(1) == Fraction(675, 1024)
    assert gegenbauer_expand(32, MAX_CODE_POLY.expand()).coeffs == MAX_CODE_EXPANSION

    assert MIN_DESIGN_POLY(1) == Fraction(135, 64)
    assert gegenbauer_expand(32, MIN_DESIGN_POLY.expand()).coeffs[0] == Fraction(1, 69632)

    assert gegenbauer_expand(32, P7_POLY.expand()).coeffs == P7_EXPANSION
    assert P7_POLY(1) == Fraction(45, 8)
    assert sum(P7_EXPANSION) == Fraction(45, 8)


def test_builtin_lookup_unknown():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_polynomial("coulomb")


def test_expansion_f0_matches_integration_oracle():
    for name, poly in BUILTIN_POLYNOMIALS.items():
        assert integrate_weighted(32, poly.expand()) == BUILTIN_F0[name]


def test_certificate_json_shape():
    cert = certify_max_code(MAX_CODE_POLY, 32, MAX_CODE_T, H, strength=3)
    d = cert.to_json_dict()
    assert d["kind"] == "max_code"
    assert d["bound"] == "146880"
    assert d["valid"] is True
    assert d["coefficients"][8] == "0"
    assert d["T"] == "(0,1/4)"
    cert2 = certify_min_design(MIN_DESIGN_POLY, 32, MIN_DESIGN_T, tau=7)
    d2 = cert2.to_json_dict()
    assert d2["tau"] == 7 and d2["kind"] == "min_design"
