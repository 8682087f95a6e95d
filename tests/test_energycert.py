from fractions import Fraction

import mpmath as mp
import pytest

from conftest import poly_potential
from latcert.exactmath import EMPTY_REGION, Polynomial, rat
from latcert.energycert import (
    PAPER_NODES,
    T_SYMMETRIC,
    NodeMultiset,
    Potential,
    code_energy,
    design_distribution,
    divided_differences,
    energy_lower_bound,
    error_sign_check,
    expt,
    gauss,
    hermite_interpolant,
    invlin,
    node_polynomial,
    partial_products,
    potential_by_spec,
    riesz,
)
from latcert.gegenbauer import (MAX_PRECISION, DistanceDistribution, InnerProductHistogram,
                                gegenbauer_expand)
from latcert.lpcert import P7_EXPANSION

H = Fraction(1, 2)
Q = Fraction(1, 4)
N = 146880

INVLIN_BOUND = N * (
    Fraction(1, 4)
    + 1240 * Fraction(1, 3)
    + 31744 * Fraction(2, 5)
    + 80910 * Fraction(1, 2)
    + 31744 * Fraction(2, 3)
    + 1240
)


def test_node_multiset_validation():
    with pytest.raises(ValueError, match="ascending"):
        NodeMultiset((Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="twice"):
        NodeMultiset((Fraction(0), Fraction(0), Fraction(0)))
    assert len(PAPER_NODES.nodes) == 8


def test_leading_divided_difference_of_monic_degree7():
    dd = divided_differences(poly_potential(Polynomial.monomial(7)), PAPER_NODES)
    assert dd[7] == 1


def test_divided_differences_invlin_all_nonnegative():
    dd = divided_differences(invlin(), PAPER_NODES)
    assert len(dd) == 8
    assert all(d >= 0 for d in dd)
    assert dd[0] == Fraction(1, 4)  # h(-1)


def test_divided_differences_constant_potential():
    dd = divided_differences(poly_potential(Polynomial([Fraction(5)])), PAPER_NODES)
    assert dd[0] == 5
    assert all(d == 0 for d in dd[1:])


def test_hermite_reproduces_degree7_polynomial():
    p = Polynomial([1, -2, Fraction(3, 7), 0, 1, 0, Fraction(-1, 3), 2])
    h = poly_potential(p)
    assert hermite_interpolant(h, PAPER_NODES) == p


def test_hermite_invlin_values():
    h7 = hermite_interpolant(invlin(), PAPER_NODES)
    assert h7.degree <= 7
    assert h7(Fraction(-1, 2)) == Fraction(1, 3)
    assert h7.derivative()(Fraction(0)) == Fraction(1, 2)  # doubled node
    assert h7(Fraction(1, 2)) == 1


def test_hermite_matches_values_and_derivatives_at_all_nodes():
    h = invlin()
    h7 = hermite_interpolant(h, PAPER_NODES)
    d7 = h7.derivative()
    seen = set()
    for t in PAPER_NODES.nodes:
        assert h7(t) == h.value(t)
        if t in seen:
            assert d7(t) == h.derivative(t)
        seen.add(t)


def test_partial_products_reference_p7():
    pps = partial_products(PAPER_NODES, 32)
    assert len(pps) == 7
    assert pps[6].expansion.coeffs == P7_EXPANSION
    assert all(pp.pd.positive_definite for pp in pps)
    assert sum(pps[6].expansion.coeffs) == Fraction(45, 8)  # P_7(1)
    for i in range(1, 8):  # each prefix of the nodes, expanded from its factors
        prefix = node_polynomial(NodeMultiset(PAPER_NODES.nodes[:i]))
        assert pps[i - 1].expansion == gegenbauer_expand(32, prefix.expand())


def test_node_polynomial_structure():
    fp = node_polynomial(PAPER_NODES)
    assert fp.degree == 8
    assert dict(fp.factors)[Fraction(-1)] == 2
    assert dict(fp.factors)[Fraction(0)] == 2


def test_error_sign_nonnegative_outside_symmetric_T():
    rep = error_sign_check(PAPER_NODES, T_SYMMETRIC)
    assert rep.verdict == "nonnegative"


def test_node_polynomial_negative_inside_gap():
    fp = node_polynomial(PAPER_NODES)
    assert fp(Fraction(3, 8)) < 0


def test_error_sign_mixed_without_T():
    rep = error_sign_check(PAPER_NODES, EMPTY_REGION)
    assert rep.verdict == "mixed"
    assert node_polynomial(PAPER_NODES)(rep.negative_witness) < 0


def test_design_distribution_values():
    dist = design_distribution()
    assert dist.a[Fraction(0)] == 80910
    assert dist.total() == N


def test_energy_lower_bound_invlin():
    cert = energy_lower_bound(invlin())
    assert cert.valid
    assert cert.lower_bound == INVLIN_BOUND
    assert cert.dual_bound == INVLIN_BOUND  # the design quadrature identity
    assert cert.precision_digits is None


def test_energy_constant_potential():
    cert = energy_lower_bound(poly_potential(Polynomial([Fraction(3)])))
    assert cert.lower_bound == N * (N - 1) * 3
    assert all(d == 0 for d in cert.divided_differences[1:])


def test_energy_invalid_for_non_monotone_potential():
    cert = energy_lower_bound(poly_potential(Polynomial([0, 0, -1])))  # -t^2
    assert not cert.valid
    assert "divided difference" in cert.failure


def test_absolute_monotonicity_is_reported_not_claimed():
    # the record states what the potential carries: true by theorem for the
    # builtins, from the Taylor coefficients at t = -1 for a polynomial
    def reported(h):
        return energy_lower_bound(h).to_json_dict()["claimed_absolutely_monotone"]

    for spec in ("invlin", "expt", "riesz:3", "riesz:4", "gauss:7/4"):
        assert reported(potential_by_spec(spec)) is True, spec
    assert reported(poly_potential(Polynomial([0, 0, -1]))) is False  # -t^2
    cases = {(1, 2, 1): True, (0, 1): False, (0, 0, 1): False, (2, 1): True, (1, 1, 1): False}
    for coeffs, expected in cases.items():  # (t+1)^2, t, t^2, 2+t, 1+t+t^2
        assert poly_potential(Polynomial(coeffs)).absolutely_monotone is expected, coeffs


def test_energy_attained_on_shell(rm_hist):
    h = invlin()
    cert = energy_lower_bound(h)
    energy = code_energy(rm_hist.result, h)
    assert energy == cert.lower_bound
    done = cert.on_shell(h, 32, rm_hist.result)
    assert done.gap == 0
    assert done.code_energy == energy
    assert done.valid


def test_on_shell_sums_at_the_certificates_precision():
    # the code's energy is summed at the digits its record states
    h, two = expt(), InnerProductHistogram({Fraction(-1): 2}, 2)
    done = energy_lower_bound(h, 30).on_shell(h, 32, two)
    assert done.precision_digits == 30
    assert done.code_energy == code_energy(two, h, 30) != code_energy(two, h, 60)


def test_code_energy_small_cases(rm_hist):
    two = InnerProductHistogram({Fraction(-1): 2}, 2)
    assert code_energy(two, poly_potential(Polynomial([0, 1]))) == -2
    # h(t) = t^2 on the shell: quadrature value 4590 minus the diagonal
    sq = code_energy(rm_hist.result, poly_potential(Polynomial.monomial(2)))
    assert sq == N * (4590 - 1)


def test_code_energy_singular_potential():
    sing = Potential(
        "invneg",
        lambda t: 1 / (2 + 2 * rat(t)),
        lambda t: -2 / (2 + 2 * rat(t)) ** 2,
        exact_on_rationals=True,
        absolutely_monotone=False,
    )
    two = InnerProductHistogram({Fraction(-1): 2}, 2)
    with pytest.raises(ValueError, match="singular at t = -1"):
        code_energy(two, sing)


def test_dominance_at_support_points():
    # every support inner product is an interpolation node, so H_7 = h there
    h = invlin()
    h7 = hermite_interpolant(h, PAPER_NODES)
    for t in design_distribution().a:
        if t != 1:
            assert h7(t) == h.value(t)


def test_expt_certificate_at_precision():
    cert = energy_lower_bound(expt(), precision=60)
    assert cert.valid
    rel = abs(cert.dual_bound - cert.lower_bound) / cert.lower_bound
    assert rel < mp.mpf(10) ** -20
    assert cert.precision_digits == 60


@pytest.mark.parametrize("spec", [
    "expt", "gauss:8", "riesz:7", "riesz:1", "riesz:3", "gauss:1/4",
    pytest.param("gauss:1/2", marks=pytest.mark.xfail(strict=True, reason=(
        "valid at 3 digits and invalid at 4: a divided-difference sign is read "
        "in rounded arithmetic; interval enclosures are ROADMAP item 2"))),
])
def test_valid_verdict_stays_valid_at_higher_precision(spec):
    h = potential_by_spec(spec)
    verdicts = [energy_lower_bound(h, precision=p).valid for p in range(1, 41)]
    first = verdicts.index(True)
    assert all(verdicts[first:]), [p for p, ok in enumerate(verdicts, 1) if not ok]


@pytest.mark.parametrize("spec, precision", [("invlin", 60), ("expt", 60), ("expt", 3)])
def test_design_identity_failure_is_caught(monkeypatch, spec, precision):
    # one point moved from A_0 to A_{1/4} puts sum_t A_t P_1(t) off by 1/4, a
    # fault no rounding tolerance may hide
    a = dict(design_distribution().a)
    a[Fraction(0)] -= 1
    a[Q] += 1
    monkeypatch.setattr("latcert.energycert.design_distribution",
                        lambda: DistanceDistribution(a))
    cert = energy_lower_bound(potential_by_spec(spec), precision=precision)
    assert not cert.valid
    assert cert.failure.startswith("design identity fails for P_1:"), cert.failure


def _moved_point(monkeypatch, h):
    # as above: the design identity fails for P_1
    a = dict(design_distribution().a)
    a[Fraction(0)] -= 1
    a[Q] += 1
    monkeypatch.setattr("latcert.energycert.design_distribution",
                        lambda: DistanceDistribution(a))
    return h


def _value_off_from_the_ninth_call(monkeypatch, h):
    # the 8 node values of the divided differences are right, the 6 values
    # of the bound's sum 1 too high: the quadrature form leaves the dual form
    calls = []

    def value(t):
        calls.append(t)
        return h.value(t) + (1 if len(calls) > 8 else 0)
    return h._replace(value=value)


# each fault breaks one condition of the bound, in the order the failure is
# decided; the message the fault gives when it is the first
_FAULTS = {
    "negative-dd": (lambda monkeypatch, h: poly_potential(Polynomial([0, 0, -1])),
                    "divided difference h[t_1] = -1 is negative; potential is not "
                    "absolutely monotone on these nodes"),
    "non-pd": (lambda monkeypatch, h: monkeypatch.setattr(
        "latcert.energycert.PAPER_NODES",
        NodeMultiset((-1, -H, -Q, 0, 0, Q, H, H))) or h,
        "partial product P_7 has negative Gegenbauer coefficients at indices [1, 2]"),
    "node-poly": (lambda monkeypatch, h: monkeypatch.setattr(
        "latcert.energycert.T_SYMMETRIC", EMPTY_REGION) or h,
        "node polynomial is negative at t = -3/8 inside [-1,1] minus T"),
    "identity": (_moved_point, "design identity fails for P_1: sum of A_t P_1(t) = "
                 "587521/4, N (P_1)_0 = 146880"),
    "quadrature": (_value_off_from_the_ninth_call,
                   "quadrature form 32731892208 and dual form 11158304688 disagree"),
}


@pytest.mark.parametrize("faults", [
    ("non-pd",), ("node-poly",), ("quadrature",),
    ("negative-dd", "non-pd"), ("non-pd", "node-poly"), ("node-poly", "identity"),
], ids="+".join)
def test_energy_bound_reports_its_first_failure(monkeypatch, faults):
    # the failure is the first in order: a negative divided difference, a
    # partial product that is not positive definite, a negative node
    # polynomial, the design identity, then quadrature form != dual form (the
    # moved point above puts both forms apart as well: the identity is first)
    h = invlin()
    for fault in faults:
        h = _FAULTS[fault][0](monkeypatch, h)
    cert = energy_lower_bound(h)
    assert (cert.valid, cert.failure) == (False, _FAULTS[faults[0]][1])


def test_wrong_derivative_is_caught():
    h = expt()
    wrong = h._replace(derivative=lambda t: -h.derivative(t))
    cert = energy_lower_bound(wrong, precision=60)
    assert not cert.valid
    assert cert.failure.startswith("divided difference h[t_1..t_2] = -0.367879"), cert.failure


def test_energy_bound_evaluates_the_potential_once_per_node():
    # 8 values and 2 derivatives (the doubled nodes -1 and 0) for the divided
    # differences, and 6 values for the bound over the t != 1 support
    h, calls = expt(), []
    counted = h._replace(
        value=lambda t: calls.append("value") or h.value(t),
        derivative=lambda t: calls.append("derivative") or h.derivative(t),
    )
    cert = energy_lower_bound(counted, precision=60)
    assert (calls.count("value"), calls.count("derivative")) == (14, 2)
    assert cert.to_json_dict() == energy_lower_bound(h, precision=60).to_json_dict()


def test_precision_above_the_cap_is_refused_before_any_work():
    for precision in (MAX_PRECISION + 1, 10**6):
        with pytest.raises(ValueError, match=f"at most {MAX_PRECISION} digits"):
            energy_lower_bound(expt(), precision=precision)
        with pytest.raises(ValueError, match=f"at most {MAX_PRECISION} digits"):
            code_energy(InnerProductHistogram({Fraction(-1): 2}, 2), expt(), precision)


def test_riesz_even_is_exact():
    r4 = riesz(4)
    assert r4.exact_on_rationals
    assert r4.value(Fraction(0)) == Fraction(1, 4)
    cert = energy_lower_bound(r4)
    assert cert.valid
    assert isinstance(cert.lower_bound, Fraction)
    assert cert.lower_bound == cert.dual_bound


def test_riesz_two_equals_invlin():
    r2, il = riesz(2), invlin()
    for t in PAPER_NODES.nodes:
        assert r2.value(t) == il.value(t)
        assert r2.derivative(t) == il.derivative(t)


def test_gauss_certificate():
    cert = energy_lower_bound(gauss(Fraction(1, 2)))
    assert cert.valid


def test_derivative_consistent_with_finite_differences():
    # the declared derivative of each inexact potential matches a central
    # difference at 60-digit precision
    eps = Fraction(1, 10**15)
    with mp.workdps(60):
        for h in (expt(), gauss(1), riesz(3)):
            for t in (Fraction(0), Fraction(1, 4), Fraction(-1, 2)):
                fd = (h.value(t + eps) - h.value(t - eps)) / (2 * mp.mpf(10) ** -15)
                assert abs(fd - h.derivative(t)) < mp.mpf(10) ** -20


def test_potential_by_spec_parsing():
    assert potential_by_spec("invlin").name == "invlin"
    assert potential_by_spec("riesz:4").name == "riesz:4"
    assert potential_by_spec("gauss:1/2").name == "gauss:1/2"
    with pytest.raises(ValueError, match="unknown potential"):
        potential_by_spec("coulomb")


def test_certificate_json_shape():
    cert = energy_lower_bound(invlin())
    d = cert.to_json_dict()
    assert d["kind"] == "energy_lower_bound"
    assert d["valid"] is True
    assert d["lower_bound"] == str(INVLIN_BOUND)
    assert d["dual_form"] == d["lower_bound"]
    assert len(d["divided_differences"]) == 8
    assert d["partial_products_positive_definite"] == [True] * 7
