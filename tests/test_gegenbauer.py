import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial
from latcert.exactmath import FactoredPolynomial, Polynomial
from latcert.gegenbauer import (
    gegenbauer_expand,
    gegenbauer_poly,
    integrate_weighted,
    is_positive_definite,
    reconstruct,
    weight_moment,
)
from latcert.lpcert import MAX_CODE_EXPANSION, MAX_CODE_POLY, P7_EXPANSION, P7_POLY


def test_p0_is_one_and_p1_is_t():
    assert gegenbauer_poly(32, 0) == Polynomial([1])
    assert gegenbauer_poly(32, 1) == Polynomial([0, 1])


def test_normalization_at_one():
    for i in range(0, 13):
        assert gegenbauer_poly(32, i)(Fraction(1)) == 1


def test_p2_closed_form():
    # one recurrence step: (n-1) P_2 = n t^2 - 1
    assert gegenbauer_poly(32, 2) == Polynomial([Fraction(-1, 31), 0, Fraction(32, 31)])


def test_invalid_dimension():
    with pytest.raises(ValueError):
        gegenbauer_poly(1, 3)


def test_degree_cap():
    with pytest.raises(ValueError):
        gegenbauer_poly(32, 65)


def test_expand_max_code_polynomial_matches_reference_table():
    e = gegenbauer_expand(32, MAX_CODE_POLY.expand())
    assert e.coeffs == MAX_CODE_EXPANSION


def test_expand_p7_matches_reference_table():
    e = gegenbauer_expand(32, P7_POLY.expand())
    assert e.coeffs == P7_EXPANSION


def test_expand_constant():
    e = gegenbauer_expand(32, Polynomial([1]))
    assert e.coeffs == (Fraction(1),)


def test_round_trip_random_polynomials():
    rng = random.Random(7)
    for _ in range(25):
        p = random_polynomial(rng, 12)
        e = gegenbauer_expand(32, p)
        assert reconstruct(e) == p


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([3, 8, 24, 32]))
def test_reconstruct_inverts_expand(rng, n):
    p = random_polynomial(rng, 12)
    assert reconstruct(gegenbauer_expand(n, p)) == p


def test_coefficients_sum_to_value_at_one():
    rng = random.Random(8)
    for _ in range(25):
        p = random_polynomial(rng, 10)
        e = gegenbauer_expand(32, p)
        assert sum(e.coeffs) == p(Fraction(1))


def test_krein_product_closure():
    # products of basis elements have nonnegative expansions (n = 32, i,j <= 5)
    for i in range(6):
        for j in range(6):
            prod = gegenbauer_poly(32, i) * gegenbauer_poly(32, j)
            e = gegenbauer_expand(32, prod)
            assert all(c >= 0 for c in e.coeffs), (i, j)


def test_orthogonality_spot_check():
    # weighted integrals of P_i P_j vanish for i != j (exact moment functional)
    for i in range(5):
        for j in range(5):
            val = integrate_weighted(32, gegenbauer_poly(32, i) * gegenbauer_poly(32, j))
            if i == j:
                assert val > 0
            else:
                assert val == 0


def test_weight_moments():
    assert weight_moment(32, 0) == 1
    assert weight_moment(32, 1) == 0
    assert weight_moment(32, 2) == Fraction(1, 32)
    assert weight_moment(32, 4) == Fraction(3, 32 * 34)


def test_f0_equals_weighted_integral_oracle():
    rng = random.Random(9)
    for _ in range(25):
        p = random_polynomial(rng, 10)
        assert gegenbauer_expand(32, p).coeffs[0] == integrate_weighted(32, p)


def test_positive_definite_verdicts():
    e7 = gegenbauer_expand(32, P7_POLY.expand())
    assert is_positive_definite(e7).positive_definite

    e41 = gegenbauer_expand(32, MAX_CODE_POLY.expand())
    verdict = is_positive_definite(e41)
    assert not verdict.positive_definite
    assert verdict.negative_indices == (2, 3)

    shifted = gegenbauer_expand(32, FactoredPolynomial(1, [(Fraction(-1, 2), 1)]).expand())
    assert is_positive_definite(shifted).positive_definite
