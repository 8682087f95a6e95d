import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_fraction
from latcert.exactmath import (
    EMPTY_REGION,
    FactoredPolynomial,
    Interval,
    IntervalRegion,
    Polynomial,
    closed_interval,
    open_interval,
    parse_region,
    poly_from_json,
    poly_to_json,
    region_difference,
    region_union,
    sign_on_region,
)
from latcert.lpcert import MAX_CODE_POLY, MAX_CODE_T, MIN_DESIGN_POLY, MIN_DESIGN_T

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_poly_eval_max_code_fixture():
    assert MAX_CODE_POLY(1) == Fraction(675, 1024)
    assert MAX_CODE_POLY(H) == 0


def test_poly_eval_min_design_fixture():
    assert MIN_DESIGN_POLY(1) == Fraction(135, 64)


def test_expand_difference_of_squares():
    fp = FactoredPolynomial(1, [(-1, 1), (1, 1)])
    assert fp.expand() == Polynomial([-1, 0, 1])


def test_expand_fixture_polynomials():
    p41 = MAX_CODE_POLY.expand()
    assert p41.degree == 10
    assert p41(Fraction(1)) == Fraction(675, 1024)
    p51 = MIN_DESIGN_POLY.expand()
    assert p51.degree == 7
    assert p51(Fraction(1)) == Fraction(135, 64)


def test_factored_rejects_repeated_roots_and_bad_multiplicity():
    with pytest.raises(ValueError):
        FactoredPolynomial(1, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        FactoredPolynomial(1, [(0, 0)])


def test_expand_agrees_with_per_factor_eval_at_random_points():
    rng = random.Random(11)
    for _ in range(20):
        n_roots = rng.randint(0, 5)
        roots = set()
        while len(roots) < n_roots:
            roots.add(random_fraction(rng, span=5, max_den=6))
        fp = FactoredPolynomial(
            random_fraction(rng, span=5, max_den=4) or Fraction(1),
            [(r, rng.randint(1, 3)) for r in roots],
        )
        dense = fp.expand()
        for _ in range(5):
            t = random_fraction(rng, span=3, max_den=8)
            assert dense(t) == fp(t)


def test_polynomial_arithmetic_basics():
    p = Polynomial([1, 2])  # 1 + 2t
    q = Polynomial([0, 0, 3])  # 3t^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert p.derivative() == Polynomial([2])
    assert Polynomial([1, 1]) - Polynomial([1, 1]) == Polynomial()
    assert Polynomial().degree == -1


def test_sign_max_code_region_nonpositive():
    region = region_difference(closed_interval(-1, H), MAX_CODE_T)
    report = sign_on_region(MAX_CODE_POLY, region)
    assert report.verdict == "nonpositive"
    assert report.positive_witness is None


def test_max_code_poly_positive_inside_avoided_gap():
    # all factors positive at 1/8 except (t-1/4) and (t-1/2)^3: two sign flips
    assert MAX_CODE_POLY(Fraction(1, 8)) > 0


def test_sign_min_design_region_nonnegative():
    region = region_difference(closed_interval(-1, 1), MIN_DESIGN_T)
    report = sign_on_region(MIN_DESIGN_POLY, region)
    assert report.verdict == "nonnegative"
    assert report.negative_witness is None


def test_sign_verdict_invariant_under_region_refinement():
    coarse = region_difference(closed_interval(-1, H), MAX_CODE_T)
    fine_pieces = []
    for iv in coarse.intervals:
        mid = (iv.lo + iv.hi) / 2
        fine_pieces.append(
            IntervalRegion(
                (
                    Interval(iv.lo, mid, iv.lo_closed, True),
                    Interval(mid, iv.hi, False, iv.hi_closed),
                )
            )
        )
    for piece in fine_pieces:
        for sub in piece.intervals:
            rep = sign_on_region(MAX_CODE_POLY, IntervalRegion((sub,)))
            assert rep.positive_witness is None


def test_sign_on_empty_region_raises():
    with pytest.raises(ValueError):
        sign_on_region(MAX_CODE_POLY, EMPTY_REGION)


def test_sign_region_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        sign_on_region(MAX_CODE_POLY, closed_interval(-2, 0))


def test_sign_on_degenerate_point_region():
    fp = FactoredPolynomial(1, [(-1, 1)])  # 1 + t
    rep = sign_on_region(fp, closed_interval(-1, -1))
    assert rep.verdict == "nonnegative"
    assert rep.positive_witness is None and rep.negative_witness is None


def test_region_difference_endpoint_flags():
    base = closed_interval(-1, H)
    out = region_difference(base, open_interval(0, Q))
    assert str(out) == "[-1,0]U[1/4,1/2]"
    out2 = region_difference(base, closed_interval(0, Q))
    assert str(out2) == "[-1,0)U(1/4,1/2]"


def test_region_union_merges_touching_intervals():
    r = region_union(closed_interval(0, Q), closed_interval(Q, H))
    assert str(r) == "[0,1/2]"
    r2 = region_union(open_interval(-Q, 0), open_interval(Q, H))
    assert str(r2) == "(-1/4,0)U(1/4,1/2)"


def test_region_contains_respects_openness():
    r = open_interval(0, Q)
    assert not r.contains(0)
    assert r.contains(Fraction(1, 8))
    assert not r.contains(Q)


def test_parse_region_round_trip():
    for text in ("(0,1/4)", "[-1,0]U(1/4,1/2)", "empty"):
        assert str(parse_region(text)) == text
    assert parse_region("(-1/4,0)u(1/4,1/2)") == region_union(
        open_interval(-Q, 0), open_interval(Q, H)
    )
    with pytest.raises(ValueError):
        parse_region("(0;1)")


def test_interval_region_validates_disjointness():
    with pytest.raises(ValueError):
        IntervalRegion((Interval(0, H), Interval(Q, 1)))


def test_poly_json_round_trip():
    fp = MAX_CODE_POLY
    back = poly_from_json(poly_to_json(fp))
    assert isinstance(back, FactoredPolynomial)
    assert back == fp
    with pytest.raises(ValueError):
        poly_from_json({"neither": []})


UNIT = st.fractions(min_value=-1, max_value=1, max_denominator=8)


@st.composite
def regions(draw):
    """A region inside [-1, 1]: consecutive pairs of sorted rational points
    with random open/closed ends, touching neighbours allowed where one end
    is open."""
    points = sorted(draw(st.lists(UNIT, max_size=8)))
    ivs = []
    for lo, hi in zip(points[0::2], points[1::2]):
        lo_closed, hi_closed = (True, True) if lo == hi else (
            draw(st.booleans()), draw(st.booleans()))
        if ivs and ivs[-1].hi == lo and ivs[-1].hi_closed and lo_closed:
            if lo == hi:
                continue
            lo_closed = False
        ivs.append(Interval(lo, hi, lo_closed, hi_closed))
    return IntervalRegion(tuple(ivs))


def _probes(*regions):
    """Every endpoint, the midpoint between each two neighbouring endpoints,
    and +-1."""
    ends = sorted({Fraction(-1), Fraction(1)}
                  | {t for r in regions for iv in r.intervals for t in (iv.lo, iv.hi)})
    return ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]


@settings(max_examples=300, deadline=None)
@given(regions(), regions())
def test_region_algebra_matches_pointwise_membership(a, b):
    union, difference = region_union(a, b), region_difference(a, b)
    for t in _probes(a, b):
        assert union.contains(t) == (a.contains(t) or b.contains(t)), (str(union), t)
        assert difference.contains(t) == (a.contains(t) and not b.contains(t)), (
            str(difference), t)


@settings(max_examples=300, deadline=None)
@given(regions())
def test_parse_region_inverts_str(region):
    r = region_union(region)  # the normal form, which parse_region gives
    back = parse_region(str(r))
    assert back == r and hash(back) == hash(r)
    assert type(back) is IntervalRegion and all(type(iv) is Interval for iv in back.intervals)


@st.composite
def intervals(draw):
    """One interval inside [-1, 1], with random open/closed ends."""
    lo, hi = sorted((draw(UNIT), draw(UNIT)))
    if lo == hi:
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(st.lists(intervals(), min_size=1, max_size=5))
def test_parse_region_merges_intervals_in_any_order(ivs):
    # overlapping or touching intervals are merged, not refused
    singles = [IntervalRegion((iv,)) for iv in ivs]
    parsed = parse_region("U".join(map(str, ivs)))
    assert parsed == region_union(*singles)
    for t in _probes(parsed, *singles):
        assert parsed.contains(t) == any(iv.contains(t) for iv in ivs), (str(parsed), t)


@st.composite
def factored_polynomials(draw):
    roots = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=8),
                          max_size=5, unique=True))
    leading = draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)
                   .filter(lambda c: c != 0))
    return FactoredPolynomial(leading, [(r, draw(st.integers(1, 3))) for r in roots])


@settings(max_examples=200, deadline=None)
@given(factored_polynomials(), regions().filter(lambda r: not r.is_empty()))
def test_sign_on_region_matches_dense_evaluation(fp, region):
    report = sign_on_region(fp, region)
    grid = [Fraction(k, 64) for k in range(-64, 65)]
    grid += fp.roots() + [t for iv in region.intervals for t in (iv.lo, iv.hi)]
    values = [fp(t) for t in grid if region.contains(t)]
    if any(v > 0 for v in values):
        assert report.verdict in ("nonnegative", "mixed")
        assert report.positive_witness is not None
    if any(v < 0 for v in values):
        assert report.verdict in ("nonpositive", "mixed")
        assert report.negative_witness is not None
    for witness, sign in ((report.positive_witness, 1), (report.negative_witness, -1)):
        if witness is not None:
            assert region.contains(witness) and sign * fp(witness) > 0
