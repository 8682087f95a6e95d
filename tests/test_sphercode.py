import itertools
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import norm32_magnitudes, random_polynomial, run_cli
from latcert.exactmath import Polynomial
from latcert.gegenbauer import distribution_from_design, gegenbauer_expand, gegenbauer_poly
from latcert import sphercode
from latcert.lattice32 import (Shell, _joint_tables, load_shell, make_shell, save_shell,
                               venkov_sample)
from latcert.sphercode import (
    ALL,
    DistanceDistribution,
    _candidate_flips,
    _column_counts,
    _orbit_pass,
    _sign_words,
    check_distance_invariance,
    design_strength,
    distance_distribution_at,
    histogram,
    histogram_from_distribution,
    moments,
    quadrature_check,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)
N = 146880

EXPECTED_DISTRIBUTION = {
    Fraction(-1): 1,
    -H: 1240,
    -Q: 31744,
    Fraction(0): 80910,
    Q: 31744,
    H: 1240,
    Fraction(1): 1,
}
SUPPORT = {Fraction(-1), -H, -Q, Fraction(0), Q, H}


@pytest.fixture(scope="module")
def tiny_pair_shell():
    return make_shell([[4, 4, 0, 0], [-4, -4, 0, 0]])


@pytest.fixture(scope="module")
def small_antipodal_shell():
    # all vectors with two +-4 coordinates in dimension 4 (24 vectors)
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (4, -4):
                for sj in (4, -4):
                    row = [0, 0, 0, 0]
                    row[i], row[j] = si, sj
                    rows.append(row)
    return make_shell(rows)


def test_histogram_support_and_scaling(rm_hist):
    hist = rm_hist.result
    assert set(hist.counts) == SUPPORT
    assert hist.counts[-H] == N * 1240
    assert hist.counts[Fraction(-1)] == N
    assert hist.total() == N * (N - 1)


def test_histogram_symmetry(rm_hist):
    hist = rm_hist.result
    for t in (Q, H):
        assert hist.counts[t] == hist.counts[-t]


def test_two_point_histogram(tiny_pair_shell):
    hist = histogram(tiny_pair_shell)
    assert hist.counts == {Fraction(-1): 2}


def test_small_shell_histogram_matches_brute_force(small_antipodal_shell):
    sh = small_antipodal_shell
    hist = histogram(sh)
    brute = {}
    vecs = sh.vectors.astype(int)
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if i != j:
                t = Fraction(int(vecs[i] @ vecs[j]), 32)
                brute[t] = brute.get(t, 0) + 1
    assert hist.counts == brute


def test_distance_distribution_at_point(rm_shell):
    sh = rm_shell.result
    for idx in (0, 77777):
        dist = distance_distribution_at(sh, sh.vectors[idx])
        assert dist.a == EXPECTED_DISTRIBUTION
        assert dist[1] == 1
        assert dist.total() == N


def test_distance_distribution_requires_membership(rm_shell):
    import numpy as np

    probe = np.zeros(32, dtype=np.int8)
    probe[0] = 5
    with pytest.raises(ValueError, match="not in the shell"):
        distance_distribution_at(rm_shell.result, probe)


def test_sampled_invariance(rm_shell):
    inv = check_distance_invariance(rm_shell.result, sample=500, seed=3)
    assert inv.invariant
    assert inv.mode == "sampled"
    assert inv.distribution.a == EXPECTED_DISTRIBUTION


def test_invariance_counterexample():
    rows = [[-4, -4, 0, 0], [0, 0, 4, 4], [4, 4, 0, 0]]  # sorted, not antipodal
    three = Shell(np.array(rows, dtype=np.int8))
    inv = check_distance_invariance(three, sample=ALL)
    assert not inv.invariant
    (i, di), (j, dj) = inv.counterexample
    assert di.a != dj.a


def test_invariance_of_antipodal_orbit(tiny_pair_shell):
    inv = check_distance_invariance(tiny_pair_shell, sample=ALL)
    assert inv.invariant
    assert inv.distribution.a == {Fraction(-1): 1, Fraction(1): 1}


def test_full_invariance_on_small_shell_matches_per_point(small_antipodal_shell):
    sh = small_antipodal_shell
    inv = check_distance_invariance(sh, sample=ALL)
    assert inv.invariant
    assert inv.distribution.a == distance_distribution_at(sh, sh.vectors[0]).a


def test_moments_vanishing_pattern(rm_shell, rm_hist):
    mv = moments(rm_shell.result, 12, rm_hist.result)
    for i in range(1, 8):
        assert mv[i] == 0, i
    assert mv[8] != 0
    assert mv[9] == 0
    assert mv[10] == 0
    assert mv[11] == 0  # odd moment of an antipodal code


def test_moment_two_directly_from_distribution():
    # M_2 = N * [sum_t A_t P_2(t)] with P_2 = (32 t^2 - 1)/31
    p2 = gegenbauer_poly(32, 2)
    total = sum(c * p2(t) for t, c in EXPECTED_DISTRIBUTION.items())
    assert N * total == 0


def test_design_strength_of_shell(rm_shell, rm_hist):
    rep = design_strength(rm_shell.result, cap=12, hist=rm_hist.result)
    assert rep.tau == 7
    assert {9, 10}.issubset(set(rep.extra_vanishing))


def test_design_strength_two_point_code(tiny_pair_shell):
    rep = design_strength(tiny_pair_shell, cap=6, hist=histogram(tiny_pair_shell))
    assert rep.tau == 1
    # M_2 = 2 + 2 P_2(-1) = 4 since P_2(-1) = 1
    assert rep.moments[2] == 4


def test_quadrature_t_squared():
    dist = DistanceDistribution(dict(EXPECTED_DISTRIBUTION))
    verdict = quadrature_check(dist, Polynomial.monomial(2), 32, N, 7)
    assert verdict.holds
    assert verdict.lhs == 4590
    assert verdict.rhs == 4590
    assert verdict.warning is None


def test_quadrature_constant():
    dist = DistanceDistribution(dict(EXPECTED_DISTRIBUTION))
    verdict = quadrature_check(dist, Polynomial([1]), 32, N, 7)
    assert verdict.holds and verdict.rhs == N


def test_quadrature_random_low_degree():
    dist = DistanceDistribution(dict(EXPECTED_DISTRIBUTION))
    rng = random.Random(21)
    for _ in range(40):
        p = random_polynomial(rng, 7)
        verdict = quadrature_check(dist, p, 32, N, 7)
        assert verdict.holds, p


def test_quadrature_degree_above_strength_warns():
    dist = DistanceDistribution(dict(EXPECTED_DISTRIBUTION))
    verdict = quadrature_check(dist, Polynomial.monomial(8), 32, N, 7)
    assert verdict.warning is not None
    assert not verdict.holds  # M_8 != 0, so the degree-8 identity must fail


def test_distribution_from_design_fixture():
    dist = distribution_from_design(sorted(SUPPORT), N, 32, 7)
    assert dist.a == EXPECTED_DISTRIBUTION


def test_distribution_matches_empirical(rm_shell):
    sh = rm_shell.result
    dist = distribution_from_design(sorted(SUPPORT), N, 32, 7)
    assert dist.a == distance_distribution_at(sh, sh.vectors[0]).a


def test_distribution_from_design_two_points():
    dist = distribution_from_design([Fraction(-1)], 2, 32, 3)
    assert dist.a == {Fraction(-1): 1, Fraction(1): 1}


def test_distribution_from_design_errors():
    with pytest.raises(ValueError, match="exceeds tau"):
        distribution_from_design(sorted(SUPPORT), N, 32, 6)
    with pytest.raises(ValueError, match="singular"):
        distribution_from_design([Fraction(0), Fraction(0)], 4, 32, 5)
    with pytest.raises(ValueError, match="negative"):
        distribution_from_design([H], 2, 32, 3)
    # A_1 = -1: the guard must reject -1 as well as -2
    with pytest.raises(ValueError, match="negative distribution entry A_1 = -1"):
        distribution_from_design([Fraction(1, 2)], 1, 32, 3)
    with pytest.raises(ValueError, match="non-integral"):
        distribution_from_design([-H], 5, 32, 3)


def test_histogram_from_distribution():
    dist = DistanceDistribution(dict(EXPECTED_DISTRIBUTION))
    hist = histogram_from_distribution(dist, N)
    assert hist.total() == N * (N - 1)
    assert hist.counts[Fraction(0)] == N * 80910
    assert Fraction(1) not in hist.counts


def test_main_identity_on_small_shell(small_antipodal_shell):
    # double counting of f over C x C: histogram side == moment side, exactly
    sh = small_antipodal_shell
    hist = histogram(sh)
    n_pts = hist.n_points
    rng = random.Random(33)
    for _ in range(30):
        f = random_polynomial(rng, 10)
        e = gegenbauer_expand(sh.dim, f)
        mv = moments(sh, max(1, f.degree), hist)
        lhs = f(Fraction(1)) * n_pts + sum(c * f(t) for t, c in hist.counts.items())
        rhs = e.coeffs[0] * n_pts * n_pts + sum(
            e.coeffs[i] * mv[i] for i in range(1, len(e.coeffs))
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the orbit-reduced pair passes against an int64 brute force


MAGNITUDES = {dim: norm32_magnitudes(dim) for dim in (*range(4, 9), *range(33, 41))}
FULL_MAGNITUDES = {dim: [m for m in MAGNITUDES[dim] if all(m)] for dim in range(5, 9)}


@st.composite
def flip_closed_shells(draw, dims=(4, 8), full_row=False, drop=False):
    """A few random norm-32 rows in dim 4-8 (or in dims), closed under a
    random set of sign flips; sometimes one point and its antipode are then
    removed.  With full_row (dims within 5-8), the first row has no zero
    entry and no minus sign, so the minus signs of its flips are the span of
    the drawn flips: the orbit pass finds them, and the rows whose support
    they act on in fewer ways get smaller orbits.  With drop, one point is
    always removed, and its antipode too unless a drawn boolean keeps it."""
    dim = draw(st.integers(*dims))
    signs = st.lists(st.booleans(), min_size=dim, max_size=dim)
    rows = set()
    for k in range(draw(st.integers(1 + full_row, 3))):
        if full_row and not k:  # no zero entry
            mags = draw(st.sampled_from(FULL_MAGNITUDES[dim]))
        elif full_row:  # two +-4
            mags = (4, 4) + (0,) * (dim - 2)
        else:
            mags = draw(st.sampled_from(MAGNITUDES[dim]))
        perm = draw(st.permutations(range(dim)))
        neg = [False] * dim if full_row and not k else draw(signs)
        rows.add(tuple(-mags[p] if f else mags[p] for p, f in zip(perm, neg)))
    for flip in draw(st.lists(signs, min_size=3 if full_row else 0, max_size=4)):
        rows |= {tuple(-v if f else v for v, f in zip(r, flip)) for r in rows}
    rows = sorted(rows)
    if drop or draw(st.booleans()):
        x = draw(st.sampled_from(rows))
        gone = {x} if drop and draw(st.booleans()) else {x, tuple(-v for v in x)}
        rows = [r for r in rows if r not in gone] or rows
    return Shell(np.array(rows, dtype=np.int8))


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.booleans(), st.data())
def test_shell_sorts_its_rows_and_make_shell_checks_negation(shell, antipodal, data):
    rows = {tuple(r) for r in shell.vectors.tolist()}
    if antipodal:
        rows |= {tuple(-v for v in r) for r in rows}
    drawn = np.array(data.draw(st.permutations(sorted(rows))), dtype=np.int8)
    layout = data.draw(st.sampled_from(["C", "reversed", "Fortran"]))
    arr = {"C": drawn, "reversed": drawn[::-1], "Fortran": np.asfortranarray(drawn)}[layout]
    made = Shell(arr)
    assert made.vectors.tolist() == [list(r) for r in sorted(rows)]
    assert made.vectors.flags.c_contiguous and not made.vectors.flags.writeable
    assert not np.shares_memory(made.vectors, drawn)
    closed = {tuple(-v for v in r) for r in rows} == rows
    try:
        make_shell(arr)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "shell is not closed under negation"
        accepted = False
    assert accepted == closed


def _assert_matches_brute_force(shell):
    D = shell.vectors.astype(np.int64) @ shell.vectors.astype(np.int64).T
    per_point = [{Fraction(v, 32): c for v, c in Counter(r.tolist()).items()} for r in D]
    off_diagonal = D[~np.eye(len(D), dtype=bool)].tolist()
    pairs = {Fraction(v, 32): c for v, c in Counter(off_diagonal).items()}
    assert histogram(shell).counts == pairs
    differ = [i for i, d in enumerate(per_point) if d != per_point[0]]
    full = check_distance_invariance(shell, sample=ALL)
    assert full.histogram.counts == pairs
    for inv in (full, check_distance_invariance(shell, sample=len(D))):
        assert inv.invariant == (not differ)
        if differ:
            (i, di), (j, dj) = inv.counterexample
            assert (i, j) == (0, differ[0])
            assert (di.a, dj.a) == (per_point[0], per_point[j])
        else:
            assert inv.distribution.a == per_point[0]
    return full


@settings(max_examples=300, deadline=None)
@given(flip_closed_shells())
def test_pair_passes_match_brute_force(shell):
    inv = _assert_matches_brute_force(shell)
    assert inv.checked == shell.count
    assert 1 <= inv.representatives <= shell.count


def _hamming_shell(extra=()):
    """All +-2 rows with minus sets in the [8,4,4] extended Hamming code, all
    rows with two +-4, and the extra rows."""
    generator = np.array([[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
                          [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]])
    hamming = [np.array(m) @ generator % 2 for m in itertools.product((0, 1), repeat=4)]
    rows = [list(2 - 4 * word) for word in hamming] + list(extra)
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((4, -4), repeat=2):
            row = [0] * 8
            row[i], row[j] = si, sj
            rows.append(row)
    return make_shell(rows)


def test_full_pass_finds_flip_group_on_small_shell():
    # the 16 code flips act on the Hamming shell, with 1 + 28 orbits
    inv = _assert_matches_brute_force(_hamming_shell())
    assert (inv.group_order, inv.representatives) == (16, 29)


def _flip(row, flip):
    """row with the coordinates in the bit set flip negated."""
    return tuple(-v if flip >> k & 1 else v for k, v in enumerate(row))


def _brute_force_flips(rows, dim):
    """The candidate flips as coordinate bit sets, by Python-int elimination
    of the minus sets of the rows with no zero entry: pivots from the lowest
    coordinate up, each the first row with its coordinate once the earlier
    pivots are cleared; then negation if it lies outside their span."""
    sets = [sum(1 << k for k, v in enumerate(r) if v < 0) for r in rows if all(r)]
    basis = []
    for c in range(dim):
        hit = [m for m in sets if m >> c & 1]
        if hit:
            basis.append(hit[0])
            sets = [m ^ hit[0] if m >> c & 1 else m for m in sets]
    neg = (1 << dim) - 1
    for pivot in basis:
        if neg & pivot & -pivot:
            neg ^= pivot
    return basis + [(1 << dim) - 1] if neg else basis


def _flips_of(V):
    """_candidate_flips on the minus words of V's rows with no zero entry."""
    full = V[V.all(axis=1)]
    return _candidate_flips(_sign_words(full, full < 0), V.shape[1])


def _brute_force_orbits(shell):
    """(representatives, orbit sizes, group order) for the candidate flips
    that map the row set onto itself, by closing Python row sets."""
    rows = [tuple(r) for r in shell.vectors.tolist()]
    kept = [f for f in _brute_force_flips(rows, shell.dim)
            if {_flip(r, f) for r in rows} == set(rows)]
    reps, sizes, seen = [], [], set()
    for i, row in enumerate(rows):
        if row not in seen:
            orbit = {row}
            for f in kept:  # the flips commute: one pass per generator
                orbit |= {_flip(r, f) for r in orbit}
            seen |= orbit
            reps.append(i)
            sizes.append(len(orbit))
    return reps, sizes, 2 ** len(kept)


# 32 entries +-1 on coordinates 8..39 and two +-4 on 38, 39: minus signs
# packed from coordinates past 32, where negation is the only candidate flip
_WIDE_ROWS = [
    [0] * 8 + [1 - 2 * ((m >> k) & 1) for k in range(32)] for m in (0, 5, ~0, ~5)
] + [[0] * 38 + [4 * a, 4 * b] for a in (1, -1) for b in (1, -1)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(dims=(33, 40))))
@example(make_shell(_WIDE_ROWS))
@example(_hamming_shell())
def test_orbits_match_brute_force_closure(shell):
    reps, sizes, table, order = _orbit_pass(shell.vectors)
    assert (reps.tolist(), sizes.tolist(), order) == _brute_force_orbits(shell)
    assert table.shape == (65, len(reps))


@settings(max_examples=200, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(drop=True),
                 flip_closed_shells(dims=(33, 40))))
def test_distance_distribution_at_matches_integer_dots(shell):
    V = shell.vectors.astype(np.int64)
    event("folded" if shell.count % 2 == 0 and (V == -V[::-1]).all() else "unfolded")
    for x in V:
        brute = Counter(Fraction(d, 32) for d in (V @ x).tolist())
        assert distance_distribution_at(shell, x).a == brute


def test_orbit_pass_rejects_flips_that_do_not_permute_the_shell():
    # a +-2 row with minus set {0}, and its negation: no code flip but the
    # all-ones word maps {0} into the row set, so only negation survives
    shell = _hamming_shell([[-2] + [2] * 7, [2] + [-2] * 7])
    assert len(_flips_of(shell.vectors)) == 5
    reps, sizes, _, order = _orbit_pass(shell.vectors)
    assert (order, len(reps)) == (2, 65)
    assert (reps.tolist(), sizes.tolist(), order) == _brute_force_orbits(shell)
    _assert_matches_brute_force(shell)


def test_candidate_flips_own_their_data():
    # a basis flip that is a view of a row of an elimination step keeps that
    # whole array alive: 16 such arrays on a lattice shell.  Python ints
    # hold no array.
    flips = _flips_of(_hamming_shell().vectors)
    assert len(flips) == 4
    assert all(type(flip) is int for flip in flips)


def test_candidate_flips_above_dim_32_are_negation_only():
    # s.s = 32 leaves every row of a shell past dim 32 a zero entry
    shell = make_shell(_WIDE_ROWS)
    assert _flips_of(shell.vectors) == [2**32 - 1]
    assert _brute_force_flips(shell.vectors.tolist(), shell.dim) == [2**40 - 1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(drop=True),
                 flip_closed_shells(dims=(5, 8), full_row=True, drop=True),
                 flip_closed_shells(dims=(33, 40), drop=True)))
def test_orbits_match_brute_force_on_shells_missing_points(shell):
    # a class that lost points is not a union of cosets of every candidate:
    # its rows check each flip, and the kept flips give the orbits
    rows = shell.vectors.tolist()
    flips = _flips_of(shell.vectors)
    if shell.dim <= 32:  # the same coordinate bit sets
        assert flips == _brute_force_flips(rows, shell.dim)
    else:
        assert flips == [2**32 - 1]
    reps, sizes, labels, order = sphercode._orbits(shell.vectors)
    event("a candidate flip fails" if order < 2 ** len(flips) else "every candidate holds")
    assert (reps.tolist(), sizes.tolist(), order) == _brute_force_orbits(shell)
    assert np.array_equal(np.bincount(labels, minlength=len(reps)), sizes)
    assert np.array_equal(labels[reps], np.arange(len(reps)))


def test_orbits_on_rm_shell_missing_a_pair_of_a_128_orbit(rm_shell):
    # x and -x leave the class of a 128-orbit, which is then no union of
    # cosets of the 2^16 code flips: only that class's rows check each flip
    V = rm_shell.result.vectors
    reps, sizes, _, _ = sphercode._orbits(V)
    x = V[reps[np.flatnonzero(sizes == 128)[0]]]
    W = make_shell(V[~((V == x).all(axis=1) | (V == -x).all(axis=1))]).vectors
    reps, sizes, table, order = _orbit_pass(W)
    assert (len(W), len(reps), order) == (N - 2, 2411, 1024)
    assert np.array_equal(table, _column_counts(W, reps))


def _brute_force_columns(vectors, cols):
    V = vectors.astype(np.int64)
    return np.array([np.bincount(V @ V[c] + 32, minlength=65) for c in cols]).T


def _folds(V):
    half = len(V) // 2
    return np.array_equal(-V[half:][::-1], V[:half])


def _column_case(case):
    V = _hamming_shell().vectors  # canonical and antipodal: the fold applies
    rng = np.random.default_rng(7)
    if case == "odd":
        V = V[np.sort(rng.choice(len(V), size=len(V) - 1, replace=False))]
    elif case == "shuffled":  # antipodal rows, but not in canonical order
        V = V[rng.permutation(len(V))]
    assert _folds(V) == (case == "canonical")
    return V


CASES = ["canonical", "odd", "shuffled"]


@pytest.mark.parametrize("case", CASES)
def test_column_counts_match_brute_force(case):
    V = _column_case(case)
    cols = np.array([0, 3, 17, len(V) - 1, 3])  # odd: pads with its last column
    table = _column_counts(V, cols)
    assert np.array_equal(table, _brute_force_columns(V, cols))


# one column, an even count, a column paired with itself (keys 0 and 4224,
# both ends of the paired key's range) and rows paired with their antipodes
# (keys 64 and 4160, the other two corners of the 65 x 65 table)
@pytest.mark.parametrize(
    "cols", [[5], [0, 17], [9, 9], "antipode"], ids=["one", "even", "self", "antipode"]
)
@pytest.mark.parametrize("case", CASES)
def test_column_counts_of_paired_columns(case, cols):
    V = _column_case(case)
    if cols == "antipode":
        cols = [j for i in (0, 40) for j in (i, *np.flatnonzero((V == -V[i]).all(axis=1)))]
    cols = np.array(cols)
    table = _column_counts(V, cols)
    assert table.shape == (65, len(cols))
    assert np.array_equal(table, _brute_force_columns(V, cols))


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "rolled"])
def test_column_counts_match_brute_force_across_blocks(rm_shell, fold):
    # 121 columns: 61 pairs, more than two key blocks (28 pairs of the 73440
    # counted rows, 14 of all 146880), the last one partial, as is the last
    # 8192-row block of either row count; rows 0 and N - 1 among the columns
    V = rm_shell.result.vectors
    V = V if fold else np.roll(V, 1, axis=0)
    assert _folds(V) == fold
    rng = np.random.default_rng(17)
    cols = np.r_[0, N - 1, rng.choice(np.arange(1, N - 1), 119, replace=False)]
    table = _column_counts(V, cols)
    assert np.array_equal(table, _brute_force_columns(V, cols))


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.booleans(), st.booleans(), st.data())
def test_column_counts_match_brute_force_on_random_columns(shell, antipodal, shuffle, data):
    rows = {tuple(r) for r in shell.vectors.tolist()}
    if antipodal:
        rows |= {tuple(-v for v in r) for r in rows}
    V = np.array(sorted(rows), dtype=np.int8)
    if shuffle:
        V = V[data.draw(st.permutations(range(len(V))))]
    assert _folds(V) or not (antipodal and not shuffle)
    cols = np.array(data.draw(st.lists(st.integers(0, len(V) - 1), min_size=1, max_size=9)))
    table = _column_counts(V, cols)
    assert np.array_equal(table, _brute_force_columns(V, cols))


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.booleans(), st.data())
def test_column_counts_over_row_subsets_match_brute_force(shell, mirrored, data):
    rows = {tuple(r) for r in shell.vectors.tolist()}
    rows |= {tuple(-v for v in r) for r in rows}
    V = np.array(sorted(rows), dtype=np.int8)  # canonical and antipodal
    if mirrored:  # the subset folds with V: it holds len(V) - 1 - k for each k
        half = np.array(sorted(data.draw(st.sets(st.integers(0, len(V) // 2 - 1), min_size=1))))
        subset = np.union1d(half, len(V) - 1 - half)
    else:
        subset = np.array(sorted(data.draw(st.sets(st.integers(0, len(V) - 1), min_size=1))))
    cols = np.array(data.draw(st.lists(st.integers(0, len(V) - 1), min_size=1, max_size=9)))
    table = _column_counts(V, cols, subset.astype(np.int32))
    dots = V[subset].astype(np.int64) @ V[cols].astype(np.int64).T + 32
    assert np.array_equal(table, np.array([np.bincount(d, minlength=65) for d in dots.T]).T)


def _brute_force_joint(V, a, b):
    """(65, 65) int64 counts of the rows x with x.V[b] + 32, x.V[a] + 32."""
    D = V.astype(np.int64) @ V[[a, b]].astype(np.int64).T + 32
    return np.bincount(D[:, 0] + 65 * D[:, 1], minlength=65 * 65).reshape(65, 65)


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.data())
def test_joint_tables_match_brute_force(shell, data):
    rows = {tuple(r) for r in shell.vectors.tolist()}
    rows |= {tuple(-v for v in r) for r in rows}
    V = np.array(sorted(rows), dtype=np.int8)  # canonical and antipodal
    # shuffled, and one row short: an odd row count never folds
    W = V[data.draw(st.permutations(range(len(V))))][1:]
    # sorted, but holding no row's negation: an even count, so the fold
    # test must compare the rows to say no
    X = V[len(V) // 2 :][: len(V) // 4 * 2]
    cases = (V, W, X) if len(X) else (V, W)
    assert _folds(V) and not any(_folds(U) for U in cases[1:])
    for U in cases:
        index = st.integers(0, len(U) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=9))
        i = pairs[0][0]
        # a row with itself, with its antipode (when present), and a repeated pair
        antipodes = np.flatnonzero((U == -U[i]).all(axis=1)).tolist()
        pairs += [(i, i), *((i, k) for k in antipodes), pairs[0]]
        a, b = np.array(pairs).T
        tables = list(_joint_tables(U, a, b))
        assert len(tables) == len(pairs)
        for (i, j), table in zip(pairs, tables):
            assert np.array_equal(table, _brute_force_joint(U, i, j))


def test_orbit_pair_counts_match_the_one_sided_table(rm_shell):
    # orbits of sizes 4, 128 and 65536: each pair of orbits counted once
    V = rm_shell.result.vectors
    reps, sizes, table, _ = _orbit_pass(V)
    assert np.unique(sizes).tolist() == [4, 128, 65536]
    assert np.array_equal(table, _column_counts(V, reps))


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(dims=(5, 8), full_row=True)))
@example(_hamming_shell())
@example(make_shell(_WIDE_ROWS))
def test_orbit_pair_counts_match_brute_force(shell):
    V = shell.vectors
    reps, sizes, table, _ = _orbit_pass(V)
    event(f"{len(np.unique(sizes))} orbit sizes")
    assert np.array_equal(table, _column_counts(V, reps))
    assert np.array_equal(table, _brute_force_columns(V, reps))


def test_orbit_pair_counts_without_negation():
    # flipping coordinates 0 and 1 maps these rows onto themselves, and
    # negation does not: orbits of sizes 1 and 2, and the rows do not fold
    rows = [[2] * 8, [-2, -2] + [2] * 6, [4, 4] + [0] * 6, [-4, -4] + [0] * 6,
            [4, 0, 4] + [0] * 5, [-4, 0, 4] + [0] * 5,
            [0, 0, 4, 4] + [0] * 4, [0, 0, 4, -4] + [0] * 4]
    shell = Shell(np.array(rows, dtype=np.int8))
    assert not _folds(shell.vectors)
    reps, sizes, table, order = _orbit_pass(shell.vectors)
    assert (order, sorted(sizes.tolist())) == (2, [1, 1, 2, 2, 2])
    assert np.array_equal(table, _brute_force_columns(shell.vectors, reps))
    _assert_matches_brute_force(shell)


def test_orbit_pair_counts_reject_rows_outside_their_orbit(monkeypatch, tmp_path):
    # one row of an orbit of 4 labelled as a row of another: "orbits" of 3
    # and 5, whose counts from the orbit of 16 are not multiples of 3 and 5
    orbits = sphercode._orbits

    def moved(V):
        reps, sizes, labels, order = orbits(V)
        i, j = np.flatnonzero(sizes == 4)[:2]
        labels[np.flatnonzero(labels == i)[-1]] = j  # not i's representative
        sizes[[i, j]] += [-1, 1]
        return reps, sizes, labels, order

    monkeypatch.setattr(sphercode, "_orbits", moved)
    shell = _hamming_shell()
    message = "orbit pair counts are not multiples of the orbit sizes"
    with pytest.raises(RuntimeError, match=message):
        check_distance_invariance(shell, ALL)
    path = tmp_path / "hamming.shell"
    save_shell(shell, path)
    assert run_cli("verify", "--shell", str(path), "--full") == (
        1, "", f"error: internal check failed: {message}\n")


@pytest.mark.parametrize("sample", [0, -5])
def test_sampled_invariance_rejects_sample_below_one(small_antipodal_shell, sample):
    with pytest.raises(ValueError, match="sample must be at least 1"):
        check_distance_invariance(small_antipodal_shell, sample=sample)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_pair_passes_reject_vectors_off_norm(flags):
    # an entry of 6 puts dots outside the 65 bins; s.s = 4 is merely off-norm.
    # No Shell holds either, so no pass sees them: the constructor raises a
    # ValueError, also under -O, which drops asserts.
    script = (
        "import numpy as np\n"
        "from latcert.lattice32 import Shell\n"
        "for rows in ([[6, 0, 0, 0], [-6, 0, 0, 0]], [[2, 0, 0, 0], [-2, 0, 0, 0]]):\n"
        "    try:\n"
        "        Shell(np.array(rows, dtype=np.int8))\n"
        "    except ValueError as exc:\n"
        "        if 'vector 0 has s.s = ' not in str(exc):\n"
        "            raise\n"
        "    else:\n"
        "        raise SystemExit(f'accepted {rows}')\n"
    )
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("code", ["rm", "xqr"])
def test_full_pass_uses_the_codeword_flip_group(request, code):
    shell = request.getfixturevalue(f"{code}_shell").result
    full = request.getfixturevalue(f"{code}_full_invariance").result
    assert (full.group_order, full.representatives) == (2**16, 1117)
    sampled = check_distance_invariance(shell, sample=1000, seed=5)
    assert sampled.invariant
    assert (sampled.group_order, sampled.representatives) == (1, 1000)
    assert sampled.histogram is None
    hist = request.getfixturevalue(f"{code}_hist").result
    assert full.histogram.counts == hist.counts
    assert hist.counts == histogram_from_distribution(sampled.distribution, N).counts


def _peak_over_rows(shell, fn):
    """fn()'s tracemalloc peak as a multiple of the shell's int8 bytes."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / shell.vectors.nbytes


def test_full_pass_peak_memory(rm_shell):
    # the kernel makes float32 of 8192 counted rows at a time: a float32 copy
    # of all of them is 2x the int8 rows on its own, of the whole shell 4x
    shell = rm_shell.result
    assert _peak_over_rows(shell, lambda: check_distance_invariance(shell, ALL)) <= 3


def test_pair_kernel_peak_memory(rm_shell):
    # one uint16 key block of about 2^21 keys (0.9x) and one 8192-row
    # float32 product at a time
    shell = rm_shell.result
    assert _peak_over_rows(shell, lambda: venkov_sample(shell, 100, 1)) <= 2


def test_full_pass_on_shell_missing_an_antipodal_pair(rm_shell, rm_hist):
    sh = rm_shell.result
    x = np.zeros(32, dtype=np.int8)
    x[:2] = 4
    keep = np.ones(sh.count, dtype=bool)
    keep[[sh.index_of(x), sh.index_of(-x)]] = False
    broken = make_shell(sh.vectors[keep])
    inv = check_distance_invariance(broken, sample=ALL)
    assert inv.invariant is False
    (i, di), (j, dj) = inv.counterexample
    assert i == 0 < j
    assert di.a == distance_distribution_at(broken, broken.vectors[i]).a
    assert dj.a == distance_distribution_at(broken, broken.vectors[j]).a
    # the ordered pairs through x or -x leave: 4 A_t each, and (x, -x) and
    # (-x, x) were counted twice
    expected = {
        t: c - 4 * EXPECTED_DISTRIBUTION[t] + 2 * (t == -1)
        for t, c in rm_hist.result.counts.items()
    }
    assert inv.histogram.counts == histogram(broken).counts == expected


def test_pair_passes_reject_an_empty_shell(tmp_path):
    # no Shell is empty, so no pass sees one
    p = tmp_path / "empty.txt"
    p.write_text("latcert-shell v1 n=4 count=0 scale=2sqrt2\n")
    empty = np.zeros((0, 4), dtype=np.int8)
    for make in (lambda: load_shell(p), lambda: make_shell(empty),
                 lambda: Shell(empty)):
        with pytest.raises(ValueError, match="nonempty shell"):
            make()
