import itertools
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import (currently_in_test_context, event, example, given, settings,
                        strategies as st)

from conftest import e8_root_rows, norm32_magnitudes, random_polynomial, run_cli
from golden_corpus import BENT
from latcert.exactmath import Polynomial
from latcert.gegenbauer import (distribution_from_design, gegenbauer_expand, gegenbauer_poly,
                                histogram_from_distribution)
from latcert import sphercode
from latcert.lattice32 import Shell, _joint_tables, load_shell, save_shell, venkov_sample
from latcert.sphercode import (
    ALL,
    DistanceDistribution,
    _column_counts,
    _orbit_dot_counts,
    _orbit_pass,
    _orbits,
    check_distance_invariance,
    design_strength,
    distance_distribution_at,
    histogram,
    moments,
    quadrature_check,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)
N = 146880
_NOT_FIRST_HALF = "counted rows are not ascending first-half indices"

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


@pytest.fixture
def products(monkeypatch):
    """(M, K, N) of every np.matmul call of 2-d operands (M, K) and (K, N)."""
    sizes = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        (m, k), n = a.shape, b.shape[1]
        sizes.append((m, k, n))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return sizes


@pytest.fixture(scope="module")
def tiny_pair_shell():
    return Shell([[4, 4, 0, 0], [-4, -4, 0, 0]])


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
    return Shell(rows)


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
    # closed under negation, but +-(4,0,4,0) sees 1/2 twice and the others 0
    inv = check_distance_invariance(Shell(BENT), sample=ALL)
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
    """A few random norm-32 rows in dim 4-8 (or in dims), closed under
    negation and a random set of sign flips; sometimes (with drop, always)
    one point and its antipode are then removed, unless they are all the
    rows.  With full_row (dims within 5-8), the first row has no zero entry
    and no minus sign, so the minus signs of its flips are the span of the
    drawn flips and negation: the orbit pass finds them, and the rows whose
    support they act on in fewer ways get smaller orbits."""
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
    rows = sorted(rows | {tuple(-v for v in r) for r in rows})
    if drop or draw(st.booleans()):
        x = draw(st.sampled_from(rows))
        rows = [r for r in rows if r not in (x, tuple(-v for v in x))] or rows
    return Shell(np.array(rows, dtype=np.int8))


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.booleans(), st.data())
def test_shell_sorts_its_rows_and_checks_negation(shell, closed, data):
    rows = {tuple(r) for r in shell.vectors.tolist()}
    if not closed:  # one row without its antipode
        rows.remove(data.draw(st.sampled_from(sorted(rows))))
    drawn = np.array(data.draw(st.permutations(sorted(rows))), dtype=np.int8)
    layout = data.draw(st.sampled_from(["C", "reversed", "Fortran"]))
    arr = {"C": drawn, "reversed": drawn[::-1], "Fortran": np.asfortranarray(drawn)}[layout]
    if not closed:
        with pytest.raises(ValueError, match="^shell is not closed under negation$"):
            Shell(arr)
        return
    made = Shell(arr)
    assert made.vectors.tolist() == [list(r) for r in sorted(rows)]
    assert made.vectors.flags.c_contiguous and not made.vectors.flags.writeable
    assert not np.shares_memory(made.vectors, drawn)


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
    return Shell(rows)


def test_full_pass_finds_flip_group_on_small_shell():
    # the 16 code flips act on the Hamming shell, with 1 + 28 orbits
    inv = _assert_matches_brute_force(_hamming_shell())
    assert (inv.group_order, inv.representatives) == (16, 29)


def test_full_pass_finds_flip_group_on_e8_roots():
    # the 2^7 flips of even weight act on the E8 roots: the 128 half-integer
    # roots form one orbit and each pair of coordinates' 4 roots another
    inv = _assert_matches_brute_force(Shell(e8_root_rows()))
    assert (inv.group_order, inv.representatives) == (2**7, 29)


def test_full_pass_on_the_dimension_40_shell(d40_shell):
    # the weight-8 words span the self-dual code, so the group is its 2^20
    # flips: 780 orbits of 4, one per pair of coordinates, and 285 of 128
    assert d40_shell.weights == {0: 1, 8: 285, 12: 21280, 16: 239970, 20: 525504,
                                 24: 239970, 28: 21280, 32: 285, 40: 1}
    shell = d40_shell.shell
    reps, sizes, _, order = _orbits(shell.half)
    assert (shell.count, order, len(reps)) == (39600, 2**20, 1065)
    assert Counter(sizes.tolist()) == {4: 780, 128: 285}
    inv = check_distance_invariance(shell, ALL)
    assert (inv.invariant, inv.group_order, inv.representatives) == (False, 2**20, 1065)
    (i, di), (j, dj) = inv.counterexample
    assert (i, j) == (0, 1)
    assert di.a == distance_distribution_at(shell, shell.vectors[0]).a
    assert dj.a == distance_distribution_at(shell, shell.vectors[1]).a
    assert inv.histogram.total() == shell.count * (shell.count - 1)


def _flip(row, flip):
    """row with the coordinates in the bit set flip negated."""
    return tuple(-v if flip >> k & 1 else v for k, v in enumerate(row))


def _bit_set(row, keep):
    """The bit set of the coordinates k with keep(row[k])."""
    return sum(1 << k for k, v in enumerate(row) if keep(v))


def _span(words) -> set:
    """The GF(2) span of the bit sets words."""
    span = {0}
    for w in words:
        if w not in span:
            span |= {s ^ w for s in span}
    return span


def _rank(words) -> int:
    """The GF(2) rank of the bit sets words, by elimination on the top bit."""
    pivots = {}
    for w in words:
        while w and w.bit_length() in pivots:
            w ^= pivots[w.bit_length()]
        if w:
            pivots[w.bit_length()] = w
    return len(pivots)


def _union(rows) -> int:
    """The bit set of the coordinates some row meets."""
    return _bit_set(np.any(rows, axis=0), bool)


def _stabilizer(rows, dim):
    """The flips of _union(rows) that map the row set onto itself, by trying
    all 2^dim."""
    row_set = set(rows)
    return [f for f in range(1 << dim)
            if not f & ~_union(rows) and all(_flip(r, f) in row_set for r in rows)]


def _rule_group(rows, dim):
    """(the flips of _union(rows) that every magnitude class allows, by
    trying all 2^dim, and whether every class is a coset of its
    differences).  A class with support S and minus sets X allows the flips
    f with f & S in the span D of X's differences when |X| = |D|, and in
    {0, S} when not."""
    classes = {}
    for row in rows:
        classes.setdefault(tuple(map(abs, row)), []).append(_bit_set(row, lambda v: v < 0))
    allowed, cosets = [], True
    for mags, minus in classes.items():
        support, span = _bit_set(mags, bool), _span(x ^ minus[0] for x in minus)
        cosets &= len(span) == len(minus)
        allowed.append((support, span if len(span) == len(minus) else {0, support}))
    group = [f for f in range(1 << dim) if not f & ~_union(rows)
             and all(f & support in span for support, span in allowed)]
    return group, cosets


def _closure_orbits(rows, flips):
    """(representatives, orbit sizes) of the group the flips generate, each
    orbit closed from its smallest index."""
    reps, sizes, seen = [], [], set()
    for i, row in enumerate(rows):
        if row not in seen:
            orbit, todo = {row}, [row]
            while todo:
                image = todo.pop()
                images = {_flip(image, f) for f in flips} - orbit
                orbit |= images
                todo += images
            seen |= orbit
            reps.append(i)
            sizes.append(len(orbit))
    return reps, sizes


def _assert_orbits_match_oracle(shell):
    """_orbits against brute force: every basis flip of _flip_group maps
    the row set onto itself, and the orbits are the closures of the rows
    under the basis.  At dim <= 8 the basis spans the group of the rule,
    found by trying all 2^dim flips, which is the brute-force stabilizer
    when every class is a coset of its differences."""
    basis, flip_group = [], sphercode._flip_group

    def spy(*args):
        basis.extend(flip_group(*args))
        return basis

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sphercode, "_flip_group", spy)
        reps, sizes, labels, order = _orbits(shell.half)
    rows = [tuple(r) for r in shell.vectors.tolist()]
    row_set = set(rows)
    assert all({_flip(r, f) for r in rows} == row_set for f in basis)
    assert order == 2 ** len(basis) == 2 ** _rank(basis)
    if shell.dim <= 8:
        group, cosets = _rule_group(rows, shell.dim)
        if currently_in_test_context():
            event("every class is a coset" if cosets else "a class is no coset")
        if cosets:  # the rule gives the whole stabilizer
            assert group == _stabilizer(rows, shell.dim)
        assert _span(basis) == set(group)
    assert (reps.tolist(), sizes.tolist()) == _closure_orbits(rows, basis)
    # the first half is labelled: row N - 1 - k shares row k's orbit
    assert len(labels) == shell.count // 2
    assert np.array_equal(2 * np.bincount(labels, minlength=len(reps)), sizes)
    assert np.array_equal(labels[reps], np.arange(len(reps)))
    return reps.tolist(), sizes.tolist(), order


# 32 entries +-1 on coordinates 8..39 and two +-4 on 38, 39: uint64 words,
# a group of 4, span{0b101 << 8, negation}, and 3 orbits
_WIDE_ROWS = [
    [0] * 8 + [1 - 2 * ((m >> k) & 1) for k in range(32)] for m in (0, 5, ~0, ~5)
] + [[0] * 38 + [4 * a, 4 * b] for a in (1, -1) for b in (1, -1)]

# each class allows only identity and negation: the two +-2 rows' minus
# sets {0x0F, 0xF0} are a coset of {0, 0xFF}, and the two +-4 rows' minus
# sets are {0, 0x11}, the span of their support 0x11.  Group order 2 and
# the two orbits {x, -x}
_NO_FLIP_ROWS = [[-2] * 4 + [2] * 4, [2] * 4 + [-2] * 4, [4, 0, 0, 0, 4, 0, 0, 0],
                 [-4, 0, 0, 0, -4, 0, 0, 0]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(dims=(33, 40))))
@example(Shell(_WIDE_ROWS))
@example(_hamming_shell())
@example(Shell(_NO_FLIP_ROWS))
def test_orbits_match_brute_force_closure(shell):
    reps, sizes, table, order = _orbit_pass(shell)
    assert (reps.tolist(), sizes.tolist(), order) == _assert_orbits_match_oracle(shell)
    assert table.shape == (65, len(reps))


@settings(max_examples=200, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(drop=True),
                 flip_closed_shells(dims=(33, 40))))
def test_distance_distribution_at_matches_integer_dots(shell):
    V = shell.vectors.astype(np.int64)
    for x in V:
        brute = Counter(Fraction(d, 32) for d in (V @ x).tolist())
        assert distance_distribution_at(shell, x).a == brute


def test_orbit_pass_rejects_flips_that_do_not_permute_the_shell():
    # a +-2 row with minus set {0}, and its negation: the +-2 class is no
    # longer a coset, so it allows only identity and negation
    shell = _hamming_shell([[-2] + [2] * 7, [2] + [-2] * 7])
    reps, sizes, _, order = _orbit_pass(shell)
    assert (order, len(reps)) == (2, 65)
    assert (reps.tolist(), sizes.tolist(), order) == _assert_orbits_match_oracle(shell)
    _assert_matches_brute_force(shell)


def test_orbits_of_a_class_that_is_no_coset_keep_negation_alone():
    # minus sets x ^ w, x in {0, 0b11, 0b101} and w in span{0xFF, 0x0F}: 12
    # words whose differences span 16, so the class allows only {0, 0xFF},
    # where the stabilizer is span{0xFF, 0x0F}, of order 4
    rows = [tuple(-2 if (x ^ w) >> k & 1 else 2 for k in range(8))
            for x in (0, 0b11, 0b101) for w in (0, 0xFF, 0x0F, 0xF0)]
    shell = Shell(rows)
    assert _stabilizer(rows, 8) == [0, 0x0F, 0xF0, 0xFF]
    assert _assert_orbits_match_oracle(shell) == ([0, 1, 2, 3, 4, 5], [2] * 6, 2)
    inv = _assert_matches_brute_force(shell)
    assert (inv.group_order, inv.representatives) == (2, 6)


def test_orbits_above_dim_64_are_the_antipodal_pairs():
    # no sign word has room for 72 coordinates: the group is negation alone
    shell = Shell([row + [0] * 32 for row in _WIDE_ROWS])
    reps, sizes, labels, order = _orbits(shell.half)
    assert (reps.tolist(), sizes.tolist(), order) == ([0, 1, 2, 3], [2] * 4, 2)
    assert labels.tolist() == [0, 1, 2, 3]
    inv = _assert_matches_brute_force(shell)
    assert (inv.group_order, inv.representatives) == (2, 4)


@pytest.mark.parametrize("block", [1, 7])
def test_flip_group_is_solved_a_block_of_classes_at_a_time(monkeypatch, d40_shell, block):
    # smaller blocks of classes narrow the same kernel in more steps: the
    # dimension-40 shell's 1065 classes and a shell with a class that is
    # no coset give the groups and orbits of one block
    shells = [d40_shell.shell, _hamming_shell([[-2] + [2] * 7, [2] + [-2] * 7])]
    whole = [_orbits(shell.half) for shell in shells]
    monkeypatch.setattr(sphercode, "_CLASS_BLOCK", block)
    for shell, (reps, sizes, labels, order) in zip(shells, whole):
        blocked = _orbits(shell.half)
        assert blocked[3] == order and order in (2**20, 2)
        for got, want in zip(blocked[:3], (reps, sizes, labels)):
            assert np.array_equal(got, want)
    assert _assert_orbits_match_oracle(shells[1])[2] == 2


def test_orbits_reject_a_flip_that_moves_a_row(monkeypatch):
    # one flip more than _flip_group finds, coordinate 0 alone, moves the
    # +-2 rows of the Hamming shell off the code: no orbit is taken from it
    flip_group = sphercode._flip_group
    monkeypatch.setattr(sphercode, "_flip_group", lambda *args: flip_group(*args) + [1])
    with pytest.raises(RuntimeError, match="^sign-flip group does not map the shell onto itself$"):
        _orbits(_hamming_shell().half)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_full_rejects_a_flip_that_moves_a_row(flags, tmp_path):
    # the same guard in a fresh process, also under -O, which drops asserts
    path = tmp_path / "hamming.shell"
    save_shell(_hamming_shell(), path)
    script = (
        "import sys\n"
        "from latcert import cli, sphercode\n"
        "flip_group = sphercode._flip_group\n"
        "sphercode._flip_group = lambda *args: flip_group(*args) + [1]\n"
        f"sys.exit(cli.main(['verify', '--shell', {str(path)!r}, '--full']))\n"
    )
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: internal check failed: sign-flip group does not map the shell"
        " onto itself\n")


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(drop=True),
                 flip_closed_shells(dims=(5, 8), full_row=True, drop=True),
                 flip_closed_shells(dims=(33, 40), drop=True)))
def test_orbits_match_brute_force_on_shells_missing_points(shell):
    # a class that lost points may be no coset of its differences: it then
    # allows only identity and negation, and the oracle checks the rule
    _assert_orbits_match_oracle(shell)


@settings(max_examples=200, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(drop=True),
                 flip_closed_shells(dims=(33, 40))))
def test_orbits_pair_each_row_with_its_mirror(shell):
    # negation is always kept: row N - 1 - k, -(row k), shares row k's orbit,
    # so only the first half is labelled, each of its labels counts twice,
    # and each orbit's smallest index lies in the first half
    n = shell.count
    reps, sizes, labels, order = sphercode._orbits(shell.half)
    assert len(labels) == n // 2
    assert np.array_equal(2 * np.bincount(labels, minlength=len(reps)), sizes)
    assert (reps < n // 2).all() and order % 2 == 0


def test_orbits_on_rm_shell_missing_a_pair_of_a_128_orbit(rm_shell):
    # x and -x leave the class of a 128-orbit, which is then no coset of its
    # differences and allows only identity and negation: 2^16 -> 2^10 flips
    V = rm_shell.result.vectors
    reps, sizes, _, _ = sphercode._orbits(rm_shell.result.half)
    x = V[reps[np.flatnonzero(sizes == 128)[0]]]
    W = Shell(V[~((V == x).all(axis=1) | (V == -x).all(axis=1))])
    reps, sizes, table, order = _orbit_pass(W)
    assert (W.count, len(reps), order) == (N - 2, 2411, 1024)
    assert np.array_equal(table, _column_counts(W, reps))


def _brute_force_columns(vectors, cols, rows=None):
    """The dot counts of the columns cols over all rows, or over the rows
    at the first-half indices rows and their mirrors."""
    V = vectors.astype(np.int64)
    X = V if rows is None else V[_mirrored(len(V), rows)]
    return np.array([np.bincount(X @ V[c] + 32, minlength=65) for c in cols]).T


def _mirrored(n, half):
    """The indices half (all below n // 2) and their mirrors n - 1 - k."""
    return np.union1d(half, n - 1 - np.asarray(half))


def _column_case(case):
    """(shell, index set) of a case: the Hamming shell with all its rows
    (canonical), or the rows at 20 first-half indices and their mirrors,
    gathered."""
    shell = _hamming_shell()
    if case == "canonical":
        return shell, None
    half = np.random.default_rng(7).choice(shell.count // 2, size=20, replace=False)
    return shell, np.sort(half).astype(np.int32)


CASES = ["canonical", "mirrored"]


@pytest.mark.parametrize("case", CASES)
def test_column_counts_match_brute_force(case):
    shell, rows = _column_case(case)
    cols = np.array([0, 3, 17, shell.count - 1, 3])  # odd: pads with its last column
    table = _column_counts(shell, cols, rows)
    assert np.array_equal(table, _brute_force_columns(shell.vectors, cols, rows))


# one column, an even count, a column paired with itself (keys 0 and 4224,
# both ends of the paired key's range) and rows paired with their antipodes
# (keys 64 and 4160, the other two corners of the 65 x 65 table)
@pytest.mark.parametrize(
    "cols", [[5], [0, 17], [9, 9], "antipode"], ids=["one", "even", "self", "antipode"]
)
@pytest.mark.parametrize("case", CASES)
def test_column_counts_of_paired_columns(case, cols):
    shell, rows = _column_case(case)
    V = shell.vectors
    if cols == "antipode":
        cols = [j for i in (0, 40) for j in (i, *np.flatnonzero((V == -V[i]).all(axis=1)))]
    cols = np.array(cols)
    table = _column_counts(shell, cols, rows)
    assert table.shape == (65, len(cols))
    assert np.array_equal(table, _brute_force_columns(V, cols, rows))


@pytest.mark.parametrize("gathered, block", [(False, (29, 32, 1760)), (True, (29, 32, 1759))],
                         ids=["folded", "gathered"])
def test_column_counts_match_brute_force_across_blocks(rm_shell, products, gathered, block):
    # 121 columns: 61 pairs, a block of 32 and a partial one of 29; the
    # counted rows (the first half, 73440 rows, or the 73439 first-half
    # indices without row 5000) go in segments of 2^14 rows (2^13
    # gathered), the last one partial, each filled 2048 rows at a time, and
    # the last segment's last row block (1760 rows, 1759 gathered) is
    # partial too; rows 0 and N - 1 among the columns
    shell = rm_shell.result
    rows = np.delete(np.arange(N // 2, dtype=np.int32), 5000) if gathered else None
    rng = np.random.default_rng(17)
    cols = np.r_[0, N - 1, rng.choice(np.arange(1, N - 1), 119, replace=False)]
    table = _column_counts(shell, cols, rows)
    assert np.array_equal(table, _brute_force_columns(shell.vectors, cols, rows))
    assert block in products


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.data())
def test_column_counts_match_brute_force_on_random_columns(shell, data):
    cols = np.array(data.draw(st.lists(st.integers(0, shell.count - 1), min_size=1, max_size=9)))
    table = _column_counts(shell, cols)
    assert np.array_equal(table, _brute_force_columns(shell.vectors, cols))


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.data())
def test_column_counts_over_row_subsets_match_brute_force(shell, data):
    n = shell.count
    half = sorted(data.draw(st.sets(st.integers(0, n // 2 - 1), min_size=1)))
    subset = np.array(half, dtype=np.int32)
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=9)))
    table = _column_counts(shell, cols, subset)
    assert np.array_equal(table, _brute_force_columns(shell.vectors, cols, subset))
    # the set with its mirrors, with one index repeated, below 0 or at
    # count // 2, or descending: never counted
    k = data.draw(st.integers(0, len(half) - 1))
    bad = [_mirrored(n, half), half[: k + 1] + half[k:], [-1] + half, half + [n // 2]]
    if len(half) > 1:
        bad.append(half[::-1])
    for rows in bad:
        with pytest.raises(RuntimeError, match=f"^{_NOT_FIRST_HALF}$"):
            _column_counts(shell, cols, np.array(rows, dtype=np.int32))


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_pair_kernel_rejects_index_sets_off_the_first_half(flags):
    # the kernel counts an index set's mirrors itself: a set holding a
    # mirror, out of order, repeated or outside [0, N / 2) is refused, also
    # under -O, which drops asserts
    script = (
        "import numpy as np\n"
        "from latcert.lattice32 import Shell, _joint_tables\n"
        "shell = Shell([[4, 4, 0, 0], [4, -4, 0, 0], [-4, 4, 0, 0], [-4, -4, 0, 0]])\n"
        "for rows in ([0, 3], [1, 0], [0, 0], [2], [-1]):\n"
        "    try:\n"
        "        list(_joint_tables(shell, [0], [1], np.array(rows, dtype=np.int32)))\n"
        "    except RuntimeError as exc:\n"
        f"        if str(exc) != {_NOT_FIRST_HALF!r}:\n"
        "            raise\n"
        "    else:\n"
        "        raise SystemExit(f'counted {rows}')\n"
    )
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _brute_force_joint(V, a, b):
    """(65, 65) int64 counts of the rows x with x.V[b] + 32, x.V[a] + 32."""
    D = V.astype(np.int64) @ V[[a, b]].astype(np.int64).T + 32
    return np.bincount(D[:, 0] + 65 * D[:, 1], minlength=65 * 65).reshape(65, 65)


@settings(max_examples=200, deadline=None)
@given(flip_closed_shells(), st.data())
def test_joint_tables_match_brute_force(shell, data):
    index = st.integers(0, shell.count - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=9))
    i = pairs[0][0]
    # a row with itself, with its antipode, and a repeated pair
    pairs += [(i, i), (i, shell.count - 1 - i), pairs[0]]
    a, b = np.array(pairs).T
    tables = list(_joint_tables(shell, a, b))
    assert len(tables) == len(pairs)
    for (i, j), table in zip(pairs, tables):
        assert np.array_equal(table, _brute_force_joint(shell.vectors, i, j))


def test_pair_kernel_counts_half_the_counted_rows(rm_shell, products):
    # every Shell is closed under negation, so the kernel always folds: the
    # products see the first half of all rows, or of an index set
    shell = rm_shell.result
    for rows, counted in ((None, N // 2), (np.arange(0, N // 2, 3, dtype=np.int32), 24480)):
        products.clear()
        list(_joint_tables(shell, [0], [1], rows))
        assert sum(n for _, _, n in products) == counted


def test_orbit_dot_counts_match_brute_force_across_chunks(rm_shell, products):
    # the 620 columns of the orbits of 128 against the 992 rows of the
    # orbits of 4 in the first half, 256 ranks (512 rows) at a time, each
    # in blocks of 2^15 // 620 = 52 rows: 9 of 52 and one of 44, then for
    # the last 240 ranks 9 of 52 and one of 12; each count times 128 / 4
    # goes to its rank
    V = rm_shell.result.vectors
    reps, sizes, labels, _ = _orbits(rm_shell.result.half)
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    assert ordered.tolist() == [4] * 496 + [128] * 620 + [65536]
    rank = np.empty(len(reps), dtype=np.int64)
    rank[by_size] = np.arange(len(reps))
    ranks = rank[labels]
    cols = reps[by_size[496:1116]]
    table = np.zeros((65, 496), dtype=np.int32)
    _orbit_dot_counts(table, rm_shell.result.half, cols, ranks, ordered, 496)
    every = np.concatenate((ranks, ranks[::-1]))  # row N - 1 - k has row k's rank
    rows = np.flatnonzero(every < 496)
    dots = V[rows].astype(np.int64) @ V[cols].astype(np.int64).T + 32
    brute = np.zeros((496, 65), dtype=np.int64)
    np.add.at(brute, (np.repeat(every[rows], len(cols)), dots.ravel()), 1)
    assert np.array_equal(table, (brute * 128 // 4).T)
    assert sorted(products) == [(12, 32, 620)] + [(44, 32, 620)] + [(52, 32, 620)] * 18


def test_orbit_pair_counts_match_the_one_sided_table(rm_shell):
    # orbits of sizes 4, 128 and 65536: each pair of orbits counted once
    shell = rm_shell.result
    reps, sizes, table, _ = _orbit_pass(shell)
    assert np.unique(sizes).tolist() == [4, 128, 65536]
    assert np.array_equal(table, _column_counts(shell, reps))


@settings(max_examples=300, deadline=None)
@given(st.one_of(flip_closed_shells(), flip_closed_shells(dims=(5, 8), full_row=True)))
@example(_hamming_shell())
@example(Shell(_WIDE_ROWS))
def test_orbit_pair_counts_match_brute_force(shell):
    reps, sizes, table, _ = _orbit_pass(shell)
    event(f"{len(np.unique(sizes))} orbit sizes")
    assert np.array_equal(table, _column_counts(shell, reps))
    assert np.array_equal(table, _brute_force_columns(shell.vectors, reps))


def test_orbit_pair_counts_reject_rows_outside_their_orbit(monkeypatch, tmp_path):
    # one row of an orbit of 4 labelled as a row of another, with sizes of
    # 3 and 5: the labels take the row's antipode along, so the sizes do not
    # match the rows counted, and the counts of the "orbit" of 3 are not
    # multiples of 3, in-process and through the CLI
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


def test_orbit_pair_counts_reject_a_pair_outside_its_orbit(monkeypatch):
    # a row of an orbit of 4, with its antipode, labelled as rows of
    # another: the counts of the "orbit" of 6 from the orbit of 16 are not
    # multiples of 6
    orbits = sphercode._orbits

    def moved(V):
        reps, sizes, labels, order = orbits(V)
        i, j = np.flatnonzero(sizes == 4)[:2]
        labels[np.flatnonzero(labels == i)[1]] = j  # not i's representative
        sizes[[i, j]] += [-2, 2]
        return reps, sizes, labels, order

    monkeypatch.setattr(sphercode, "_orbits", moved)
    message = "orbit pair counts are not multiples of the orbit sizes"
    with pytest.raises(RuntimeError, match=message):
        check_distance_invariance(_hamming_shell(), ALL)


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


def test_orbits_peak_memory(rm_shell):
    # only the first half of the rows is sorted and reduced, and its sign
    # words are read once the magnitude keys are sorted: the coset keys and
    # their int64 sort (0.125x each) beside the class order and the words,
    # 0.44x the int8 rows on rm2_5, where the whole shell's took 1.00x
    half = rm_shell.result.half
    assert _peak_over_rows(rm_shell.result, lambda: _orbits(half)) <= 0.49


def _dim64_rows(classes=30000, seed=64):
    """2 * classes int8 rows of dim 64: +-2 on a random weight-8 support
    per class, random signs, and their negations."""
    rng = np.random.default_rng(seed)
    support = np.argsort(rng.random((classes, 64)), axis=1)[:, :8]
    rows = np.zeros((classes, 64), dtype=np.int8)
    signs = rng.choice(np.array([-2, 2], dtype=np.int8), size=(classes, 8))
    np.put_along_axis(rows, support, signs, axis=1)
    return np.concatenate((rows, -rows))


def test_orbits_peak_memory_at_dim_64():
    # uint64 sign words and coset keys at dims 33-64: 60000 rows in 30000
    # magnitude classes (each {x, -x}, so the group is negation alone),
    # 1.61x the int8 rows, where the flip group's solve without blocks of
    # classes took 9.6x
    shell = Shell(_dim64_rows())
    reps, _, _, order = _orbits(shell.half)
    assert (len(reps), order) == (30000, 2)
    assert _peak_over_rows(shell, lambda: _orbits(shell.half)) <= 1.75


def test_full_pass_peak_memory(rm_shell):
    # the first half's orbit ranks, the int32 table, and an index set's
    # kernel with 2^18 uint16 keys (0.11x), 2113 int32 bins a pair and one
    # 2048-row float32 block and product: 0.48x the int8 rows on rm2_5,
    # where a float32 copy of the whole shell alone would be 4x; _orbits
    # peaks below it
    shell = rm_shell.result
    assert _peak_over_rows(shell, lambda: check_distance_invariance(shell, ALL)) <= 0.53


def test_pair_kernel_peak_memory(rm_shell):
    # 32 pairs at a time: 2^19 uint16 keys (0.22x), their 2113 int32 bins
    # and one 2048-row float32 block and product, 0.43x the int8 rows on
    # rm2_5
    shell = rm_shell.result
    assert _peak_over_rows(shell, lambda: venkov_sample(shell, 100, 1)) <= 0.48


def test_verify_full_peak_memory(rm_shell, tmp_path):
    # the whole in-process verify --full: the load, then the full pass
    # beside the loaded rows, 1.49x the int8 rows on rm2_5
    shell = rm_shell.result
    path = tmp_path / "rm.shell"
    save_shell(shell, path)
    assert _peak_over_rows(
        shell, lambda: run_cli("verify", "--shell", str(path), "--full")) <= 1.60


def test_full_pass_on_shell_missing_an_antipodal_pair(rm_shell, rm_hist):
    sh = rm_shell.result
    x = np.zeros(32, dtype=np.int8)
    x[:2] = 4
    keep = np.ones(sh.count, dtype=bool)
    keep[[sh.index_of(x), sh.index_of(-x)]] = False
    broken = Shell(sh.vectors[keep])
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
    for make in (lambda: load_shell(p), lambda: Shell(empty)):
        with pytest.raises(ValueError, match="nonempty shell"):
            make()
