"""Spherical-code analytics on rescaled shells: histograms, distance
distributions, Gegenbauer moments, design strength, and quadrature identities.
The histogram and distribution records come from ``gegenbauer``.

Unit-sphere inner products of shell vectors are s_x.s_y / 32, so every pair
statistic is an exact integer count keyed by an exact rational.  The pair
passes count dot values two columns at a time: each column pair's 65 x 65
joint table from the ``lattice32`` kernel gives both columns as its
marginals.

The exact passes (the histogram and the full invariance check) need only one
column per orbit of a group of coordinate sign flips that maps the shell onto
itself: a flip is an isometry, so every point of an orbit sees the same
distance distribution.  Candidate flips are read off the shell (the minus
patterns of its rows with no zero entry, and negation).  Each row gets one
exact key: its magnitude class (the rows with the same |x|) above its minus
signs packed by rank within its support.  A flip XORs every key of a class
with one mask, so it is kept only if the sorted keys are unchanged, and the
orbits are the cosets of the kept masks' span within each class.  On the
lattice shells the rows with no zero entry are the all-+-1 vectors, whose
minus sets are the codewords, so the group is the 2^16 codeword flips with
1117 orbits, one per magnitude class.  On any other shell the group is
whatever verifies, down to {+-1} or the trivial group, and the passes stay
exact.

Each pair of orbits is counted once, from the smaller orbit's rows: for
orbits O_i and O_j, n_i N(i->j, d) = n_j N(j->i, d), where N(i->j, d) counts
the points of O_j at dot d from a point of O_i.  The lattice shells have
496 orbits of 4 points, 620 of 128 and one of 65536, so the pass counts
about 12.9M kernel keys and 1.3M dots of smaller orbits, against 41.1M keys
for each column against every row.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exactmath import Frozen, Polynomial
from .gegenbauer import (DistanceDistribution, InnerProductHistogram,
                         gegenbauer_expand, gegenbauer_poly)
from .lattice32 import _BINS, SHELL_NORM, Shell, _joint_tables, _row_keys

ALL = "all"


class MomentVector(Frozen):
    """The moments (M_1, ..., M_k) as a tuple of Fractions, ``values``;
    indexed from 1, as M_i."""

    __slots__ = ("values",)

    def __getitem__(self, i: int):
        if i < 1 or i > len(self.values):
            raise IndexError(f"moment index {i} out of range")
        return self.values[i - 1]


class InvarianceReport(namedtuple(
    "InvarianceReport",
    "invariant distribution counterexample checked mode group_order"
    " representatives histogram",
)):
    """Outcome of the distance-invariance check.  ``distribution`` is the
    common DistanceDistribution (None without one); ``counterexample`` is
    None or ((index, distribution), (index, distribution)); ``group_order``
    is the order of the sign-flip group used, 1 when sampled;
    ``representatives`` counts the columns, one per orbit or per sampled
    point; ``histogram`` holds the exact pair counts, None when sampled."""

    __slots__ = ()


QuadratureVerdict = namedtuple("QuadratureVerdict", "holds lhs rhs warning",
                               defaults=(None,))


def _column_counts(V: np.ndarray, cols: np.ndarray, rows=None) -> np.ndarray:
    """(65, len(cols)) counts of each dot value s_x.s_c over the counted rows
    x, all of V or those at the ascending indices rows, one column per index
    c in cols; bin 64 holds the self pair.  Columns go in pairs (a, b), an
    odd count padded with its last, and each pair's joint table gives column
    a as its sums over d_b and column b as its sums over d_a."""
    pairs = np.append(cols, cols[-1:]) if len(cols) % 2 else cols
    table = []
    for joint in _joint_tables(V, pairs[0::2], pairs[1::2], rows):
        table += [joint.sum(axis=0), joint.sum(axis=1)]  # columns a, b
    return np.array(table[: len(cols)]).T


def _candidate_flips(vectors: np.ndarray) -> list:
    """Sign-flip masks to try: a GF(2) basis of the minus patterns of the rows
    with no zero entry, then negation if it lies outside their span."""
    rows = vectors[vectors.all(axis=1)] < 0
    basis = []
    for c in range(vectors.shape[1]):
        hit = rows[:, c]
        if hit.any():
            pivot = rows[np.argmax(hit)].copy()  # zero before c; a view would pin rows
            basis.append(pivot)
            rows = rows ^ (hit[:, None] & pivot)
    neg = np.ones(vectors.shape[1], dtype=bool)
    for pivot in basis:
        if neg[np.argmax(pivot)]:
            neg = neg ^ pivot
    return basis + [np.ones_like(neg)] if neg.any() else basis


def _packed(rows: np.ndarray) -> np.ndarray:
    """Per row, its minus signs as one uint64: a negative coordinate sets the
    bit of its rank among the row's nonzero coordinates.  A row has at most
    32 of them, as s.s = 32."""
    packed = np.zeros(len(rows), dtype=np.uint64)
    rank = np.zeros(len(rows), dtype=np.uint8)
    for col in rows.T:
        packed |= np.left_shift(col < 0, rank, dtype=np.uint64)
        rank += col != 0
    return packed


def _orbit_pass(vectors: np.ndarray):
    """The exact pair pass over a Shell's rows: (representatives, orbit
    sizes, (65, reps) column table, group order).  Each orbit of the
    verified flip group is represented by its smallest index, and every
    point's distribution is its representative's column."""
    reps, sizes, labels, group_order = _orbits(vectors)
    return reps, sizes, _orbit_pair_counts(vectors, reps, sizes, labels), group_order


def _orbit_pair_counts(V: np.ndarray, reps, sizes, labels) -> np.ndarray:
    """The (65, reps) table _column_counts(V, reps) gives, with each pair of
    orbits counted once, from the smaller orbit's rows.

    For orbits O_i and O_j of sizes n_i and n_j, every point of O_i sees the
    same N(i->j, d) points of O_j at dot d, so counting the pairs of
    O_i x O_j at dot d both ways gives n_i N(i->j, d) = n_j N(j->i, d).  The
    orbits are taken by size, smallest first.  Each size class's columns
    count the rows of the orbits no larger than it directly; for each
    smaller orbit O_i, the class's dots with its rows, times the class size,
    add up to n_i N(i->j, d) over the class's orbits O_j, and are divided
    by n_i at the end."""
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    rank = np.empty(len(reps), dtype=np.int32)
    rank[by_size] = np.arange(len(reps), dtype=np.int32)
    ranks = rank[labels]  # per row, its orbit's place by size
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    table = np.empty((_BINS, len(reps)), dtype=np.int64)
    scaled = np.zeros((starts[-1], _BINS), dtype=np.int64)  # n_i N(i->j, d), by rank
    for lo, hi in zip(starts, [*starts[1:], len(reps)]):
        cols = reps[by_size[lo:hi]]
        # the largest orbits count every row, through the contiguous path
        rows = None if hi == len(reps) else np.flatnonzero(ranks < hi).astype(np.int32)
        table[:, by_size[lo:hi]] = _column_counts(V, cols, rows)
        if lo:
            scaled[:lo] += ordered[lo] * _orbit_dot_counts(V, cols, ranks, lo)
    counts, remainder = np.divmod(scaled, ordered[: len(scaled), None])
    if remainder.any():
        raise RuntimeError("orbit pair counts are not multiples of the orbit sizes")
    table[:, by_size[: len(scaled)]] += counts.T
    return table


def _orbit_dot_counts(V: np.ndarray, cols, ranks, lo: int) -> np.ndarray:
    """(lo, 65) counts, over the columns c and the rows x whose rank is
    below lo, of the dot values s_x.s_c, by the row's rank.  The rows are
    gathered in blocks of at most 8192 rows and 2^17 dots."""
    rows = np.flatnonzero(ranks < lo).astype(np.int32)
    C = V[cols].T.astype(np.float32)
    out = np.zeros(lo * _BINS, dtype=np.int64)
    step = max(1, min(8192, 2**17 // len(cols)))
    for r0 in range(0, len(rows), step):
        part = rows[r0 : r0 + step]
        keys = (V[part].astype(np.float32) @ C).astype(np.int32)  # exact dots
        keys += (ranks[part] * _BINS + SHELL_NORM)[:, None]
        out += np.bincount(keys.ravel(), minlength=len(out))
    return out.reshape(lo, _BINS)


def _orbits(vectors: np.ndarray):
    """(representatives, orbit sizes, int32 orbit label per row, group
    order) of the verified flip group; label k is the orbit of the k-th
    representative.  A row's key is its magnitude class above its minus
    signs packed by rank within the class's common support; clearing the
    pivot bits of an echelon basis of the kept masks (per class) maps every
    key of a coset, so of an orbit, to one label."""
    mags = np.empty((len(vectors), -(-vectors.shape[1] // 16)), dtype=">u8")
    for r0 in range(0, len(vectors), 8192):  # no full-size |vectors|
        mags[r0 : r0 + 8192] = _row_keys(np.abs(vectors[r0 : r0 + 8192]))
    order = np.lexsort(mags.T[::-1])
    mags = mags[order]
    first = np.ones(len(vectors), dtype=bool)
    first[1:] = (mags[1:] != mags[:-1]).any(axis=1)
    cls = np.empty(len(vectors), dtype=np.intp)
    cls[order] = np.cumsum(first) - 1
    keys = cls.astype(np.uint64) << 32 | _packed(vectors)

    mags = np.abs(vectors[order[first]])  # one row per class
    ref = np.sort(keys)
    kept = []
    for flip in _candidate_flips(vectors):
        mask = _packed(np.where(flip, -mags, mags))
        if np.array_equal(np.sort(keys ^ mask[cls]), ref):
            kept.append(mask)
    for i, mask in enumerate(kept):
        # the earlier pivots are already cleared from this mask, and this
        # pivot is cleared from the later ones, so no step undoes another
        pivot = mask & (~mask + 1)  # lowest set bit per class, 0 for none
        keys ^= np.where(keys & pivot[cls], mask[cls], 0)
        for later in kept[i + 1 :]:
            later ^= np.where(later & pivot, mask, 0)
    ukeys, reps, sizes = np.unique(keys, return_index=True, return_counts=True)
    by_index = np.argsort(reps)
    label = np.empty(len(reps), dtype=np.int32)
    label[by_index] = np.arange(len(reps), dtype=np.int32)
    # a lookup: return_inverse's full-size int64 temporaries add 2.5 MB of RSS
    labels = label[np.searchsorted(ukeys, keys)]
    return reps[by_index], sizes[by_index], labels, 2 ** len(kept)


def histogram(shell: Shell) -> InnerProductHistogram:
    """Exact inner-product counts over all N(N-1) ordered pairs, from the
    full invariance pass."""
    return check_distance_invariance(shell, ALL).histogram


def _pair_histogram(table: np.ndarray, sizes: np.ndarray) -> InnerProductHistogram:
    """The orbit-size-weighted sum of the representatives' columns, minus
    the diagonal."""
    n = int(sizes.sum())
    hist = table @ sizes
    hist[2 * SHELL_NORM] -= n
    out = InnerProductHistogram(_dist_from_column(hist).a, n)
    if out.total() != n * (n - 1):
        raise RuntimeError("histogram total does not match N(N-1)")
    return out


def histogram_from_distribution(
    dist: DistanceDistribution, n_points: int
) -> InnerProductHistogram:
    """The ordered-pair histogram a distance-invariant code with this
    per-point distribution would have (counts[t] = N * A_t for t != 1)."""
    counts = {t: n_points * c for t, c in dist.a.items() if t != 1}
    return InnerProductHistogram(counts, n_points)


def distance_distribution_at(shell: Shell, x) -> DistanceDistribution:
    """Exact counts of shell points at each inner product from x (x itself
    contributes A_1 = 1)."""
    xi = shell.index_of(x)
    if xi < 0:
        raise ValueError("point is not in the shell")
    dots = shell.vectors.astype(np.int32) @ np.asarray(x, dtype=np.int32)
    vals, cnts = np.unique(dots, return_counts=True)
    return DistanceDistribution(
        {Fraction(int(v), SHELL_NORM): int(c) for v, c in zip(vals, cnts)}
    )


def check_distance_invariance(
    shell: Shell, sample: int | str = 1000, seed: int = 0
) -> InvarianceReport:
    """Verify that every (checked) point sees the same distance distribution.

    ``sample=ALL`` checks all N points exactly, with one column per orbit of
    the verified sign-flip group, and also gives the exact pair histogram; a
    counterexample is point 0 and the first point whose distribution differs.
    An integer sample checks that many seeded points, one column each.
    """
    vectors = shell.vectors
    n = len(vectors)
    if sample == ALL:
        cols, sizes, table, group_order = _orbit_pass(vectors)
        mode, checked, hist = "full", n, _pair_histogram(table, sizes)
    elif int(sample) < 1:
        raise ValueError(f"sample must be at least 1 point, got {sample}")
    else:
        k = min(int(sample), n)
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(n, size=k, replace=False))
        table = _column_counts(vectors, cols)
        mode, checked, group_order, hist = "sampled", k, 1, None

    ref = table[:, 0]
    differ = np.flatnonzero((table != ref[:, None]).any(axis=0))
    counterexample = None
    if len(differ):
        j = int(differ[0])
        counterexample = (
            (int(cols[0]), _dist_from_column(ref)),
            (int(cols[j]), _dist_from_column(table[:, j])),
        )
    dist = None if counterexample else _dist_from_column(ref)
    return InvarianceReport(
        not counterexample, dist, counterexample, checked, mode, group_order,
        len(cols), hist,
    )


def _dist_from_column(col: np.ndarray) -> DistanceDistribution:
    return DistanceDistribution(
        {
            Fraction(v - SHELL_NORM, SHELL_NORM): int(c)
            for v, c in enumerate(col)
            if c
        }
    )


def moments(shell: Shell, upto: int, hist: InnerProductHistogram) -> MomentVector:
    """Exact Gegenbauer moments M_i = sum over ordered pairs (diagonal
    included) of P_i at the inner products, for i = 1..upto, from the
    shell's pair histogram."""
    n = hist.n_points
    values = []
    for i in range(1, upto + 1):
        p = gegenbauer_poly(shell.dim, i)
        m = Fraction(n)  # diagonal: N * P_i(1) = N
        for t, c in hist.counts.items():
            m += c * p(t)
        values.append(m)
    return MomentVector(tuple(values))


StrengthReport = namedtuple("StrengthReport", "tau extra_vanishing moments")


def design_strength(shell: Shell, cap: int, hist: InnerProductHistogram) -> StrengthReport:
    """Largest tau with M_1 = ... = M_tau = 0, plus higher vanishing moments
    up to the cap."""
    mv = moments(shell, cap, hist)
    tau = 0
    while tau < cap and mv[tau + 1] == 0:
        tau += 1
    extra = tuple(i for i in range(tau + 2, cap + 1) if mv[i] == 0)
    return StrengthReport(tau, extra, mv)


def quadrature_check(
    dist: DistanceDistribution, p: Polynomial, n: int, N: int, tau: int
) -> QuadratureVerdict:
    """Check N*f_0 = sum_t A_t p(t) exactly, f_0 from the Gegenbauer
    expansion.  Degrees above the declared design strength only warn: the
    identity is then not guaranteed, but may still be reported."""
    f0 = gegenbauer_expand(n, p).coeffs[0]
    lhs = N * f0
    rhs = sum((c * p(t) for t, c in dist.a.items()), Fraction(0))
    warning = None
    if p.degree > tau:
        warning = f"degree {p.degree} exceeds design strength {tau}; identity not guaranteed"
    return QuadratureVerdict(lhs == rhs, lhs, rhs, warning)
