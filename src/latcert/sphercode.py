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
patterns of its rows with no zero entry, and negation).  Each row's minus
signs are one uint32 word, and a flip XORs the words of a magnitude class
(the rows with the same |x|) with one mask, its bits on the class's
support.  So a flip maps the shell onto itself exactly when it maps every
class onto itself, and the orbits of the kept flips are the cosets of their
masks' span within each class.  The words are reduced once by an echelon
basis of all the candidates' masks and counted: a class in which every
coset is whole is mapped onto itself by every candidate, and only the rows
of the other classes check each flip on its own.  On the lattice shells the
rows with no zero entry are the all-+-1 vectors, whose minus sets are the
codewords, so every class is whole and the group is the 2^16 codeword flips
with 1117 orbits, one per magnitude class.  On any other shell the group is
whatever verifies, down to {+-1} or the trivial group, and the passes stay
exact.

Each pair of orbits is counted once, from the smaller orbit's rows: for
orbits O_i and O_j, n_i N(i->j, d) = n_j N(j->i, d), where N(i->j, d) counts
the points of O_j at dot d from a point of O_i.  The lattice shells have
496 orbits of 4 points, 620 of 128 and one of 65536, so the pass counts
about 12.9M kernel keys and 1.3M dots of smaller orbits, against 41.1M keys
for each column against every row.  The dots of smaller orbits keep their
own loop, _orbit_dot_counts: the pair kernel's 65 x 65 key has no room for
the row's orbit, and one kernel keyed by orbit offset for both passes
measured slower on rm2_5 (2-core host: 0.096 -> 0.134 s on the orbit-class
stage, 0.170 -> 0.375 s on a 1000-column sample).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exactmath import Polynomial
from .gegenbauer import (DistanceDistribution, InnerProductHistogram,
                         gegenbauer_expand, gegenbauer_poly)
from .lattice32 import _BINS, SHELL_NORM, Shell, _joint_tables, _row_keys

ALL = "all"


class MomentVector(namedtuple("MomentVector", "values")):
    """The moments (M_1, ..., M_k) as a tuple of Fractions, ``values``;
    indexed from 1, as M_i."""

    __slots__ = ()

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


def _sign_words(rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Per row, the set entries of the bool array bits (of rows' shape) as
    one uint32.  At dim <= 32 bit k is coordinate k; above it, bit k is the
    row's k-th nonzero coordinate, which fits as s.s = 32 allows at most 32
    of them.  The rows of a magnitude class share their support, so within
    a class either packing is one-to-one."""
    if rows.shape[1] <= 32:
        packed = np.zeros((len(rows), 4), dtype=np.uint8)
        packed[:, : -(-rows.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
        return packed.view("<u4")[:, 0]
    words = np.zeros(len(rows), dtype=np.uint32)
    rank = np.zeros(len(rows), dtype=np.uint8)
    for col, bit in zip(rows.T, bits.T):
        words |= np.left_shift(bit, rank, dtype=np.uint32)
        rank += col != 0
    return words


def _candidate_flips(words: np.ndarray, dim: int) -> list:
    """Sign-flip words to try, as Python ints: a GF(2) basis of the minus
    words of the rows with no zero entry, in row order, then negation if it
    lies outside their span.  The pivots go from the lowest coordinate up;
    each is the first row that has its coordinate once the earlier pivots
    are cleared.  Above dim 32 no row lacks a zero, so negation is the only
    candidate."""
    ones = (1 << min(dim, 32)) - 1  # negation
    basis = []
    for c in range(min(dim, 32)):
        hit = words & np.uint32(1 << c)
        if hit.any():
            pivot = words[np.argmax(hit)]
            basis.append(int(pivot))
            words = words ^ np.where(hit, pivot, 0)
    neg = ones
    for pivot in basis:
        if neg & pivot & -pivot:
            neg ^= pivot
    return basis + [ones] if neg else basis


def _cosets(words: np.ndarray, masks: list, class_sizes: np.ndarray):
    """(argsort of the rows' keys, start of each coset in it, coset sizes,
    whether each class is a union of whole cosets) for rows in class order
    and per-class masks.  A row's key is its class above its word with the
    pivot bits of a per-class echelon of the masks cleared, so the rows of
    one coset of the masks' span, and only they, share a key.  A class is
    whole when each of its keys occurs 2^rank times; the rows are distinct,
    so no key occurs more often."""
    words = words.copy()
    masks = [mask.copy() for mask in masks]
    rank = np.zeros(len(class_sizes), dtype=np.int64)
    for i, mask in enumerate(masks):
        # the earlier pivots are already cleared from this mask, and this
        # pivot is cleared from the later ones, so no step undoes another
        pivot = mask & (~mask + 1)  # lowest set bit per class, 0 for none
        rank += pivot != 0
        words ^= np.where(words & np.repeat(pivot, class_sizes),
                          np.repeat(mask, class_sizes), 0)
        for later in masks[i + 1 :]:
            later ^= np.where(later & pivot, mask, 0)
    keys = np.repeat(np.arange(len(class_sizes), dtype=np.uint64) << 32, class_sizes)
    keys |= words
    perm = np.argsort(keys)
    starts = np.flatnonzero(np.r_[True, np.diff(keys[perm]) != 0])
    sizes = np.diff(np.append(starts, len(keys)))
    cls = keys[perm[starts]] >> 32
    whole = np.ones(len(class_sizes), dtype=bool)
    whole[cls[sizes != 1 << rank[cls]]] = False
    return perm, starts, sizes, whole


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
    representative, its smallest row index.

    The rows are sorted by magnitude class, and each row's minus signs are
    one uint32 word (_sign_words; only that packing depends on dim), so a
    flip's mask on a class is flip & the class's support word.  Every row's
    word is reduced by the per-class echelon of all candidate masks and the
    keys are counted once (_cosets): a class that is a union of whole cosets
    is mapped onto itself by every candidate.  If some class is not, a flip
    is kept when each such class is a union of cosets of that flip's mask
    alone, and the words are reduced again by the kept masks."""
    n, dim = vectors.shape
    mags = np.empty((n, -(-dim // 16)), dtype=">u8")
    words = np.empty(n, dtype=np.uint32)
    for r0 in range(0, n, 8192):  # no full-size |vectors| or sign bits
        block = vectors[r0 : r0 + 8192]
        mags[r0 : r0 + 8192] = _row_keys(np.abs(block))
        words[r0 : r0 + 8192] = _sign_words(block, block < 0)
    order = np.lexsort(mags.T[::-1])
    mags = mags[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (mags[1:] != mags[:-1]).any(axis=1)
    del mags
    heads = np.flatnonzero(first)
    class_sizes = np.diff(np.append(heads, n))
    lead = vectors[order[heads]]  # one row per class
    full = np.zeros(n, dtype=bool)  # the rows with no zero entry
    full[order] = np.repeat(lead.all(axis=1), class_sizes)
    support = _sign_words(lead, lead != 0)
    masks = [np.uint32(flip) & support for flip in _candidate_flips(words[full], dim)]
    words = words[order]  # class order from here on

    perm, starts, sizes, whole = _cosets(words, masks, class_sizes)
    kept = masks
    if not whole.all():
        bad = ~whole
        own = words[np.repeat(bad, class_sizes)]
        kept = [mask for mask in masks
                if _cosets(own, [mask[bad]], class_sizes[bad])[3].all()]
        perm, starts, sizes, _ = _cosets(words, kept, class_sizes)
    rows = order[perm]  # row index per key-sorted place
    reps = np.minimum.reduceat(rows, starts)
    by_index = np.argsort(reps)
    label = np.empty(len(reps), dtype=np.int32)
    label[by_index] = np.arange(len(reps), dtype=np.int32)
    labels = np.empty(n, dtype=np.int32)
    labels[rows] = np.repeat(label, sizes)
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
    return _dist_from_column(_column_counts(shell.vectors, [xi])[:, 0])


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
