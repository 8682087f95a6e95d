"""Spherical-code analytics on rescaled shells: histograms, distance
distributions, Gegenbauer moments, design strength, and quadrature identities.
The histogram and distribution records come from ``gegenbauer``.

Unit-sphere inner products of shell vectors are s_x.s_y / 32, so every pair
statistic is an exact integer count keyed by an exact rational.  The pair
passes count dot values two columns at a time: each column pair's 65 x 65
joint table from the ``lattice32`` kernel gives both columns as its
marginals; it counts half of the rows, as a Shell is closed under negation.

The exact passes (the histogram and the full invariance check) need only one
column per orbit of a group of coordinate sign flips that maps the shell onto
itself: a flip is an isometry, so every point of an orbit sees the same
distance distribution.  Each row's minus signs are one word, bit k for
coordinate k, and a flip f XORs the words of a magnitude class c (the rows
with the same |x|, support word S_c) with f & S_c.  So f maps the shell onto
itself exactly when it maps every class onto itself.  One rule gives the
group: a class whose words X_c form a whole coset of D_c, the span of their
differences and S_c, allows f & S_c in D_c, and any other class allows only
{0, S_c}, that is identity or negation on it.  The group is the flips that
every class allows, one GF(2) kernel.  It always holds negation, and it is
the whole stabilizer whenever every class is such a coset, as on the
lattice shells: there the group is the 2^16 codeword flips with 1117
orbits, one per class.  Its two limits: a class that is no coset loses the
flips that permute it within D_c, and above dim 64, where a word would
need more than 64 bits, the group is negation alone.  The orbits are the
cosets of the group's masks within each class, and the passes stay exact
on every shell.

Each pair of orbits is counted once, from the smaller orbit's rows: for
orbits O_i and O_j, n_i N(i->j, d) = n_j N(j->i, d), where N(i->j, d) counts
the points of O_j at dot d from a point of O_i.  The lattice shells have
496 orbits of 4 points, 620 of 128 and one of 65536, so the pass counts
about 12.9M kernel keys and 0.66M dots of smaller orbits (of the first
half of their rows), against 41.1M keys for each column against every row.
The dots of smaller orbits keep their own loop, _orbit_dot_counts: the pair
kernel's 65 x 65 key has no room for the row's orbit, and one kernel keyed
by orbit offset for both passes measured slower on rm2_5 (2-core host:
0.096 -> 0.134 s on the orbit-class stage, 0.170 -> 0.375 s on a
1000-column sample).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exactmath import Polynomial
from .gf2codes import gf2_rank
from .gegenbauer import (DistanceDistribution, InnerProductHistogram,
                         gegenbauer_expand, gegenbauer_poly)
from .lattice32 import _BINS, SHELL_NORM, Shell, _joint_tables, _row_keys

ALL = "all"
_CLASS_BLOCK = 4096  # magnitude classes per step of the flip group's solve: bounds its memory
_RANK_BLOCK = 256  # orbit ranks per table of _orbit_dot_counts: bounds its memory


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


def _column_counts(shell: Shell, cols: np.ndarray, rows=None, out=None) -> np.ndarray:
    """(65, len(cols)) int32 counts of each dot value s_x.s_c over the
    counted rows x, one column per index c in cols; bin 64 holds the self
    pair.  The counted rows are all of the shell's rows, or those at the
    ascending first-half indices rows and their mirrors (see
    _joint_tables).  The counts go into out, a (65, len(cols)) int32 array
    such as a slice of the caller's table, or a new one.  Columns go in
    pairs (a, b), an odd count padded with its last, and each pair's joint
    table gives column a as its sums over d_b and column b as its sums over
    d_a."""
    pairs = np.append(cols, cols[-1:]) if len(cols) % 2 else cols
    if out is None:
        out = np.empty((_BINS, len(cols)), dtype=np.int32)  # a count is at most N
    for k, joint in enumerate(_joint_tables(shell, pairs[0::2], pairs[1::2], rows)):
        joint.sum(axis=0, out=out[:, 2 * k])  # column a
        if 2 * k + 1 < len(cols):  # not the padding
            joint.sum(axis=1, out=out[:, 2 * k + 1])  # column b
    return out


def _sign_words(bits: np.ndarray) -> np.ndarray:
    """Per row of the bool array bits, its set entries as one word, bit k
    for coordinate k: uint32 at dim <= 32, uint64 at dim <= 64."""
    size = 4 if bits.shape[1] <= 32 else 8
    packed = np.zeros((len(bits), size), dtype=np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(f"<u{size}")[:, 0]


def _eliminate(words: np.ndarray, pivot: np.ndarray, class_sizes=None) -> None:
    """Clear the pivot bit, the lowest set bit of pivot (none for 0), from
    words by XOR with pivot; with class_sizes, pivot holds one word per
    class and words are the rows in class order."""
    bit = pivot & (~pivot + 1)
    if class_sizes is not None:
        bit, pivot = np.repeat(bit, class_sizes), np.repeat(pivot, class_sizes)
    words ^= pivot * ((words & bit) != 0)  # faster than np.where


def _flip_group(words: np.ndarray, support: np.ndarray, class_sizes, heads) -> list:
    """A basis, as Python ints, of the flips on the coordinates of the
    classes' supports that every magnitude class allows.  The rows are the
    first half's, in class order; each class also holds their words XOR its
    support word S_c.  A class whose words X_c form a whole coset of D_c,
    the span of their differences and S_c, allows the flips f with f & S_c
    in D_c; any other class allows f & S_c in {0, S_c}.  Each D_c comes
    from a per-class echelon of the differences, whose next pivot is the
    class's largest reduced difference.  The group is the kernel of every
    class's reduction modulo its allowed span, found _CLASS_BLOCK classes
    at a time, from the unit flips: gf2_rank's dependencies among the block's
    reduced masks of the kernel's flips, one column per flip, give the
    next kernel's basis."""
    diffs = words ^ np.repeat(words[heads], class_sizes)
    pivots, pivot = [], support
    while pivot.any():
        pivots.append(pivot)
        _eliminate(diffs, pivot, class_sizes)
        pivot = np.maximum.reduceat(diffs, heads)
    rank = np.count_nonzero(pivots, axis=0)  # of D_c, at most |S_c| <= 32
    for pivot in pivots[1:]:  # a class that is no whole coset allows {0, S_c}
        pivot[class_sizes != 1 << (rank - 1)] = 0
    union = int(np.bitwise_or.reduce(support))
    kernel = np.array([1 << k for k in range(64) if union >> k & 1], dtype=support.dtype)
    for c0 in range(0, len(support), _CLASS_BLOCK):  # classes a block at a time
        columns = support[c0 : c0 + _CLASS_BLOCK, None] & kernel  # each kernel flip's masks
        for pivot in pivots:
            _eliminate(columns, pivot[c0 : c0 + _CLASS_BLOCK, None])  # modulo allowed spans
        _, deps = gf2_rank([int.from_bytes(col.tobytes(), "little") for col in columns.T])
        kernel = np.array([np.bitwise_xor.reduce(kernel[d]) for d in deps], dtype=kernel.dtype)
    return kernel.tolist()


def _cosets(words: np.ndarray, flips: list, support: np.ndarray, class_sizes: np.ndarray):
    """(int32 order of the rows by key, start of each coset in it, coset
    sizes) for the first half's rows in class order, whose sign words,
    words, are reduced in place.  A row's key is its int32 class and its
    word with the pivot bits of a per-class echelon of the flips' masks and
    of negation's, the support word, cleared: the rows of a coset of their
    span share a key.  Negation pairs each row of a class in the first half
    with one in the second, so a class is mapped onto itself when each key
    occurs 2^(rank - 1) times; a RuntimeError if not."""
    masks = [support.dtype.type(flip) & support for flip in flips] + [support.copy()]
    for i, mask in enumerate(masks):
        # the earlier pivots are already cleared from this mask, and this
        # pivot is cleared from the later ones, so no step undoes another
        _eliminate(words, mask, class_sizes)
        for later in masks[i + 1 :]:
            _eliminate(later, mask)
    rank = np.count_nonzero(masks, axis=0)  # the masks left nonzero: a basis
    cls = np.repeat(np.arange(len(class_sizes), dtype=np.int32), class_sizes)
    order, starts = _sorted_runs([cls, words])
    sizes = np.diff(np.append(starts, len(order)))
    if (sizes != 1 << (rank[cls[order[starts]]] - 1)).any():
        raise RuntimeError("sign-flip group does not map the shell onto itself")
    return order, starts, sizes


def _sorted_runs(keys: list):
    """(int32 order of the rows by the 1-d key arrays keys, the first the
    most significant, places in it where a run of equal keys starts); the
    runs are found 8192 rows at a time."""
    order = np.lexsort(keys[::-1]).astype(np.int32)
    first = np.ones(len(order), dtype=bool)
    for r0 in range(1, len(order), 8192):
        at = order[r0 - 1 : r0 + 8192]  # each block with the row before it
        first[r0 : r0 + 8192] = False
        for key in keys:
            word = key[at]
            first[r0 : r0 + 8192] |= word[1:] != word[:-1]
    return order, np.flatnonzero(first)


def _orbit_pass(shell: Shell):
    """The exact pair pass over a Shell: (representatives, orbit sizes,
    (65, reps) column table, group order).  Each orbit of the verified flip
    group is represented by its smallest index, whose column is every
    point's distribution.  For orbits O_i and O_j of sizes n_i and n_j,
    every point of O_i sees the same N(i->j, d) points of O_j at dot d, so
    n_i N(i->j, d) = n_j N(j->i, d).  Taken by size, smallest first, each
    size class's columns count the rows of the orbits no larger directly,
    given to the kernel as the ascending first-half indices of those rows:
    orbits hold their rows' mirrors, -x at N - 1 - k.  For each smaller
    orbit O_i, the class's dots with its rows, times the class size, add up
    to n_i N(i->j, d) over the class's orbits O_j, and are divided by n_i
    in place, a bounded range of ranks at a time."""
    reps, sizes, ranks, group_order = _orbits(shell.half)  # labels, for now
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    rank = np.argsort(by_size).astype(np.int32)  # each orbit's place by size
    ranks = rank[ranks]  # of each row of the first half
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    table = np.empty((_BINS, len(reps)), dtype=np.int32)  # columns by rank
    for lo, hi in zip(starts, [*starts[1:], len(reps)]):
        cols = reps[by_size[lo:hi]]
        # the largest orbits count every row, through the contiguous path
        rows = None if hi == len(reps) else np.flatnonzero(ranks < hi).astype(np.int32)
        _column_counts(shell, cols, rows, out=table[:, lo:hi])
        _orbit_dot_counts(table, shell.half, cols, ranks, ordered, lo)
    return reps, sizes, table[:, rank], group_order


def _orbit_dot_counts(table, half: np.ndarray, cols, ranks, ordered, lo: int) -> None:
    """Add to table[:, i], for each rank i below lo, N(i->j, d) summed over
    the orbits O_j of the columns cols, all of size n = ordered[lo]: n / n_i
    times the number of pairs of a column c and a row x of rank i with
    s_x.s_c = d, where n_i = ordered[i]; RuntimeError unless n_i divides
    it.  The ranks are those of the rows of half, a Shell's first half: the
    mirror -x of row x shares its rank and has the dots -d.  The
    pairs are counted _RANK_BLOCK ranks at a time into one int64 table,
    then folded and scaled in place.  A range's rows are gathered in blocks
    of at most 2048 rows and 2^15 dots, each block's dots one float32
    np.matmul, exact since every partial sum is an integer of absolute
    value at most 32, and one bincount."""
    C = half[cols].T.astype(np.float32)
    step = max(1, min(2048, 2**15 // len(cols)))
    for r0 in range(0, lo, _RANK_BLOCK):
        counts = np.zeros((min(_RANK_BLOCK, lo - r0), _BINS), dtype=np.int64)
        rows = np.flatnonzero((ranks >= r0) & (ranks < r0 + len(counts)))
        for s0 in range(0, len(rows), step):
            part = rows[s0 : s0 + step]
            keys = np.matmul(half[part].astype(np.float32), C).astype(np.int32)  # exact dots
            keys += ((ranks[part] - r0) * _BINS + SHELL_NORM)[:, None]
            counts += np.bincount(keys.ravel(), minlength=counts.size).reshape(counts.shape)
        counts += counts[:, ::-1]  # row -x has the dots -d
        n_i = ordered[r0 : r0 + len(counts), None]
        counts *= ordered[lo]
        if (counts % n_i).any():
            raise RuntimeError("orbit pair counts are not multiples of the orbit sizes")
        counts //= n_i
        table[:, r0 : r0 + len(counts)] += counts.T


def _orbits(half: np.ndarray):
    """(representatives, orbit sizes, int32 orbit label per row of half,
    group order) of the sign-flip group of _flip_group on the Shell whose
    first half is half; label k is the orbit of the k-th representative,
    its smallest row index.

    Negation maps every Shell onto itself and lies in the group, so the
    mirror -(row k) shares row k's orbit: only the first half of the rows,
    with half of each orbit and its smallest index, is sorted by magnitude
    class and labelled.  A row's minus signs are one word
    (_sign_words), read once the rows are sorted by class, and a flip's
    mask on a class is flip & the class's support word.  The orbits
    are the cosets of the group's masks within each class (_cosets), and
    the group order is 2^(basis length).  Above dim 64 the group is
    negation alone, and the orbits are the pairs {x, -x}."""
    dim = half.shape[1]
    if dim > 64:
        reps = np.arange(len(half), dtype=np.int32)
        return reps, np.full(len(half), 2), reps.copy(), 2
    # one array per key word: with one 2-d block of them, freed at once,
    # verify --full peaked about 0.2 MB higher in RSS on rm2_5 (glibc's
    # malloc thresholds follow the largest block freed)
    mags = [np.empty(len(half), dtype=np.uint64) for _ in range(-(-dim // 16))]
    for r0 in range(0, len(half), 8192):  # no full-size |half|
        block = _row_keys(np.abs(half[r0 : r0 + 8192]))
        for k in range(len(mags)):
            mags[k][r0 : r0 + 8192] = block[:, k]
    del block
    order, heads = _sorted_runs(mags)
    del mags
    class_sizes = np.diff(np.append(heads, len(half)))
    support = _sign_words(half[order[heads]] != 0)  # one row per class
    words = np.empty(len(half), dtype=support.dtype)  # class order from here on
    for r0 in range(0, len(half), 8192):  # no full-size sign bits, none beside the sort
        words[r0 : r0 + 8192] = _sign_words(half[order[r0 : r0 + 8192]] < 0)

    flips = _flip_group(words, support, class_sizes, heads)
    perm, starts, sizes = _cosets(words, flips, support, class_sizes)
    rows = order[perm]  # row index per key-sorted place
    del order, perm, words  # freed before the labels
    reps = np.minimum.reduceat(rows, starts)
    by_index = np.argsort(reps)
    label = np.argsort(by_index).astype(np.int32)  # each coset's place by index
    labels = np.empty(len(half), dtype=np.int32)
    labels[rows] = np.repeat(label, sizes)
    return reps[by_index], 2 * sizes[by_index], labels, 2 ** len(flips)


def histogram(shell: Shell) -> InnerProductHistogram:
    """Exact inner-product counts over all N(N-1) ordered pairs, from the
    full invariance pass."""
    return check_distance_invariance(shell, ALL).histogram


def _pair_histogram(table: np.ndarray, sizes: np.ndarray) -> InnerProductHistogram:
    """The orbit-size-weighted sum of the representatives' columns, minus
    the diagonal."""
    n = int(sizes.sum())
    hist = np.matmul(table, sizes)
    hist[2 * SHELL_NORM] -= n
    out = InnerProductHistogram(_dist_from_column(hist).a, n)
    if out.total() != n * (n - 1):
        raise RuntimeError("histogram total does not match N(N-1)")
    return out


def distance_distribution_at(shell: Shell, x) -> DistanceDistribution:
    """Exact counts of shell points at each inner product from x (x itself
    contributes A_1 = 1)."""
    xi = shell.index_of(x)
    if xi < 0:
        raise ValueError("point is not in the shell")
    return _dist_from_column(_column_counts(shell, [xi])[:, 0])


def check_distance_invariance(
    shell: Shell, sample: int | str = 1000, seed: int = 0
) -> InvarianceReport:
    """Verify that every (checked) point sees the same distance distribution.

    ``sample=ALL`` checks all N points exactly, with one column per orbit of
    the verified sign-flip group, and also gives the exact pair histogram; a
    counterexample is point 0 and the first point whose distribution differs.
    An integer sample checks that many seeded points, one column each.
    """
    n = shell.count
    if sample == ALL:
        cols, sizes, table, group_order = _orbit_pass(shell)
        mode, checked, hist = "full", n, _pair_histogram(table, sizes)
    elif int(sample) < 1:
        raise ValueError(f"sample must be at least 1 point, got {sample}")
    else:
        k = min(int(sample), n)
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(n, size=k, replace=False))
        table = _column_counts(shell, cols)
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
