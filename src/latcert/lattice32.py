"""Norm-4 shells of the 32-dimensional lattices built from self-dual codes.

The lattice is obtained from a doubly-even self-dual [32,16,8] code by the
mod-4 coordinate-sum construction followed by adjoining the half-vector
coset.  Vectors are stored in scaled integer coordinates s = 2*sqrt(2)*v,
so a minimal vector (v.v = 4) has s.s = 32 and every quantity downstream is
an exact integer or rational: lattice inner products are s_x.s_y / 8 and
unit-sphere inner products are s_x.s_y / 32.

Given that the code has no words of weight 4, the norm-4 vectors follow
one rule: +-m on a support S, with the minus signs on a set of S, for
exactly one of three choices of (m, S, minus sets):

  m = 4, S any two coordinates, any signs;
  m = 2, S a weight-8 codeword, an even number of minus signs;
  m = 1, S all 32 coordinates, the minus set a codeword (the half-vector
         coset).

For an extremal input these give 496 * 4 = 1984, 620 * 128 = 79360 and
2^16 = 65536 vectors, 146880 in all.

Pair statistics (the column counts of ``sphercode`` and Venkov's e_{2,2})
come from one kernel that counts dot values for two columns a, b at a time
in blocked float32 matrix products: the dots with s_a + 65 s_b are
v = d_a + 65 d_b, and one bincount of them gives the pair's 65 x 65 joint
table.  Every vector has s.s = 32 (a Shell invariant), so |entry| <= 5
and, by Cauchy-Schwarz, every partial sum is an integer of absolute value
at most 66 * 32 = 2112 < 2^24: the float path is exact.  A Shell is closed
under negation, so its sorted rows end with the first half negated in
reverse order: it stores only the first half, and computes a mirror row
count - 1 - k as -(row k) wherever one is read.  The mirror has the dots
-v, so the kernel counts |v|, in 2113 bins, over the first half of the
counted rows.  Those are all rows, or the rows at given
ascending first-half indices (from the orbit pass of ``sphercode``) and
their mirrors, which the kernel never gathers.  The kernel takes 32 pairs
at a time and counts their keys 2^14 counted rows at a time (2^13 of an
index set, beside the orbit pass's data), so it keeps one uint16 block of
at most 2^19 keys; it fills it 2048 counted rows at a time, each converted
from int8 (gathered, for an index set) to float32 just before its
product, one np.matmul of 32 pairs by 2048 rows.  The blocks bound
memory; the CLI runs OpenBLAS on one thread (see ``cli``).

The checks of a Shell's first half and the parity check of load_shell run
on _BLOCK = 8192 rows at a time and make no full-size temporary; only rows
out of order need the full-size row keys of a sort.  save_shell and the
row passes of ``sphercode``'s orbits take the same blocks.  build_shell
enumerates only the first half, and load_shell streams a canonical file,
keeping its first half and comparing each later row with its mirror, so
neither makes the second half.  Every Shell is made in one place, from its own first half, by
_own_half, the one place a first half is sorted: build_shell and
load_shell hand over fresh rows, kept without a copy once sorted, and a
Shell made from all of its rows, by the constructor or from a file that is
not canonical, splits them by leading sign, hands over a copy of the minus
part and requires the plus part, negated and sorted, to equal the Shell's
first half, so no Shell keeps any other rows alive.  Rows are compared, in
the check of order and in a lookup, by one comparison, _less, and looked
up by one bisection of the first half, _half_index.
"""

from __future__ import annotations

import os
import random
import sys
import warnings
from itertools import combinations

import numpy as np

from .gf2codes import BinaryCode, _codewords_by_weight, code_report

SHELL_NORM = 32  # s.s for every shell vector (norm 4 at lattice scale)
_BINS = 2 * SHELL_NORM + 1  # dot values -32..32, offset by 32
_E22_BIN = SHELL_NORM + 16  # dot 16: lattice inner product 2
_BLOCK = 8192  # rows per block of a pass over a Shell's rows: bounds its temporaries


class Shell:
    """Canonically sorted integer vectors with s.s = 32, closed under
    negation.

    ``dim``, the length of the rows, is also the sphere dimension used for
    Gegenbauer analysis; the lattice construction always produces dim = 32,
    and the tests also build synthetic shells of dims 4 to 64.

    The constructor checks the invariants every kernel relies on, with
    ValueError: there is a row, every row has s.s = 32, no row repeats and
    the rows are closed under negation, checked in that order.  It splits
    the rows by the sign of their first nonzero entry, makes the Shell from
    a copy of the minus part, which _own_half sorts, and sorts the plus
    part negated; the rows are closed under negation exactly when that is
    the Shell's first half.  Negation reverses the sorted order of such
    rows, and the minus part sorts before the plus part, so row count - 1 -
    k is -(row k): a Shell stores only ``half``, the read-only,
    C-contiguous first count // 2 rows, the minus part, and computes every
    mirror row from it.  s.s = 32 bounds |entry| <= 5, so negation stays
    exact in int8, the row keys' nibbles hold every entry, and every
    partial sum of a dot is at most 32 in absolute value, so float32 dots
    are exact integers.  ``vectors``, all count rows, is a new array on
    each read, for the tests.  ``half`` is set once, by _own_half, which
    makes every Shell from rows it owns (half.base is None); two shells are
    equal only when they are the same object.
    """

    # half: (N // 2, dim) int8, lexicographically sorted, no duplicates
    __slots__ = ("half",)

    def __new__(cls, vectors):
        arr = np.asarray(vectors, dtype=np.int8)
        if arr.ndim != 2:
            raise ValueError("shell vectors must form a 2-d array")
        if not len(arr):
            raise ValueError("need a nonempty shell")
        # first: s.s = 32 bounds |entry| <= 5, inside the row keys' range
        _check_norms(arr)
        minus = _lead(arr) < 0
        shell = _own_half(arr[minus])  # a copy: a Shell never shares the caller's rows
        if not np.array_equal(_canonical_sort(-arr[~minus]), shell.half):
            raise ValueError("shell is not closed under negation")
        return shell

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @property
    def dim(self) -> int:
        return self.half.shape[1]

    @property
    def count(self) -> int:
        return 2 * len(self.half)

    @property
    def vectors(self) -> np.ndarray:
        """All rows in the canonical order, as a new read-only array."""
        out = np.concatenate((self.half, -self.half[::-1]))
        out.setflags(write=False)
        return out

    def _rows(self, index) -> np.ndarray:
        """The rows at index, an int or an array of ints in [0, count),
        gathered from ``half``: row count - 1 - k is -(row k)."""
        index = np.asarray(index)
        mirror = index >= len(self.half)
        out = self.half.take(np.where(mirror, self.count - 1 - index, index), axis=0)
        np.negative(out, out=out, where=mirror[..., None])
        return out

    def index_of(self, s) -> int:
        """Index of a vector in the canonical order; -1 if absent.  ValueError
        unless the probe has shape (dim,).  _half_index finds the probe, or
        its negation when the probe leads with a plus, in ``half``."""
        s = np.asarray(s)
        if s.shape != (self.dim,):
            raise ValueError(f"probe has shape {s.shape}, expected ({self.dim},)")
        row = s.astype(np.int8)
        if not np.array_equal(row, s):  # wrapped or truncated into int8
            return -1
        k = int(_half_index(self.half, row[None])[0])
        return k if k < 0 or _lead(row) < 0 else self.count - 1 - k


def _row_keys(a: np.ndarray) -> np.ndarray:
    """(n, ceil(dim/16)) uint64 keys whose word-tuple order is the rows'
    numeric lexicographic order: each entry + 8 is a nibble, 16 to a
    big-endian word, padded with the nibble of 0.  Needs every entry in
    [-8, 8)."""
    n, dim = a.shape
    nib = np.full((n, -(-dim // 16) * 16), 8, dtype=np.uint8)
    np.add(a.view(np.uint8), 8, out=nib[:, :dim])  # wraps to entry + 8
    keys = nib[:, 0::2] << 4
    keys |= nib[:, 1::2]
    return keys.view(">u8")


def _less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of a is lexicographically below the row of b,
    compared at their first differing entry."""
    k = (a != b).argmax(axis=1)[:, None]  # 0 where the rows are equal
    return np.take_along_axis(a, k, 1)[:, 0] < np.take_along_axis(b, k, 1)[:, 0]


def _lead(rows: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of rows, or of rows itself when
    it is one row; 0 for a zero row."""
    k = (rows != 0).argmax(axis=-1)[..., None]
    return np.take_along_axis(rows, k, -1)[..., 0]


def _half_index(half: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in half, a Shell's first half, of each row of rows or of
    its negation, whichever leads with a minus; -1 where neither is a row.
    One bisection of all rows at once, by _less."""
    rows = np.where(_lead(rows)[:, None] > 0, -rows, rows)
    lo, hi = np.zeros(len(rows), dtype=np.intp), np.full(len(rows), len(half))
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        below = open_ & _less(half[np.minimum(mid, len(half) - 1)], rows)
        lo, hi = np.where(below, mid + 1, lo), np.where(open_ & ~below, mid, hi)
    at = np.minimum(lo, len(half) - 1)
    return np.where((half[at] == rows).all(axis=1), at, -1)


def _increasing(arr: np.ndarray) -> bool:
    """Whether every row is lexicographically above the row before it,
    compared _BLOCK rows at a time, each block with the row before it."""
    for r0 in range(0, len(arr), _BLOCK):
        block = arr[max(r0 - 1, 0) : r0 + _BLOCK]
        if not _less(block[:-1], block[1:]).all():
            return False
    return True


def _canonical_sort(arr: np.ndarray) -> np.ndarray:
    """Lexicographically sorted copy of the rows, gathered once their keys
    are freed; ValueError if a row repeats (checked in _BLOCK rows)."""
    arr = arr[np.lexsort(_row_keys(arr).T[::-1])]
    if not _increasing(arr):
        raise ValueError("duplicate shell vectors")
    return arr


def _check_norms(vectors: np.ndarray) -> None:
    """ValueError naming the first int8 row with s.s != 32 and its s.s,
    summed in int64 _BLOCK rows at a time."""
    for r0 in range(0, len(vectors), _BLOCK):
        block = vectors[r0 : r0 + _BLOCK]
        norms = np.einsum("ij,ij->i", block, block, dtype=np.int64)
        bad = np.flatnonzero(norms != SHELL_NORM)
        if len(bad):
            raise ValueError(f"vector {r0 + bad[0]} has s.s = {norms[bad[0]]}, expected 32")


def _mixed_parity(arr: np.ndarray) -> bool:
    """Whether an int8 row mixes even and odd entries, checked _BLOCK rows
    at a time (two's complement keeps parity)."""
    for r0 in range(0, len(arr), _BLOCK):
        odd = (arr[r0 : r0 + _BLOCK] & 1).sum(axis=1)
        if ((odd > 0) & (odd < arr.shape[1])).any():
            return True
    return False


def _own_half(half: np.ndarray) -> Shell:
    """The Shell whose first half is half, fresh C-contiguous int8 rows, kept
    without a copy when sorted and sorted into a new array otherwise; the one
    place a first half is sorted and a Shell's ``half`` is set.  ValueError
    unless every row has s.s = 32, no row repeats and every row leads with a
    minus sign (_lead).  In sorted order the rows that lead with a minus
    come first, so the last row shows the sign of all.  An empty half, the
    minus part of rows that all lead with a plus, gives an empty Shell,
    which Shell.__new__ then refuses as not closed under negation."""
    _check_norms(half)
    if not _increasing(half):
        half = _canonical_sort(half)
    if len(half) and _lead(half[-1]) > 0:
        raise ValueError("a first-half row leads with a plus sign")
    half.setflags(write=False)
    shell = object.__new__(Shell)
    object.__setattr__(shell, "half", half)
    return shell


_NOT_EXTREMAL = "code has weight-4 words; lattice is not extremal"


class CodeRejected(ValueError):
    """The code does not give the 146880-vector shell; the message says why."""


def _screen(c: BinaryCode) -> tuple:
    """(why c does not give the 146880-vector shell, its codewords by weight
    from gf2codes._codewords_by_weight): the reason is None when c is a
    doubly-even self-dual [32,16] code with no weight-4 words and minimum
    distance 8, and the codewords are None when c is not [32,16]."""
    if c.length != 32 or c.dimension != 16:  # first: bounds the enumeration
        return f"need a [32,16] code, got [{c.length},{c.dimension}]", None
    by_weight = _codewords_by_weight(c)
    report = code_report(c, by_weight)
    if not report.self_dual:
        return "code is not self-dual", by_weight
    if not report.doubly_even:
        return "code is not doubly even", by_weight
    if report.weight_enumerator.get(4, 0):
        return _NOT_EXTREMAL, by_weight
    if report.min_distance != 8:
        return f"need minimum distance 8, got {report.min_distance}", by_weight
    return None, by_weight


def check_extremal(c: BinaryCode) -> bool:
    """Whether the lattice built from c has an empty norm-2 layer; ValueError
    unless c is a doubly-even self-dual [32,16] code.

    Shape analysis: a norm-2 vector would have a single +-2 coordinate
    (coordinate sum +-2, not divisible by 4), or four +-1 coordinates on a
    weight-4 codeword, or lie in the half-vector coset (norm >= 4 there).
    Only the weight-4 case can occur, so extremality is exactly the absence
    of weight-4 words.
    """
    failure, _ = _screen(c)
    if failure not in (None, _NOT_EXTREMAL):
        raise ValueError(failure)
    return failure is None


def build_shell(c: BinaryCode) -> Shell:
    """Enumerate the 146880 norm-4 vectors of the lattice built from c;
    CodeRejected saying why for any other code.  The codewords are
    enumerated and weighed once, for the check and the build.  Only the
    first half, the vectors whose first nonzero entry is negative, is
    enumerated: the sign masks with a minus on the support's first
    coordinate, and the codewords that hold coordinate 0 as the minus sets
    of the half-vector coset."""
    failure, by_weight = _screen(c)
    if failure:
        raise CodeRejected(failure)

    return _own_half(np.concatenate([
        _signed([(1 << i) | (1 << j) for i, j in combinations(range(32), 2)], [1, 3], 4),
        _signed(by_weight[8], [m for m in range(1, 256, 2) if m.bit_count() % 2 == 0], 2),
        _signed([2**32 - 1], [w for words in by_weight.values() for w in words if w & 1], 1),
    ]))


def _signed(supports, signs, magnitude: int) -> np.ndarray:
    """The int8 rows of length 32 with +-magnitude on a support and 0 off
    it, one per support and sign mask: the supports are integer masks of
    one weight w, and a sign mask's bit k puts a minus on the support's
    k-th coordinate, counted from 0 in ascending order."""
    # each mask as 32 entries 0/1, bit k in column k
    on, minus = (np.unpackbits(np.asarray(masks, dtype="<u4").view(np.uint8).reshape(-1, 4),
                               axis=1, bitorder="little") for masks in (supports, signs))
    # the entry at coordinate c is the sign mask's value at c's rank in the
    # support, or the zero after the 32 values when c is off the support
    rank = np.where(on == 1, np.cumsum(on, axis=1) - on, 32)
    values = np.zeros((len(minus), 33), dtype=np.int8)
    values[:, :32] = magnitude * (1 - 2 * minus.view(np.int8))
    return values[:, rank].swapaxes(0, 1).reshape(-1, 32)


def venkov_e22(shell: Shell, x, z) -> int:
    """Number of shell vectors y with lattice inner product 2 with both of
    the orthogonal minimal vectors x and z (the Venkov pair statistic)."""
    x = np.asarray(x, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    i, j = shell.index_of(x), shell.index_of(z)
    if i < 0 or j < 0:
        raise ValueError("x and z must be shell vectors")
    dot = int(np.matmul(x, z))
    if dot != 0:
        from fractions import Fraction  # only for the message: s_x.s_z / 8 is exact
        raise ValueError(f"invalid Venkov pair: lattice inner product is {Fraction(dot, 8)}, "
                         "not 0")
    (table,) = _joint_tables(shell, [i], [j])
    return int(table[_E22_BIN, _E22_BIN])


def _joint_tables(shell: Shell, a, b, rows=None):
    """Yield, for each pair (a[k], b[k]) of the shell's rows, the (65, 65)
    table whose entry [d_b + 32, d_a + 32] counts the counted rows x with
    s_x.s_a = d_a and s_x.s_b = d_b.  The counted rows are all rows, or the
    rows at the ascending first-half indices ``rows``, gathered 2048 at a
    time, and their mirrors; RuntimeError unless every index k is in [0,
    count // 2) and the indices ascend.  The mirror count - 1 - k is -x,
    with dots (-d_a, -d_b), so only the first half is counted, by the key
    |v| of the exact float32 dot v = (s_a + 65 s_b).x = d_a + 65 d_b, and
    the count of |v| goes to v and -v."""
    V = shell.half
    # -1 and count // 2 bracket the indices: each step between them is positive
    if rows is not None and (np.diff(rows, prepend=-1, append=len(V)) <= 0).any():
        raise RuntimeError("counted rows are not ascending first-half indices")
    counted = V if rows is None else rows
    P = shell._rows(a) + _BINS * shell._rows(b).astype(np.float32)
    # 32 pairs per block, so a product, one np.matmul, is at most 32 x 2048
    # float32: the blocks bound memory.  Their uint16 keys in [0, 2112] are
    # counted into int32 tables, zeroed for each block (no count exceeds the
    # number of counted rows)
    step = 2**14 if rows is None else 2**13
    keys = np.empty((min(32, len(P)), min(step, len(counted))), dtype=np.uint16)
    joint = np.empty((len(keys), _BINS**2 // 2 + 1), dtype=np.int32)
    # one float32 row block and its products, reused: fresh 256 KB arrays,
    # freed at the top of the heap, were given back and faulted in each time
    rows32 = np.empty((min(2048, len(counted)), V.shape[1]), dtype=np.float32)
    dots = np.empty((len(keys), len(rows32)), dtype=np.float32)
    for j0 in range(0, len(P), 32):
        block = P[j0 : j0 + 32]
        joint[...] = 0
        for s0 in range(0, len(counted), step):
            seg = counted[s0 : s0 + step]
            for r0 in range(0, len(seg), 2048):  # float32 of 2048 rows at a time
                part = seg[r0 : r0 + 2048]
                n = len(part)
                np.copyto(rows32[:n], part if rows is None else V[part])
                d = np.matmul(block, rows32[:n].T, out=dots[: len(block), :n])
                np.absolute(d, out=keys[: len(block), r0 : r0 + n], casting="unsafe")
            for j in range(len(block)):
                joint[j] += np.bincount(keys[j, : len(seg)], minlength=joint.shape[1])
        for half in joint[: len(block)]:
            yield np.concatenate((half[:0:-1], 2 * half[:1], half[1:])).reshape(_BINS, _BINS)


def witness_pair():
    """The explicit orthogonal pair attaining e_{2,2} = 60: in s-coordinates
    (0,...,0,4,4) and (0,...,0,-4,4)."""
    x = np.zeros(32, dtype=np.int8)
    z = np.zeros(32, dtype=np.int8)
    x[30] = x[31] = 4
    z[30] = -4
    z[31] = 4
    return x, z


# e_{2,2} of the witness pair on an extremal shell
WITNESS_E22 = 60


def sampled_e22_ok(values) -> bool:
    """True when every sampled e_{2,2} value is even and in [0, WITNESS_E22].
    It is even on an extremal shell: y -> x + z - y pairs the counted y, and
    its one fixed point (x + z) / 2 has norm 2, below the minimal norm 4."""
    return all(v % 2 == 0 and 0 <= v <= WITNESS_E22 for v in values)


def venkov_sample(shell: Shell, count: int, seed: int) -> list:
    """Seeded sample of e_{2,2} values over random orthogonal shell pairs;
    ValueError when 10000 draws in a row find no orthogonal pair."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    n = shell.count
    pairs = []
    for _ in range(count):
        for _ in range(10000):
            i = rng.randrange(n)
            j = rng.randrange(n)
            # also skips i == j (dot 32)
            if np.matmul(shell._rows(i).astype(np.int64), shell._rows(j)) == 0:
                pairs.append((i, j))  # rows of the shell: no lookup needed
                break
        else:
            raise ValueError("no orthogonal pair found within budget; malformed shell")
    i, j = np.array(pairs).T
    return [int(table[_E22_BIN, _E22_BIN]) for table in _joint_tables(shell, i, j)]


# ---------------------------------------------------------------------------
# Shell files

_HEADER = "latcert-shell v1"


def save_shell(shell: Shell, path) -> None:
    """Write the header and one line per row, entries separated by spaces."""
    # s.s = 32 bounds |entry| <= 5, so each entry is an optional '-' and one digit
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER} n={shell.dim} count={shell.count} scale=2sqrt2\n".encode())
        # the first half, then its rows negated in reverse order
        for sign, rows in ((1, shell.half), (-1, shell.half[::-1])):
            for r0 in range(0, len(rows), _BLOCK):
                block = sign * rows[r0 : r0 + _BLOCK]
                text = np.full((*block.shape, 3), ord(" "), dtype=np.uint8)  # sign, digit, space
                text[..., 0] = np.where(block < 0, ord("-"), 0)
                text[..., 1] = ord("0") + np.abs(block)
                text[:, -1, 2] = ord("\n")
                fh.write(text.tobytes().translate(None, b"\0"))


def _parse_header(header: str, path) -> tuple:
    """(dim, count) of a stripped header line; ValueError naming the path,
    also for a number of more digits than int() reads (a limit of 0 reads
    any number)."""
    parts = header.split()
    fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    dim, count = fields.get("n", ""), fields.get("count", "")
    if (parts[:2] != _HEADER.split() or len(parts) != 5 or len(fields) != 3
            or not (dim + count).isascii() or not (dim.isdecimal() and count.isdecimal())
            or max(len(dim), len(count)) > sys.get_int_max_str_digits() > 0 or int(dim) < 1):
        raise ValueError(f"{path}: bad shell header {header!r}")
    if fields.get("scale") != "2sqrt2":
        raise ValueError(f"{path}: unsupported scale {fields.get('scale')!r}")
    return int(dim), int(count)


def _read_saved(path):
    """The Shell of a canonical file in the grammar save_shell writes, or
    None for any other file and for one that fails a check.  That grammar
    is an ASCII header line without '\r', then lines of dim tokens, each an
    optional '-' and one digit followed by a space, the last token of a
    line by a newline instead.

    A canonical file holds count = 2h sorted rows, each with s.s = 32 and
    one parity, the last h the first h negated in reverse order.  The body
    is read in blocks of about 2^17 bytes cut at newlines; the first h rows
    go into one int8 array, which _own_half checks and keeps as the Shell's
    half, and each later row is compared with the negation of its mirror,
    already kept, and freed with its block.  A row takes at least 2 dim
    bytes, so a header count or dim that the body cannot hold allocates
    nothing for it."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if b"\r" in line:  # text mode would end the header line there
            return None
        try:
            dim, count = _parse_header(line.decode("ascii").strip(), path)
        except ValueError:  # also non-ASCII: the text reader gives the message
            return None
        h = count // 2
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if count % 2 or not h or count > body // (2 * dim):
            return None
        half = np.empty((h, dim), dtype=np.int8)
        seps = np.full(dim, ord(" "), dtype=np.uint8)
        seps[-1] = ord("\n")
        rows = 0
        while block := fh.read(max(2**17, 3 * dim)):  # holds a whole line
            cut = block.rfind(b"\n") + 1
            if not cut:  # no final newline, or a line longer than 3 dim bytes
                return None
            fh.seek(cut - len(block), os.SEEK_CUR)
            block = block[:cut]
            # the k-th '-' (from 0), at byte i, precedes byte i - k of the block
            # without them: a token's digit slot (even), and no two share one
            at = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("-"))
            at -= np.arange(len(at))
            text = np.frombuffer(block.translate(None, b"-"), dtype=np.uint8)
            if len(text) % (2 * dim) or (at & 1).any() or (np.diff(at) == 0).any():
                return None
            grid = text.reshape(-1, dim, 2)  # (digit, separator) per token
            digits = grid[..., 0] - np.uint8(ord("0"))  # wraps above 9 if not a digit
            if (digits > 9).any() or (grid[..., 1] != seps).any():
                return None
            if rows + len(grid) > count:  # more rows than the header count
                return None
            new = digits.view(np.int8)
            new.reshape(-1)[at >> 1] *= -1
            kept = max(0, min(len(new), h - rows))
            half[rows : rows + kept] = new[:kept]
            # rows lo..hi - 1 of the second half mirror rows count - hi..count - 1 - lo
            lo, hi = rows + kept, rows + len(new)
            if (new[kept:] + half[count - hi : count - lo][::-1]).any():
                return None
            rows = hi
    if rows != count or _mixed_parity(half):
        return None
    try:
        return _own_half(half)
    except ValueError:  # off norm, a repeat, or not a first half
        return None


def _read_text(path) -> Shell:
    """The Shell of any file np.loadtxt reads as a shell file; ValueError
    (UnicodeDecodeError for a byte that is not UTF-8) otherwise."""
    with open(path) as fh:
        dim, count = _parse_header(fh.readline().strip(), path)
        # ValueError on ragged rows and on tokens that are not int8 integers
        with warnings.catch_warnings():  # an empty body is rejected downstream
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, dtype=np.int8, ndmin=2, comments=None)
    if arr.size and arr.shape[1] != dim:
        raise ValueError(f"{path}: expected {dim} coordinates, got {arr.shape[1]}")
    arr = arr.reshape(-1, dim)
    if len(arr) != count:
        raise ValueError(f"{path}: header says {count} vectors, found {len(arr)}")
    if _mixed_parity(arr):
        raise ValueError(f"{path}: vector with mixed even/odd coordinates")
    return Shell(arr)


def load_shell(path) -> Shell:
    """The Shell of a shell file.  A canonical file in the grammar
    save_shell writes is streamed, and only its first half kept; any other
    file, and one that fails a check, goes through np.loadtxt, which gives
    every other accepted spelling and every error message."""
    return _read_saved(path) or _read_text(path)
