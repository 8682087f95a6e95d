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
d_a + 65 d_b, and one bincount of them gives the pair's 65 x 65 joint
table.  Every vector has s.s = 32 (a Shell invariant), so |entry| <= 5
and, by Cauchy-Schwarz, every partial sum is an integer of absolute value
at most 66 * 32 = 2112 < 2^24: the float path is exact.  When the rows end
with the first half negated in reverse order, as the rows of a shell closed
under negation do, only the first half is counted and each table gets its
reverse added.  The counted rows are all rows, or the rows at given
ascending indices (the orbit pass of ``sphercode`` counts each size class
of orbits against the rows of orbits no larger); an index set folds when it
holds the mirror index of each of its indices.  The kernel keeps one uint16
block of at most 32 pairs and about 2^21 keys (28 pairs on a folded
146880-row shell) and fills it 8192 counted rows at a time, each converted
from int8 (gathered, for an index set) to float32 just before its product.
"""

from __future__ import annotations

import os
import random
import warnings
from itertools import combinations

import numpy as np

from .gf2codes import BinaryCode, code_report

SHELL_NORM = 32  # s.s for every shell vector (norm 4 at lattice scale)
_BINS = 2 * SHELL_NORM + 1  # dot values -32..32, offset by 32
_E22_BIN = SHELL_NORM + 16  # dot 16: lattice inner product 2


class Shell:
    """Canonically sorted integer vectors with s.s = 32.

    ``dim``, the length of the rows, is also the sphere dimension used for
    Gegenbauer analysis; the lattice construction always produces dim = 32,
    smaller synthetic shells are used in tests.

    The constructor checks the invariants every kernel relies on, with
    ValueError, and stores a read-only, C-contiguous sorted copy of the
    rows: there is a row, no row repeats and every row has s.s = 32.  That
    bounds |entry| <= 5, so negation stays exact in int8, the row keys'
    nibbles hold every entry, and every partial sum of a dot is at most 32
    in absolute value, so float32 dots are exact integers.  ``vectors`` is
    set once; two shells are equal only when they are the same object.
    """

    # vectors: (N, dim) int8, lexicographically sorted, no duplicates
    __slots__ = ("vectors",)

    def __init__(self, vectors):
        arr = np.asarray(vectors, dtype=np.int8)
        if arr.ndim != 2:
            raise ValueError("shell vectors must form a 2-d array")
        if not len(arr):
            raise ValueError("need a nonempty shell")
        # first: s.s = 32 bounds |entry| <= 5, inside the row keys' range
        _check_norms(arr, "vector {i} has s.s = {norm}, expected 32")
        srt, dups = _canonical_sort(arr)
        if dups:
            raise ValueError("duplicate shell vectors")
        srt.setflags(write=False)
        object.__setattr__(self, "vectors", srt)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return len(self.vectors)

    def index_of(self, s) -> int:
        """Index of a vector in the canonical order; -1 if absent.  ValueError
        unless the probe has shape (dim,)."""
        s = np.asarray(s)
        if s.shape != (self.dim,):
            raise ValueError(f"probe has shape {s.shape}, expected ({self.dim},)")
        row = s.astype(np.int8)
        if not np.array_equal(row, s):  # not wrapped into int8
            return -1
        # each row compared as one dim-byte record
        record = np.dtype((np.void, self.dim))
        hits = np.flatnonzero(self.vectors.view(record)[:, 0] == row.view(record)[0])
        return int(hits[0]) if len(hits) else -1


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


def _canonical_sort(arr: np.ndarray):
    """Lexicographically sorted copy without duplicate rows, plus the number
    of duplicates dropped."""
    keys = _row_keys(arr)
    # rows that already strictly increase (a saved shell's do) are sorted
    # and distinct: a copy, so the result never aliases the caller's array
    less = np.zeros(len(keys[1:]), dtype=bool)  # row k < row k + 1 so far
    tied = ~less  # row k == row k + 1 so far
    for prev, cur in zip(keys[:-1].T, keys[1:].T):
        less |= tied & (prev < cur)
        tied &= prev == cur
    if less.all():
        return arr.copy(), 0
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(arr), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return arr[order[first]], len(arr) - int(first.sum())


def _check_norms(vectors: np.ndarray, message: str) -> None:
    """ValueError(message with {i} and {norm}) for the first int8 row with
    s.s != 32, summed in int64 without a full-size temporary."""
    norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.int64)
    bad = np.flatnonzero(norms != SHELL_NORM)
    if len(bad):
        raise ValueError(message.format(i=int(bad[0]), norm=int(norms[bad[0]])))


def _folds(V: np.ndarray) -> bool:
    """Whether the second half of the rows is the first half negated in
    reverse order; an odd count never folds.  On a Shell this is closure
    under negation, since its rows are sorted and distinct, none is zero,
    and negation reverses the order of such rows."""
    half = len(V) // 2  # int8 sums wrap as int8 negation does
    return len(V) % 2 == 0 and not (V[:half] + V[half:][::-1]).any()


def make_shell(vectors) -> Shell:
    """The Shell of the rows; ValueError unless it is also closed under
    negation."""
    shell = Shell(vectors)
    if not _folds(shell.vectors):
        raise ValueError("shell is not closed under negation")
    return shell


_NOT_EXTREMAL = "code has weight-4 words; lattice is not extremal"


class CodeRejected(ValueError):
    """The code does not give the 146880-vector shell; the message says why."""


def shell_failure(c: BinaryCode) -> str | None:
    """Why c does not give the 146880-vector shell, or None when it is a
    doubly-even self-dual [32,16] code with no weight-4 words and minimum
    distance 8."""
    if c.length != 32 or c.dimension != 16:  # first: bounds the enumeration
        return f"need a [32,16] code, got [{c.length},{c.dimension}]"
    report = code_report(c)
    if not report.self_dual:
        return "code is not self-dual"
    if not report.doubly_even:
        return "code is not doubly even"
    if report.weight_enumerator.get(4, 0):
        return _NOT_EXTREMAL
    if report.min_distance != 8:
        return f"need minimum distance 8, got {report.min_distance}"
    return None


def check_extremal(c: BinaryCode) -> bool:
    """Whether the lattice built from c has an empty norm-2 layer; ValueError
    unless c is a doubly-even self-dual [32,16] code.

    Shape analysis: a norm-2 vector would have a single +-2 coordinate
    (coordinate sum +-2, not divisible by 4), or four +-1 coordinates on a
    weight-4 codeword, or lie in the half-vector coset (norm >= 4 there).
    Only the weight-4 case can occur, so extremality is exactly the absence
    of weight-4 words.
    """
    failure = shell_failure(c)
    if failure not in (None, _NOT_EXTREMAL):
        raise ValueError(failure)
    return failure is None


def build_shell(c: BinaryCode) -> Shell:
    """Enumerate all 146880 norm-4 vectors of the lattice built from c;
    CodeRejected with the shell_failure message for any other code."""
    failure = shell_failure(c)
    if failure:
        raise CodeRejected(failure)

    words = c.codeword_masks()
    return make_shell(np.concatenate([
        _signed([(1 << i) | (1 << j) for i, j in combinations(range(32), 2)], range(4), 4),
        _signed([w for w in words if w.bit_count() == 8],
                [m for m in range(256) if m.bit_count() % 2 == 0], 2),
        _signed([2**32 - 1], words, 1),
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
    if int(x @ z) != 0:
        raise ValueError(
            f"invalid Venkov pair: lattice inner product is {int(x @ z) // 8}, not 0"
        )
    (table,) = _joint_tables(shell.vectors, [i], [j])
    return int(table[_E22_BIN, _E22_BIN])


def _joint_tables(V: np.ndarray, a, b, rows=None):
    """Yield, for each pair (a[k], b[k]) of rows of V (a Shell's rows), the
    (65, 65) table whose entry [d_b + 32, d_a + 32] counts the counted rows
    x with s_x.s_a = d_a and s_x.s_b = d_b: the key is the exact float32
    dot (s_a + 65 s_b).x + 66 * 32, in [0, 4224].  The counted rows are all
    of V, or the rows at the ascending indices ``rows``, gathered 8192 at a
    time.  Folded rows count the first half only, and -x has dots (-d_a,
    -d_b), so the table gets its reverse added; an index set folds when V
    does and it holds the mirror index len(V) - 1 - k of each k."""
    fold = _folds(V)
    if rows is None:  # contiguous: the counted rows are a view of V
        counted = V[: len(V) // 2] if fold else V
    else:
        fold = fold and np.array_equal(rows[::-1], len(V) - 1 - rows)
        counted = rows[: len(rows) // 2] if fold else rows
    P = V[a] + _BINS * V[b].astype(np.float32)
    # pairs per block: at most 32, so a product is at most 32 x 8192 float32,
    # and about 2^21 uint16 keys from 2^16 counted rows up
    step = max(1, 2**21 // max(len(counted), 2**16))
    for j0 in range(0, len(P), step):
        block = P[j0 : j0 + step]
        keys = np.empty((len(block), len(counted)), dtype=np.uint16)
        for r0 in range(0, len(counted), 8192):  # float32 of 8192 rows at a time
            part = counted[r0 : r0 + 8192]
            part = part if rows is None else V[part]
            dots = block @ part.T.astype(np.float32)
            dots += SHELL_NORM * (_BINS + 1)
            keys[:, r0 : r0 + 8192] = dots
        for j in range(len(keys)):
            joint = np.bincount(keys[j], minlength=_BINS**2).reshape(_BINS, _BINS)
            yield joint + joint[::-1, ::-1] if fold else joint
        del keys  # one block alive at a time: none while the next is filled


def witness_pair():
    """The explicit orthogonal pair attaining e_{2,2} = 60: in s-coordinates
    (0,...,0,4,4) and (0,...,0,-4,4)."""
    x = np.zeros(32, dtype=np.int8)
    z = np.zeros(32, dtype=np.int8)
    x[30] = x[31] = 4
    z[30] = -4
    z[31] = 4
    return x, z


def venkov_sample(shell: Shell, count: int, seed: int) -> list:
    """Seeded sample of e_{2,2} values over random orthogonal shell pairs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    V = shell.vectors
    n = shell.count
    pairs = []
    budget = 10000 * count
    while len(pairs) < count:
        if budget <= 0:
            raise ValueError("no orthogonal pair found within budget; malformed shell")
        budget -= 1
        i = rng.randrange(n)
        j = rng.randrange(n)
        if V[i].astype(np.int64) @ V[j] == 0:  # also skips i == j, where the dot is 32
            pairs.append((i, j))  # rows of the shell: no lookup needed
    i, j = np.array(pairs).T
    return [int(table[_E22_BIN, _E22_BIN]) for table in _joint_tables(V, i, j)]


# ---------------------------------------------------------------------------
# Shell files

_HEADER = "latcert-shell v1"


def save_shell(shell: Shell, path) -> None:
    """Write the header and one line per row, entries separated by spaces."""
    # s.s = 32 bounds |entry| <= 5, so each entry is an optional '-' and one digit
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER} n={shell.dim} count={shell.count} scale=2sqrt2\n".encode())
        for start in range(0, shell.count, 8192):
            block = shell.vectors[start : start + 8192]
            text = np.zeros((*block.shape, 3), dtype=np.uint8)  # sign, digit, separator
            text[..., 0] = np.where(block < 0, ord("-"), 0)
            text[..., 1] = ord("0") + np.abs(block)
            text[..., 2] = ord(" ")
            text[:, -1, 2] = ord("\n")
            fh.write(text.tobytes().replace(b"\0", b""))


def _parse_header(header: str, path) -> tuple:
    """(dim, count) of a stripped header line; ValueError naming the path."""
    parts = header.split()
    fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
    dim, count = fields.get("n", ""), fields.get("count", "")
    if (parts[:2] != _HEADER.split() or len(parts) != 5 or len(fields) != 3
            or not (dim.isdecimal() and count.isdecimal()) or int(dim) < 1):
        raise ValueError(f"{path}: bad shell header {header!r}")
    if fields.get("scale") != "2sqrt2":
        raise ValueError(f"{path}: unsupported scale {fields.get('scale')!r}")
    return int(dim), int(count)


def _read_saved(path):
    """(count, rows) of a file in the grammar save_shell writes, or None
    for any other file.  That grammar is an ASCII header line without '\r',
    then lines of dim tokens, each an optional '-' and one digit followed
    by a space, the last token of a line by a newline instead.

    The body is read in blocks of about 2^19 bytes cut at newlines into one
    int8 array of min(count, body bytes // (2 dim)) rows, since a row takes
    at least 2 dim bytes: a header count or dim that the body cannot hold
    allocates nothing for it."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if b"\r" in line:  # text mode would end the header line there
            return None
        try:
            dim, count = _parse_header(line.decode("ascii").strip(), path)
        except ValueError:  # also non-ASCII: the text reader gives the message
            return None
        room = min(count, (os.fstat(fh.fileno()).st_size - fh.tell()) // (2 * dim))
        if not room:  # an empty body, or no row fits: the text reader
            return None
        out = np.empty((room, dim), dtype=np.int8)
        seps = np.full(dim, ord(" "), dtype=np.uint8)
        seps[-1] = ord("\n")
        rows = 0
        while block := fh.read(max(2**19, 3 * dim)):  # holds a whole line
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
            if rows + len(grid) > len(out):  # more rows than the header count
                return None
            new = out[rows : rows + len(grid)]
            new[...] = digits
            new.reshape(-1)[at >> 1] *= -1
            rows += len(grid)
    return count, out[:rows]


def _read_text(path):
    """(count, rows) of any file np.loadtxt reads as a shell file;
    ValueError (UnicodeDecodeError for a byte that is not UTF-8) otherwise."""
    with open(path) as fh:
        dim, count = _parse_header(fh.readline().strip(), path)
        # ValueError on ragged rows and on tokens that are not int8 integers
        with warnings.catch_warnings():  # an empty body is rejected downstream
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, dtype=np.int8, ndmin=2, comments=None)
    if arr.size and arr.shape[1] != dim:
        raise ValueError(f"{path}: expected {dim} coordinates, got {arr.shape[1]}")
    return count, arr.reshape(-1, dim)


def load_shell(path) -> Shell:
    """The Shell of a shell file.  A file in the grammar save_shell writes
    is parsed directly; any other file goes through np.loadtxt, which gives
    every other accepted spelling and every error message."""
    count, arr = _read_saved(path) or _read_text(path)
    if len(arr) != count:
        raise ValueError(f"{path}: header says {count} vectors, found {len(arr)}")
    odd = (arr & 1).sum(axis=1)  # per row; two's complement keeps parity
    if ((odd > 0) & (odd < arr.shape[1])).any():
        raise ValueError(f"{path}: vector with mixed even/odd coordinates")
    return make_shell(arr)
