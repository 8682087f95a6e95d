"""Norm-4 shells of the 32-dimensional lattices built from self-dual codes.

The lattice is obtained from a doubly-even self-dual [32,16,8] code by the
mod-4 coordinate-sum construction followed by adjoining the half-vector
coset.  Vectors are stored in scaled integer coordinates s = 2*sqrt(2)*v,
so a minimal vector (v.v = 4) has s.s = 32 and every quantity downstream is
an exact integer or rational: lattice inner products are s_x.s_y / 8 and
unit-sphere inner products are s_x.s_y / 32.

A norm-4 vector falls into exactly one of three integer shapes (given that
the code has no words of weight 4):

  (i)  two coordinates +-4,
  (ii) eight coordinates +-2 supported on a weight-8 codeword, with an even
       number of minus signs,
  (iii) all 32 coordinates +-1, the minus positions forming a codeword
        (the half-vector coset).

For an extremal input the three families have sizes 1984, 620*128 = 79360
and 2^16 = 65536, totalling 146880.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import numpy as np

from .gf2codes import BinaryCode, code_report

SHELL_NORM = 32  # s.s for every shell vector (norm 4 at lattice scale)


@dataclass(frozen=True, eq=False)
class Shell:
    """Canonically sorted integer vectors with s.s = 32, in `dim` coordinates.

    `dim` is also the sphere dimension used for Gegenbauer analysis; the
    lattice construction always produces dim = 32, smaller synthetic shells
    are used in tests.
    """

    vectors: np.ndarray  # (N, dim) int8, lexicographically sorted, no duplicates
    dim: int = 32

    @property
    def count(self) -> int:
        return len(self.vectors)

    def index_of(self, s) -> int:
        """Index of a vector in the canonical order; -1 if absent.  ValueError
        unless the probe has shape (dim,)."""
        s = np.asarray(s)
        if s.shape != (self.dim,):
            raise ValueError(f"probe has shape {s.shape}, expected ({self.dim},)")
        hits = np.flatnonzero((self.vectors == s).all(axis=1))
        return int(hits[0]) if len(hits) else -1


def _row_keys(a: np.ndarray) -> np.ndarray:
    """(n, ceil(dim/16)) uint64 keys whose word-tuple order is the rows'
    numeric lexicographic order: each entry + 8 is a nibble, 16 to a
    big-endian word, padded with the nibble of 0.  Needs every entry in
    [-8, 8)."""
    n, dim = a.shape
    nib = np.full((n, -(-dim // 16) * 16), 8, dtype=np.uint8)
    nib[:, :dim] = a + 8
    return ((nib[:, 0::2] << 4) | nib[:, 1::2]).view(">u8")


def _canonical_sort(arr: np.ndarray):
    """Lexicographically sorted copy without duplicate rows, plus the number
    of duplicates dropped."""
    keys = _row_keys(arr)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(arr), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return arr[order[first]], len(arr) - int(first.sum())


def _check_norms(vectors: np.ndarray, message: str) -> None:
    """ValueError(message with {i} and {norm}) for the first int8 row with
    s.s != 32; every square is at most 128^2 < 2^15, so int16 is exact."""
    norms = np.square(vectors, dtype=np.int16).sum(axis=1, dtype=np.int64)
    bad = np.flatnonzero(norms != SHELL_NORM)
    if len(bad):
        raise ValueError(message.format(i=int(bad[0]), norm=int(norms[bad[0]])))


def make_shell(vectors, dim: int | None = None) -> Shell:
    arr = np.asarray(vectors, dtype=np.int8)
    if arr.ndim != 2:
        raise ValueError("shell vectors must form a 2-d array")
    if dim is None:
        dim = arr.shape[1]
    if arr.shape[1] != dim:
        raise ValueError(f"expected {dim} coordinates per vector, got {arr.shape[1]}")
    # first: s.s = 32 bounds |entry| <= 5, inside the row keys' range
    _check_norms(arr, "vector {i} has s.s = {norm}, expected 32")
    srt, dups = _canonical_sort(arr)
    if dups:
        raise ValueError("duplicate shell vectors")
    # negation reverses the order of distinct rows
    if not np.array_equal(-srt[::-1], srt):
        raise ValueError("shell is not closed under negation")
    srt.setflags(write=False)
    return Shell(srt, dim)


_NOT_EXTREMAL = "code has weight-4 words; lattice is not extremal"


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
    """Enumerate all 146880 norm-4 vectors of the lattice built from c."""
    failure = shell_failure(c)
    if failure:
        raise ValueError(failure)

    blocks = []

    # (i) two coordinates +-4
    pair_rows = []
    for i in range(32):
        for j in range(i + 1, 32):
            for si in (4, -4):
                for sj in (4, -4):
                    row = np.zeros(32, dtype=np.int8)
                    row[i] = si
                    row[j] = sj
                    pair_rows.append(row)
    blocks.append(np.array(pair_rows, dtype=np.int8))

    # (ii) eight coordinates +-2 on each weight-8 codeword, even minus count
    words = c.codeword_masks()
    eight = [w for w in words if w.bit_count() == 8]
    sign_patterns = np.array(
        [
            [2 - 4 * ((m >> b) & 1) for b in range(8)]
            for m in range(256)
            if (m.bit_count() % 2) == 0
        ],
        dtype=np.int8,
    )  # (128, 8)
    for w in eight:
        support = [b for b in range(32) if (w >> b) & 1]
        rows = np.zeros((128, 32), dtype=np.int8)
        rows[:, support] = sign_patterns
        blocks.append(rows)

    # (iii) the half-vector coset: all +-1, minus signs on a codeword
    masks = np.array(words, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(32, dtype=np.uint32)) & 1).astype(np.int8)
    blocks.append(1 - 2 * bits)

    vectors = np.concatenate(blocks, axis=0)
    shell = make_shell(vectors, 32)
    expected = 1984 + 128 * len(eight) + len(words)
    if shell.count != expected:
        raise ValueError(f"built {shell.count} shell vectors, expected {expected}")
    return shell


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
    return _e22(_float32_rows(shell.vectors), i, j)


def _float32_rows(vectors: np.ndarray) -> np.ndarray:
    """The rows as float32, once there is a row and every row is checked to
    have s.s = 32.  That bounds |entry| <= 5 and every partial sum of a dot
    by 32, so float32 dots are exact integers."""
    if not len(vectors):
        raise ValueError("pair pass needs a nonempty shell")
    _check_norms(vectors, "pair pass needs s.s = 32 for every vector; "
                 "vector {i} has s.s = {norm}")
    return vectors.astype(np.float32)


def _e22(F: np.ndarray, i: int, j: int) -> int:
    """e_{2,2} of the orthogonal pair of rows i and j of F."""
    return int(np.count_nonzero((F @ F[i] == 16) & (F @ F[j] == 16)))


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
    F = _float32_rows(shell.vectors)
    n = shell.count
    values = []
    budget = 10000 * count
    while len(values) < count:
        if budget <= 0:
            raise ValueError("no orthogonal pair found within budget; malformed shell")
        budget -= 1
        i = rng.randrange(n)
        j = rng.randrange(n)
        if F[i] @ F[j] != 0:  # also skips i == j, where the dot is 32
            continue
        values.append(_e22(F, i, j))  # rows of the shell: no lookup needed
    return values


# ---------------------------------------------------------------------------
# Shell files

_HEADER = "latcert-shell v1"
_TOKENS = np.array([str(v) for v in range(-128, 128)], dtype=object)  # int8 v at v + 128


def save_shell(shell: Shell, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} n={shell.dim} count={shell.count} scale=2sqrt2\n")
        for start in range(0, shell.count, 8192):  # a few MB of tokens at a time
            block = shell.vectors[start : start + 8192].astype(np.intp) + 128
            fh.write("".join(" ".join(row) + "\n" for row in _TOKENS[block].tolist()))


def load_shell(path) -> Shell:
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
        dim, count = fields.get("n", ""), fields.get("count", "")
        if (parts[:2] != _HEADER.split() or len(parts) != 5 or len(fields) != 3
                or not (dim.isdecimal() and count.isdecimal()) or int(dim) < 1):
            raise ValueError(f"{path}: bad shell header {header!r}")
        if fields.get("scale") != "2sqrt2":
            raise ValueError(f"{path}: unsupported scale {fields.get('scale')!r}")
        dim, count = int(dim), int(count)
        # ValueError on ragged rows and on tokens that are not int8 integers
        with warnings.catch_warnings():  # an empty body is rejected downstream
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, dtype=np.int8, ndmin=2, comments=None)
    if arr.size and arr.shape[1] != dim:
        raise ValueError(f"{path}: expected {dim} coordinates, got {arr.shape[1]}")
    arr = arr.reshape(-1, dim)
    if len(arr) != count:
        raise ValueError(f"{path}: header says {count} vectors, found {len(arr)}")
    parities = np.abs(arr) % 2
    mixed = (parities.min(axis=1) != parities.max(axis=1)).any()
    if mixed:
        raise ValueError(f"{path}: vector with mixed even/odd coordinates")
    return make_shell(arr, dim)
