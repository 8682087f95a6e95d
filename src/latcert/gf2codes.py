"""Binary linear codes: built-in [32,16,8] constructions and exact reports.

Codewords are enumerated exhaustively (2^k words, the span doubled one row at
a time), which is the oracle for minimum distance and the weight enumerator at
these sizes.
A code is its generator rows as integer bitmasks; bit j of a mask is
coordinate j.
"""

from __future__ import annotations

from collections import namedtuple

# Exhaustive enumeration guard: 2^k words.
MAX_ENUM_DIMENSION = 28


class BinaryCode(namedtuple("BinaryCode", "length rows name", defaults=("code",))):
    """A binary [length, dimension] code: ``rows`` is the tuple of its
    generator rows as bitmasks, linearly independent."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def codeword_masks(self) -> list:
        """All 2^k codewords as bitmask integers, in no particular order."""
        if self.dimension > MAX_ENUM_DIMENSION:
            raise ValueError(
                f"refusing to enumerate 2^{self.dimension} codewords "
                f"(guard is k <= {MAX_ENUM_DIMENSION})"
            )
        words = [0]
        for row in self.rows:
            words += [w ^ row for w in words]
        return words


CodeReport = namedtuple("CodeReport", "self_dual doubly_even min_distance weight_enumerator")


def _mask_of_row(row) -> int:
    return sum(b << j for j, b in enumerate(row))


def gf2_rank(masks: list) -> tuple:
    """Row rank over GF(2), plus, for each dependent row, the sorted indices
    of it and the earlier rows whose XOR is zero: together a basis of the
    row combinations that vanish."""
    pivots = {}  # pivot bit -> (reduced mask, combo bitmask over original rows)
    dependencies = []
    for idx, mask in enumerate(masks):
        combo = 1 << idx
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, combo)
                break
            pm, pc = pivots[top]
            mask ^= pm
            combo ^= pc
        else:
            dependencies.append(sorted(i for i in range(idx + 1) if (combo >> i) & 1))
    return len(pivots), dependencies


def _make_code(rows, name: str) -> BinaryCode:
    masks = tuple(_mask_of_row(r) for r in rows)
    rank, deps = gf2_rank(masks)
    if rank != len(masks):
        raise ValueError(f"{name}: rank-deficient generator; dependent rows {deps[0]}")
    return BinaryCode(len(rows[0]), masks, name)


def reed_muller_2_5() -> BinaryCode:
    """Second-order Reed-Muller code of length 32.

    Rows are the evaluations, over all 32 points of GF(2)^5, of the monomials
    of degree <= 2 in the five coordinate bits: 1, x_i, x_i x_j.  That is
    1 + 5 + 10 = 16 rows, giving a [32, 16, 8] doubly-even self-dual code.
    """
    pts = [[(p >> v) & 1 for v in range(5)] for p in range(32)]
    rows = [[1] * 32]
    for i in range(5):
        rows.append([pt[i] for pt in pts])
    for i in range(5):
        for j in range(i + 1, 5):
            rows.append([pt[i] & pt[j] for pt in pts])
    return _make_code(rows, "rm2_5")


def extended_quadratic_residue_32() -> BinaryCode:
    """Extended binary quadratic residue code of length 32.

    A binary QR code of prime length p is spanned by the cyclic shifts of its
    idempotent (MacWilliams-Sloane, ch. 16); for p = 31 = -1 mod 8, the 0/1
    indicator of the quadratic non-residues is one.  The first 16 shifts are
    a basis (dimension 16), and appending an overall parity bit yields a
    [32, 16, 8] doubly-even self-dual code.
    """
    residues = {r * r % 31 for r in range(1, 31)}
    nonresidues = [int(j != 0 and j not in residues) for j in range(31)]
    rows = []
    for shift in range(16):
        row = nonresidues[31 - shift :] + nonresidues[: 31 - shift]
        rows.append(row + [sum(row) % 2])  # overall parity bit
    return _make_code(rows, "xqr32")


def load_generator_matrix(path) -> BinaryCode:
    """Read a generator matrix: one row per line of '0'/'1' characters,
    whitespace ignored.  Rejects ragged rows, dependent rows, and dimensions
    above n/2 (no self-orthogonal pipeline input can exceed half the length)."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            bits = line.split()
            flat = "".join(bits)
            if not flat:
                continue
            if set(flat) - {"0", "1"}:
                raise ValueError(f"{path}:{lineno}: row has non-binary characters")
            rows.append([int(ch) for ch in flat])
    if not rows:
        raise ValueError(f"{path}: no generator rows found")
    n = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"{path}: row {i} has length {len(r)}, expected {n}")
    k = len(rows)
    if 2 * k > n:
        raise ValueError(
            f"{path}: dimension {k} exceeds n/2 = {n // 2}; not a valid input shape"
        )
    return _make_code(rows, str(path))


def _codewords_by_weight(c: BinaryCode) -> dict:
    """All 2^k codewords as bitmask integers, in lists keyed by weight in
    ascending order."""
    by_weight: dict[int, list] = {}
    for w in c.codeword_masks():
        by_weight.setdefault(w.bit_count(), []).append(w)
    return dict(sorted(by_weight.items()))


def code_report(c: BinaryCode, by_weight=None) -> CodeReport:
    """Exact report from full codeword enumeration; ``by_weight`` is
    _codewords_by_weight(c), enumerated here when not given."""
    if by_weight is None:
        by_weight = _codewords_by_weight(c)
    enum = {wt: len(words) for wt, words in by_weight.items()}
    nonzero = [wt for wt in enum if wt > 0]
    min_distance = min(nonzero) if nonzero else 0
    self_orthogonal = all((a & b).bit_count() % 2 == 0 for a in c.rows for b in c.rows)
    self_dual = self_orthogonal and 2 * c.dimension == c.length
    doubly_even = all(wt % 4 == 0 for wt in enum)
    return CodeReport(self_dual, doubly_even, min_distance, enum)
