import hashlib
import subprocess
import sys
import tempfile
from collections import Counter
from functools import reduce
from operator import xor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import HAMMING_8, bit_rows, same_codewords, save_generator_matrix
from latcert.gf2codes import (
    BinaryCode,
    CodeReport,
    code_report,
    extended_quadratic_residue_32,
    gf2_rank,
    load_generator_matrix,
    reed_muller_2_5,
)


@pytest.fixture(scope="module")
def rm():
    return reed_muller_2_5()


@pytest.fixture(scope="module")
def xqr():
    return extended_quadratic_residue_32()


def test_reed_muller_shape(rm):
    assert (rm.length, rm.dimension) == (32, 16)


def test_reed_muller_report(rm):
    rep = code_report(rm)
    assert rep.min_distance == 8
    assert rep.self_dual
    assert rep.doubly_even
    assert rep.weight_enumerator[8] == 620
    assert rep.weight_enumerator[0] == 1
    assert rep.weight_enumerator[32] == 1


def test_xqr_shape_and_report(xqr):
    assert (xqr.length, xqr.dimension) == (32, 16)
    rep = code_report(xqr)
    assert rep.self_dual and rep.doubly_even and rep.min_distance == 8


@pytest.mark.parametrize("builder", [reed_muller_2_5, extended_quadratic_residue_32])
def test_weights_all_doubly_even_and_symmetric(builder):
    rep = code_report(builder())
    assert all(w % 4 == 0 for w in rep.weight_enumerator)
    assert sum(rep.weight_enumerator.values()) == 2**16
    for w, c in rep.weight_enumerator.items():
        assert rep.weight_enumerator.get(32 - w) == c


def test_two_builtins_are_different_codes(rm, xqr):
    assert not same_codewords(rm, xqr)


def test_loader_round_trip(rm, tmp_path):
    path = tmp_path / "rm.gen"
    save_generator_matrix(rm, path)
    loaded = load_generator_matrix(path)
    assert same_codewords(loaded, rm)


def test_loader_whitespace_tolerant(tmp_path):
    path = tmp_path / "tiny.gen"
    path.write_text("1 1 1 1\n1 0 1 0\n")
    c = load_generator_matrix(path)
    assert (c.length, c.dimension) == (4, 2)


def test_loader_rejects_duplicate_rows(rm, tmp_path):
    path = tmp_path / "dup.gen"
    rows = ["".join(map(str, row)) for row in bit_rows(rm)[:4]]
    rows.append(rows[0])
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="dependent rows"):
        load_generator_matrix(path)


def test_loader_rejects_seventeenth_row(rm, tmp_path):
    path = tmp_path / "big.gen"
    rows = ["".join(map(str, row)) for row in bit_rows(rm)]
    rows.append("1" + "0" * 31)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="dimension"):
        load_generator_matrix(path)


def test_loader_rejects_ragged_and_garbage(tmp_path):
    ragged = tmp_path / "ragged.gen"
    ragged.write_text("1111\n111\n")
    with pytest.raises(ValueError, match="length"):
        load_generator_matrix(ragged)
    garbage = tmp_path / "garbage.gen"
    garbage.write_text("11x1\n")
    with pytest.raises(ValueError, match="non-binary"):
        load_generator_matrix(garbage)
    empty = tmp_path / "empty.gen"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no generator rows"):
        load_generator_matrix(empty)


def test_gf2_rank_reports_dependency():
    rank, deps = gf2_rank([0b011, 0b101, 0b110])
    assert rank == 2
    assert deps == [[0, 1, 2]]


def test_enumeration_guard():
    code = BinaryCode(60, tuple(1 << i for i in range(29)))
    with pytest.raises(ValueError, match="refusing"):
        code_report(code)


def test_codeword_masks_contains_rows_and_zero(rm):
    words = set(rm.codeword_masks())
    assert 0 in words
    for mask in rm.rows:
        assert mask in words
    assert len(words) == 2**16


@pytest.mark.parametrize("builder, digest", [
    (extended_quadratic_residue_32,
     "3f3eea68fde9e8c1cc23def06d2848fbde46e532f1c6a79ab166c8d8d75ab888"),
    (reed_muller_2_5,
     "4810990e7980719ef7f59404b85ddc299a70e8b36ae71d60a64dd6946a50ec53"),
], ids=["xqr32", "rm2_5"])
def test_codeword_sets_are_pinned(builder, digest):
    # sha256 of the sorted codeword masks as little-endian uint32: a different
    # construction of the same code passes, a different code (such as the
    # other QR code of length 31, extended) fails
    words = np.array(sorted(builder().codeword_masks()), dtype="<u4")
    assert hashlib.sha256(words.tobytes()).hexdigest() == digest


def test_xqr_integrity_guards_survive_python_O():
    # -O drops asserts: the builder must still give a [32,16,8] code
    script = (
        "from latcert import gf2codes\n"
        "code = gf2codes.extended_quadratic_residue_32()\n"
        "rep = gf2codes.code_report(code)\n"
        "print(code.length, code.dimension, rep.min_distance)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["32 16 8"]


@st.composite
def small_codes(draw):
    """A code from random rows of length 1-12, each dropped if it depends on
    the earlier ones; or a direct sum of one or two [2,1,2] and [8,4,4]
    blocks with its coordinates permuted, which is self-dual, and doubly
    even when every block is [8,4,4]."""
    if draw(st.booleans()):
        n, masks = 0, []
        for length, rows in draw(st.lists(st.sampled_from([(2, (0b11,)), (8, HAMMING_8)]),
                                          min_size=1, max_size=2)):
            masks += [m << n for m in rows]
            n += length
        perm = draw(st.permutations(range(n)))
        masks = [sum(((m >> j) & 1) << perm[j] for j in range(n)) for m in masks]
    else:
        n = draw(st.integers(1, 12))
        masks = []
        for m in draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=n)):
            if gf2_rank(masks + [m])[0] > len(masks):
                masks.append(m)
    return BinaryCode(n, tuple(masks))


def _report_by_matrix(code: BinaryCode) -> CodeReport:
    """code_report from the 0/1 generator matrix: every codeword as a
    message times the matrix mod 2, self-orthogonality as G G^T = 0 mod 2."""
    G = np.array(bit_rows(code), dtype=np.int64)
    k = len(G)
    messages = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    enum = Counter(((messages @ G) % 2).sum(axis=1).tolist())
    self_dual = not ((G @ G.T) % 2).any() and 2 * k == code.length
    return CodeReport(self_dual, all(w % 4 == 0 for w in enum),
                      min(w for w in enum if w), dict(sorted(enum.items())))


@settings(max_examples=200, deadline=None)
@given(small_codes())
def test_code_report_matches_the_matrix_oracle(code):
    report = code_report(code)
    event(f"self_dual={report.self_dual} doubly_even={report.doubly_even}")
    assert report == _report_by_matrix(code)


@settings(max_examples=100, deadline=None)
@given(small_codes(), st.data())
def test_generator_file_round_trip_and_dependent_rows(code, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.gen"
        if 2 * code.dimension <= code.length:
            save_generator_matrix(code, path)
            assert load_generator_matrix(path) == BinaryCode(code.length, code.rows, str(path))
        if 2 * code.dimension + 2 <= code.length:  # room for one more row
            picks = data.draw(st.lists(st.sampled_from(code.rows), min_size=1, unique=True))
            dependent = BinaryCode(code.length, (*code.rows, reduce(xor, picks)))
            save_generator_matrix(dependent, path)
            with pytest.raises(ValueError, match="dependent rows"):
                load_generator_matrix(path)
