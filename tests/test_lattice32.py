import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    PAIRS_4,
    e8_power_code,
    lattice_ip,
    load_shell_by_loadtxt,
    norm32_magnitudes,
    save_shell_by_tokens,
)
from golden_corpus import BENT_TEXT
from latcert import lattice32
from latcert.gf2codes import BinaryCode, code_report
from latcert.lattice32 import (
    SHELL_NORM,
    Shell,
    _canonical_sort,
    _check_norms,
    _half_index,
    build_shell,
    check_extremal,
    load_shell,
    save_shell,
    venkov_e22,
    venkov_sample,
    witness_pair,
)


def test_shell_counts(rm_shell, xqr_shell):
    assert rm_shell.result.count == 146880
    assert xqr_shell.result.count == 146880


def test_shell_family_sizes(rm_shell):
    amax = np.abs(rm_shell.result.vectors).max(axis=1)
    assert int((amax == 4).sum()) == 1984
    assert int((amax == 2).sum()) == 620 * 128
    assert int((amax == 1).sum()) == 2**16


@pytest.fixture(scope="module")
def permuted_rm(rm_code):
    """(perm, code, shell) of rm2_5 with coordinate j moved to perm[j]."""
    perm = np.random.default_rng(23).permutation(32)
    rows = tuple(sum(1 << int(perm[j]) for j in range(32) if mask >> j & 1)
                 for mask in rm_code.rows)
    code = BinaryCode(32, rows, "rm2_5-permuted")
    return perm, code, build_shell(code)


@pytest.mark.parametrize("case", ["rm", "xqr", "rm-permuted"])
def test_shell_rows_meet_the_lattice_membership_rule(request, case):
    # s/2 is in the lattice of the mod-4 construction (s/2 mod 2 a codeword,
    # coordinate sum 0 mod 4), or s is in the half-vector coset (all +-1,
    # minus set a codeword); with s.s = 32 and no repeats, 146880 such rows
    # are every norm-4 vector
    if case == "rm-permuted":
        _, code, shell = request.getfixturevalue("permuted_rm")
    else:
        code = request.getfixturevalue(f"{case}_code")
        shell = request.getfixturevalue(f"{case}_shell").result
    words = np.array(code.codeword_masks(), dtype=np.int64)
    bits = 1 << np.arange(32, dtype=np.int64)
    V = shell.vectors.astype(np.int64)
    even = (V % 2 == 0).all(axis=1)
    half = V[even] // 2
    assert np.isin((half % 2) @ bits, words).all()
    assert (half.sum(axis=1) % 4 == 0).all()
    odd = V[~even]
    assert (np.abs(odd) == 1).all()
    assert np.isin((odd < 0) @ bits, words).all()
    assert shell.count == 146880


def test_permuted_code_gives_the_permuted_shell(rm_shell, permuted_rm):
    perm, _, shell = permuted_rm
    moved = np.empty_like(rm_shell.result.vectors)
    moved[:, perm] = rm_shell.result.vectors
    assert np.array_equal(Shell(moved).vectors, shell.vectors)


def test_shell_norms_and_parity(rm_shell):
    vecs = rm_shell.result.vectors.astype(np.int64)
    assert ((vecs**2).sum(axis=1) == SHELL_NORM).all()
    par = np.abs(vecs) % 2
    assert ((par.min(axis=1) == par.max(axis=1))).all()


def test_shell_closed_under_negation(rm_shell):
    sh = rm_shell.result
    for i in (0, 1, 5000, 100000):
        assert sh.index_of(-sh.vectors[i]) >= 0


def test_check_extremal_builtins(rm_code, xqr_code):
    assert check_extremal(rm_code)
    assert check_extremal(xqr_code)


def test_non_extremal_code_detected():
    bad = e8_power_code()
    rep = code_report(bad)
    assert rep.self_dual and rep.doubly_even and rep.min_distance == 4
    assert not check_extremal(bad)
    with pytest.raises(ValueError, match="weight-4"):
        build_shell(bad)


def test_precondition_rejects_non_self_dual():
    identity = BinaryCode(32, tuple(1 << i for i in range(16)), "identity")
    with pytest.raises(ValueError, match="self-dual"):
        check_extremal(identity)


def test_witness_pair_value(rm_shell):
    x, z = witness_pair()
    assert venkov_e22(rm_shell.result, x, z) == 60


def test_venkov_symmetric(rm_shell):
    x, z = witness_pair()
    assert venkov_e22(rm_shell.result, x, z) == venkov_e22(rm_shell.result, z, x)


def test_venkov_rejects_non_orthogonal_pair(rm_shell):
    sh = rm_shell.result
    x = sh.vectors[0]
    with pytest.raises(ValueError, match="Venkov pair"):
        venkov_e22(sh, x, -x)


def test_venkov_names_the_exact_inner_product_of_a_non_orthogonal_pair():
    # s_x.s_z = 20: lattice inner products 20 / 8 = 5/2 and -5/2, which a
    # floor division would give as 2 and -3
    x, z = [4, 2, 2, 2, 2, 0, 0, 0], [2, 4, 2, 0, 0, 2, 2, 0]
    sh = Shell([x, z, [-v for v in x], [-v for v in z]])
    for probe, value in [(z, "5/2"), ([-v for v in z], "-5/2")]:
        with pytest.raises(ValueError, match=f"^invalid Venkov pair: lattice inner product "
                           f"is {value}, not 0$"):
            venkov_e22(sh, x, probe)


def test_venkov_rejects_points_outside_shell(rm_shell):
    probe = np.zeros(32, dtype=np.int8)
    probe[0] = 4
    probe[1] = -4
    stranger = np.zeros(32, dtype=np.int8)
    stranger[0] = 5
    with pytest.raises(ValueError, match="shell vectors"):
        venkov_e22(rm_shell.result, probe, stranger)


def test_venkov_sample_deterministic_even_and_bounded(rm_shell):
    sh = rm_shell.result
    a = venkov_sample(sh, 30, seed=1)
    b = venkov_sample(sh, 30, seed=1)
    assert a == b
    assert all(v % 2 == 0 and 0 <= v <= 60 for v in a)
    assert venkov_sample(sh, 5, seed=2) != a[:5]  # [0, 0, 0, 0, 0] against [12, 12, 0, 0, 0]


def test_venkov_invariant_under_coordinate_flip(rm_shell):
    # negating one coordinate everywhere is an isometry between the shell and
    # the flipped shell, so the witness statistic is preserved
    sh = rm_shell.result
    x, z = witness_pair()
    flipped = sh.vectors.copy()
    flipped[:, 0] *= -1
    fsh = Shell(flipped)
    fx, fz = x.copy(), z.copy()
    fx[0] *= -1
    fz[0] *= -1
    assert venkov_e22(fsh, fx, fz) == venkov_e22(sh, x, z) == 60


def test_venkov_sample_gives_up_after_10000_draws_without_a_pair(monkeypatch):
    # 10000 draws since the last orthogonal pair, whatever the count: on a
    # shell with no pair, not 10000 per requested value
    calls = []

    class Counted(random.Random):
        def randrange(self, *args):
            calls.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(lattice32.random, "Random", Counted)
    with pytest.raises(ValueError, match="no orthogonal pair found within budget"):
        venkov_sample(Shell([[4, 4, 0, 0], [-4, -4, 0, 0]]), 20, seed=0)
    assert len(calls) == 2 * 10000  # i and j of each draw


def test_lattice_ip():
    x, z = witness_pair()
    assert lattice_ip(x, x) == 4
    assert lattice_ip(x, z) == 0


def test_shell_file_round_trip(rm_shell, tmp_path):
    sh = rm_shell.result
    path = tmp_path / "shell.txt"
    save_shell(sh, path)
    back = load_shell(path)
    assert back.count == sh.count
    assert np.array_equal(back.vectors, sh.vectors)
    with open(path) as fh:
        assert fh.readline().strip() == "latcert-shell v1 n=32 count=146880 scale=2sqrt2"


@pytest.mark.parametrize("code", ["rm", "xqr"])
def test_save_shell_matches_the_token_writer(request, tmp_path, code):
    sh = request.getfixturevalue(f"{code}_shell").result
    save_shell(sh, tmp_path / "shell.txt")
    save_shell_by_tokens(sh, tmp_path / "ref.txt")
    assert (tmp_path / "shell.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_save_shell_rejects_vectors_off_norm(tmp_path):
    # an entry of 7 has no one-digit token; no Shell holds it, so no file does
    path = tmp_path / "shell.txt"
    with pytest.raises(ValueError, match="vector 0 has s.s = 49, expected 32"):
        save_shell(Shell(np.array([[7, 0, 0, 0], [-7, 0, 0, 0]], dtype=np.int8)), path)
    assert not path.exists()


def test_load_shell_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("some-other-format v9\n")
    with pytest.raises(ValueError, match="header"):
        load_shell(p)


def test_load_shell_rejects_count_mismatch(tmp_path):
    p = tmp_path / "short.txt"
    p.write_text("latcert-shell v1 n=4 count=2 scale=2sqrt2\n4 4 0 0\n")
    with pytest.raises(ValueError, match="header says 2"):
        load_shell(p)


def test_load_shell_rejects_bad_norm(tmp_path):
    p = tmp_path / "norm.txt"
    p.write_text(
        "latcert-shell v1 n=4 count=2 scale=2sqrt2\n4 2 0 0\n-4 -2 0 0\n"
    )
    with pytest.raises(ValueError, match="s.s"):
        load_shell(p)


def test_load_shell_rejects_mixed_parity(tmp_path):
    # in either order; the second, neg first, is canonical
    p = tmp_path / "parity.txt"
    row = "5 2 1 1 1" + " 0" * 27
    neg = "-5 -2 -1 -1 -1" + " 0" * 27
    for first, second in [(row, neg), (neg, row)]:
        p.write_text(f"latcert-shell v1 n=32 count=2 scale=2sqrt2\n{first}\n{second}\n")
        with pytest.raises(ValueError, match="mixed"):
            load_shell(p)


def test_shell_checks_negation_last():
    # after the norm, order and duplicate checks, each with its own message
    for rows, message in [([[4, 4, 0, 0], [4, 4, 0, 1]], "vector 1 has s.s = 33"),
                          ([[4, 4, 0, 0], [4, 4, 0, 0]], "duplicate shell vectors"),
                          ([[0, 4, 4, 0], [4, 4, 0, 0]], "shell is not closed under negation")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            Shell(rows)


def test_shell_checks_norms_before_building_keys(monkeypatch):
    def no_keys(a):
        raise AssertionError("row keys built before the norm check")

    monkeypatch.setattr(lattice32, "_row_keys", no_keys)
    with pytest.raises(ValueError, match="s.s = 10000"):
        Shell([[100, 0, 0, 0], [-100, 0, 0, 0]])
    # an off-norm vector is reported before a duplicate
    with pytest.raises(ValueError, match="s.s = 10000"):
        Shell([[100, 0, 0, 0], [100, 0, 0, 0]])


def test_index_of_finds_every_row_and_rejects_non_members():
    sh = Shell([[4, 4, 0, 0], [0, 0, 4, 4], [-4, -4, 0, 0], [0, 0, -4, -4]])
    assert [sh.index_of(row) for row in sh.vectors] == list(range(sh.count))
    assert sh.index_of([4, -4, 0, 0]) == -1
    assert sh.index_of(np.array([260, 4, 0, 0])) == -1  # not wrapped to int8
    assert sh.index_of([4.5, 4, 0, 0]) == -1  # not truncated to int8
    # rows that are not one contiguous block are stored sorted, as one block
    flipped = Shell(sh.vectors[::-1])
    assert flipped.vectors.flags.c_contiguous
    assert [flipped.index_of(row) for row in sh.vectors] == list(range(sh.count))


@pytest.mark.parametrize("probe, shape", [([4], "(1,)"), ([[4, 4]], "(1, 2)"),
                                          ([4, 4, 0], "(3,)")])
def test_index_of_rejects_probes_of_the_wrong_shape(probe, shape):
    # a short probe must not broadcast: [4] against rows (4, 4) would match
    sh = Shell([[4, 4], [-4, -4]])
    with pytest.raises(ValueError, match=rf"probe has shape {re.escape(shape)}, "
                       r"expected \(2,\)"):
        sh.index_of(probe)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_sort_matches_python_sort(data):
    # rows are edits of one base row, so they share long prefixes, often
    # repeat, and in dim > 16 differ in a second or third key word; they
    # come in drawn order, sorted (repeats adjacent) or sorted and distinct
    dim = data.draw(st.integers(1, 40))
    base = data.draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim))
    edit = st.tuples(st.integers(0, dim - 1), st.integers(-5, 5))
    rows = []
    for edits in data.draw(st.lists(st.lists(edit, max_size=3), max_size=30)):
        row = list(base)
        for i, v in edits:
            row[i] = v
        rows.append(tuple(row))
    order = data.draw(st.sampled_from(["drawn", "sorted", "sorted distinct"]))
    if order != "drawn":
        rows = sorted(set(rows) if order == "sorted distinct" else rows)
    arr = np.array(rows, dtype=np.int8).reshape(-1, dim)
    expected = sorted(set(rows))
    if len(expected) < len(rows):  # a repeat, found in the sorted rows
        with pytest.raises(ValueError, match="^duplicate shell vectors$"):
            _canonical_sort(arr)
        return
    srt = _canonical_sort(arr)
    assert srt.tolist() == [list(r) for r in expected]
    assert not np.shares_memory(srt, arr)


def test_load_shell_does_not_sort_a_canonical_file(tmp_path, monkeypatch):
    rows = [[4, 4, 0, 0], [0, 0, 4, -4], [-4, -4, 0, 0], [0, 0, -4, 4]]
    path = tmp_path / "shell.txt"
    save_shell(Shell(rows), path)
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    assert load_shell(path).vectors.tolist() == sorted(rows)
    assert calls == []
    Shell(rows)  # drawn order: each half, split by leading sign, sorted once
    assert calls == [1, 1]


def test_shell_of_sorted_rows_owns_them():
    rows = np.array(sorted([[4, 4, 0, 0], [0, 0, 4, -4], [-4, -4, 0, 0], [0, 0, -4, 4]]),
                    dtype=np.int8)
    sh = Shell(rows)
    before = rows.copy()
    rows[0] = 0
    assert np.array_equal(sh.vectors, before)
    assert not sh.vectors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sh.vectors[0, 0] = 1


def _saved_and_loaded(shell, path):
    save_shell(shell, path)
    return load_shell(path)


def _written_and_loaded(text: bytes, path):
    path.write_bytes(text)
    return load_shell(path)


@pytest.mark.parametrize("make", [
    lambda rm_shell, path: Shell(np.array(sorted(PAIRS_4), dtype=np.int8)),
    lambda rm_shell, path: Shell(random.Random(0).sample(PAIRS_4, len(PAIRS_4))),
    lambda rm_shell, path: rm_shell.result,
    lambda rm_shell, path: _saved_and_loaded(Shell(PAIRS_4), path),
    lambda rm_shell, path: _written_and_loaded(BENT_TEXT, path),
], ids=["sorted-rows", "shuffled-rows", "build", "canonical-file", "hand-spelled-file"])
def test_every_shell_owns_read_only_rows(make, rm_shell, tmp_path):
    # every Shell is made from its own first half: none keeps a view of
    # other rows, which would keep them alive
    half = make(rm_shell, tmp_path / "shell.txt").half
    assert half.base is None and not half.flags.writeable


NORM32 = {dim: norm32_magnitudes(dim) for dim in range(1, 41)}


@st.composite
def int8_matrices(draw):
    """0-12 int8 rows in dim 1-40 over the full range -128..127; each row has
    any entries, even entries, odd entries, or s.s = 32 (dim >= 2), from a
    drawn subset of these kinds."""
    dim = draw(st.integers(1, 40))
    entries = [st.integers(-128, 127), st.integers(-64, 63).map(lambda v: 2 * v),
               st.integers(-64, 63).map(lambda v: 2 * v + 1)]
    kinds = sorted(draw(st.sets(st.integers(0, 3 if NORM32[dim] else 2), min_size=1)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == 3:
            mags = draw(st.sampled_from(NORM32[dim]))
            perm = draw(st.permutations(range(dim)))
            signs = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
            rows.append([-mags[p] if f else mags[p] for p, f in zip(perm, signs)])
        else:
            rows.append(draw(st.lists(entries[kind], min_size=dim, max_size=dim)))
    return np.array(rows, dtype=np.int8).reshape(-1, dim)


@settings(max_examples=300, deadline=None)
@given(int8_matrices())
def test_check_norms_matches_the_int16_square_sum(arr):
    norms = np.square(arr, dtype=np.int16).sum(axis=1, dtype=np.int64)
    bad = np.flatnonzero(norms != SHELL_NORM)
    if len(bad):
        with pytest.raises(ValueError,
                           match=f"^vector {bad[0]} has s.s = {norms[bad[0]]}, expected 32$"):
            _check_norms(arr)
    else:
        _check_norms(arr)


@settings(max_examples=200, deadline=None)
@given(int8_matrices())
def test_load_shell_parity_check_matches_the_min_max_rule(arr):
    parities = np.abs(arr) % 2  # np.abs(-128) is -128 in int8: even
    mixed = (parities.min(axis=1) != parities.max(axis=1)).any()
    count, dim = arr.shape
    body = "".join(" ".join(map(str, row)) + "\n" for row in arr.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shell.txt"
        path.write_text(f"latcert-shell v1 n={dim} count={count} scale=2sqrt2\n{body}")
        try:
            load_shell(path)
            flagged = False
        except ValueError as exc:  # other rows fail the norm or negation check
            flagged = "mixed even/odd" in str(exc)
    assert flagged == mixed


def test_shell_equality_is_identity():
    sh = Shell([[4, 4, 0, 0], [-4, -4, 0, 0]])
    assert sh == sh and sh != Shell(sh.vectors)


def test_canonical_order_is_numeric_lexicographic(rm_shell):
    vecs = rm_shell.result.vectors
    sample = vecs[::4096].tolist()
    assert sample == sorted(sample)


def test_venkov_sample_matches_venkov_e22_on_the_same_pairs(rm_shell):
    # both against an int64 count of the y with lattice inner product 2 to x and z
    sh = rm_shell.result
    rng = random.Random(1)
    vecs = sh.vectors.astype(np.int64)
    expected = []
    while len(expected) < 100:
        i, j = rng.randrange(sh.count), rng.randrange(sh.count)
        if i != j and vecs[i] @ vecs[j] == 0:
            oracle = int(((vecs @ vecs[i] == 16) & (vecs @ vecs[j] == 16)).sum())
            assert venkov_e22(sh, vecs[i], vecs[j]) == oracle
            expected.append(oracle)
    assert venkov_sample(sh, 100, 1) == expected
    assert set(expected) == {0, 12, 60}  # not one constant value


# load_shell rejects mixed parity, so only rows of one parity round-trip
ONE_PARITY = {
    dim: [m for m in norm32_magnitudes(dim) if len({v % 2 for v in m}) == 1]
    for dim in range(4, 9)
}


@st.composite
def antipodal_shells(draw):
    """Random one-parity norm-32 rows in dim 4-8 with their negations, in a
    random order."""
    dim = draw(st.integers(4, 8))
    rows = set()
    for _ in range(draw(st.integers(1, 6))):
        mags = draw(st.sampled_from(ONE_PARITY[dim]))
        perm = draw(st.permutations(range(dim)))
        signs = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        row = tuple(-mags[p] if f else mags[p] for p, f in zip(perm, signs))
        rows |= {row, tuple(-v for v in row)}
    return dim, draw(st.permutations(sorted(rows)))


@settings(max_examples=100, deadline=None)
@given(antipodal_shells(), st.data())
def test_shell_file_round_trip_property(case, data):
    dim, rows = case
    shell = Shell(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "shell.txt", Path(tmp) / "ref.txt"
        save_shell(shell, path)
        save_shell_by_tokens(shell, ref)
        assert path.read_bytes() == ref.read_bytes()
        back = load_shell(path)
    assert (back.dim, back.count) == (dim, len(rows))
    assert np.array_equal(back.vectors, shell.vectors)
    assert shell.vectors.tolist() == sorted(map(list, rows))
    x = data.draw(st.sampled_from(rows))
    with pytest.raises(ValueError, match="negation"):
        Shell([r for r in rows if r != tuple(-v for v in x)])


@settings(max_examples=100, deadline=None)
@given(antipodal_shells(), st.data())
def test_rows_match_the_full_rows_at_any_index(case, data):
    # the row accessor reads an index k >= count // 2 as -(row count - 1 - k)
    # of the stored half: the rows of the sorted full array, in either half
    _, rows = case
    shell = Shell(rows)
    full = np.array(sorted(rows), dtype=np.int8)
    index = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20)),
                     dtype=np.intp)
    assert np.array_equal(shell._rows(index), full[index])
    k = data.draw(st.integers(0, len(rows) - 1))
    assert np.array_equal(shell._rows(k), full[k])
    assert np.array_equal(shell.vectors, full)
    assert np.array_equal(shell.half, full[: len(rows) // 2])


@st.composite
def norm32_rows(draw, dim: int):
    """A row of s.s = 32 in dimension dim: drawn magnitudes, permuted and
    signed."""
    mags = draw(st.sampled_from(NORM32[dim]))
    perm = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return tuple(-mags[p] if f else mags[p] for p, f in zip(perm, signs))


def _negated(row: tuple) -> tuple:
    return tuple(-v for v in row)


@settings(max_examples=100, deadline=None)
@given(antipodal_shells(), st.data())
def test_index_of_matches_a_linear_search(case, data):
    # members of either half, their negations, norm-32 rows that are mostly
    # absent, and the zero row, against the index in the sorted rows
    dim, rows = case
    shell = Shell(rows)
    full = sorted(rows)
    member = data.draw(st.sampled_from(full))
    other = data.draw(norm32_rows(dim))
    for probe in (member, _negated(member), other, (0,) * dim):
        expected = full.index(probe) if probe in full else -1
        assert shell.index_of(np.array(probe, dtype=np.int64)) == expected


@settings(max_examples=100, deadline=None)
@given(antipodal_shells(), st.data())
def test_half_index_matches_list_index(case, data):
    # one batch of members, their negations, norm-32 rows that are mostly
    # absent, and the zero row, against list.index in the first half of the
    # sorted rows of whichever of the probe and its negation leads with a minus
    dim, rows = case
    half = sorted(rows)[: len(rows) // 2]
    members = data.draw(st.lists(st.sampled_from(rows), max_size=4))
    others = data.draw(st.lists(norm32_rows(dim), max_size=4))
    probes = data.draw(st.permutations(
        members + [_negated(m) for m in members] + others + [(0,) * dim]))
    expected = []
    for probe in probes:
        lead = next((v for v in probe if v), 0)
        probe = _negated(probe) if lead > 0 else probe
        expected.append(half.index(probe) if probe in half else -1)
    at = _half_index(Shell(rows).half, np.array(probes, dtype=np.int8).reshape(-1, dim))
    assert at.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shell_matches_a_sorted_set_oracle(data):
    # norm-32 rows, each with, without or only its negation, some repeated,
    # in any order: the sorted rows when they are distinct and closed under
    # negation, else the message of the first check that fails
    dim = data.draw(st.integers(4, 8))
    rows = []
    for row in data.draw(st.lists(norm32_rows(dim), min_size=1, max_size=5)):
        rows += data.draw(st.sampled_from([[row, _negated(row)], [row], [_negated(row)]]))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))  # repeats
    rows = data.draw(st.permutations(rows))
    distinct = set(rows)
    if len(distinct) < len(rows):
        message = "duplicate shell vectors"
    elif distinct != {_negated(r) for r in rows}:
        message = "shell is not closed under negation"
    else:
        assert Shell(rows).vectors.tolist() == [list(r) for r in sorted(rows)]
        return
    with pytest.raises(ValueError, match=f"^{message}$"):
        Shell(rows)


@pytest.mark.parametrize(
    "header, body, message",
    [
        ("n=4 count=2", "4 4 0 0\n-4 -4 0\n", "number of columns"),
        ("n=4 count=4", "4 4 0 0 0 0 4 4\n-4 -4 0 0 0 0 -4 -4\n", "expected 4"),
    ],
)
def test_load_shell_rejects_malformed_rows(tmp_path, header, body, message):
    p = tmp_path / "rows.txt"
    p.write_text(f"latcert-shell v1 {header} scale=2sqrt2\n{body}")
    with pytest.raises(ValueError, match=message):
        load_shell(p)


def _outcome(reader, path):
    """(dim, rows) of the shell a reader gives, or (exception type, message)."""
    try:
        shell = reader(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return shell.dim, shell.vectors.tolist()


def _matches_the_loadtxt_reader(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shell.txt"
        path.write_bytes(data)
        assert _outcome(load_shell, path) == _outcome(load_shell_by_loadtxt, path)


@settings(max_examples=200, deadline=None)
@given(int8_matrices())
def test_load_shell_matches_the_loadtxt_reader(arr):
    count, dim = arr.shape
    body = "".join(" ".join(map(str, row)) + "\n" for row in arr.tolist())
    _matches_the_loadtxt_reader(
        f"latcert-shell v1 n={dim} count={count} scale=2sqrt2\n{body}".encode())


@pytest.mark.parametrize("header", [
    "n=4 count=3", "n=4 count=0", f"n=4 count={10**30}", f"n={10**30} count=2", "n=9 count=2",
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    pytest.param(f"n=4 count={'9' * 4000}", id="count-4000-digits"),
    pytest.param(f"n=4 count={'9' * 5000}", id="count-5000-digits"),
    pytest.param(f"n={'0' * 4999}4 count=2", id="n-5000-digits"),
])
def test_load_shell_matches_the_loadtxt_reader_on_wrong_headers(header):
    # a header count or dim the body cannot hold allocates nothing for it
    _matches_the_loadtxt_reader(
        f"latcert-shell v1 {header} scale=2sqrt2\n4 4 0 0\n-4 -4 0 0\n".encode())


# each edit replaces the bytes of one drawn match of a pattern in a saved file
FILE_EDITS = {
    "double space": (rb" ", rb"  "),
    "tab": (rb" ", rb"\t"),
    "crlf": (rb"\n", rb"\r\n"),
    "cr": (rb"\n", rb"\r"),
    "cr for a space": (rb" ", rb"\r"),
    "no final newline": (rb"\n\Z", rb""),
    "plus": (rb"(?<![-\d])\d", rb"+\g<0>"),
    "leading zero": (rb"(?<![-\d])\d", rb"0\g<0>"),
    "double minus": (rb"(?<![-\d])\d", rb"--\g<0>"),
    "trailing minus": (rb"\d(?=[ \n])", rb"\g<0>-"),
    "minus before newline": (rb"\n", rb" -\n"),
    "two digits": (rb"(?<![-\d])\d", rb"1\g<0>"),
    "three digits": (rb"(?<![-\d])\d", rb"200"),
    "non-utf-8 byte": (rb"[^\n]", b"\\g<0>\xff"),
    "non-utf-8 digit": (rb"\d", b"\xff"),
    "blank line": (rb"\n", rb"\n\n"),
    "extra row": (rb"\n\Z", rb"\n" + b"4 " * 7 + b"4\n"),
    "none": (rb"\A", rb""),
}


@settings(max_examples=300, deadline=None)
@given(antipodal_shells(), st.sampled_from(sorted(FILE_EDITS)), st.data())
def test_load_shell_matches_the_loadtxt_reader_on_edited_files(case, edit, data):
    # save_shell's grammar is read without np.loadtxt; any edit of it must
    # give the rows, or the exception and message, the loadtxt reader gives
    dim, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shell.txt"
        save_shell(Shell(rows), path)
        saved = path.read_bytes()
    pattern, replacement = FILE_EDITS[edit]
    matches = list(re.finditer(pattern, saved))
    m = data.draw(st.sampled_from(matches))
    edited = saved[: m.start()] + m.expand(replacement) + saved[m.end() :]
    _matches_the_loadtxt_reader(edited)


def _with_row(saved: bytes, i: int, row) -> bytes:
    """A saved shell file with its row i (from 0) replaced by row."""
    lines = saved.split(b"\n")
    lines[1 + i] = " ".join(map(str, row)).encode()
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(antipodal_shells(), st.data())
def test_load_shell_matches_the_loadtxt_reader_on_a_changed_second_half_row(case, data):
    # a canonical file streams its first half and checks the second against
    # it: a second-half row that is another row, its mirror (a duplicate),
    # any digits, or a norm-32 row must give the loadtxt reader's rows, or
    # its exception and message
    dim, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shell.txt"
        save_shell(Shell(rows), path)
        saved = path.read_bytes()
    i = data.draw(st.integers(len(rows) // 2, len(rows) - 1))
    mirror = sorted(rows)[len(rows) - 1 - i]
    mags = data.draw(st.sampled_from(NORM32[dim]))
    row = data.draw(st.one_of(
        st.sampled_from(rows), st.just(mirror),
        st.lists(st.integers(-9, 9), min_size=dim, max_size=dim),
        st.permutations([-m for m in mags[: dim // 2]] + list(mags[dim // 2 :]))))
    _matches_the_loadtxt_reader(_with_row(saved, i, row))


@pytest.mark.parametrize("body", [
    "-4 -4 0 0\n4 4 0 0\n-4 -4 0 0\n4 4 0 0\n",
    "0 0 4 4\n4 4 0 0\n-4 -4 0 0\n0 0 -4 -4\n",
    "0 0 -4 -4\n-4 -4 0 0\n4 4 0 0\n0 0 4 4\n",
], ids=["a-plus-row-and-its-negation", "plus-rows-first", "first-half-unsorted"])
def test_load_shell_matches_the_loadtxt_reader_on_mirrored_halves(body):
    # halves that mirror each other, in a file that is not canonical: the
    # stream keeps only a first half whose rows are distinct and lead with a
    # minus, sorted if they are not, so these give the loadtxt reader's
    # duplicate error or sorted rows
    _matches_the_loadtxt_reader(f"latcert-shell v1 n=4 count=4 scale=2sqrt2\n{body}".encode())


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_changed_second_half_rows_exit_with_the_loadtxt_message_under_optimize(
        tmp_path, flags):
    # -O drops asserts: each file still exits 2 with the loadtxt reader's
    # message (a duplicate, a norm-32 row outside the shell, off norm, mixed
    # parity)
    rows = [[4, 4, 0, 0], [0, 0, 4, 4], [-4, -4, 0, 0], [0, 0, -4, -4]]
    save_shell(Shell(rows), tmp_path / "shell.txt")
    saved = (tmp_path / "shell.txt").read_bytes()
    paths, messages = [], []
    for k, row in enumerate([[-4, -4, 0, 0], [4, -4, 0, 0], [4, 4, 4, 0], [4, 1, 0, 0]]):
        path = tmp_path / f"edited{k}.txt"
        path.write_bytes(_with_row(saved, 3, row))
        kind, message = _outcome(load_shell_by_loadtxt, path)
        assert kind is ValueError
        paths.append(str(path))
        messages.append(message)
    assert [m.split(": ")[-1] for m in messages] == [
        "duplicate shell vectors", "shell is not closed under negation",
        "vector 3 has s.s = 48, expected 32", "vector with mixed even/odd coordinates"]
    script = ("import sys\n"
              "from latcert import cli\n"
              "print([cli.main(['verify', '--shell', p, '--sample', '1'])"
              " for p in sys.argv[1:]])\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script, *paths],
                          capture_output=True, text=True)
    assert proc.stdout == f"{[2] * len(paths)}\n"
    assert proc.stderr.splitlines() == [f"error: {m}" for m in messages]


def _load_peak_and_live(shell, tmp_path):
    """The loaded Shell of a saved copy of shell, with load_shell's
    tracemalloc peak and the traced memory still live after it, as
    multiples of the rows' int8 bytes."""
    path = tmp_path / "shell.txt"
    save_shell(shell, path)
    tracemalloc.start()
    try:
        back = load_shell(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.vectors, shell.vectors)
    return back, peak / shell.vectors.nbytes, live / shell.vectors.nbytes


def test_load_shell_peak_memory(rm_shell, tmp_path):
    # the body is parsed in blocks of about 2^17 bytes, the first half into
    # the rows the Shell keeps and the second compared with their mirrors,
    # and every check runs on 8192 rows at a time: the parse peaks at 0.69x
    # the int8 rows on rm2_5, where parsing every row took 1.19x
    _, peak, _ = _load_peak_and_live(rm_shell.result, tmp_path)
    assert peak <= 0.75


def test_build_shell_peak_memory(rm_code, rm_shell):
    # only the first half of the rows is enumerated, and it is sorted by
    # its keys, which are freed before the sorted rows are gathered and
    # checked 8192 at a time: 1.82x the int8 rows on rm2_5, where
    # enumerating every row took 3.07x
    tracemalloc.start()
    try:
        build_shell(rm_code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rm_shell.result.vectors.nbytes <= 1.95


def test_load_shell_keeps_one_copy_of_the_rows(rm_shell, tmp_path):
    # the Shell takes the parsed first half as it is: nothing else stays alive
    back, _, live = _load_peak_and_live(rm_shell.result, tmp_path)
    assert not back.half.flags.writeable and back.half.base is None
    assert 0.5 <= live <= 0.51


N = 146880
EDGES = [8191, 8192, N - 1]  # the last row of a check block, the first of the next, the last


def _off_norm(V, i):
    W = V.copy()
    W[i] = 0
    W[i, :2] = (4, 5)  # s.s = 41
    return W


@pytest.mark.parametrize("i", EDGES)
def test_block_checks_at_block_edges(rm_shell, i):
    V = rm_shell.result.vectors
    # a bad norm: the first off-norm row of the whole array is named
    W = _off_norm(V, i)
    norms = (W.astype(np.int64) ** 2).sum(axis=1)
    (bad,) = np.flatnonzero(norms != SHELL_NORM)
    with pytest.raises(ValueError, match=f"^vector {bad} has s.s = {norms[bad]}, expected 32$"):
        Shell(W)
    # a duplicate of the row before it
    W = V.copy()
    W[i] = W[i - 1]
    assert len(np.unique(W, axis=0)) < N
    with pytest.raises(ValueError, match="^duplicate shell vectors$"):
        Shell(W)
    # rows i - 1 and i swapped: the sortedness check sees the pair, and the
    # Shell keeps the sorted rows
    W = V.copy()
    W[[i - 1, i]] = W[[i, i - 1]]
    assert np.array_equal(Shell(W).vectors, V)


@pytest.mark.parametrize("i", EDGES)
def test_load_shell_parity_check_at_block_edges(rm_shell, tmp_path, i):
    path = tmp_path / "shell.txt"
    save_shell(rm_shell.result, path)
    lines = path.read_bytes().split(b"\n")
    lines[1 + i] = b" ".join([b"5", b"2", b"1", b"1", b"1"] + [b"0"] * 27)  # s.s = 32
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match="mixed even/odd coordinates"):
        load_shell(path)


def test_block_checks_report_faults_in_the_whole_array_order(rm_shell, tmp_path):
    # each check runs over every block before the next check starts
    V = rm_shell.result.vectors
    W = _off_norm(V, N - 1)
    W[1] = W[0]  # a duplicate in the first block
    with pytest.raises(ValueError, match=f"^vector {N - 1} has s.s = 41"):
        Shell(W)
    path = tmp_path / "shell.txt"
    save_shell(rm_shell.result, path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = b" ".join([b"6"] + [b"0"] * 31)  # row 0 even but off norm
    lines[N] = b" ".join([b"5", b"2", b"1", b"1", b"1"] + [b"0"] * 27)  # last row mixed
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match="mixed even/odd coordinates"):
        load_shell(path)


@pytest.mark.parametrize("i", [8191, 8192, N // 2 - 1, N // 2, N - 8193, N - 1])
def test_folds_finds_a_break_at_a_block_edge(rm_shell, i):
    # a row changed at the edge of an 8192-row block, or of the halves: the
    # row negated repeats its mirror, and a row off the shell has no mirror
    V = rm_shell.result.vectors
    W = V.copy()
    W[i] = -W[i]
    with pytest.raises(ValueError, match="^duplicate shell vectors$"):
        Shell(W)
    W[i] = 0
    W[i, :5] = [5, 2, 1, 1, 1]  # s.s = 32, and no row of rm2_5 has a 5
    with pytest.raises(ValueError, match="^shell is not closed under negation$"):
        Shell(W)
    with pytest.raises(ValueError, match="^shell is not closed under negation$"):
        Shell(V[:-1])  # an odd count
