import io
import random
import sys
import time
import warnings
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

# first: importing the CLI sets OpenBLAS to one thread, which holds only if
# numpy has not loaded yet, so the in-process tests run as the CLI does
from latcert.cli import build_parser, main  # isort: skip
import numpy as np
import pytest

from latcert.energycert import Potential
from latcert.exactmath import Polynomial, rat
from latcert.gf2codes import BinaryCode, extended_quadratic_residue_32, reed_muller_2_5
from latcert.lattice32 import _HEADER, Shell, build_shell
from latcert.sphercode import ALL, check_distance_invariance, histogram


# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


CliRun = namedtuple("CliRun", "returncode stdout stderr")


def run_cli(*argv) -> CliRun:
    """Run ``latcert.cli.main(argv)`` in-process: its exit code, stdout and
    stderr.  argparse's usage errors leave through SystemExit, whose code is
    the exit code.  The one way the tests run the CLI; a fresh interpreter
    is started only where the process itself is under test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_vocabulary() -> set:
    """The CLI's subcommands and option strings, -h/--help left out."""
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.choices and not a.option_strings]
    return {*commands, *(opt for p in (parser, *commands.values()) for a in p._actions
                         for opt in a.option_strings)} - {"-h", "--help"}


def random_fraction(rng: random.Random, span: int = 20, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_polynomial(rng: random.Random, max_degree: int) -> Polynomial:
    deg = rng.randint(0, max_degree)
    coeffs = [random_fraction(rng) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return Polynomial(coeffs)


def poly_potential(p: Polynomial) -> Potential:
    """A rational polynomial as an exact potential.  It is absolutely
    monotone on [-1, 1] exactly when every Taylor coefficient at t = -1,
    p^(k)(-1) / k!, is >= 0: then every derivative is a sum of nonnegative
    multiples of powers of t + 1."""
    dp, q, derivatives = p.derivative(), p, []
    while not q.is_zero():
        derivatives.append(q(Fraction(-1)))
        q = q.derivative()
    return Potential(
        "poly", lambda t: p(rat(t)), lambda t: dp(rat(t)), exact_on_rationals=True,
        absolutely_monotone=all(d >= 0 for d in derivatives),
    )


def lattice_ip(x, z) -> int:
    """Lattice inner product of two shell vectors (s_x.s_z / 8); exact."""
    d = int(np.asarray(x, dtype=np.int64) @ np.asarray(z, dtype=np.int64))
    if d % 8:
        raise ValueError(f"s-coordinate dot {d} is not a multiple of 8")
    return d // 8


def same_codewords(a: BinaryCode, b: BinaryCode) -> bool:
    if (a.length, a.dimension) != (b.length, b.dimension):
        return False
    return sorted(a.codeword_masks()) == sorted(b.codeword_masks())


def bit_rows(code: BinaryCode) -> list:
    """The generator rows as lists of 0/1 entries."""
    return [[(mask >> j) & 1 for j in range(code.length)] for mask in code.rows]


def save_generator_matrix(code: BinaryCode, path) -> None:
    with open(path, "w") as fh:
        for row in bit_rows(code):
            fh.write("".join(map(str, row)) + "\n")


_TOKENS = np.array([str(v) for v in range(-128, 128)], dtype=object)  # int8 v at v + 128


def save_shell_by_tokens(shell, path) -> None:
    """Reference shell writer: the file save_shell must write, built by
    joining the decimal tokens of the entries."""
    with open(path, "w") as fh:
        fh.write(f"latcert-shell v1 n={shell.dim} count={shell.count} scale=2sqrt2\n")
        for start in range(0, shell.count, 8192):
            block = shell.vectors[start : start + 8192].astype(np.intp) + 128
            fh.write("".join(" ".join(row) + "\n" for row in _TOKENS[block].tolist()))


def load_shell_by_loadtxt(path):
    """Reference shell reader: every file goes through np.loadtxt, so it
    gives the shell, or the exception and message, load_shell must give."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
        dim, count = fields.get("n", ""), fields.get("count", "")
        # a number of more digits than int() reads makes a bad header too
        if (parts[:2] != _HEADER.split() or len(parts) != 5 or len(fields) != 3
                or not (dim + count).isascii() or not (dim.isdecimal() and count.isdecimal())
                or max(len(dim), len(count)) > sys.get_int_max_str_digits() > 0
                or int(dim) < 1):
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
    odd = (arr & 1).sum(axis=1)  # per row; two's complement keeps parity
    if ((odd > 0) & (odd < dim)).any():
        raise ValueError(f"{path}: vector with mixed even/odd coordinates")
    return Shell(arr)


def norm32_magnitudes(dim: int) -> list:
    """Every non-increasing tuple of |entries| <= 5 with squares summing to
    32, zero-padded to dim."""
    out = []

    def extend(prefix, rest):
        if rest == 0:
            out.append(prefix + (0,) * (dim - len(prefix)))
        elif len(prefix) < dim:
            for m in range(min(prefix[-1] if prefix else 5, 5), 0, -1):
                if m * m <= rest:
                    extend(prefix + (m,), rest - m * m)

    extend((), 32)
    return out


# the 24 rows of dimension 4 with two entries +-4: a small shell, not the design
PAIRS_4 = [[s * (k == i) + t * (k == j) for k in range(4)]
           for i in range(4) for j in range(i + 1, 4) for s in (4, -4) for t in (4, -4)]


# generator masks of the [8,4,4] extended Hamming code; bit j is coordinate j
HAMMING_8 = (0b11111111, 0b10101010, 0b11001100, 0b11110000)


def e8_power_code() -> BinaryCode:
    """Direct sum of four [8,4,4] extended Hamming codes: a doubly-even
    self-dual [32,16,4] code, so its lattice is NOT extremal."""
    return BinaryCode(32, tuple(m << 8 * b for b in range(4) for m in HAMMING_8), "e8x4")


def e8_root_rows() -> np.ndarray:
    """The 240 roots of E8 times 4, so that s.s = 32: the 112 rows with two
    entries +-4, then the 128 rows of eight entries +-2 with an even number
    of minus signs."""
    i, j = np.triu_indices(8, 1)
    pairs = np.zeros((len(i), 4, 8), dtype=np.int8)
    pairs[np.arange(len(i)), :, i] = [4, 4, -4, -4]
    pairs[np.arange(len(i)), :, j] = [4, -4, 4, -4]
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    halves = 2 - 4 * bits[bits.sum(axis=1) % 2 == 0]
    return np.concatenate([pairs.reshape(-1, 8), halves]).astype(np.int8)


CodeShell = namedtuple("CodeShell", "weights shell")


@pytest.fixture(scope="session")
def d40_shell() -> CodeShell:
    """The [40, 20, 8] double-circulant code [I_20 | A] and its shell.  A is
    circulant: its first row has ones at 9, 10, 12, 13, 17, 18 and 19, and
    each row is the one above rolled right by one.  ``weights`` is the
    weight enumerator of the 2^20 codewords; ``shell`` holds the 3120 rows
    with two entries +-4 and the +-2 rows on the 285 words of weight 8 with
    an even number of minus signs, 39600 rows in all."""
    first = np.isin(np.arange(20), (9, 10, 12, 13, 17, 18, 19))
    generator = np.hstack([np.eye(20, dtype=bool), [np.roll(first, k) for k in range(20)]])
    words = np.zeros(1, dtype=np.uint64)
    for row in np.packbits(generator, axis=1, bitorder="little"):
        mask = np.frombuffer(row.tobytes() + bytes(3), dtype="<u8")  # bit j: coordinate j
        words = np.concatenate((words, words ^ mask))
    weight, count = np.unique(np.bitwise_count(words), return_counts=True)
    octads = (words[np.bitwise_count(words) == 8, None] >> np.arange(40, dtype=np.uint64)) & 1
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    halves = 2 - 4 * bits[bits.sum(axis=1) % 2 == 0]  # the 128 even sign patterns
    rows = np.zeros((len(octads), 128, 40), dtype=np.int8)
    for block, octad in zip(rows, octads.astype(bool)):
        block[:, octad] = halves
    i, j = np.triu_indices(40, 1)
    pairs = np.zeros((len(i), 4, 40), dtype=np.int8)
    pairs[np.arange(len(i)), :, i] = [4, 4, -4, -4]
    pairs[np.arange(len(i)), :, j] = [4, -4, 4, -4]
    shell = Shell(np.concatenate([pairs.reshape(-1, 40), rows.reshape(-1, 40)]))
    return CodeShell(dict(zip(weight.tolist(), count.tolist())), shell)


@dataclass(frozen=True)
class TimedPass:
    """A heavy pair-pass result together with the wall time it took, so the
    acceptance tests can assert the stated runtime budgets no matter which
    test triggered the shared fixture."""

    result: object
    seconds: float


def _timed(fn) -> TimedPass:
    t0 = time.monotonic()
    out = fn()
    return TimedPass(out, time.monotonic() - t0)


@pytest.fixture(scope="session")
def rm_code():
    return reed_muller_2_5()


@pytest.fixture(scope="session")
def xqr_code():
    return extended_quadratic_residue_32()


@pytest.fixture(scope="session")
def rm_shell(rm_code) -> TimedPass:
    return _timed(lambda: build_shell(rm_code))


@pytest.fixture(scope="session")
def xqr_shell(xqr_code) -> TimedPass:
    return _timed(lambda: build_shell(xqr_code))


@pytest.fixture(scope="session")
def rm_hist(rm_shell) -> TimedPass:
    return _timed(lambda: histogram(rm_shell.result))


@pytest.fixture(scope="session")
def xqr_hist(xqr_shell) -> TimedPass:
    return _timed(lambda: histogram(xqr_shell.result))


@pytest.fixture(scope="session")
def rm_full_invariance(rm_shell) -> TimedPass:
    return _timed(lambda: check_distance_invariance(rm_shell.result, sample=ALL))


@pytest.fixture(scope="session")
def xqr_full_invariance(xqr_shell) -> TimedPass:
    return _timed(lambda: check_distance_invariance(xqr_shell.result, sample=ALL))
