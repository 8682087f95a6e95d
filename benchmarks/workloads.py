"""Seeded inputs of the two workloads.

The program receives only what is generated here: a coordinate-permuted
generator-matrix file of the [32,16,8] code RM(2,5), the shell built from
it, and latcert CLI argument lists.  The same (workload, seed) always
gives the same files and the same arguments.  Nothing here imports latcert;
the code is constructed independently of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import checks

WORKLOADS = ("certify", "verify-full")

VERIFY_SAMPLE = 1000  # points in the sampled invariance check
VENKOV_SAMPLE = 100
CERTIFY_ROUNDS = 12  # 12 rounds of 9 commands: a mix of 108
HELP = ("--help",)
# a set-up of certify is one process start (~0.3 s); the median of seven
# damps slow starts
START_SETUP_REPS = 7


@dataclass(frozen=True)
class Op:
    """One latcert CLI invocation and the check of its output."""

    kind: str
    argv: tuple
    check: object  # callable(exit_code, stdout, stderr) -> failure reason or None


@dataclass(frozen=True)
class Workload:
    """``files`` are written and ``setup`` ops run at each set-up; a run
    then executes ``units`` in order, cycling, until its time is used."""

    files: dict  # path relative to the work directory -> content
    setup: tuple
    units: tuple
    setup_reps: int


def rm2_5_rows() -> list:
    """Second-order Reed-Muller code RM(2,5): the monomials of degree <= 2
    in five variables, evaluated at the 32 points of GF(2)^5."""
    x = [[(p >> i) & 1 for p in range(32)] for i in range(5)]
    rows = [[1] * 32] + x
    for i in range(5):
        for j in range(i + 1, 5):
            rows.append([a & b for a, b in zip(x[i], x[j])])
    return rows


def permuted_generator(rows: list, rng: random.Random) -> str:
    """A generator matrix of an equivalent code: columns permuted, rows
    mixed by invertible row additions and shuffled."""
    perm = list(range(32))
    rng.shuffle(perm)
    rows = [[r[c] for c in perm] for r in rows]
    for _ in range(2 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return "".join("".join(map(str, r)) + "\n" for r in rows)


def _op(kind, argv, check, *params):
    return Op(kind, tuple(argv), partial(check, *params) if params else check)


def _verify_full(rng: random.Random) -> Workload:
    """Set-up builds the shell and runs the sampled checks on it, as a user
    would before the full pass; a run then repeats ``verify --full``."""
    files = {"rm2_5.gen": permuted_generator(rm2_5_rows(), rng)}
    vseed, kseed = rng.randrange(1 << 30), rng.randrange(1 << 30)
    setup = (
        _op("build", ["build", "--code", "rm2_5.gen", "--out", "rm2_5.shell"],
            checks.check_build),
        _op("verify-sampled",
            ["verify", "--shell", "rm2_5.shell", "--sample", str(VERIFY_SAMPLE),
             "--seed", str(vseed)],
            checks.check_verify, "sampled", VERIFY_SAMPLE),
        _op("venkov",
            ["venkov", "--shell", "rm2_5.shell", "--witness",
             "--sample", str(VENKOV_SAMPLE), "--seed", str(kseed)],
            checks.check_venkov, VENKOV_SAMPLE, kseed),
    )
    verify = _op("verify-full", ["verify", "--shell", "rm2_5.shell", "--full"],
                 checks.check_verify, "full", checks.N)
    # one set-up per run: with the verify --full operation it already takes
    # most of the benchmark's time budget
    return Workload(files, setup, ((verify,),), 1)


# equivalent spellings of the builtin avoided sets; the record prints the
# canonical form
MAX_T = ("(0,1/4)", "(0, 1/4)", "(0,1/8]U(1/8,1/4)", "(0,1/16)u[1/16,1/4)")
DESIGN_T = ("(-1/4,0)U(1/4,1/2)", "(1/4,1/2)U(-1/4,0)", "(-1/4, 0) U (1/4, 1/2)")


def _certify_round(rng: random.Random) -> tuple:
    maxc = ["certify-max", "--poly", "builtin:maxcode", "--s", "1/2", "--strength", "3"]
    design = ["certify-design", "--poly", "builtin:mindesign", "--tau", "7"]
    dim = ["--dim", "32"] if rng.random() < 0.5 else []
    p = rng.randint(30, 240)
    alpha = str(Fraction(rng.randint(1, 32), 4))
    odd, even = rng.choice((1, 3, 5, 7)), rng.choice((2, 4, 6, 8))
    cm, ce = checks.check_bound_certificate, checks.check_energy
    ops = [
        _op("certify-max", maxc + dim + ["--T", rng.choice(MAX_T)],
            cm, "certify-max", "(0,1/4)", True),
        _op("certify-max-empty", maxc + ["--T", "empty"], cm, "certify-max", "empty", False),
        _op("certify-design", design + dim + ["--T", rng.choice(DESIGN_T)],
            cm, "certify-design", "(-1/4,0)U(1/4,1/2)", True),
        _op("certify-design-empty", design + ["--T", "empty"],
            cm, "certify-design", "empty", False),
        _op("energy-invlin", ["energy", "--potential", "invlin"], ce, "invlin", None),
        _op("energy-expt", ["energy", "--potential", "expt", "--precision", str(p)],
            ce, "expt", p),
        _op("energy-gauss",
            ["energy", "--potential", f"gauss:{alpha}", "--precision", str(p)],
            ce, f"gauss:{alpha}", p),
        _op("energy-riesz-odd",
            ["energy", "--potential", f"riesz:{odd}", "--precision", str(p)],
            ce, f"riesz:{odd}", p),
        _op("energy-riesz-even", ["energy", "--potential", f"riesz:{even}"],
            ce, f"riesz:{even}", None),
    ]
    rng.shuffle(ops)
    return tuple(ops)


def _certify(rng: random.Random) -> Workload:
    units = tuple(_certify_round(rng) for _ in range(CERTIFY_ROUNDS))
    warm = _op("help", HELP, checks.check_help)
    return Workload({}, (warm,), units, START_SETUP_REPS)


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    builders = {
        "certify": _certify,
        "verify-full": _verify_full,
    }
    return builders[name](rng)
