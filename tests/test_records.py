"""Semantics of the package's records: immutable, equal and hashed by value
(Shell by identity), and each constructor check with its message."""

from fractions import Fraction

import numpy as np
import pytest

from latcert import energycert, exactmath, gegenbauer, gf2codes, lattice32, lpcert, sphercode
from latcert.energycert import (PAPER_NODES, EnergyCertificate, NodeMultiset, PartialProduct,
                                Potential, energy_lower_bound, invlin, partial_products)
from latcert.exactmath import (FactoredPolynomial, Interval, IntervalRegion, Polynomial,
                               SignReport, parse_region)
from latcert.gegenbauer import (DistanceDistribution, GegExpansion, InnerProductHistogram,
                                PDVerdict, gegenbauer_expand, is_positive_definite)
from latcert.gf2codes import BinaryCode, CodeReport, code_report, reed_muller_2_5
from latcert.lattice32 import Shell, make_shell
from latcert.lpcert import BoundCertificate, MAX_CODE_POLY, MAX_CODE_T, certify_max_code
from latcert.sphercode import (ALL, InvarianceReport, MomentVector, QuadratureVerdict,
                               StrengthReport, check_distance_invariance, quadrature_check)

SMALL_ROWS = [[4, 4, 0, 0], [4, -4, 0, 0], [-4, 4, 0, 0], [-4, -4, 0, 0]]


def _value(t):
    return 1 / (2 - 2 * t)


def _derivative(t):
    return 2 / (2 - 2 * t) ** 2


# each factory makes a new record from equal fields on every call; the
# records with a dict field are not hashable
FACTORIES = {
    FactoredPolynomial: (lambda: FactoredPolynomial(2, [(0, 1), ("1/2", 3)]), True),
    Interval: (lambda: Interval(0, "1/2", False, True), True),
    IntervalRegion: (lambda: parse_region("(0,1/4)U[1/2,1]"), True),
    SignReport: (lambda: SignReport("mixed", Fraction(1, 2), Fraction(-1, 2)), True),
    GegExpansion: (lambda: gegenbauer_expand(32, Polynomial([0, 0, 1])), True),
    PDVerdict: (lambda: is_positive_definite(GegExpansion(32, (1, -1))), True),
    InnerProductHistogram: (lambda: InnerProductHistogram({Fraction(-1): 2}, 2), False),
    DistanceDistribution: (lambda: DistanceDistribution({Fraction(1): 1}), False),
    BoundCertificate: (lambda: certify_max_code(MAX_CODE_POLY, 32, MAX_CODE_T, "1/2", 3),
                       True),
    NodeMultiset: (lambda: NodeMultiset((-1, -1, 0)), True),
    Potential: (lambda: Potential("h", _value, _derivative, True, True), True),
    PartialProduct: (lambda: partial_products(PAPER_NODES, 32)[2], True),
    EnergyCertificate: (lambda: energy_lower_bound(invlin()), True),
    MomentVector: (lambda: MomentVector((Fraction(0), Fraction(5, 2))), True),
    InvarianceReport: (lambda: check_distance_invariance(make_shell(SMALL_ROWS), ALL),
                       False),
    QuadratureVerdict: (lambda: quadrature_check(DistanceDistribution({Fraction(1): 1}),
                                                 Polynomial([1]), 32, 1, 7), True),
    StrengthReport: (lambda: StrengthReport(7, (10,), MomentVector((Fraction(0),))), True),
    BinaryCode: (reed_muller_2_5, True),
    CodeReport: (lambda: code_report(reed_muller_2_5()), False),
}
IDS = [cls.__name__ for cls in FACTORIES]


def _fields(record) -> tuple:
    return getattr(record, "_fields", None) or record.__slots__


@pytest.mark.parametrize("build, hashable", FACTORIES.values(), ids=IDS)
def test_records_are_immutable_and_equal_by_value(build, hashable):
    a, b = build(), build()
    for name in _fields(a):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.no_such_field = 1  # no instance dict either
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_every_record_type_is_covered():
    # a record is a named tuple defined in the package; Shell, compared by
    # identity, is the one record of its own kind
    modules = (energycert, exactmath, gegenbauer, gf2codes, lattice32, lpcert, sphercode)
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and issubclass(obj, tuple)}
    assert records == set(FACTORIES)
    assert len(records) == 19
    assert all(type(build()) is cls for cls, (build, _) in FACTORIES.items())


def test_records_of_different_fields_differ():
    assert FactoredPolynomial(1, [(0, 1)]) != FactoredPolynomial(1, [(0, 2)])
    assert DistanceDistribution({Fraction(1): 1}) != DistanceDistribution({Fraction(1): 2})
    assert MomentVector((Fraction(0),)) != MomentVector((Fraction(1),))
    code = reed_muller_2_5()
    flipped = (code.rows[0] ^ 1, *code.rows[1:])
    assert code != BinaryCode(code.length, flipped, code.name)
    assert code != BinaryCode(code.length, code.rows, "other")


def test_shells_are_equal_only_to_themselves():
    a, b = Shell(SMALL_ROWS), Shell(SMALL_ROWS)
    assert a == a and a != b
    assert len({a, b}) == 2
    for name in ("vectors", "dim"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.vectors
    assert a.vectors.shape == (4, 4)


def test_with_energy_changes_only_energy_and_gap():
    cert = energy_lower_bound(invlin())
    done = cert.with_energy(cert.lower_bound + 1)
    changed = [f for f in cert._fields if getattr(done, f) != getattr(cert, f)]
    assert changed == ["code_energy", "gap"]
    assert (done.code_energy, done.gap) == (cert.lower_bound + 1, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: Interval(1, 0), "interval with lo > hi: [1,0]"),
    (lambda: Interval(0, 0, False, True), "degenerate interval must be closed: (0,0]"),
    (lambda: Interval(0, 0, True, False), "degenerate interval must be closed: [0,0)"),
    (lambda: IntervalRegion((Interval(0, 1), Interval("1/2", 2))),
     "intervals not disjoint/sorted: [0,1], [1/2,2]"),
    (lambda: IntervalRegion((Interval(0, 1), Interval(1, 2))),
     "intervals not disjoint/sorted: [0,1], [1,2]"),
    (lambda: FactoredPolynomial(1, ((0, 1), (0, 2))),
     "factored polynomial has a repeated root entry"),
    (lambda: FactoredPolynomial(1, ((0, 1), ("1/2", 0))),
     "factor multiplicities must be positive"),
    (lambda: NodeMultiset((0, -1)), "nodes must be ascending"),
    (lambda: NodeMultiset((-1, 0, 0, 0)), "node 0 repeated more than twice; unsupported"),
    (lambda: Shell(np.zeros(4, dtype=np.int8)), "shell vectors must form a 2-d array"),
    (lambda: Shell(np.zeros((0, 4), dtype=np.int8)), "need a nonempty shell"),
    (lambda: Shell([[4, 4, 0, 0], [4, 4, 1, 0]]), "vector 1 has s.s = 33, expected 32"),
    (lambda: Shell([[4, 4, 0, 0], [4, 4, 0, 0]]), "duplicate shell vectors"),
], ids=["lo-above-hi", "open-degenerate-lo", "open-degenerate-hi", "overlap", "shared-end",
        "repeated-root", "multiplicity-zero", "unsorted-nodes", "node-thrice", "shell-1d",
        "shell-empty", "shell-norm", "shell-duplicate"])
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_records_coerce_their_fields():
    fp = FactoredPolynomial("2", [("1/2", "3")])
    assert fp.leading == 2 and fp.factors == ((Fraction(1, 2), 3),)
    iv = Interval("-1/2", 1)
    assert (iv.lo, iv.hi) == (Fraction(-1, 2), Fraction(1))
    assert NodeMultiset(("-1", 0)).nodes == (Fraction(-1), Fraction(0))
    assert IntervalRegion([iv]).intervals == (iv,)
