"""Exact rational scalars, univariate polynomials, and sign analysis on interval regions.

Everything in this module runs on ``fractions.Fraction``; there is no floating
point anywhere.  Polynomials come in two representations: dense monomial
coefficients (``Polynomial``) and a leading-coefficient-times-linear-factors
form (``FactoredPolynomial``) whose rational roots make sign analysis exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce an int, string like ``"p/q"``, or Fraction to an exact Fraction;
    ValueError naming a string that is not one, such as ``"1/0"``."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:  # a bool is not a rational
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not an exact rational: {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


class Polynomial:
    """Dense univariate polynomial; ``coeffs[k]`` is the degree-k coefficient.

    Trailing zero coefficients are stripped, so the zero polynomial has an
    empty coefficient tuple and degree -1.  Coefficients are Fractions on
    every certificate path; arbitrary-precision floats (mpmath ``mpf``) are
    tolerated so the transcendental-potential interpolants can reuse the
    same arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if not isinstance(c, (int, str)) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, k: int, c=1) -> "Polynomial":
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        return Polynomial([c * a for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(map(str, self.coeffs))})"


class FactoredPolynomial(namedtuple("FactoredPolynomial", "leading factors")):
    """``leading * prod (t - root)^mult`` with pairwise-distinct rational roots;
    ``factors`` is a tuple of (root: Fraction, multiplicity: int)."""

    __slots__ = ()

    def __new__(cls, leading, factors):
        leading = rat(leading)
        facs = tuple((rat(r), int(m)) for r, m in factors)
        roots = [r for r, _ in facs]
        if len(set(roots)) != len(roots):
            raise ValueError("factored polynomial has a repeated root entry")
        if any(m < 1 for _, m in facs):
            raise ValueError("factor multiplicities must be positive")
        return super().__new__(cls, leading, facs)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def roots(self):
        return sorted(r for r, _ in self.factors)

    def __call__(self, t):
        t = rat(t)
        acc = self.leading
        for r, m in self.factors:
            acc *= (t - r) ** m
        return acc

    def expand(self) -> Polynomial:
        p = Polynomial([self.leading])
        for r, m in self.factors:
            lin = Polynomial([-r, 1])
            for _ in range(m):
                p = p * lin
        return p


# ---------------------------------------------------------------------------
# Interval regions


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed=True, hi_closed=True):
        self = super().__new__(cls, rat(lo), rat(hi), lo_closed, hi_closed)
        if self.lo > self.hi:
            raise ValueError(f"interval with lo > hi: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError(f"degenerate interval must be closed: {self}")
        return self

    def contains(self, t) -> bool:
        t = rat(t)
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.lo_closed:
            return False
        if t == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self):
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


class IntervalRegion(namedtuple("IntervalRegion", "intervals")):
    """A finite union of disjoint intervals, sorted ascending."""

    __slots__ = ()

    def __new__(cls, intervals=()):
        ivs = tuple(intervals)
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi or (b.lo == a.hi and (a.hi_closed and b.lo_closed)):
                raise ValueError(f"intervals not disjoint/sorted: {a}, {b}")
        return super().__new__(cls, ivs)

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t) -> bool:
        return any(iv.contains(t) for iv in self.intervals)

    def __str__(self):
        if self.is_empty():
            return "empty"
        return "U".join(str(iv) for iv in self.intervals)


EMPTY_REGION = IntervalRegion()


def closed_interval(lo, hi) -> IntervalRegion:
    return IntervalRegion((Interval(rat(lo), rat(hi), True, True),))


def open_interval(lo, hi) -> IntervalRegion:
    return IntervalRegion((Interval(rat(lo), rat(hi), False, False),))


def region_union(*regions: IntervalRegion) -> IntervalRegion:
    """Normalized union: sort, then merge overlapping or touching intervals."""
    ivs = sorted(
        (iv for r in regions for iv in r.intervals),
        key=lambda iv: (iv.lo, not iv.lo_closed),
    )
    out: list[Interval] = []
    for iv in ivs:
        if out:
            prev = out[-1]
            touches = iv.lo < prev.hi or (
                iv.lo == prev.hi and (iv.lo_closed or prev.hi_closed)
            )
            if touches:
                if (iv.hi, iv.hi_closed) > (prev.hi, prev.hi_closed):
                    out[-1] = Interval(prev.lo, iv.hi, prev.lo_closed, iv.hi_closed)
                continue
        out.append(iv)
    return IntervalRegion(tuple(out))


def _interval_minus(a: Interval, b: Interval) -> list:
    if b.hi < a.lo or b.lo > a.hi:
        return [a]
    if b.hi == a.lo and not (b.hi_closed and a.lo_closed):
        return [a]
    if b.lo == a.hi and not (b.lo_closed and a.hi_closed):
        return [a]
    out = []
    # part of a to the left of b
    if a.lo < b.lo or (a.lo == b.lo and a.lo_closed and not b.lo_closed):
        out.append(Interval(a.lo, b.lo, a.lo_closed, not b.lo_closed))
    # part of a to the right of b
    if b.hi < a.hi or (b.hi == a.hi and a.hi_closed and not b.hi_closed):
        out.append(Interval(b.hi, a.hi, not b.hi_closed, a.hi_closed))
    return out


def region_difference(base: IntervalRegion, minus: IntervalRegion) -> IntervalRegion:
    """Exact set difference base \\ minus, preserving endpoint open/closed flags."""
    pieces = list(base.intervals)
    for b in minus.intervals:
        nxt = []
        for a in pieces:
            nxt.extend(_interval_minus(a, b))
        pieces = nxt
    return IntervalRegion(tuple(pieces))


def parse_region(text: str) -> IntervalRegion:
    """Parse strings like ``(0,1/4)``, ``[-1,0]U(1/4,1/2)``, or ``empty``.
    The intervals may come in any order; overlapping or touching ones are
    merged."""
    s = text.strip().replace(" ", "")
    if s in ("", "empty", "none", "{}"):
        return EMPTY_REGION
    ivs = []
    for part in s.replace("u", "U").split("U"):
        ends = part[1:-1].split(",")
        if len(part) < 5 or part[0] not in "([" or part[-1] not in ")]" or len(ends) != 2:
            raise ValueError(f"bad interval syntax: {part!r}")
        ivs.append(Interval(rat(ends[0]), rat(ends[1]), part[0] == "[", part[-1] == "]"))
    return region_union(*(IntervalRegion((iv,)) for iv in ivs))


# ---------------------------------------------------------------------------
# Sign analysis


class SignReport(namedtuple("SignReport", "verdict positive_witness negative_witness",
                            defaults=(None, None))):
    """Outcome of exact sign analysis: one of nonnegative / nonpositive / mixed.

    Witnesses are rational points where a strictly positive (resp. negative)
    value was found; a certificate that needs "f <= 0" fails exactly when
    ``positive_witness`` is not None.
    """

    __slots__ = ()


def _sample_points(fp: FactoredPolynomial, iv: Interval):
    """Points whose exact values determine the sign of fp on the interval.

    Between consecutive roots a product of linear factors has constant sign,
    so it suffices to evaluate at the included endpoints, at every root
    inside the interval, and at the midpoint of each maximal root-free
    subinterval.
    """
    pts = []
    if iv.lo_closed:
        pts.append(iv.lo)
    if iv.hi_closed and iv.hi != iv.lo:
        pts.append(iv.hi)
    inner = [r for r in fp.roots() if iv.lo < r < iv.hi]
    pts.extend(inner)
    cuts = [iv.lo] + inner + [iv.hi]
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            pts.append((a + b) / 2)
    return pts


def sign_on_region(fp: FactoredPolynomial, region: IntervalRegion) -> SignReport:
    """Exact sign verdict of a factored polynomial on a region within [-1, 1]."""
    if region.is_empty():
        raise ValueError("empty region: the sign condition is vacuous")
    for iv in region.intervals:
        if iv.lo < -1 or iv.hi > 1:
            raise ValueError(f"region extends outside [-1,1]: {iv}")
    pos = neg = None
    for iv in region.intervals:
        for t in _sample_points(fp, iv):
            v = fp(t)
            if v > 0 and pos is None:
                pos = t
            elif v < 0 and neg is None:
                neg = t
        if pos is not None and neg is not None:
            break
    if pos is not None and neg is not None:
        verdict = "mixed"
    elif neg is not None:
        verdict = "nonpositive"
    else:
        verdict = "nonnegative"
    return SignReport(verdict, pos, neg)


# ---------------------------------------------------------------------------
# JSON form

def poly_to_json(p: FactoredPolynomial) -> dict:
    return {
        "factored": {
            "leading": str(p.leading),
            "factors": [[str(r), str(m)] for r, m in p.factors],
        }
    }


_POLY_JSON_SHAPE = ('polynomial JSON must be {"factored": {"leading": "p/q", '
                    '"factors": [["root", "multiplicity"], ...]}}')


def _multiplicity(m) -> int:
    """m as an int, from an int or a string of one; ValueError naming
    anything else, such as 1.5, which int() would truncate."""
    try:
        if type(m) is int or isinstance(m, str):  # not a bool or a float
            return int(m)
    except ValueError:
        pass
    raise ValueError(f"not an integer multiplicity: {m!r}")


def poly_from_json(obj) -> FactoredPolynomial:
    """Inverse of poly_to_json; ValueError naming that shape for anything
    else, and naming a value that is not an exact rational (a JSON float is
    not) or an integer multiplicity."""
    try:
        f = obj["factored"]
        leading, factors = f["leading"], [(r, m) for r, m in f["factors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(_POLY_JSON_SHAPE) from exc
    try:
        leading = rat(leading)
        pairs = [(rat(r), _multiplicity(m)) for r, m in factors]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{_POLY_JSON_SHAPE}: {exc}") from exc
    return FactoredPolynomial(leading, pairs)
