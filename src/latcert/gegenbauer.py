"""Normalized Gegenbauer basis for a given dimension, with exact conversions.

For dimension n the polynomials P_i are orthogonal on [-1, 1] with weight
(1 - t^2)^((n-3)/2) and normalized so that P_i(1) = 1.  They satisfy the
three-term recurrence

    (i + n - 2) P_{i+1}(t) = (2i + n - 2) t P_i(t) - i P_{i-1}(t),

with P_0 = 1 and P_1 = t.  All coefficients are exact rationals, which is
what makes the expansion tables in the bound certificates reproducible
bit for bit.  The pair-statistic records (``InnerProductHistogram``,
``DistanceDistribution``), the histogram of a distance-invariant code from
its distribution, and ``distribution_from_design``, a quadrature identity in
this basis, live here too, so the energy certificates need no numpy.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactmath import Polynomial

# Basis polynomials are precomputed up to this degree; raise it if a deeper
# expansion is ever needed (all built-in certificates stop at degree 10).
MAX_DEGREE = 64

# Largest Riesz exponent s of the energy potential (2-2t)^(-s/2).  Each
# exact (even-s) energy value is a fraction of about 1.8 s digits (1781
# characters at s = 1000); from s = 4900 on, Python refuses to print one.
MAX_RIESZ_EXPONENT = 1000

# Largest mpmath precision of an energy certificate (`expt`: about 1 s there).
MAX_PRECISION = 10000


def check_degree(degree: int) -> None:
    """Reject a degree above MAX_DEGREE, before any basis or expansion work."""
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above the configured cap {MAX_DEGREE}")


@lru_cache(maxsize=None)
def _basis(n: int, upto: int) -> tuple:
    """P_0..P_upto for dimension n: the cached P_0..P_{upto-1} and one more
    recurrence step, so each P_i is built once per dimension."""
    if n < 2:
        raise ValueError(f"invalid dimension n={n}; need n >= 2")
    if upto <= 1:
        return (Polynomial([1]), Polynomial([0, 1]))[: upto + 1]
    polys, i = _basis(n, upto - 1), upto - 1
    t_p = (Polynomial([0, 1]) * polys[i]).scale(Fraction(2 * i + n - 2, i + n - 2))
    return polys + (t_p - polys[i - 1].scale(Fraction(i, i + n - 2)),)


def gegenbauer_poly(n: int, i: int) -> Polynomial:
    """The degree-i normalized Gegenbauer polynomial for dimension n."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    check_degree(i)
    return _basis(n, i)[i]


class GegExpansion(namedtuple("GegExpansion", "dimension coeffs")):
    """Coefficients f_0..f_d (a tuple) of f(t) = sum f_i P_i(t) in dimension n.

    Since every basis element is 1 at t = 1, the coefficients sum to f(1).
    """

    __slots__ = ()


def gegenbauer_expand(n: int, p: Polynomial) -> GegExpansion:
    """Exact basis conversion by back-substitution against the triangular
    change-of-basis matrix (P_k has degree exactly k)."""
    check_degree(p.degree)
    if p.is_zero():
        return GegExpansion(n, (Fraction(0),))
    d = p.degree
    basis = _basis(n, d)
    residual = list(p.coeffs)
    out = [Fraction(0)] * (d + 1)
    for k in range(d, -1, -1):
        lead = basis[k].coeffs[k]
        fk = residual[k] / lead
        out[k] = fk
        for j, c in enumerate(basis[k].coeffs):
            residual[j] = residual[j] - fk * c
    return GegExpansion(n, tuple(out))


def reconstruct(e: GegExpansion) -> Polynomial:
    """Inverse of gegenbauer_expand: sum of f_i P_i as a dense polynomial."""
    p = Polynomial()
    for i, c in enumerate(e.coeffs):
        p = p + gegenbauer_poly(e.dimension, i).scale(c)
    return p


PDVerdict = namedtuple("PDVerdict", "positive_definite negative_indices", defaults=((),))


def is_positive_definite(e: GegExpansion) -> PDVerdict:
    """True iff every expansion coefficient is >= 0 (the basis is positive
    definite on the sphere, so such an f has nonnegative moments on any code)."""
    bad = tuple(i for i, c in enumerate(e.coeffs) if c < 0)
    return PDVerdict(not bad, bad)


def weight_moment(n: int, k: int) -> Fraction:
    """k-th moment of the Gegenbauer weight on [-1,1], normalized to mass 1.

    For even k = 2m this is (2m-1)!! / (n (n+2) ... (n+2m-2)); odd moments
    vanish.  The normalization makes weight_moment(n, 0) = 1, so applying
    this functional to a polynomial yields exactly its 0-th Gegenbauer
    coefficient; it is the independent integration oracle used by the tests.
    """
    if n < 2:
        raise ValueError(f"invalid dimension n={n}; need n >= 2")
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k % 2 == 1:
        return Fraction(0)
    num = 1
    den = 1
    for j in range(k // 2):
        num *= 2 * j + 1
        den *= n + 2 * j
    return Fraction(num, den)


def integrate_weighted(n: int, p: Polynomial) -> Fraction:
    """Weight-normalized integral of p; equals the 0-th expansion coefficient."""
    return sum(
        (c * weight_moment(n, k) for k, c in enumerate(p.coeffs)), Fraction(0)
    )


class InnerProductHistogram(namedtuple("InnerProductHistogram", "counts n_points")):
    """Ordered-pair counts (x != y), a dict keyed by the unit inner product t."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts.values())


class DistanceDistribution(namedtuple("DistanceDistribution", "a")):
    """Counts A_t of code points at inner product t from a fixed point,
    including t = 1 with A_1 = 1: the dict ``a``, Fraction -> int."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.a.values())

    def __getitem__(self, t):
        return self.a.get(Fraction(t), 0)


def histogram_from_distribution(dist: DistanceDistribution,
                                n_points: int) -> InnerProductHistogram:
    """The ordered-pair histogram a distance-invariant code with this
    per-point distribution would have (counts[t] = N * A_t for t != 1)."""
    counts = {t: n_points * c for t, c in dist.a.items() if t != 1}
    return InnerProductHistogram(counts, n_points)


def distribution_from_design(I, N: int, n: int, tau: int) -> DistanceDistribution:
    """Recover the distance distribution of a distance-invariant tau-design
    from its inner-product set alone.  The quadrature identity
    sum_t A_t p(t) = N f_0(p) holds on the nodes I and 1 for every p of degree
    d = |I| <= tau - 1, so A_t = N f_0(L_t) for the Lagrange basis polynomial
    L_t of the nodes (1 at t, 0 at the others)."""
    nodes = sorted(Fraction(t) for t in I)
    d = len(nodes)
    if d > tau - 1:
        raise ValueError(f"|I| = {d} exceeds tau - 1 = {tau - 1}")
    if len(set(nodes)) != d or Fraction(1) in nodes:
        raise ValueError("singular system: duplicate quadrature nodes")
    pts = nodes + [Fraction(1)]
    sol = []
    for t in pts:
        prod = Polynomial([1])  # prod(t) L_t: x - u multiplied over the nodes u != t
        for u in pts:
            if u != t:
                prod = prod * Polynomial([-u, 1])
        sol.append(N * integrate_weighted(n, prod) / prod(t))
    for t, a in zip(pts, sol):
        if a < 0:
            raise ValueError(f"negative distribution entry A_{t} = {a}")
        if a.denominator != 1:
            raise ValueError(f"non-integral distribution entry A_{t} = {a}")
    return DistanceDistribution({t: int(a) for t, a in zip(pts, sol)})
