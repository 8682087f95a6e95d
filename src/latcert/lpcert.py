"""Machine-checked linear-programming bound certificates.

A max-code certificate witnesses |C| <= f(1)/f_0 for every T-avoiding
s-code of assumed design strength: the polynomial must be <= 0 on
[-1, s] \\ T and its Gegenbauer coefficients above the assumed strength
must be nonnegative.  A min-design certificate witnesses |C| >= f(1)/f_0
for every T-avoiding tau-design: the polynomial must have degree <= tau
and be >= 0 on [-1, 1] \\ T.  Everything is evaluated exactly; an invalid
certificate always carries a rational witness.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactmath import (
    FactoredPolynomial,
    IntervalRegion,
    closed_interval,
    open_interval,
    poly_to_json,
    region_difference,
    region_union,
    sign_on_region,
)
from .gegenbauer import check_degree, gegenbauer_expand


class BoundCertificate(namedtuple(
    "BoundCertificate",
    "kind polynomial dimension avoided expansion sign_report bound valid"
    " s_max assumed_strength tau failure",
    defaults=(None, None, None, None),
)):
    """An LP bound certificate; ``kind`` is "max_code" (with ``s_max`` and
    ``assumed_strength``) or "min_design" (with ``tau``)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        pos = self.sign_report.positive_witness
        neg = self.sign_report.negative_witness
        d = {
            "kind": self.kind,
            "polynomial": poly_to_json(self.polynomial),
            "dimension": self.dimension,
            "T": str(self.avoided),
            "coefficients": [str(c) for c in self.expansion.coeffs],
            "sign_report": {
                "verdict": self.sign_report.verdict,
                "positive_witness": None if pos is None else str(pos),
                "negative_witness": None if neg is None else str(neg),
            },
            "bound": str(self.bound),
            "valid": self.valid,
        }
        if self.kind == "max_code":
            d["s"] = str(self.s_max)
            d["assumed_strength"] = self.assumed_strength
        else:
            d["tau"] = self.tau
        if self.failure:
            d["failure"] = self.failure
        return d


def _lp_bound(p: FactoredPolynomial, n: int, T: IntervalRegion, hi, **kind) -> BoundCertificate:
    """The valid certificate of p with the kind's own fields: the Gegenbauer
    expansion of p, the sign report of p on [-1, hi] minus T and the bound
    f(1)/f_0.  Each bound returns it, or replaces it with its first failed
    condition."""
    check_degree(p.degree)  # first: expanding a high multiplicity is the slow part
    expansion = gegenbauer_expand(n, p.expand())
    f0 = expansion.coeffs[0]
    if f0 <= 0:
        raise ValueError(f"f_0 = {f0} is not positive; no bound derivable")
    report = sign_on_region(p, region_difference(closed_interval(-1, hi), T))
    return BoundCertificate(polynomial=p, dimension=n, avoided=T, expansion=expansion,
                            sign_report=report, bound=p(Fraction(1)) / f0, valid=True, **kind)


def certify_max_code(
    p: FactoredPolynomial,
    n: int,
    T: IntervalRegion,
    s,
    strength: int,
) -> BoundCertificate:
    """Certificate that a T-avoiding s-code of design strength >= `strength`
    has at most f(1)/f_0 points."""
    s_max = Fraction(s)
    cert = _lp_bound(p, n, T, s_max, kind="max_code", s_max=s_max, assumed_strength=strength)
    witness, coeffs = cert.sign_report.positive_witness, cert.expansion.coeffs
    bad = [i for i, c in enumerate(coeffs) if i > strength and c < 0]
    if witness is not None:
        return cert._replace(valid=False, failure=(
            f"polynomial is positive at t = {witness} inside [-1,{s}] minus T"))
    if bad:
        return cert._replace(valid=False, failure=(
            f"negative Gegenbauer coefficient f_{bad[0]} = {coeffs[bad[0]]} "
            f"above assumed strength {strength}"))
    return cert


def certify_min_design(
    p: FactoredPolynomial,
    n: int,
    T: IntervalRegion,
    tau: int,
) -> BoundCertificate:
    """Certificate that a T-avoiding spherical tau-design has at least
    f(1)/f_0 points."""
    if p.degree > tau:
        raise ValueError(
            f"degree {p.degree} exceeds tau = {tau}; the design identity is unavailable"
        )
    cert = _lp_bound(p, n, T, 1, kind="min_design", tau=tau)
    witness = cert.sign_report.negative_witness
    if witness is not None:
        return cert._replace(valid=False, failure=(
            f"polynomial is negative at t = {witness} inside [-1,1] minus T"))
    return cert


# ---------------------------------------------------------------------------
# Built-in polynomials with their reference expansions as regression fixtures.

H = Fraction(1, 2)
Q = Fraction(1, 4)

# degree-10 polynomial of the maximal-code bound:
# (t+1)(t+1/2)^2(t+1/4)^2 t (t-1/4)(t-1/2)^3
MAX_CODE_POLY = FactoredPolynomial(
    1, [(-1, 1), (-H, 2), (-Q, 2), (0, 1), (Q, 1), (H, 3)]
)
MAX_CODE_EXPANSION = tuple(
    Fraction(*pq)
    for pq in [
        (5, 1114112),
        (65, 992256),
        (-31, 196608),
        (-93, 165376),
        (217, 417792),
        (899, 58368),
        (2387, 188416),
        (20119, 894976),
        (0, 1),
        (3441, 11776),
        (14911, 47104),
    ]
)

# degree-7 polynomial of the tight-design bound:
# t(t+1)(t+1/2)^2(t+1/4)(t-1/4)(t-1/2)
MIN_DESIGN_POLY = FactoredPolynomial(
    1, [(0, 1), (-1, 1), (-H, 2), (-Q, 1), (Q, 1), (H, 1)]
)

# seventh partial product of the energy interpolant:
# (t+1)^2(t+1/2)(t+1/4) t^2 (t-1/4)
P7_POLY = FactoredPolynomial(1, [(-1, 2), (-H, 1), (-Q, 1), (0, 2), (Q, 1)])
P7_EXPANSION = tuple(
    Fraction(*pq)
    for pq in [
        (97, 104448),
        (619, 41344),
        (12245, 116736),
        (2139, 5168),
        (13981, 13056),
        (4433, 2432),
        (11935, 7296),
        (341, 608),
    ]
)


BUILTIN_POLYNOMIALS = {"maxcode": MAX_CODE_POLY, "mindesign": MIN_DESIGN_POLY, "p7": P7_POLY}


def builtin_polynomial(name: str) -> FactoredPolynomial:
    if name not in BUILTIN_POLYNOMIALS:
        raise ValueError(f"unknown builtin polynomial {name!r}")
    return BUILTIN_POLYNOMIALS[name]


# the avoided sets of the two built-in bounds
MAX_CODE_T = open_interval(0, Q)
MIN_DESIGN_T = region_union(open_interval(-Q, 0), open_interval(Q, H))
