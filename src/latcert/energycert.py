"""Energy certificates via Hermite interpolation at the design inner products.

The lower bound for T-avoiding codes of the fixed cardinality works by
interpolating the potential h at the node multiset

    I = {-1, -1, -1/2, -1/4, 0, 0, 1/4, 1/2}

(repeated nodes match the derivative).  Newton's formula writes the
degree-7 interpolant as a sum of divided differences times partial products
P_i(t) = (t - t_1)...(t - t_i); the certificate checks the three finite
conditions the argument needs:

  * all divided differences nonnegative (necessary for absolute
    monotonicity of h on these nodes),
  * all partial products positive definite in the Gegenbauer basis,
  * the degree-8 node polynomial nonnegative on [-1,1] \\ T,

and cross-checks the quadrature form of the bound against
N^2 ((H_7)_0 - H_7(1)/N).  Rational potentials run exactly; transcendental
ones run in mpmath at a configurable precision (default 60 digits) with
comparisons at relative tolerance 1e-20.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .exactmath import (
    FactoredPolynomial,
    IntervalRegion,
    Polynomial,
    SignReport,
    closed_interval,
    factored,
    open_interval,
    rat,
    region_difference,
    region_union,
    sign_on_region,
)
from .gegenbauer import (GegExpansion, InnerProductHistogram, PDVerdict,
                         distribution_from_design, gegenbauer_expand, is_positive_definite)

DESIGN_SIZE = 146880
DESIGN_TAU = 7
DESIGN_INNER_PRODUCTS = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(-1, 4),
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
)

# the symmetric avoided set of the universal-optimality energy bound
T_SYMMETRIC = region_union(
    open_interval(Fraction(-1, 2), Fraction(-1, 4)),
    open_interval(Fraction(1, 4), Fraction(1, 2)),
)

REL_TOL = Fraction(1, 10**20)


@dataclass(frozen=True)
class NodeMultiset:
    """Interpolation nodes, ascending, each repeated at most twice (only
    first derivatives of potentials are available)."""

    nodes: tuple

    def __post_init__(self):
        ns = tuple(rat(t) for t in self.nodes)
        if list(ns) != sorted(ns):
            raise ValueError("nodes must be ascending")
        for t in set(ns):
            if ns.count(t) > 2:
                raise ValueError(f"node {t} repeated more than twice; unsupported")
        object.__setattr__(self, "nodes", ns)


PAPER_NODES = NodeMultiset(
    (
        Fraction(-1),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(-1, 4),
        Fraction(0),
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
    )
)


@dataclass(frozen=True)
class Potential:
    """Interaction potential with value and first-derivative evaluators.

    When exact_on_rationals is set, both evaluators map Fraction to
    Fraction and every downstream certificate quantity is exact.
    Absolute monotonicity of a black-box evaluator cannot be verified; the
    certificate checks the finite conditions it actually uses.
    """

    name: str
    value: object
    derivative: object
    exact_on_rationals: bool


def _mpf(t: Fraction):
    return mp.mpf(t.numerator) / t.denominator


def invlin() -> Potential:
    """h(t) = 1/(2-2t), the canonical exact test potential (absolutely
    monotone: h^(k)(t) = 2^k k! (2-2t)^(-k-1) > 0)."""
    return Potential(
        "invlin",
        lambda t: 1 / (2 - 2 * rat(t)),
        lambda t: 2 / (2 - 2 * rat(t)) ** 2,
        exact_on_rationals=True,
    )


def riesz(s: int) -> Potential:
    """Riesz-type potential (2-2t)^(-s/2); exact for even s."""
    if s < 1:
        raise ValueError("riesz exponent must be a positive integer")
    if s % 2 == 0:
        return Potential(
            f"riesz:{s}",
            lambda t: (2 - 2 * rat(t)) ** (-(s // 2)),
            lambda t: s * (2 - 2 * rat(t)) ** (-(s // 2) - 1),
            exact_on_rationals=True,
        )
    return Potential(
        f"riesz:{s}",
        lambda t: mp.power(2 - 2 * _mpf(rat(t)), mp.mpf(-s) / 2),
        lambda t: s * mp.power(2 - 2 * _mpf(rat(t)), mp.mpf(-s) / 2 - 1),
        exact_on_rationals=False,
    )


def expt() -> Potential:
    """h(t) = e^t."""
    return Potential(
        "expt",
        lambda t: mp.exp(_mpf(rat(t))),
        lambda t: mp.exp(_mpf(rat(t))),
        exact_on_rationals=False,
    )


def gauss(alpha) -> Potential:
    """Gaussian potential e^(-alpha (2-2t)), absolutely monotone for alpha > 0."""
    a = rat(alpha)
    if a <= 0:
        raise ValueError("gauss parameter must be positive")
    return Potential(
        f"gauss:{a}",
        lambda t: mp.exp(-_mpf(a) * (2 - 2 * _mpf(rat(t)))),
        lambda t: 2 * _mpf(a) * mp.exp(-_mpf(a) * (2 - 2 * _mpf(rat(t)))),
        exact_on_rationals=False,
    )


def potential_by_spec(spec: str) -> Potential:
    """Parse 'invlin', 'expt', 'riesz:<s>' or 'gauss:<alpha>'."""
    name, _, arg = spec.partition(":")
    if name == "invlin":
        return invlin()
    if name == "expt":
        return expt()
    if name == "riesz":
        return riesz(int(arg))
    if name == "gauss":
        return gauss(arg)
    raise ValueError(f"unknown potential {spec!r}")


# ---------------------------------------------------------------------------
# Hermite interpolation


def divided_differences(h: Potential, m: NodeMultiset) -> list:
    """Top diagonal h[t_1], h[t_1,t_2], ..., h[t_1..t_k] of the Hermite
    divided-difference table; entries at repeated nodes are seeded by h'."""
    z = m.nodes
    k = len(z)
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        table[i][0] = h.value(z[i])
    for j in range(1, k):
        for i in range(k - j):
            if z[i + j] == z[i]:
                table[i][j] = h.derivative(z[i])
            else:
                table[i][j] = (table[i + 1][j - 1] - table[i][j - 1]) / (
                    z[i + j] - z[i]
                )
    return [table[0][j] for j in range(k)]


def _newton_basis(m: NodeMultiset) -> list:
    """The dense Newton basis 1, P_1, ..., P_{k-1} of the k nodes, each
    P_i = P_{i-1} (t - t_i)."""
    basis = [Polynomial([1])]
    for t in m.nodes[:-1]:
        basis.append(basis[-1] * Polynomial([-t, 1]))
    return basis


def hermite_interpolant(h: Potential, m: NodeMultiset) -> Polynomial:
    """Newton-form interpolant matching h at simple nodes and h, h' at
    doubled nodes; degree at most len(m.nodes) - 1."""
    poly = Polynomial()
    for d, p in zip(divided_differences(h, m), _newton_basis(m)):
        poly = poly + p.scale(d)
    return poly


def node_polynomial(m: NodeMultiset) -> FactoredPolynomial:
    """The monic product of (t - t_i) over the whole multiset."""
    pairs = []
    for t in sorted(set(m.nodes)):
        pairs.append((t, m.nodes.count(t)))
    return factored(1, pairs)


@dataclass(frozen=True)
class PartialProduct:
    index: int
    expansion: GegExpansion
    pd: PDVerdict


def partial_products(m: NodeMultiset, n: int) -> list:
    """P_i(t) = (t - t_1)...(t - t_i) for i = 1..len(m.nodes)-1, with their exact
    Gegenbauer expansions and positive-definiteness verdicts."""
    out = []
    for i, p in enumerate(_newton_basis(m)[1:], 1):
        e = gegenbauer_expand(n, p)
        out.append(PartialProduct(i, e, is_positive_definite(e)))
    return out


def error_sign_check(m: NodeMultiset, T: IntervalRegion) -> SignReport:
    """Sign of the full node polynomial on [-1,1] \\ T; the Hermite error
    formula needs it nonnegative there."""
    region = region_difference(closed_interval(-1, 1), T)
    return sign_on_region(node_polynomial(m), region)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class EnergyCertificate:
    potential: str
    dimension: int
    nodes: NodeMultiset
    avoided: IntervalRegion
    interpolant: Polynomial
    interpolant_expansion: GegExpansion
    divided_differences: tuple
    partial_products: tuple
    error_sign: SignReport
    lower_bound: object
    dual_bound: object
    valid: bool
    failure: str | None = None
    precision_digits: int | None = None
    code_energy: object = None
    gap: object = None

    def with_energy(self, energy) -> "EnergyCertificate":
        return dataclasses.replace(self, code_energy=energy, gap=energy - self.lower_bound)

    def to_json_dict(self) -> dict:
        num = _fmt_value
        return {
            "kind": "energy_lower_bound",
            "potential": self.potential,
            "claimed_absolutely_monotone": True,  # invlin, expt, riesz and gauss all are
            "dimension": self.dimension,
            "nodes": [str(t) for t in self.nodes.nodes],
            "T": str(self.avoided),
            "interpolant": [num(c) for c in self.interpolant.coeffs],
            "coefficients": [num(c) for c in self.interpolant_expansion.coeffs],
            "divided_differences": [num(d) for d in self.divided_differences],
            "partial_products_positive_definite": [
                pp.pd.positive_definite for pp in self.partial_products
            ],
            "error_sign": self.error_sign.verdict,
            "lower_bound": num(self.lower_bound),
            "dual_form": num(self.dual_bound),
            "code_energy": None if self.code_energy is None else num(self.code_energy),
            "gap": None if self.gap is None else num(self.gap),
            "valid": self.valid,
            "failure": self.failure,
            "precision_digits": self.precision_digits,
        }


def _fmt_value(x) -> str:
    if isinstance(x, Fraction) or isinstance(x, int):
        return str(x)
    return mp.nstr(x, 40)


def _is_negative(x, exact: bool) -> bool:
    if exact:
        return x < 0
    scale = max(mp.mpf(1), abs(x))
    return x < -scale / REL_TOL.denominator


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    scale = max(mp.mpf(1), abs(a), abs(b))
    return abs(a - b) <= scale / REL_TOL.denominator


def design_distribution():
    """The distance distribution {1, 1240, 31744, 80910, 31744, 1240, 1} of
    the 146880-point design, recovered from the quadrature identities."""
    return distribution_from_design(
        DESIGN_INNER_PRODUCTS, DESIGN_SIZE, 32, DESIGN_TAU
    )


def _working_precision(precision: int):
    """mp.workdps(precision) for a precision of at least one digit."""
    if precision < 1:
        raise ValueError(f"precision must be at least 1 digit, got {precision}")
    return mp.workdps(precision)


def energy_lower_bound(h: Potential, precision: int = 60) -> EnergyCertificate:
    """Certified h-energy lower bound for the class of T-avoiding codes with
    146880 points (T the symmetric avoided set).

    The bound value is N * sum over t != 1 of A_t h(t); it is cross-checked
    against N^2 ((H_7)_0 - H_7(1)/N), which must agree exactly (for exact
    potentials) by the design quadrature identity.
    """
    n = 32
    nodes = PAPER_NODES
    T = T_SYMMETRIC
    N = DESIGN_SIZE
    with _working_precision(precision):  # no effect on exact (Fraction) potentials
        dd = divided_differences(h, nodes)
        h7 = hermite_interpolant(h, nodes)
        expansion = gegenbauer_expand(n, h7)
        pps = tuple(partial_products(nodes, n))
        err = error_sign_check(nodes, T)
        dist = design_distribution()
        bound = N * sum(
            c * h.value(t) for t, c in dist.a.items() if t != 1
        )
        dual = N * N * expansion.coeffs[0] - N * h7(Fraction(1))

        failure = None
        for i, d in enumerate(dd):
            if _is_negative(d, h.exact_on_rationals):
                label = "h[t_1]" if i == 0 else f"h[t_1..t_{i + 1}]"
                failure = (
                    f"divided difference {label} = {_fmt_value(d)} is negative; "
                    "potential is not absolutely monotone on these nodes"
                )
                break
        if failure is None:
            for pp in pps:
                if not pp.pd.positive_definite:
                    failure = (
                        f"partial product P_{pp.index} has negative Gegenbauer "
                        f"coefficients at indices {list(pp.pd.negative_indices)}"
                    )
                    break
        if failure is None and err.negative_witness is not None:
            failure = (
                f"node polynomial is negative at t = {err.negative_witness} "
                "inside [-1,1] minus T"
            )
        if failure is None and not _close(bound, dual, h.exact_on_rationals):
            failure = (
                f"quadrature form {_fmt_value(bound)} and dual form "
                f"{_fmt_value(dual)} disagree"
            )
    return EnergyCertificate(
        potential=h.name,
        dimension=n,
        nodes=nodes,
        avoided=T,
        interpolant=h7,
        interpolant_expansion=expansion,
        divided_differences=tuple(dd),
        partial_products=pps,
        error_sign=err,
        lower_bound=bound,
        dual_bound=dual,
        valid=failure is None,
        failure=failure,
        precision_digits=None if h.exact_on_rationals else precision,
    )


def code_energy(hist: InnerProductHistogram, h: Potential, precision: int = 60):
    """Exact (or precision-bounded) sum of h over all ordered pairs of
    distinct code points, evaluated from the inner-product histogram."""
    with _working_precision(precision):
        total = 0
        for t, c in sorted(hist.counts.items()):
            try:
                total += c * h.value(t)
            except ZeroDivisionError:
                raise ValueError(f"potential {h.name} is singular at t = {t}")
        return total
