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

and checks the design identity sum_t A_t P_i(t) = N (P_i)_0 once, exactly, for
the Newton basis P_0 = 1, P_1..P_7, so the bound's quadrature form equals
N^2 ((H_7)_0 - H_7(1)/N) for every potential.  The certificate fails at the
first of these checks that fails, in this order, and then at an exact
quadrature form that differs from the dual form.  Its verdict on a code is one
method, ``EnergyCertificate.on_shell``: the code's energy and gap, the bound's
hypotheses (dimension 32, 146880 points, no inner product in T) and, for an
exact potential, its conclusion.  Rational potentials run exactly,
without mpmath; the others (``expt``, ``gauss``, odd ``riesz``) run in mpmath,
and have their divided-difference signs read, at a configurable precision
(default 60 digits, at most MAX_PRECISION).  mpmath is imported only when such
a potential is built, or a value that is not a Fraction is formatted.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from contextlib import nullcontext
from fractions import Fraction

from .exactmath import (
    FactoredPolynomial,
    IntervalRegion,
    Polynomial,
    SignReport,
    closed_interval,
    open_interval,
    rat,
    region_difference,
    region_union,
    sign_on_region,
)
from .gegenbauer import (MAX_PRECISION, MAX_RIESZ_EXPONENT, InnerProductHistogram,
                         distribution_from_design, gegenbauer_expand,
                         histogram_from_distribution, is_positive_definite)

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

class NodeMultiset(namedtuple("NodeMultiset", "nodes")):
    """Interpolation nodes, ascending, each repeated at most twice (only
    first derivatives of potentials are available)."""

    __slots__ = ()

    def __new__(cls, nodes):
        ns = tuple(rat(t) for t in nodes)
        if list(ns) != sorted(ns):
            raise ValueError("nodes must be ascending")
        for t in set(ns):
            if ns.count(t) > 2:
                raise ValueError(f"node {t} repeated more than twice; unsupported")
        return super().__new__(cls, ns)


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


class Potential(namedtuple(
    "Potential", "name value derivative exact_on_rationals absolutely_monotone"
)):
    """Interaction potential with value and first-derivative evaluators.

    When exact_on_rationals is set, both evaluators map Fraction to
    Fraction and every downstream certificate quantity is exact.
    absolutely_monotone states that every derivative of h is >= 0 on
    [-1, 1); it is the premise of the universal bound, known by theorem for
    the built-in potentials, and the JSON record reports it.  A black-box
    evaluator cannot be checked for it: the certificate checks the finite
    conditions it actually uses.
    """

    __slots__ = ()


def _mpf(t: Fraction):
    import mpmath as mp
    return mp.mpf(t.numerator) / t.denominator


def invlin() -> Potential:
    """h(t) = 1/(2-2t), the canonical exact test potential: riesz(2) under
    its own name; absolutely monotone, as h^(k)(t) = 2^k k! (2-2t)^(-k-1) > 0
    for t < 1."""
    return riesz(2)._replace(name="invlin")


def riesz(s: int) -> Potential:
    """Riesz-type potential (2-2t)^(-s/2), for 1 <= s <= MAX_RIESZ_EXPONENT;
    exact for even s.  Absolutely monotone, as its k-th derivative is
    2^k (s/2)(s/2 + 1)...(s/2 + k - 1) (2-2t)^(-s/2-k) > 0 for t < 1."""
    if not 1 <= s <= MAX_RIESZ_EXPONENT:
        raise ValueError(f"riesz exponent must be in 1..{MAX_RIESZ_EXPONENT}, got {s}")
    if s % 2 == 0:
        return Potential(
            f"riesz:{s}",
            lambda t: (2 - 2 * rat(t)) ** (-(s // 2)),
            lambda t: s * (2 - 2 * rat(t)) ** (-(s // 2) - 1),
            exact_on_rationals=True,
            absolutely_monotone=True,
        )
    import mpmath as mp
    return Potential(
        f"riesz:{s}",
        lambda t: mp.power(2 - 2 * _mpf(rat(t)), mp.mpf(-s) / 2),
        lambda t: s * mp.power(2 - 2 * _mpf(rat(t)), mp.mpf(-s) / 2 - 1),
        exact_on_rationals=False,
        absolutely_monotone=True,
    )


def expt() -> Potential:
    """h(t) = e^t; absolutely monotone, as every derivative is e^t > 0."""
    import mpmath as mp
    return Potential(
        "expt",
        lambda t: mp.exp(_mpf(rat(t))),
        lambda t: mp.exp(_mpf(rat(t))),
        exact_on_rationals=False,
        absolutely_monotone=True,
    )


def gauss(alpha) -> Potential:
    """Gaussian potential e^(-alpha (2-2t)) for alpha > 0; absolutely
    monotone, as its k-th derivative is (2 alpha)^k e^(-alpha (2-2t)) > 0."""
    a = rat(alpha)
    if a <= 0:
        raise ValueError("gauss parameter must be positive")
    import mpmath as mp
    return Potential(
        f"gauss:{a}",
        lambda t: mp.exp(-_mpf(a) * (2 - 2 * _mpf(rat(t)))),
        lambda t: 2 * _mpf(a) * mp.exp(-_mpf(a) * (2 - 2 * _mpf(rat(t)))),
        exact_on_rationals=False,
        absolutely_monotone=True,
    )


# what may follow each potential name in a spec: nothing, ':' and decimal
# digits, or ':' and p or p/q in decimal digits
_SPEC_ARGUMENT = {"invlin": "", "expt": "", "riesz": ":[0-9]+", "gauss": ":[0-9]+(/[0-9]+)?"}
_RIESZ_CAP = str(MAX_RIESZ_EXPONENT)


def potential_by_spec(spec: str) -> Potential:
    """The potential of 'invlin', 'expt', 'riesz:<s>' (s in decimal digits,
    at most MAX_RIESZ_EXPONENT) or 'gauss:<alpha>' (alpha = p or p/q in
    decimal digits, positive); ValueError naming any other spec, before any
    potential is built."""
    name, _, arg = spec.partition(":")
    if name not in _SPEC_ARGUMENT:
        raise ValueError(f"unknown potential {spec!r}")
    if not re.fullmatch(_SPEC_ARGUMENT[name], spec[len(name):]):
        raise ValueError(f"bad potential {spec!r}: expected invlin, expt, "
                         "riesz:<digits> or gauss:<p/q>")
    if name == "invlin":
        return invlin()
    if name == "expt":
        return expt()
    if name == "riesz":
        # compared as digits: int() of a long string is slow, or refused
        s = arg.lstrip("0")
        if not s or (len(s), s) > (len(_RIESZ_CAP), _RIESZ_CAP):
            raise ValueError(f"bad potential {spec!r}: the riesz exponent must be "
                             f"in 1..{MAX_RIESZ_EXPONENT}")
        return riesz(int(s))
    alpha = rat(arg)  # its message names a p/0
    if alpha <= 0:
        raise ValueError(f"bad potential {spec!r}: the gauss parameter must be positive")
    return gauss(alpha)


# ---------------------------------------------------------------------------
# Hermite interpolation


def divided_differences(h: Potential, m: NodeMultiset) -> list:
    """Top diagonal h[t_1], h[t_1,t_2], ..., h[t_1..t_k] of the Hermite
    divided-difference table; entries at repeated nodes are seeded by h'."""
    z = m.nodes
    column = [h.value(t) for t in z]  # h[t_i..t_i+j] at step j, for each i
    top = column[:1]
    for j in range(1, len(z)):
        column = [h.derivative(z[i]) if z[i + j] == z[i]
                  else (column[i + 1] - column[i]) / (z[i + j] - z[i])
                  for i in range(len(z) - j)]
        top.append(column[0])
    return top


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
    return _newton_form(divided_differences(h, m), _newton_basis(m))


def _newton_form(dd: list, basis: list) -> Polynomial:
    """The sum of the divided differences dd times the Newton basis."""
    poly = Polynomial()
    for d, p in zip(dd, basis):
        poly = poly + p.scale(d)
    return poly


def node_polynomial(m: NodeMultiset) -> FactoredPolynomial:
    """The monic product of (t - t_i) over the whole multiset."""
    return FactoredPolynomial(1, sorted(Counter(m.nodes).items()))


PartialProduct = namedtuple("PartialProduct", "index expansion pd")


def partial_products(m: NodeMultiset, n: int) -> list:
    """P_i(t) = (t - t_1)...(t - t_i) for i = 1..len(m.nodes)-1, with their exact
    Gegenbauer expansions and positive-definiteness verdicts."""
    return _expanded_products(_newton_basis(m), n)


def _expanded_products(basis: list, n: int) -> list:
    """The PartialProduct of each polynomial after the first of a Newton
    basis: its exact Gegenbauer expansion in dimension n and its
    positive-definiteness verdict."""
    out = []
    for i, p in enumerate(basis[1:], 1):
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


class EnergyCertificate(namedtuple(
    "EnergyCertificate",
    "potential absolutely_monotone dimension nodes avoided interpolant"
    " interpolant_expansion divided_differences partial_products error_sign"
    " lower_bound dual_bound valid failure precision_digits code_energy gap",
    defaults=(None, None, None, None),
)):
    """An energy lower-bound certificate of the named potential; the bounds
    are Fractions for an exact potential and mpmath numbers otherwise."""

    __slots__ = ()

    def on_shell(self, h: Potential, dim: int, hist: InnerProductHistogram) -> "EnergyCertificate":
        """This certificate of the potential h, with the energy and gap of a
        code in dimension dim with the ordered-pair histogram hist, the
        energy summed at the certificate's precision_digits.  An
        invalid certificate keeps its failure; a valid one fails at the
        first hypothesis of the bound the code fails, with the code's value
        (the certificate's dimension, DESIGN_SIZE points, no inner product
        in the avoided set), then, for an exact potential, at its conclusion:
        an energy below the bound (a rounded sum is not checked).  Under a
        rounded potential the design's own histogram takes the bound's sum
        as its energy, which it is, with no rounding residue."""
        attained = not h.exact_on_rationals and hist == histogram_from_distribution(
            design_distribution(), DESIGN_SIZE)
        digits = {} if self.precision_digits is None else {"precision": self.precision_digits}
        energy = self.lower_bound if attained else code_energy(hist, h, **digits)
        failure = self.failure or (
            (dim != self.dimension
             and f"shell dimension is {dim}; the bound needs {self.dimension}")
            or (hist.n_points != DESIGN_SIZE
                and f"shell has {hist.n_points} points; the bound needs {DESIGN_SIZE}")
            or next((f"shell has inner product {t} in T = {self.avoided}"
                     for t in sorted(hist.counts) if self.avoided.contains(t)), None)
            or (h.exact_on_rationals and energy < self.lower_bound
                and f"code energy {energy} is below the lower bound {self.lower_bound}")
            or None
        )
        return self._replace(code_energy=energy, gap=energy - self.lower_bound,
                             valid=failure is None, failure=failure)

    def to_json_dict(self) -> dict:
        num = _fmt_value
        return {
            "kind": "energy_lower_bound",
            "potential": self.potential,
            "claimed_absolutely_monotone": self.absolutely_monotone,
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
    import mpmath as mp
    return mp.nstr(x, 40)


def design_distribution():
    """The distance distribution {1, 1240, 31744, 80910, 31744, 1240, 1} of
    the 146880-point design, recovered from the quadrature identities."""
    return distribution_from_design(
        DESIGN_INNER_PRODUCTS, DESIGN_SIZE, 32, DESIGN_TAU
    )


def _working_precision(precision: int, h: Potential):
    """mp.workdps(precision) for a precision of 1..MAX_PRECISION digits, or
    no context for an exact potential, which never reads it."""
    if precision < 1:
        raise ValueError(f"precision must be at least 1 digit, got {precision}")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be at most {MAX_PRECISION} digits, got {precision}")
    if h.exact_on_rationals:
        return nullcontext()
    import mpmath as mp
    return mp.workdps(precision)


def energy_lower_bound(h: Potential, precision: int = 60) -> EnergyCertificate:
    """Certified h-energy lower bound for the class of T-avoiding codes with
    146880 points (T the symmetric avoided set).

    The bound value is N * sum over t != 1 of A_t h(t); by the design identity,
    checked exactly, it equals the dual form N^2 ((H_7)_0 - H_7(1)/N).
    """
    n = 32
    nodes = PAPER_NODES
    T = T_SYMMETRIC
    N = DESIGN_SIZE
    with _working_precision(precision, h):
        dd = divided_differences(h, nodes)
        basis = _newton_basis(nodes)
        h7 = _newton_form(dd, basis)  # h and h' evaluated once per node
        expansion = gegenbauer_expand(n, h7)
        pps = tuple(_expanded_products(basis, n))
        err = error_sign_check(nodes, T)
        dist = design_distribution()
        bound = N * sum(
            c * h.value(t) for t, c in dist.a.items() if t != 1
        )
        dual = N * N * expansion.coeffs[0] - N * h7(Fraction(1))
        sums = [sum(c * p(t) for t, c in dist.a.items()) for p in basis]  # sum of A_t P_i(t)
        heads = [N] + [N * pp.expansion.coeffs[0] for pp in pps]  # N (P_i)_0
        failure = (
            next((f"divided difference h[t_1{f'..t_{i + 1}' if i else ''}] = "
                  f"{_fmt_value(d)} is negative; potential is not absolutely monotone "
                  "on these nodes" for i, d in enumerate(dd) if d < 0), None)
            or next((f"partial product P_{pp.index} has negative Gegenbauer coefficients "
                     f"at indices {list(pp.pd.negative_indices)}"
                     for pp in pps if not pp.pd.positive_definite), None)
            or (err.negative_witness is not None and f"node polynomial is negative at "
                f"t = {err.negative_witness} inside [-1,1] minus T")
            or next((f"design identity fails for P_{i}: sum of A_t P_{i}(t) = {s}, "
                     f"N (P_{i})_0 = {c}" for i, (s, c) in enumerate(zip(sums, heads))
                     if s != c), None)
            or (h.exact_on_rationals and bound != dual and f"quadrature form "
                f"{_fmt_value(bound)} and dual form {_fmt_value(dual)} disagree")
            or None
        )
    return EnergyCertificate(
        potential=h.name,
        absolutely_monotone=h.absolutely_monotone,
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
    with _working_precision(precision, h):
        total = 0
        for t, c in sorted(hist.counts.items()):
            try:
                total += c * h.value(t)
            except ZeroDivisionError:
                raise ValueError(f"potential {h.name} is singular at t = {t}")
        return total
