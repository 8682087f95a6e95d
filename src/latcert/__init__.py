"""latcert: exact certificates for the minimal-vector spherical codes of
extremal even unimodular 32-dimensional lattices.

The package builds the 146880-vector norm-4 shells from doubly-even
self-dual [32,16,8] binary codes, verifies their spherical-design structure
with exact rational arithmetic, and emits machine-checked certificates for
the maximal-code, tight-design, and universal-energy optimality bounds.
"""

from .exactmath import (
    FactoredPolynomial,
    Interval,
    IntervalRegion,
    Polynomial,
    SignReport,
    factored,
    parse_region,
    sign_on_region,
)
from .gegenbauer import (
    GegExpansion,
    gegenbauer_expand,
    gegenbauer_poly,
    is_positive_definite,
    weight_moment,
)
from .gf2codes import (
    BinaryCode,
    CodeReport,
    code_report,
    extended_quadratic_residue_32,
    load_generator_matrix,
    reed_muller_2_5,
)
from .lattice32 import (
    Shell,
    build_shell,
    check_extremal,
    load_shell,
    save_shell,
    venkov_e22,
    venkov_sample,
    witness_pair,
)
from .sphercode import (
    ALL,
    DistanceDistribution,
    InnerProductHistogram,
    MomentVector,
    check_distance_invariance,
    design_strength,
    distance_distribution_at,
    distribution_from_design,
    histogram,
    moments,
    quadrature_check,
)
from .lpcert import (
    BoundCertificate,
    builtin_polynomial,
    builtin_polynomials,
    certify_max_code,
    certify_min_design,
)
from .energycert import (
    EnergyCertificate,
    NodeMultiset,
    PAPER_NODES,
    Potential,
    T_SYMMETRIC,
    code_energy,
    divided_differences,
    energy_lower_bound,
    error_sign_check,
    hermite_interpolant,
    invlin,
    partial_products,
)

__version__ = "0.1.0"
