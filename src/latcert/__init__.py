"""latcert: exact certificates for the minimal-vector spherical codes of
extremal even unimodular 32-dimensional lattices.

The package builds the 146880-vector norm-4 shells from doubly-even
self-dual [32,16,8] binary codes, verifies their spherical-design structure
with exact rational arithmetic, and emits machine-checked certificates for
the maximal-code, tight-design, and universal-energy optimality bounds.
"""

__version__ = "0.1.0"
