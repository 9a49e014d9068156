"""Exact calculus of degree-extended differential forms on R^n.

Forms carry an extra degree -1 generator m with m^2 = 0 and constant exterior
derivative; the package implements the resulting algebra (products, d,
pullback), interior products and Lie derivatives for ordinary and extended
vector fields, a Grassmann-function representation used as an independent
cross-check, symplectic/Hamiltonian constructions, affine connections and
metrics with their compatibility theorem, and the chart-gluing analysis of
the general exterior derivative.  All coefficients are exact rationals.
"""

from .exterior import (
    OrdinaryForm,
    VectorField,
    ext_d,
    interior,
    lie,
    vf_bracket,
    wedge,
)
from .gform import GenForm, gd, ginterior_ordinary, glie_ordinary, gpullback, gwedge
from .gvector import (
    GenVectorField,
    d_split,
    embed_generalized,
    gv_bracket,
    gv_interior,
    gv_lie,
    modified_lie,
)
from .ring import ExpPoly, Polynomial
from .superspace import SuperFunction, from_super, super_d, super_interior, super_lie, to_super

__all__ = [
    "ExpPoly",
    "GenForm",
    "GenVectorField",
    "OrdinaryForm",
    "Polynomial",
    "SuperFunction",
    "VectorField",
    "d_split",
    "embed_generalized",
    "ext_d",
    "from_super",
    "gd",
    "ginterior_ordinary",
    "glie_ordinary",
    "gpullback",
    "gv_bracket",
    "gv_interior",
    "gv_lie",
    "gwedge",
    "interior",
    "lie",
    "modified_lie",
    "super_d",
    "super_interior",
    "super_lie",
    "to_super",
    "vf_bracket",
    "wedge",
]

__version__ = "0.1.0"
