"""Exact-arithmetic integral closure and normality for monomial ideals.

The general machinery (Newton polyhedron membership with rational
certificates, closures, powers, normality) works for any nonzero monomial
ideal.  For closures of axis ideals (x_1^{l_1}, .., x_n^{l_n}) everything
specializes to integer combinatorics, and two further criteria become
available: quasinormality of the monoid generated by the reciprocals
1/l_i, and codimension-one regularity of the associated Rees-type
semigroup along its non-coordinate facet.
"""

from .lattice import (
    ConsistencyError,
    DimensionMismatch,
    MonomialIdeal,
    Vec,
    ZeroIdeal,
    format_ideal,
    format_vector,
    minimalize,
    parse_ideal,
    parse_vector,
)
from .newton import (
    INSIDE,
    OUTSIDE,
    MembershipCertificate,
    NewtonPolyhedron,
    NormalityVerdict,
    affinely_independent,
    caratheodory_reduce,
    integral_closure,
    is_integrally_closed,
    is_normal,
    power,
    power_closure,
)
from .ilambda import (
    CongruenceReduction,
    EQUIVALENT,
    FORWARD_ONLY,
    LambdaNormalityVerdict,
    LambdaSpec,
    congruence_reduce,
    decompose,
    ilambda_generators,
    is_normal_lambda,
    j_ideal,
)
from .monoid import (
    FAILURE,
    QUASINORMAL_ON_WINDOW,
    VACUOUS,
    WindowVerdict,
    almost_quasinormal,
    conductor,
    default_window_bound,
    in_M,
    quasinormal_window,
)
from .rees import (
    MonomialPrime,
    ReesSemigroup,
    express_on_facet,
    grp_facet_check,
    height_one_primes,
    r1_satisfied,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DimensionMismatch",
    "MonomialIdeal",
    "Vec",
    "ZeroIdeal",
    "format_ideal",
    "format_vector",
    "minimalize",
    "parse_ideal",
    "parse_vector",
    "INSIDE",
    "OUTSIDE",
    "MembershipCertificate",
    "NewtonPolyhedron",
    "NormalityVerdict",
    "affinely_independent",
    "caratheodory_reduce",
    "integral_closure",
    "is_integrally_closed",
    "is_normal",
    "power",
    "power_closure",
    "CongruenceReduction",
    "EQUIVALENT",
    "FORWARD_ONLY",
    "LambdaNormalityVerdict",
    "LambdaSpec",
    "congruence_reduce",
    "decompose",
    "ilambda_generators",
    "is_normal_lambda",
    "j_ideal",
    "FAILURE",
    "QUASINORMAL_ON_WINDOW",
    "VACUOUS",
    "WindowVerdict",
    "almost_quasinormal",
    "conductor",
    "default_window_bound",
    "in_M",
    "quasinormal_window",
    "MonomialPrime",
    "ReesSemigroup",
    "express_on_facet",
    "grp_facet_check",
    "height_one_primes",
    "r1_satisfied",
]
