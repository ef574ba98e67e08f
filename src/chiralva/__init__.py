"""Exact symbolic kernel for vertex algebras without vacuum, chiral algebras
over open subsets of the complex line, and the equivalence between them.

All arithmetic is exact over Q and Q[z]; every axiom checker sweeps a finite
safe window and closes the remaining integer indices symbolically.
"""

from .exact import Q, binom
from .formal import (
    DeltaAtom,
    Deriv,
    ExponentBox,
    IotaPow,
    LaurentWindow,
    Monomial,
    Product,
    Sum,
    check_identity,
    delta_binomial,
    delta_ratio,
    expand,
    fundamental_delta_property,
    iota_expand,
    mono,
)
from .vertex import (
    VAData,
    apply_d,
    check_d_derivative,
    check_jacobi,
    check_skew_symmetry,
    check_truncation,
    make_commutative_va,
    tensor_with_ox,
    vertex_coeff,
)
from .chiral import (
    ChiralData,
    ChiralGenerator,
    check_chiral_jacobi,
    check_chiral_skew,
    check_dmodule_morphism,
    compose_left,
    compose_right,
    mu_eval,
    sigma12_triple,
)
from .equivalence import chiral_to_va, roundtrip_check, va_to_chiral

__all__ = [
    "Q", "binom",
    "DeltaAtom", "Deriv", "ExponentBox", "IotaPow", "LaurentWindow", "Monomial",
    "Product", "Sum", "check_identity", "delta_binomial", "delta_ratio", "expand",
    "fundamental_delta_property", "iota_expand", "mono",
    "VAData", "apply_d", "check_d_derivative", "check_jacobi", "check_skew_symmetry",
    "check_truncation", "make_commutative_va", "tensor_with_ox", "vertex_coeff",
    "ChiralData", "ChiralGenerator", "check_chiral_jacobi", "check_chiral_skew",
    "check_dmodule_morphism", "compose_left", "compose_right", "mu_eval", "sigma12_triple",
    "chiral_to_va", "roundtrip_check", "va_to_chiral",
]

__version__ = "0.1.0"
