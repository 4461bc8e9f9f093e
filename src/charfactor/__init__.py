"""Exact q-series verification of character-sum factorization identities.

The package certifies, coefficient by coefficient and in exact integer
arithmetic, that certain infinite products equal alternating sums of
Virasoro minimal-model characters, and scans the sign behaviour of the
product coefficient streams at distance n.
"""

from .minimal_model import (
    CharacterLabel,
    InvalidLabel,
    InvalidModel,
    MinimalModel,
    bosonic_numerator,
    central_charge,
    character,
    conformal_dim,
    normalized_character,
)
from .pairs import ContributingPair, LemmaViolation, contributing_pairs
from .params import (
    FactorizationParams,
    ParameterError,
    ProductParams,
    Scheme,
    canonicalize,
    find_realizations,
    validate,
)
from .scanner import (
    Covered,
    SignReport,
    SignViolation,
    covered_case,
    iter_canonical_quadruples,
    phi_series,
    psi_series,
    scan,
    support_residues,
)
from .series import (
    SeriesError,
    ShiftedSeries,
    SignedMonomial,
    euler_product,
    inverse_euler_power,
    partition_series,
    pochhammer,
    quintuple_product,
    triple_product,
)
from .verifier import (
    IdentityCertificate,
    IdentityKind,
    applicability_error,
    build_lhs,
    build_rhs,
    iter_applicable_params,
    iter_scheme_params,
    pair_sign,
    prefactor_exponent,
    verify,
    verify_remark_products,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterLabel",
    "ContributingPair",
    "Covered",
    "FactorizationParams",
    "IdentityCertificate",
    "IdentityKind",
    "InvalidLabel",
    "InvalidModel",
    "LemmaViolation",
    "MinimalModel",
    "ParameterError",
    "ProductParams",
    "Scheme",
    "SeriesError",
    "ShiftedSeries",
    "SignReport",
    "SignViolation",
    "SignedMonomial",
    "applicability_error",
    "bosonic_numerator",
    "build_lhs",
    "build_rhs",
    "canonicalize",
    "central_charge",
    "character",
    "conformal_dim",
    "contributing_pairs",
    "covered_case",
    "euler_product",
    "find_realizations",
    "inverse_euler_power",
    "iter_applicable_params",
    "iter_canonical_quadruples",
    "iter_scheme_params",
    "normalized_character",
    "pair_sign",
    "partition_series",
    "phi_series",
    "pochhammer",
    "prefactor_exponent",
    "psi_series",
    "quintuple_product",
    "scan",
    "support_residues",
    "triple_product",
    "validate",
    "verify",
    "verify_remark_products",
    "__version__",
]
