"""Exact evaluation of divisor-sum convolution identities via eta-quotient
cusp bases and Eisenstein series, with brute-force oracles throughout."""

from .arith import series_product, sigma, sigma_at, sigma_sieve, sigma_table
from .convolution import (
    ConvolutionFormula,
    brute_force_W,
    brute_force_W_table,
    evaluate_formula,
    target_series,
    verify_formula,
)
from .eta import (
    EtaQuotient,
    check_admissibility,
    euler_F,
    expand_eta_quotient,
    expand_eta_quotients,
    search_eta_quotients,
)
from .modforms import (
    Basis,
    BasisElement,
    build_basis,
    dim_E4,
    dim_S4,
    eisenstein_L,
    eisenstein_M,
    express_in_basis,
)
from .qseries import QSeries
from .representations import (
    octonary_convolution,
    octonary_count_table,
    octonary_formula_table,
    r4,
    r4_lattice,
)

__all__ = [
    "Basis",
    "BasisElement",
    "ConvolutionFormula",
    "EtaQuotient",
    "QSeries",
    "brute_force_W",
    "brute_force_W_table",
    "build_basis",
    "check_admissibility",
    "dim_E4",
    "dim_S4",
    "eisenstein_L",
    "eisenstein_M",
    "euler_F",
    "evaluate_formula",
    "expand_eta_quotient",
    "expand_eta_quotients",
    "express_in_basis",
    "octonary_convolution",
    "octonary_count_table",
    "octonary_formula_table",
    "r4",
    "r4_lattice",
    "search_eta_quotients",
    "series_product",
    "sigma",
    "sigma_at",
    "sigma_sieve",
    "sigma_table",
    "target_series",
    "verify_formula",
]
