"""Polynomials preserving entrywise-nonnegative matrices.

Exact-rational workbench: construct the p_a / f_a families, certify
membership at a given order by exhaustive combinatorial verification,
falsify membership at higher orders with concrete witness matrices, and
bracket the optimal coefficient.
"""

from .linalg import poly_eval, poly_eval_matrix
from .families import (
    BoundTable,
    bound_table,
    make_f_a,
    make_p_a,
    mu,
    safe_a_squared,
)
from .paths import (
    CertificateReport,
    build_certificate,
    enumerate_monomials,
    exact_nu,
    first_cycle,
    min_cycle_length,
    numeric_decomposition_check,
    partition_stats,
    phi,
    psi,
)
from .witness import WitnessReport, cycle_witness, family_witness
from .bracket import BoundEstimate, bracket_optimal_a
from .niep import jll_check, power_sum, transform_list

__all__ = [
    "BoundEstimate",
    "BoundTable",
    "CertificateReport",
    "WitnessReport",
    "bound_table",
    "bracket_optimal_a",
    "build_certificate",
    "cycle_witness",
    "enumerate_monomials",
    "exact_nu",
    "family_witness",
    "first_cycle",
    "jll_check",
    "make_f_a",
    "make_p_a",
    "min_cycle_length",
    "mu",
    "numeric_decomposition_check",
    "partition_stats",
    "phi",
    "poly_eval",
    "poly_eval_matrix",
    "power_sum",
    "psi",
    "safe_a_squared",
    "transform_list",
]
