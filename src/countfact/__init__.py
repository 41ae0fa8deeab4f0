"""Explicit factorizations of the prefix-sum counting matrix, their exact
MaxSE/MeanSE error norms, matching lower bounds, and a seeded simulator of
the Gaussian mechanism built on them.

The package namespace is the public surface: the names the acceptance
tests import and the README's Library section uses.  Everything else is
reached through its submodule (``countfact.bounds.bound_report``, ...).
"""

from .sequences import CONSTANTS, coefficient_table
from .structmat import counting_matrix
from .factorizations import (
    GROUP_ALGEBRA,
    NSR,
    SQRT,
    factorize,
    nsr_factorization,
    nsr_row_norms_sq,
    verify_reconstruction,
)
from .metrics import (
    closed_form_maxse_group_algebra,
    closed_form_maxse_sqrt,
    error_report,
    landau_alpha,
    maxse,
    meanse,
    residual_offset,
)
from .bounds import mathias_lower_bound, nuclear_lower_bound
from .mechanism import MechanismConfig, estimate_errors

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "coefficient_table",
    "landau_alpha",
    "counting_matrix",
    "GROUP_ALGEBRA",
    "NSR",
    "SQRT",
    "factorize",
    "nsr_factorization",
    "nsr_row_norms_sq",
    "verify_reconstruction",
    "closed_form_maxse_group_algebra",
    "closed_form_maxse_sqrt",
    "error_report",
    "maxse",
    "meanse",
    "residual_offset",
    "mathias_lower_bound",
    "nuclear_lower_bound",
    "MechanismConfig",
    "estimate_errors",
]
