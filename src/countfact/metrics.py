"""Error norms of a factorization: MaxSE = |L|_{2->inf} |R|_{1->2} and
MeanSE = (1/sqrt(n)) |L|_F |R|_{1->2}, their closed forms, and the
asymptotic residual constants they approach."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .factorizations import GROUP_ALGEBRA, NSR, SQRT, Factorization, factorize
from .sequences import CONSTANTS, _group_algebra_norm_sq, check_size, wallis_coeffs

MAXSE = "maxse"
MEANSE = "meanse"
METRICS = (MAXSE, MEANSE)


def residual_offset(n: int) -> float:
    """log(n)/pi (natural log): what every residual subtracts."""
    return math.log(n) / math.pi


def maxse(f: Factorization) -> float:
    """Worst-coordinate error norm of the factorization at unit noise, as the
    root of one product: equal squared norms a (sqrt, group-algebra) give a exactly."""
    return math.sqrt(f.max_row_sq_left * f.max_col_sq_right)


def meanse(f: Factorization) -> float:
    """Mean-squared error norm of the factorization at unit noise."""
    return math.sqrt(f.frobenius_sq_left / f.n * f.max_col_sq_right)


def closed_form_maxse_sqrt(n: int) -> float:
    """MaxSE of the square-root factorization, sum_{j<n} r_j^2, as the
    math.fsum of the running product's squares: an O(n) oracle for the
    O(1) value the factorization reports."""
    return math.fsum(wallis_coeffs(n) ** 2)


def landau_alpha(n: int) -> float:
    """Partial-sum residual alpha_n = sum_{j=0}^{n-1} r_j^2 - log(n)/pi.

    Monotonically increasing in n with limit (EULER_GAMMA + log 16) / pi;
    the gap to the limit is positive and at most 1/(5n).
    """
    return closed_form_maxse_sqrt(n) - residual_offset(n)


def closed_form_maxse_group_algebra(n: int) -> float:
    """MaxSE of the group-algebra factorization:

        1/2 + (1/2n) sum_{l=1..n} csc(pi (2l - 1) / (2n)).

    Its MeanSE coincides because all rows of the left factor share one norm.
    """
    return _group_algebra_norm_sq(check_size(n))


_PREDICTED = {
    (SQRT, MAXSE): CONSTANTS.alpha_infinity,
    (SQRT, MEANSE): CONSTANTS.sqrt_meanse_const,
    (NSR, MAXSE): CONSTANTS.nsr_maxse_const,
    (NSR, MEANSE): CONSTANTS.nsr_meanse_const,
    (GROUP_ALGEBRA, MAXSE): CONSTANTS.ga_const,
    (GROUP_ALGEBRA, MEANSE): CONSTANTS.ga_const,
}


def predicted_residual(method: str, metric: str) -> float:
    """Asymptotic limit of (metric value) - log(n)/pi for the method."""
    try:
        return _PREDICTED[(method, metric)]
    except KeyError:
        raise ValueError(f"unknown method/metric pair {(method, metric)!r}") from None


@dataclass(frozen=True)
class ErrorReport:
    """MaxSE/MeanSE of one (method, n), residuals, and the constants the
    residuals converge to."""

    method: str
    n: int
    maxse: float
    meanse: float
    maxse_residual: float
    meanse_residual: float
    predicted_maxse_residual: float
    predicted_meanse_residual: float


def error_report(method: str, n: int) -> ErrorReport:
    """Evaluate both error norms for one method and size."""
    f = factorize(method, n)
    offset = residual_offset(n)
    value_max = maxse(f)
    value_mean = meanse(f)
    return ErrorReport(
        method=method,
        n=n,
        maxse=value_max,
        meanse=value_mean,
        maxse_residual=value_max - offset,
        meanse_residual=value_mean - offset,
        predicted_maxse_residual=predicted_residual(method, MAXSE),
        predicted_meanse_residual=predicted_residual(method, MEANSE),
    )
