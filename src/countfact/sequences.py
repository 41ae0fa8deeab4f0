"""Scalar sequences driving every factorization of the counting matrix.

The counting matrix is the n x n lower-triangular all-ones matrix; its
square root is lower-triangular Toeplitz with the Taylor coefficients of
(1 - x)^(-1/2) on its diagonals.  This module computes those coefficients
r_k, the coefficients rtilde_k of the inverse series (1 - x)^(1/2), the
squared column norms d_j^2 of the square root, and the partial-sum
residuals alpha_n = sum_{j<n} r_j^2 - log(n)/pi that converge to
(euler_gamma + log 16) / pi.

Storage is 0-based throughout.  Quantities that are 1-indexed in the usual
mathematical convention (column norms d_j, residuals alpha_m) sit at
storage index j - 1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Hard-coded at 17 significant digits; no series evaluation needed.
EULER_GAMMA = 0.5772156649015329


def check_size(n, minimum: int = 1) -> int:
    """n as a Python int, refused before any work unless it is an integer
    (``operator.index``: 2.5 and 4.0 are refused) of at least ``minimum``."""
    try:
        size = operator.index(n)
    except TypeError:
        raise TypeError(f"n must be an integer, got {n!r}") from None
    if size < minimum:
        raise ValueError(f"n must be an integer >= {minimum}, got {size}")
    return size


def _compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Running sums in twice the working precision: the prefix form of
    cascaded summation (Ogita, Rump & Oishi, "Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005, Algorithm Sum2).

    p = cumsum(x) is corrected by the running sum of its exact rounding
    errors, e_i = (p_{i-1} - (p_i - z_i)) + (x_i - z_i) with
    z_i = p_i - p_{i-1} (TwoSum), all vectorized.  Each prefix of m terms,
    with exact sum s, comes out as res with

        |res - s| <= eps |s| + gamma_{m-1}^2 sum |x_i|,

    eps = 2**-53 and gamma_k = k eps / (1 - k eps).  For nonnegative input
    that is one rounding of s plus a term of order (m eps)^2, where plain
    cumsum drifts by up to m - 1 roundings.  Besides the input, at most
    four n-length arrays are live at once.
    """
    x = np.asarray(values, dtype=np.float64)
    p = np.cumsum(x)
    e = np.empty_like(p)
    e[:1] = 0.0
    e[1:] = p[:-1]
    z = p - e
    e -= p - z
    z -= x
    e -= z
    np.cumsum(e, out=e)
    p += e
    return p


# Block length of _compensated_sum: its working arrays, 256 KiB each, stay
# in cache.
_SUM_BLOCK = 1 << 15


def _compensated_sum(values: np.ndarray) -> float:
    """Last prefix of _compensated_cumsum(values), bitwise, with working
    arrays one block long instead of n.

    Each block's running sum and running error sum start from the previous
    block's last ones, which is the same sequential recursion.
    """
    x = np.asarray(values, dtype=np.float64)
    total = error = 0.0
    for start in range(0, x.size, _SUM_BLOCK):
        block = x[start:start + _SUM_BLOCK]
        p = np.cumsum(np.concatenate(([total], block)))
        z = p[1:] - p[:-1]
        e = p[:-1] - (p[1:] - z)
        e += block - z
        total = float(p[-1])
        error = float(np.cumsum(np.concatenate(([error], e)))[-1])
    return total + error


def _cosecant_sum(numerators: np.ndarray, denominator: int) -> float:
    """sum csc(pi num / den) over the numerators, by _compensated_sum, which
    rounds the exact sum of these positive terms once, up to a relative
    (m eps)^2.

    Each argument is rounded as fl(fl(pi num) / den), so every term is the
    one the direct expression 1 / np.sin(np.pi * num / den) gives.
    """
    terms = np.pi * numerators
    terms /= denominator
    np.sin(terms, out=terms)
    np.divide(1.0, terms, out=terms)
    return _compensated_sum(terms)


@functools.lru_cache(maxsize=64)
def _odd_cosecant_sum(n: int) -> float:
    """sum_{l=1..n} csc(pi (2l - 1) / (2n)), for an n already checked.

    Memoized for the last 64 sizes, one float each, more than a geometric
    sweep visits, so the group-algebra norm and the Mathias bound at one n
    sum once.
    """
    return _cosecant_sum(np.arange(1, 2 * n, 2), 2 * n)


def wallis_coeffs(n: int) -> np.ndarray:
    """First n Taylor coefficients of (1 - x)^(-1/2).

    r_0 = 1 and r_k = binom(2k, k) / 4^k, evaluated by the multiplicative
    recurrence r_k = r_{k-1} (2k - 1) / (2k); raw binomials would overflow
    64-bit integers at k = 33.  Wallis' inequality pins every entry:

        1 / (pi (k + 4/pi - 1)) <= r_k^2 <= 1 / (pi (k + 1/4)),  k >= 1.
    """
    n = check_size(n)
    k = np.arange(n, dtype=np.float64)
    factors = np.ones(n)
    factors[1:] = (2.0 * k[1:] - 1.0) / (2.0 * k[1:])
    return np.cumprod(factors)


def landau_alpha(n: int) -> float:
    """Partial-sum residual alpha_n = sum_{j=0}^{n-1} r_j^2 - log(n)/pi.

    Monotonically increasing in n with limit (EULER_GAMMA + log 16) / pi;
    the gap to the limit is positive and at most 1/(5n).
    """
    n = check_size(n)
    r = wallis_coeffs(n)
    return math.fsum(r * r) - math.log(n) / math.pi


@dataclass(frozen=True)
class CoefficientTable:
    """Read-only bundle of all scalar sequences at one matrix size.

    Attributes
    ----------
    n : int
        Matrix size.
    r : ndarray, shape (n,)
        Taylor coefficients of (1 - x)^(-1/2); r[0] = 1, strictly decreasing.
    rtilde : ndarray, shape (n,)
        Taylor coefficients of (1 - x)^(1/2): rtilde[0] = 1 and
        rtilde[j] = -r[j] / (2j - 1).  They are the Toeplitz coefficients of
        the inverse of the square-root factor, and their prefix sums
        telescope back onto r: sum_{t<=j} rtilde[t] = r[j].
    d_sq : ndarray, shape (n,)
        Squared column norms of the square root, d_j^2 = sum_{t<=n-j} r_t^2;
        the 1-indexed d_j^2 sits at index j - 1, so d_sq[-1] == 1.  Strictly
        decreasing, and d_j^2 - d_{j+1}^2 = r_{n-j}^2.
    alpha : ndarray, shape (n,)
        alpha_m = sum_{j<m} r_j^2 - log(m)/pi at index m - 1; strictly
        increasing within [1, 1.0663].

    rtilde and alpha are computed on first read; the square-root
    factorization needs neither.
    """

    n: int
    r: np.ndarray
    d_sq: np.ndarray

    @functools.cached_property
    def rtilde(self) -> np.ndarray:
        rtilde = np.empty(self.n)
        rtilde[0] = 1.0
        j = np.arange(1, self.n, dtype=np.float64)
        rtilde[1:] = -self.r[1:] / (2.0 * j - 1.0)
        rtilde.setflags(write=False)
        return rtilde

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        m = np.arange(1, self.n + 1, dtype=np.float64)
        alpha = self.d_sq[::-1] - np.log(m) / math.pi
        alpha.setflags(write=False)
        return alpha


@functools.lru_cache(maxsize=2)
def coefficient_table(n: int) -> CoefficientTable:
    """Build (and memoize) the coefficient table at size n.

    The table is immutable and safe to share across threads.  The cache
    holds the two most recent sizes, 16n bytes each (32n once rtilde and
    alpha are read), because a sweep point looks its size up at most twice;
    rebuilding an evicted size costs O(n).
    """
    r = wallis_coeffs(n)
    d_sq = _compensated_cumsum(r * r)[::-1].copy()
    for arr in (r, d_sq):
        arr.setflags(write=False)
    return CoefficientTable(n=n, r=r, d_sq=d_sq)


@dataclass(frozen=True)
class NamedConstants:
    """Closed-form limits of the error-norm residuals (natural log throughout).

    Every residual in this package subtracts log(n)/pi; these are the
    constants the residuals converge to.
    """

    euler_gamma: float
    alpha_infinity: float  # (gamma + log 16) / pi, limit of alpha_n
    nsr_maxse_const: float  # (gamma + log 8) / pi = alpha_infinity - log(2)/pi
    nsr_meanse_const: float  # (gamma + log 16 - 1) / pi = alpha_infinity - 1/pi
    sqrt_meanse_const: float  # alpha_infinity - 1/(2 pi)
    ga_const: float  # 1/2 + (gamma + log(8/pi)) / pi
    lb_const: float  # (gamma + log(16/pi)) / pi
    mathias_lb_const: float  # (gamma + log(8/pi)) / pi


CONSTANTS = NamedConstants(
    euler_gamma=EULER_GAMMA,
    alpha_infinity=(EULER_GAMMA + math.log(16.0)) / math.pi,
    nsr_maxse_const=(EULER_GAMMA + math.log(8.0)) / math.pi,
    nsr_meanse_const=(EULER_GAMMA + math.log(16.0) - 1.0) / math.pi,
    sqrt_meanse_const=(EULER_GAMMA + math.log(16.0)) / math.pi - 0.5 / math.pi,
    ga_const=0.5 + (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi,
    lb_const=(EULER_GAMMA + math.log(16.0 / math.pi)) / math.pi,
    mathias_lb_const=(EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi,
)
