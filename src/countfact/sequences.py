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


# Block length of the compensated kernels, which no value depends on: a
# block only cuts one sequential recursion into pieces.  At 2^14 one sum
# holds at most five 128 KiB blocks, half what 2^15 holds, as fast: the odd
# sums for n = 2^2..2^20 took 39-40 ms against 37-44 ms at 2^15 and
# 40-42 ms at 2^13 (medians of 9, 2-core VM).
_SUM_BLOCK = 1 << 14


def _blocks(values):
    """Consecutive slices of an array or a range, _SUM_BLOCK long but the last."""
    return (values[i:i + _SUM_BLOCK] for i in range(0, len(values), _SUM_BLOCK))


def _compensated_sum(blocks, out=None) -> float:
    """Sum of the values in an iterable of consecutive blocks, each at most
    _SUM_BLOCK long, in twice the working precision: cascaded summation
    (Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26(6), 2005, Algorithm Sum2).

    Each running sum p_i is corrected by the running sum of the exact
    rounding errors, e_i = (p_{i-1} - (p_i - z_i)) + (x_i - z_i) with
    z_i = p_i - p_{i-1} (TwoSum).  Each prefix of m terms, with exact sum
    s, comes out as res with

        |res - s| <= eps |s| + gamma_{m-1}^2 sum |x_i|,

    eps = 2**-53 and gamma_k = k eps / (1 - k eps): for nonnegative input,
    one rounding of s plus a term of order (m eps)^2, where plain cumsum
    drifts by up to m - 1 roundings.  Each block's two running sums start
    from the previous block's last ones, the same sequential recursion in
    three working arrays one block long.  The corrected running sums go to
    ``out`` when given (any view, a reversed one too).
    """
    import numpy as np
    p, e, z = np.empty(_SUM_BLOCK + 1), np.empty(_SUM_BLOCK + 1), np.empty(_SUM_BLOCK)
    total = error = 0.0
    start = 0
    for x in blocks:
        m = x.size
        pb, eb, zb = p[:m + 1], e[:m + 1], z[:m]
        pb[0], eb[0] = total, error
        pb[1:] = x
        np.cumsum(pb, out=pb)
        np.subtract(pb[1:], pb[:-1], out=zb)
        np.subtract(pb[1:], zb, out=eb[1:])
        np.subtract(pb[:-1], eb[1:], out=eb[1:])
        zb -= x
        eb[1:] -= zb
        np.cumsum(eb, out=eb)
        total, error = pb[m], eb[m]
        if out is not None:
            np.add(pb[1:], eb[1:], out=out[start:start + m])
        start += m
    return float(total + error)


@functools.lru_cache(maxsize=64)
def _odd_cosecant_sum(n: int) -> float:
    """sum_{l=1..n} csc(pi (2l - 1) / (2n)), for an n already checked, one
    block of terms at a time, by _compensated_sum, which rounds the exact
    sum of these positive terms once, up to a relative (m eps)^2.

    Each argument is rounded as fl(fl(pi (2l - 1)) / 2n), so every term is
    the one the direct expression 1 / np.sin(np.pi * (2l - 1) / (2n))
    gives.  Memoized for the last 64 sizes, one float each: a sweep without
    nsr points reads the group-algebra norm and the Mathias bound at one n
    one after the other, so it sums each size once, however many it visits.
    """
    import numpy as np

    def terms():
        for part in _blocks(range(1, 2 * n, 2)):
            t = np.arange(part.start, part.stop, part.step, dtype=np.float64)
            t *= np.pi
            t /= 2 * n
            np.sin(t, out=t)
            yield np.divide(1.0, t, out=t)

    return _compensated_sum(terms())


def _group_algebra_norm_sq(n: int) -> float:
    """1/2 + _odd_cosecant_sum(n) / 2n: the squared norm of every row of the
    group-algebra left factor, for an n already checked."""
    return 0.5 + _odd_cosecant_sum(n) / (2 * n)


def _wallis_blocks(n: int):
    """r_0..r_{n-1} (see wallis_coeffs) in consecutive _SUM_BLOCK blocks
    aligned at index 0, each written over the last in one work array, so a
    consumer may overwrite a block it has read.

    Each block holds the quotients (2k - 1) / (2k), its first one times the
    last product of the block before, and is then one running product: the
    multiplications of one whole-array running product, in its order.
    """
    import numpy as np
    size = min(n, _SUM_BLOCK)
    odd = np.arange(-1.0, 2.0 * size - 2.0, 2.0)  # 2k - 1 at index k of the block
    work = np.empty(size)
    last = 1.0
    for start in range(0, n, _SUM_BLOCK):
        r = work[:min(_SUM_BLOCK, n - start)]
        skip = 1 if start == 0 else 0  # no quotient at k = 0: r_0 = 1
        np.add(odd[skip:r.size], 1.0, out=r[skip:])
        np.divide(odd[skip:r.size], r[skip:], out=r[skip:])
        r[0] = last * r[0] if start else 1.0
        np.multiply.accumulate(r, out=r)
        last = r[-1]
        yield r
        odd += 2.0 * _SUM_BLOCK


def wallis_coeffs(n: int) -> np.ndarray:
    """First n Taylor coefficients of (1 - x)^(-1/2).

    r_0 = 1 and r_k = binom(2k, k) / 4^k, evaluated by the multiplicative
    recurrence r_k = r_{k-1} (2k - 1) / (2k); raw binomials would overflow
    64-bit integers at k = 33.  Wallis' inequality pins every entry:

        1 / (pi (k + 4/pi - 1)) <= r_k^2 <= 1 / (pi (k + 1/4)),  k >= 1.
    """
    import numpy as np
    n = check_size(n)
    r = np.empty(n)
    for out, block in zip(_blocks(r), _wallis_blocks(n)):
        out[:] = block
    return r


# Asymptotic series of the square-root norms in x = 1/n, highest power
# first, with S(n) = sum_{k<n} r_k^2:
#   pi S(n) = ln n + gamma + ln 16 + sum_{j=1..9} E_j x^j,
#   r_n = (pi n)^(-1/2) sum_{j<10} c_j x^j   (Gamma(n + 1/2) / Gamma(n + 1), DLMF 5.11.13).
# From _SERIES_FLOOR up, both truncations are within 5e-16 relative.
_S_SERIES = (-409875 / 33554432, -679901 / 1006632960, 2079 / 262144, 7615 / 8257536,
             -75 / 8192, -341 / 122880, 3 / 128, 5 / 192, -1 / 4, 0.0)  # E_9..E_1, E_0 = 0
_R_SERIES = (-28717403 / 17179869184, -334477 / 2147483648, 39325 / 33554432,  # c_9..c_0
             869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024, 1 / 128, -1 / 8, 1.0)
_SERIES_FLOOR = 16


def _polyval(coeffs, x: float) -> float:
    """The polynomial with coeffs, highest power first, at x by Horner's
    rule: np.polyval's arithmetic at a tenth of its cost on a scalar."""
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


def _sqrt_norm_sums(n: int) -> tuple[float, float]:
    """S(n) = sum_{k<n} r_k^2 and W(n) = sum_{k<n} (n - k) r_k^2, for an n
    already checked, in O(1).

    S(n) is d_sq[0], the square-root factor's largest squared row and
    column norm, and W(n) = sum_j d_sq[j] its squared Frobenius norm.
    Summing by parts with (k + 1) r_{k+1} = (k + 1/2) r_k gives

        W(n) = (n + 1/4) S(n) - n^2 r_n^2,

    read from the two series above; below _SERIES_FLOOR both sums are the
    math.fsum of the terms of wallis_coeffs' running product, formed in the
    same order in plain floats.
    """
    if n < _SERIES_FLOOR:
        r_sq, r = [1.0], 1.0
        for k in range(1, n):
            r *= (2 * k - 1) / (2 * k)
            r_sq.append(r * r)
        return math.fsum(r_sq), math.fsum((n - k) * t for k, t in enumerate(r_sq))
    x = 1.0 / n
    s = math.log(n) + (EULER_GAMMA + math.log(16.0)) + _polyval(_S_SERIES, x)
    s /= math.pi
    r = _polyval(_R_SERIES, x) / math.sqrt(math.pi * n)
    return s, (n + 0.25) * s - (n * r) ** 2


# T(m) = sum_{l=1..m-1} csc(pi l / m) splits csc(pi x) into its poles,
# 1/(pi x) + 1/(pi (1 - x)), and an analytic rest g(x).  The poles sum to
# (2m/pi)(psi(m) + gamma), with psi(m) from its asymptotic series (DLMF
# 5.11.2); g by the trapezoid Euler-Maclaurin formula (DLMF 2.10.1), whose
# odd derivatives of g at 0 come from the Laurent coefficients a_k of
# csc z = 1/z + sum_k a_k z^(2k-1) (A&S 4.3.68).  The 1/pi terms of the two
# series cancel, leaving
#   T(m) = (2m/pi)(ln(2m/pi) + gamma) - sum_{k=1..5} (B_2k a_k / k) pi^(2k-1) m^(1-2k).
# From _SERIES_FLOOR up, the first omitted term is below 5e-17 relative.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)  # B_2..B_10
_CSC_LAURENT = (1 / 6, 7 / 360, 31 / 15120, 127 / 604800, 73 / 3421440)  # a_1..a_5
_T_SERIES = tuple(b * a * math.pi ** (2 * k - 1) / k  # in 1/m^2, highest power first
                  for k, (b, a) in enumerate(zip(_BERNOULLI, _CSC_LAURENT), 1))[::-1]


def _cosecant_total(m: int) -> float:
    """T(m) = sum_{l=1..m-1} csc(pi l / m), for an m already checked, in
    O(1) from the series above; below _SERIES_FLOOR the math.fsum of the
    terms, each argument reflected into (0, pi/2]."""
    if m < _SERIES_FLOOR:
        return math.fsum(1.0 / math.sin(math.pi * min(l, m - l) / m) for l in range(1, m))
    x = 1.0 / m
    leading = (2 * m / math.pi) * (math.log(2 * m / math.pi) + EULER_GAMMA)
    return leading - x * _polyval(_T_SERIES, x * x)


class _ReadOnly:
    """Base of the package's records that are not tuples.  Each __init__
    fills vars(self), and functools.cached_property writes there too; any
    other assignment or deletion raises AttributeError.  Instances compare
    and hash by identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: {name!r} cannot change")

    __delattr__ = __setattr__


class CoefficientTable(_ReadOnly):
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

    r, rtilde and alpha are computed on first read; the square-root
    factorization's row profile needs none of them.
    """

    def __init__(self, n: int, d_sq: np.ndarray):
        vars(self).update(n=n, d_sq=d_sq)

    @functools.cached_property
    def r(self) -> np.ndarray:
        r = wallis_coeffs(self.n)
        r.setflags(write=False)
        return r

    @functools.cached_property
    def rtilde(self) -> np.ndarray:
        import numpy as np
        rtilde = np.arange(-1.0, 2.0 * self.n - 2.0, 2.0)  # 2j - 1 at index j
        np.divide(self.r, rtilde, out=rtilde)
        np.negative(rtilde, out=rtilde)  # rtilde[0] = -(1 / -1) = 1
        rtilde.setflags(write=False)
        return rtilde

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        import numpy as np
        alpha = np.arange(1.0, self.n + 1.0)  # m at index m - 1
        np.log(alpha, out=alpha)
        alpha /= math.pi
        np.subtract(self.d_sq[::-1], alpha, out=alpha)
        alpha.setflags(write=False)
        return alpha


def coefficient_table(n: int) -> CoefficientTable:
    """Build the coefficient table at size n, in O(n).

    Every call builds a new table, 8n bytes (16n once r is read, 32n once
    rtilde and alpha are too), which lives as long as its caller holds it:
    a factorization keeps the arrays its row profile reads.  A square-root
    factorization builds one on the first read of its profile and one on
    the first read of a factor, so no square-root report builds any; an
    nsr one builds one for its profile and, once a factor is read, one for
    its operators.  The squared coefficients are summed as the product
    streams past, one block at a time, so only d_sq is n long.  The table
    is immutable and safe to share across threads.
    """
    import numpy as np
    n = check_size(n)
    d_sq = np.empty(n)
    _compensated_sum((np.multiply(r, r, out=r) for r in _wallis_blocks(n)), out=d_sq[::-1])
    d_sq.setflags(write=False)
    return CoefficientTable(n=n, d_sq=d_sq)


class NamedConstants(_ReadOnly):
    """Closed-form limits of the error-norm residuals (natural log throughout).

    Every residual in this package subtracts log(n)/pi; these are the
    constants the residuals converge to.
    """

    alpha_infinity = (EULER_GAMMA + math.log(16.0)) / math.pi  # limit of alpha_n
    # = alpha_infinity - log(2)/pi
    nsr_maxse_const = (EULER_GAMMA + math.log(8.0)) / math.pi
    # = alpha_infinity - 1/pi
    nsr_meanse_const = (EULER_GAMMA + math.log(16.0) - 1.0) / math.pi
    sqrt_meanse_const = (EULER_GAMMA + math.log(16.0)) / math.pi - 0.5 / math.pi
    ga_const = 0.5 + (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi
    lb_const = (EULER_GAMMA + math.log(16.0 / math.pi)) / math.pi
    mathias_lb_const = (EULER_GAMMA + math.log(8.0 / math.pi)) / math.pi


CONSTANTS = NamedConstants()
