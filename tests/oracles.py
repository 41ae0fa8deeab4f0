"""Oracles for the group-algebra root spectrum, evaluated from the definition
of the 2n x 2n circulant extension and independent of countfact's closed
form, and a reference evaluation of the NSR row profile.

The extension's first column is n ones followed by n zeros.  Its eigenvalues
are that column's DFT: n at k = 0, 0 at the other even k, and
lambda_k = 2 / (1 - omega^-k) at odd k, omega = exp(i pi / n).
"""

import functools

import mpmath as mp
import numpy as np

from countfact import coefficient_table
from countfact.structmat import fft_length

PI_LONGDOUBLE = np.longdouble("3.141592653589793238462643383279502884")


@functools.lru_cache(maxsize=None)
def mpmath_eigenvalues(n, dps=30):
    """lambda_k for odd k <= n, at dps decimal digits."""
    with mp.workdps(dps):
        return tuple(2 / (1 - mp.expjpi(mp.mpf(-k) / n)) for k in range(1, n + 1, 2))


def mpmath_roots(n, dps=30):
    """Principal square roots of mpmath_eigenvalues(n), at dps digits: the odd
    bins k <= n of the root's half spectrum."""
    with mp.workdps(dps):
        return [mp.sqrt(lam) for lam in mpmath_eigenvalues(n, dps)]


def mpmath_norm_sq(n, dps=30):
    """Squared row and column norm of the root circulant by Parseval,
    (1/2n) sum_k |lambda_k| over all 2n eigenvalues, at dps digits."""
    with mp.workdps(dps):
        odd = mp.fsum(mp.csc(mp.pi * (2 * l - 1) / (2 * n)) for l in range(1, n + 1))
        return (n + odd) / (2 * n)


def longdouble_roots(n):
    """All 2n principal roots of the eigenvalues, each lambda_k from its
    definition in extended precision (complex256 on x86-64)."""
    k = np.arange(1, 2 * n, 2).astype(np.longdouble)
    lam = 2 / (1 - np.exp(-1j * (PI_LONGDOUBLE * k / n)))
    roots = np.zeros(2 * n, dtype=np.clongdouble)
    roots[0] = np.sqrt(np.longdouble(n))
    roots[1::2] = np.sqrt(lam)
    return roots


def longdouble_column(n):
    """First column of the real root circulant: the real part of the complex
    inverse DFT of longdouble_roots(n), in extended precision."""
    return np.fft.ifft(longdouble_roots(n)).real


def longdouble_norm_sq(n):
    """(1/2n) sum_k |lambda_k| over all 2n eigenvalues in extended precision,
    with |lambda_k| = csc(pi k / 2n) at odd k and each argument reflected
    into (0, pi/2], where sin is well conditioned."""
    k = np.arange(1, 2 * n, 2)
    theta = PI_LONGDOUBLE * np.minimum(k, 2 * n - k).astype(np.longdouble) / (2 * n)
    return (n + np.sum(1 / np.sin(theta))) / (2 * n)


def nsr_row_norms_sq_out_of_place(n):
    """The telescoped NSR row profile of countfact.nsr_row_norms_sq, every
    step a new array and every expression written as in its docstring:
    the same roundings, in the same order, with no buffer reused, so the
    two agree bit for bit."""
    table = coefficient_table(n)
    r, d_sq = table.r, table.d_sq
    h_diag = d_sq[::-1]
    d = np.sqrt(d_sq)
    delta = r[n - 1:0:-1] ** 2 / (d[:-1] + d[1:])
    w = 2.0 * np.arange(1, n) * r[1:] * delta
    kappa = 1.0 / (2.0 * np.arange(n) - 1.0)
    kappa[0] = 0.0
    size = fft_length(n)
    v = np.fft.irfft(np.fft.rfft(w, size) * np.fft.rfft(kappa, size), size)[1:n]
    q = np.concatenate(([0.0], np.cumsum(delta * h_diag[:-1] - r[1:] * v)))
    s = np.concatenate(([0.0], np.cumsum(delta * (2.0 * q[:-1] + delta * h_diag[:-1]))))
    return d_sq * h_diag + 2.0 * d * q + s
