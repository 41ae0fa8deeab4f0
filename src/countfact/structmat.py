"""Structured-matrix kernels: lower-triangular Toeplitz matrices stored by
first column, the circulant square root of the counting matrix's 2n x 2n
extension stored by its half spectrum, and the one budgeted dense
materialization of both."""

from __future__ import annotations

import logging
import math

import numpy as np

from .sequences import _compensated_sum, check_size

logger = logging.getLogger(__name__)

# Largest n for which dense n x n factors are ever materialized.
DENSE_BUDGET = 4096

# Conjugate symmetry guarantees the circulant square root is real; any
# imaginary residue below this is floating-point noise and gets truncated.
IMAG_TRUNCATION = 1e-10


def fft_length(n: int) -> int:
    """Power-of-two FFT length for the product of two length-n sequences:
    the smallest power of two above 2n - 1, at which circular convolution
    equals linear convolution."""
    return 1 << (2 * n - 1).bit_length()


class RealConvolution:
    """Kernel shared by the structured operators: circular convolution of
    length ``fft_size`` with a fixed real column, by one rfft/irfft pair
    through the column's half spectrum rfft(col, fft_size).

    Built from a column, the length is fft_length(col.size), at which the
    first col.size outputs are the linear convolution, and the spectrum is
    computed by the first product and kept, so a factorization that is never
    applied (as in every sweep) never pays for it.  Built from the half
    spectrum of a circulant (from_half_spectrum), the length is the
    circulant's, and the column is computed only when it is first read.
    """

    __slots__ = ("_col", "fft_size", "_spectrum")

    def __init__(self, col: np.ndarray):
        self._col = col
        self.fft_size = fft_length(col.size)
        self._spectrum = None

    @classmethod
    def from_half_spectrum(cls, half: np.ndarray) -> RealConvolution:
        """Circular convolution with the real circulant whose n + 1 bin
        Hermitian half spectrum is ``half``: length 2n, column irfft(half)."""
        kernel = cls.__new__(cls)
        kernel._col = None
        kernel.fft_size = 2 * (half.size - 1)
        kernel._spectrum = half
        return kernel

    @property
    def col(self) -> np.ndarray:
        if self._col is None:
            self._col = np.fft.irfft(self._spectrum, self.fft_size)
            self._col.setflags(write=False)
        return self._col

    def _convolve(self, x: np.ndarray) -> np.ndarray:
        size = self.fft_size
        if self._spectrum is None:
            self._spectrum = np.fft.rfft(self._col, size)
        return np.fft.irfft(np.fft.rfft(x, size) * self._spectrum, size)


class LowerTriangularToeplitz(RealConvolution):
    """n x n lower-triangular Toeplitz matrix stored by its first column.

    Entry (j, k) equals col[j - k] for j >= k and 0 otherwise.  The product
    of two such matrices is again lower-triangular Toeplitz, with first
    column the truncated convolution of the factors' columns.
    """

    __slots__ = ()

    def __init__(self, col):
        col = np.array(col, dtype=np.float64)
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first column must be a nonempty 1-D array")
        col.setflags(write=False)
        super().__init__(col)

    @property
    def n(self) -> int:
        return self.col.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product, as a truncated convolution."""
        return self._convolve(x)[: self.n]

    def to_dense(self) -> np.ndarray:
        return circulant_block(np.concatenate((self.col, np.zeros(self.n))), self.shape)


def counting_matrix(n: int) -> np.ndarray:
    """Dense n x n lower-triangular all-ones (prefix-sum) matrix."""
    n = check_size(n)
    return np.tril(np.ones((n, n)))


def circulant_extension_spectrum(n: int) -> np.ndarray:
    """Odd-index eigenvalues of the 2n x 2n circulant 0/1 extension of the
    counting matrix (first column: n ones followed by n zeros), read-only.

    The eigenvalues are the unnormalized DFT (np.fft.fft) of that column.
    With omega = exp(i pi / n) they are n at k = 0, 0 at every other even k,
    and 2 / (1 - omega^{-k}) at odd k; the n odd ones, k = 1, 3, ..., 2n - 1,
    are returned.  They are conjugate-symmetric, lambda_k = conj
    lambda_{2n-k}, so the extension is real.
    """
    n = check_size(n)
    lam = -1j * np.pi * np.arange(1, 2 * n, 2)
    # In place, with the roundings of 2 / (1 - exp(-1j * pi * k / n)).
    lam /= n
    np.exp(lam, out=lam)
    np.subtract(1.0, lam, out=lam)
    np.divide(2.0, lam, out=lam)
    lam.setflags(write=False)
    return lam


def circulant_half_spectrum(n: int) -> np.ndarray:
    """Bins 0..n of the rfft of the first column of the real square root of
    the 2n x 2n circulant extension: its Hermitian half spectrum.

    The root is taken eigenvalue-wise on the principal branch, which has
    nonnegative real part and, away from the negative real axis, commutes
    with conjugation; so the roots stay conjugate-symmetric and the root
    circulant is real.  Bin 0 is sqrt(n), the even bins are 0, and odd bin
    k is (h_k + conj h_{2n-k}) / 2 for the roots h, which is what the real
    part of the full complex inverse DFT keeps; bin n is real (0 for even
    n, its own partner for odd n).  The anti-Hermitian rest would leave an
    imaginary residue of at most its l1 norm over 2n, which is logged and
    must stay below IMAG_TRUNCATION.
    """
    # Taking n rather than the eigenvalues frees them as soon as their roots
    # exist, so the peak stays at 5.5 n-length float64 arrays.
    odd = np.sqrt(circulant_extension_spectrum(n))
    m = 2 * n
    # The odd k <= n, and in half's odd bins the conjugates of their
    # partners m - k.
    low = odd[: (n + 1) // 2]
    half = np.zeros(n + 1, dtype=np.complex128)
    half[0] = math.sqrt(n)
    herm = half[1::2]
    np.conjugate(odd[::-1][: low.size], out=herm)
    # |h_k - conj h_{m-k}| is the same at k and m - k; for odd n the middle
    # index k = n is its own partner and counts once.
    anti = np.abs(low - herm)
    residue = (2.0 * float(anti.sum()) - (float(anti[-1]) if n % 2 else 0.0)) / (2 * m)
    if residue > IMAG_TRUNCATION:
        raise ValueError(
            f"spectrum is not conjugate-symmetric: imaginary residue up to {residue:.3e}"
        )
    logger.debug("circulant first column: truncated imaginary residue <= %.3e", residue)
    herm += low
    herm *= 0.5
    half.setflags(write=False)
    return half


def circulant_norm_sq(half: np.ndarray) -> float:
    """sum(col**2) for the real length-2n column whose rfft is the n + 1 bin
    ``half`` (h_0 and h_n real), by Parseval in one compensated sum:
    (h_0^2 + 2 sum_{0<k<n} |h_k|^2 + h_n^2) / 2n.  Every row and every
    column of the circulant has this squared norm."""
    sq = np.square(half.real)
    sq += np.square(half.imag)
    sq[1:-1] *= 2.0
    return _compensated_sum(sq) / (2 * (half.size - 1))


def circulant_block(col: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Top-left block of the given shape of the circulant with first column
    col: entry (j, k) = col[(j - k) mod col.size].

    A lower-triangular Toeplitz matrix is the n x n block of the circulant
    of its column padded with n zeros.  A block whose smaller side exceeds
    DENSE_BUDGET is refused before anything is allocated.
    """
    rows, cols = shape
    if min(rows, cols) > DENSE_BUDGET:
        raise ValueError(f"refusing dense {rows} x {cols} matrix (budget n <= {DENSE_BUDGET})")
    lag = np.arange(rows)[:, None] - np.arange(cols)[None, :]
    return col[lag % col.size]
