"""Structured-matrix kernels: lower-triangular Toeplitz matrices stored by
first column, circulant matrices stored by DFT eigenvalues, and the one
budgeted dense materialization of both."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

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
    length ``fft_size`` with the fixed real column ``col``, by one
    rfft/irfft pair.

    The column's spectrum is computed by the first product and kept, so a
    factorization that is never applied (as in every sweep) never pays for
    it.  The default length is fft_length(col.size), at which the first
    col.size outputs are the linear convolution.
    """

    __slots__ = ("col", "fft_size", "_spectrum")

    def __init__(self, col: np.ndarray, fft_size: int | None = None):
        self.col = col
        self.fft_size = fft_length(col.size) if fft_size is None else fft_size
        self._spectrum = None

    def _convolve(self, x: np.ndarray) -> np.ndarray:
        size = self.fft_size
        if self._spectrum is None:
            self._spectrum = np.fft.rfft(self.col, size)
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
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return np.tril(np.ones((n, n)))


@dataclass(frozen=True)
class CirculantSpectrum:
    """m x m circulant matrix stored as its DFT eigenvalues.

    The matrix is F* diag(eigenvalues) F with F the unitary DFT, whose
    (j, k) entry is exp(-2 pi i j k / m) / sqrt(m); so the eigenvalues are
    the unnormalized DFT (np.fft.fft) of the first column.  It is real exactly when the eigenvalues are conjugate-symmetric,
    lambda_k = conj(lambda_{m-k}) for k >= 1.
    """

    m: int
    eigenvalues: np.ndarray


def circulant_extension_spectrum(n: int) -> CirculantSpectrum:
    """Eigenvalues of the 2n x 2n circulant 0/1 extension of the counting
    matrix (first column: n ones followed by n zeros).

    With omega = exp(i pi / n) the eigenvalues are n at k = 0,
    2 / (1 - omega^{-k}) at odd k, and 0 at even k != 0.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    m = 2 * n
    lam = np.zeros(m, dtype=np.complex128)
    lam[0] = n
    k_odd = np.arange(1, m, 2)
    lam[k_odd] = 2.0 / (1.0 - np.exp(-1j * np.pi * k_odd / n))
    lam.setflags(write=False)
    return CirculantSpectrum(m=m, eigenvalues=lam)


def circulant_sqrt(spec: CirculantSpectrum) -> CirculantSpectrum:
    """Square root in the eigenvalue domain, principal branch per entry.

    The principal branch has nonnegative real part (and maps negative reals
    to the positive imaginary axis, zero to zero).  Away from the negative
    real axis it commutes with conjugation, so conjugate symmetry of the
    input spectrum is preserved and the square root stays a real matrix.
    """
    roots = np.sqrt(np.asarray(spec.eigenvalues, dtype=np.complex128))
    roots.setflags(write=False)
    return CirculantSpectrum(m=spec.m, eigenvalues=roots)


def circulant_first_column(spec: CirculantSpectrum) -> np.ndarray:
    """First column of the real circulant with the given spectrum.

    The imaginary residue left by the inverse transform is truncated; its
    maximum is logged for inspection.
    """
    c = np.fft.ifft(spec.eigenvalues)
    residue = float(np.abs(c.imag).max()) if c.size else 0.0
    if residue > IMAG_TRUNCATION:
        raise ValueError(
            f"spectrum is not conjugate-symmetric: imaginary residue {residue:.3e}"
        )
    logger.debug("circulant first column: truncated imaginary residue %.3e", residue)
    col = np.ascontiguousarray(c.real)
    col.setflags(write=False)
    return col


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
