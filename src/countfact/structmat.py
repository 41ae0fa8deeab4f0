"""Structured-matrix kernels: blocks of a real circulant, applied through a
lazily computed half spectrum (lower-triangular Toeplitz matrices among
them), the closed-form half spectrum of the real square root of the
counting matrix's 2n x 2n circulant extension, and the one budgeted dense
materialization of every block."""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .sequences import check_size

if TYPE_CHECKING:
    import numpy as np

# Largest n for which dense n x n factors are ever materialized.
DENSE_BUDGET = 4096


def fft_length(n: int) -> int:
    """Power-of-two FFT length for the product of two length-n sequences:
    the smallest power of two above 2n - 1, at which circular convolution
    equals linear convolution."""
    return 1 << (2 * n - 1).bit_length()


class CirculantSlice:
    """Top-left ``shape`` block of the real circulant of length ``fft_size``
    with first column col: entry (j, k) = col[(j - k) mod fft_size].

    ``apply`` is one circular convolution of the zero-padded input with col,
    by an rfft/irfft pair through the column's half spectrum, cut to
    shape[0] entries.  ``half_spectrum`` computes that spectrum and runs on
    the first product, so an operator that is never applied never pays for
    it.  The column is computed from the spectrum, by one irfft, when a
    dense view first reads it, unless a subclass provides its own.
    """

    def __init__(self, shape: tuple[int, int], fft_size: int, half_spectrum):
        self.shape = shape
        self.fft_size = fft_size
        self._half_spectrum = half_spectrum

    @property
    def n(self) -> int:
        return min(self.shape)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        return self._half_spectrum()

    @functools.cached_property
    def col(self) -> np.ndarray:
        import numpy as np
        col = np.fft.irfft(self.spectrum, self.fft_size)
        col.setflags(write=False)
        return col

    def _convolve(self, x: np.ndarray) -> np.ndarray:
        import numpy as np
        # rfft would silently truncate a longer input or pad a shorter one.
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"input must have shape ({self.shape[1]},), got {np.shape(x)}")
        size = self.fft_size
        return np.fft.irfft(np.fft.rfft(x, size) * self.spectrum, size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._convolve(x)[: self.shape[0]]

    def to_dense(self) -> np.ndarray:
        import numpy as np
        return circulant_block(np.pad(self.col, (0, self.fft_size - self.col.size)),
                               self.shape)


class LowerTriangularToeplitz(CirculantSlice):
    """n x n lower-triangular Toeplitz matrix stored by its first column.

    Entry (j, k) equals col[j - k] for j >= k and 0 otherwise: the n x n
    block of the circulant of col zero-padded to fft_length(n), whose half
    spectrum is the rfft of that padded column.  The product of two such
    matrices is again lower-triangular Toeplitz, with first column the
    truncated convolution of the factors' columns.
    """

    def __init__(self, col):
        import numpy as np
        col = np.asarray(col, dtype=np.float64)
        if col.flags.writeable:  # a read-only float64 column is shared
            col = col.copy()
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first column must be a nonempty 1-D array")
        col.setflags(write=False)
        size = fft_length(col.size)
        super().__init__((col.size, col.size), size, functools.partial(np.fft.rfft, col, size))
        self.col = col


def counting_matrix(n: int) -> np.ndarray:
    """Dense n x n lower-triangular all-ones (prefix-sum) matrix: the n x n
    block of its 2n-point circulant extension, refused above DENSE_BUDGET."""
    import numpy as np
    n = check_size(n)
    return circulant_block(np.repeat([1.0, 0.0], n), (n, n))


def circulant_half_spectrum(n: int) -> np.ndarray:
    """Bins 0..n of the rfft of the first column of the real square root of
    the 2n x 2n circulant extension of the counting matrix (first column: n
    ones, then n zeros): its Hermitian half spectrum, read-only.

    The extension's eigenvalues are the DFT of that column: n at bin 0, 0 at
    the other even bins, and lambda_k = 2 / (1 - exp(-2i theta_k)) =
    exp(i (theta_k - pi/2)) / sin(theta_k) at odd k, theta_k = pi k / 2n.
    For k <= n, theta_k <= pi/2, so the principal root of lambda_k is

        exp(i (theta_k / 2 - pi/4)) / sqrt(sin theta_k),

    evaluated here in real sin, cos and sqrt; for odd n, bin n is exactly
    real.  The roots of the bins above n are the conjugates of these, so the
    root circulant is real.
    """
    import numpy as np
    n = check_size(n)
    k = np.arange(1, n + 1, 2)
    scale = np.pi * k
    scale /= 2 * n
    np.sin(scale, out=scale)
    np.sqrt(scale, out=scale)
    # theta_k / 2 - pi/4 = pi (k - n) / 4n, exactly 0 at k = n.
    phase = np.pi * (k - n)
    phase /= 4 * n
    half = np.zeros(n + 1, dtype=np.complex128)
    half[0] = math.sqrt(n)
    odd = half[1::2]
    odd.real = np.cos(phase)
    odd.imag = np.sin(phase)
    odd /= scale
    half.setflags(write=False)
    return half


def circulant_block(col: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Top-left block of the given shape of the circulant with first column
    col: entry (j, k) = col[(j - k) mod col.size].

    A lower-triangular Toeplitz matrix is the n x n block of the circulant
    of its column padded with at least n - 1 zeros.  A block whose smaller
    side exceeds DENSE_BUDGET is refused before it is allocated.

    Row j is the window of the reversed column, repeated twice, that starts
    at (-1 - j) mod col.size, so the block is copied row by row from a view
    of those windows, with one index per row.
    """
    import numpy as np
    rows, cols = shape
    if min(rows, cols) > DENSE_BUDGET:
        raise ValueError(f"refusing dense {rows} x {cols} matrix (budget n <= {DENSE_BUDGET})")
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(col[::-1], 2), cols)
    starts = np.arange(-1, -1 - rows, -1)
    starts %= col.size
    return windows[starts]
