"""The three explicit factorizations left @ right of the counting matrix.

* ``sqrt``: both factors equal the lower-triangular Toeplitz square root C.
* ``nsr``: normalized square root.  The right factor C D^{-1} rescales the
  columns of C to unit norm (D = diag of column norms d_1..d_n); the left
  factor M D C^{-1} absorbs the scaling.
* ``group-algebra``: real n x 2n and 2n x n slices of the square root of
  the 2n x 2n circulant extension of the counting matrix, taken in the
  eigenvalue domain.

Every constructor also computes the norm profiles the error metrics read
(row norms of the left factor, column norms of the right factor, Frobenius
norm of the left factor), read-only, without materializing anything dense.
The group-algebra profiles are one float, the odd cosecant sum, and its
operators build their spectrum only when first applied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sequences import _group_algebra_norm_sq, check_size, coefficient_table
from .structmat import (
    CirculantSlice,
    LowerTriangularToeplitz,
    circulant_half_spectrum,
    counting_matrix,
    fft_length,
)

SQRT = "sqrt"
NSR = "nsr"
GROUP_ALGEBRA = "group-algebra"
METHODS = (SQRT, NSR, GROUP_ALGEBRA)


class ColumnScaled(LowerTriangularToeplitz):
    """A lower-triangular Toeplitz matrix with column k divided by scale[k]."""

    def __init__(self, col, scale: np.ndarray):
        super().__init__(col)
        if scale.shape != (self.n,):
            raise ValueError("scale length must match matrix size")
        self.scale = scale

    def apply(self, x: np.ndarray) -> np.ndarray:
        return super().apply(np.asarray(x) / self.scale)

    def to_dense(self) -> np.ndarray:
        return super().to_dense() / self.scale


class NsrLeft(LowerTriangularToeplitz):
    """Left factor M D C^{-1} of the normalized square root, unmaterialized:
    C^{-1}, the lower-triangular Toeplitz matrix of rtilde, with its rows
    scaled by D and then summed by M.

    Column k (0-based) is the running prefix sum of rtilde[t] * d[k + t],
    t = 0..n-1-k; the diagonal entry is d[k].  Its row norms come from
    nsr_row_norms_sq in O(n log n) time and O(n) memory.
    """

    def __init__(self, rtilde: np.ndarray, d: np.ndarray):
        super().__init__(rtilde)
        self.d = d

    def apply(self, y: np.ndarray) -> np.ndarray:
        return np.cumsum(self.d * self._convolve(y)[: self.n])

    def to_dense(self) -> np.ndarray:
        # Rows scaled by D, then summed down by M; the +0.0 entries above the
        # diagonal leave each column's running sum bit for bit unchanged.
        return np.cumsum(self.d[:, None] * super().to_dense(), axis=0)


@dataclass(frozen=True, eq=False)
class Factorization:
    """One explicit factorization with left @ right == counting_matrix(n).

    ``inner_dim`` is n for sqrt/nsr and 2n for group-algebra.  The norm
    profiles are the only ones kept: the error metrics and the simulator
    read them, and the operators offer only apply and to_dense.  They agree
    with direct recomputation from the dense factors.
    """

    method: str
    n: int
    left: object
    right: object
    inner_dim: int
    row_norms_sq_left: np.ndarray
    col_norms_sq_right: np.ndarray
    frobenius_sq_left: float


def sqrt_factorization(n: int) -> Factorization:
    """Square-root factorization C @ C: both factors share the coefficient
    column, so the max row norm and max column norm coincide.  The norms
    read only d_sq; the column is the table's r, computed when the factor
    is first applied or made dense."""
    table = coefficient_table(n)
    factor = LowerTriangularToeplitz(lambda: table.r, n)
    return Factorization(
        method=SQRT,
        n=n,
        left=factor,
        right=factor,
        inner_dim=n,
        row_norms_sq_left=table.d_sq[::-1],  # row j: the first j+1 coefficients
        col_norms_sq_right=table.d_sq,
        frobenius_sq_left=float(np.sum(table.d_sq)),
    )


def nsr_row_norms_sq(n: int) -> np.ndarray:
    """Squared row norms of the NSR left factor L = M D C^{-1}, exactly, in
    O(n log n) time and O(n) memory, never materializing the factor.

    Notation (0-based): C is the lower-triangular Toeplitz square root with
    coefficients r, H = C C^T (every entry >= 0), d = sqrt(d_sq), and
    delta_i = d_i - d_{i+1} = r_{n-1-i}^2 / (d_i + d_{i+1}) >= 0.

    1. Summation by parts.  M = C^2, so row i of M C^{-1} is row i of C,
       and row j of L = M D C^{-1} is (d_j e_j + sum_{i<j} delta_i e_i)^T C.
       Hence

           row_sq[j] = d_j^2 H_jj + 2 d_j q_j + S_j,
           q = tril(H, -1) delta,
           S_j = sum_{i<j} (2 delta_i q_i + delta_i^2 H_ii),

       with H_jj = sum_{t<=j} r_t^2 = d_sq[n-1-j].  Every term is >= 0, so
       nothing cancels.

    2. Telescoping in the lag (Gosper/Zeilberger; Petkovsek, Wilf &
       Zeilberger, "A = B", 1996).  P_l[b] = sum_{t<=b} r_{t+l} r_t equals
       H_{b+l,b} and satisfies

           (2l + 1) (P_{l+1}[b] - P_l[b]) = -2 (b + 1) r_{b+l+1} r_{b+1}.

       Summing the lag up from P_0[b] = H_bb gives

           q_a = sum_{b<a} (delta_b H_bb - r_{b+1} V_{b+1}),

       where V is the strictly causal convolution of
       w_b = 2 (b + 1) r_{b+1} delta_b with kappa_m = 1/(2m - 1),
       kappa_0 = 0: one rfft/irfft pair of length >= 2n - 1.  The summands
       are the increments of q (positive at every n tried), so one running
       sum of them replaces the difference of two larger running sums,
       which drifts about three times as far at n = 2**20.

    Against an extended-precision evaluation on the same coefficient table
    the profile is within 2e-15 of its maximum up to n = 2**20.
    """
    table = coefficient_table(n)
    r, d_sq = table.r, table.d_sq
    h_diag = d_sq[::-1]
    d = np.sqrt(d_sq)
    # d_i^2 - d_{i+1}^2 = r_{n-1-i}^2, divided out without cancellation.
    delta = r[n - 1:0:-1] ** 2 / (d[:-1] + d[1:])
    # V by one rfft/irfft pair, each array dropped after its last read.  The
    # product is formed in place with rfft(w) on the left: complex products
    # do not commute bit for bit.
    size = fft_length(n)
    spectrum = np.fft.rfft(2.0 * np.arange(1, n) * r[1:] * delta, size)  # of w
    kappa = 1.0 / (2.0 * np.arange(n) - 1.0)
    kappa[0] = 0.0
    spectrum *= np.fft.rfft(kappa, size)
    del kappa
    v = np.fft.irfft(spectrum, size)[1:n]
    del spectrum
    q = np.zeros(n)
    np.cumsum(delta * h_diag[:-1] - r[1:] * v, out=q[1:])
    del v
    s = np.zeros(n)
    np.cumsum(delta * (2.0 * q[:-1] + delta * h_diag[:-1]), out=s[1:])
    row_sq = d_sq * h_diag + 2.0 * d * q + s
    row_sq.setflags(write=False)
    return row_sq


def nsr_factorization(n: int) -> Factorization:
    """Normalized square root: right factor C D^{-1} has unit columns, left
    factor M D C^{-1} carries all the norm growth."""
    row_sq = nsr_row_norms_sq(n)  # first: no operator array shares its peak
    table = coefficient_table(n)
    d = np.sqrt(table.d_sq)
    return Factorization(
        method=NSR,
        n=n,
        left=NsrLeft(table.rtilde, d),
        right=ColumnScaled(table.r, d),
        inner_dim=n,
        row_norms_sq_left=row_sq,
        col_norms_sq_right=np.broadcast_to(1.0, n),
        frobenius_sq_left=float(np.sum(row_sq)),
    )


def group_algebra_factorization(n: int) -> Factorization:
    """Group-algebra factorization through the circulant extension.

    The spectrum of the extension is known in closed form, its square root
    is taken eigenvalue-wise, and the factors are the first n rows
    (respectively columns) of the resulting real circulant.  All rows of
    the left factor and all columns of the right factor share one squared
    norm.  By Parseval it is (1/2n) sum_k |lambda_k| over the 2n
    eigenvalues: 1/2 + (1/2n) sum_{l=1..n} csc(pi (2l - 1) / (2n)), read
    from the memoized odd cosecant sum.  The half spectrum is computed only
    when a factor is first applied or made dense, so the norms never build
    it.
    """
    full = _group_algebra_norm_sq(n)
    norms = np.broadcast_to(full, n)  # read-only, one float for every entry
    spectrum = functools.partial(circulant_half_spectrum, n)
    return Factorization(
        method=GROUP_ALGEBRA,
        n=n,
        left=CirculantSlice((n, 2 * n), 2 * n, spectrum),
        right=CirculantSlice((2 * n, n), 2 * n, spectrum),
        inner_dim=2 * n,
        row_norms_sq_left=norms,
        col_norms_sq_right=norms,
        frobenius_sq_left=n * full,
    )


_CONSTRUCTORS = {
    SQRT: sqrt_factorization,
    NSR: nsr_factorization,
    GROUP_ALGEBRA: group_algebra_factorization,
}


def factorize(method: str, n: int) -> Factorization:
    """Construct the factorization for one of METHODS."""
    try:
        constructor = _CONSTRUCTORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None
    return constructor(check_size(n))


def verify_reconstruction(factorization: Factorization) -> float:
    """Max-abs deviation of left @ right from the counting matrix.

    Dense verification: to_dense refuses n above DENSE_BUDGET.
    """
    product = factorization.left.to_dense() @ factorization.right.to_dense()
    return float(np.abs(product - counting_matrix(factorization.n)).max())
