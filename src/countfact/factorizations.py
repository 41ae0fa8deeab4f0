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

from .sequences import _odd_cosecant_sum, check_size, coefficient_table
from .structmat import (
    LowerTriangularToeplitz,
    RealConvolution,
    circulant_block,
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

    __slots__ = ("scale",)

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

    __slots__ = ("d",)

    def __init__(self, rtilde: np.ndarray, d: np.ndarray):
        super().__init__(rtilde)
        self.d = d

    def apply(self, y: np.ndarray) -> np.ndarray:
        return np.cumsum(self.d * self._convolve(y)[: self.n])

    def to_dense(self) -> np.ndarray:
        # Column k of C^{-1} holds rtilde[: n - k] from row k down.
        dense = super().to_dense()
        for k in range(self.n):
            dense[k:, k] = np.cumsum(dense[k:, k] * self.d[k:])
        return dense


class CirculantSlice:
    """n-row or n-column slice of the 2n x 2n circulant square root.

    The full circulant has entry (j, k) = col[(j - k) mod 2n]; ``left``
    keeps the first n rows (n x 2n), ``right`` the first n columns
    (2n x n).  Both slices of one circulant share one length-2n kernel,
    whose half spectrum is computed by the first apply or dense view: apply
    convolves with it directly, and the column is built only for a dense
    view.
    """

    __slots__ = ("kernel", "side")

    def __init__(self, kernel: RealConvolution, side: str):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.kernel = kernel
        self.side = side

    @property
    def col(self) -> np.ndarray:
        return self.kernel.col

    @property
    def m(self) -> int:
        return self.kernel.fft_size

    @property
    def n(self) -> int:
        return self.m // 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.m) if self.side == "left" else (self.m, self.n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        # The right slice's input is zero-padded to length m by the rfft.
        out = self.kernel._convolve(v)
        return out[: self.n] if self.side == "left" else out

    def to_dense(self) -> np.ndarray:
        return circulant_block(self.col, self.shape)


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
    column, so the max row norm and max column norm coincide."""
    table = coefficient_table(n)
    factor = LowerTriangularToeplitz(table.r)
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


def _nsr_delta_q(table) -> tuple[np.ndarray, np.ndarray]:
    """delta_i = d_i - d_{i+1} (i < n - 1) and q = tril(C C^T, -1) delta.

    See nsr_row_norms_sq for the derivation; both are >= 0 entrywise.
    """
    n = table.n
    r = table.r
    d = np.sqrt(table.d_sq)
    h_diag = table.d_sq[::-1]
    # d_i^2 - d_{i+1}^2 = r_{n-1-i}^2, divided out without cancellation.
    delta = r[n - 1:0:-1] ** 2 / (d[:-1] + d[1:])
    q = np.zeros(n)
    if n > 1:
        w = 2.0 * np.arange(1, n) * r[1:] * delta
        kappa = 1.0 / (2.0 * np.arange(n) - 1.0)
        kappa[0] = 0.0
        size = fft_length(n)
        v = np.fft.irfft(np.fft.rfft(w, size) * np.fft.rfft(kappa, size), size)[1:n]
        np.cumsum(delta * h_diag[:-1] - r[1:] * v, out=q[1:])
    return delta, q


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
    d_sq = table.d_sq
    h_diag = d_sq[::-1]
    delta, q = _nsr_delta_q(table)
    s = np.zeros(n)
    np.cumsum(delta * (2.0 * q[:-1] + delta * h_diag[:-1]), out=s[1:])
    row_sq = d_sq * h_diag + 2.0 * np.sqrt(d_sq) * q + s
    row_sq.setflags(write=False)
    return row_sq


def nsr_factorization(n: int) -> Factorization:
    """Normalized square root: right factor C D^{-1} has unit columns, left
    factor M D C^{-1} carries all the norm growth."""
    table = coefficient_table(n)
    d = np.sqrt(table.d_sq)
    right = ColumnScaled(table.r, d)
    row_sq = nsr_row_norms_sq(n)
    left = NsrLeft(table.rtilde, d)
    return Factorization(
        method=NSR,
        n=n,
        left=left,
        right=right,
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
    full = 0.5 + _odd_cosecant_sum(n) / (2 * n)
    norms = np.broadcast_to(full, n)  # read-only, one float for every entry
    kernel = RealConvolution(2 * n, functools.partial(circulant_half_spectrum, n))
    return Factorization(
        method=GROUP_ALGEBRA,
        n=n,
        left=CirculantSlice(kernel, "left"),
        right=CirculantSlice(kernel, "right"),
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


def to_dense(mat) -> np.ndarray:
    """Dense view of a matrix handle (ndarrays pass through)."""
    if isinstance(mat, np.ndarray):
        return mat
    return mat.to_dense()


def verify_reconstruction(factorization: Factorization) -> float:
    """Max-abs deviation of left @ right from the counting matrix.

    Dense verification: to_dense refuses n above DENSE_BUDGET.
    """
    product = to_dense(factorization.left) @ to_dense(factorization.right)
    return float(np.abs(product - counting_matrix(factorization.n)).max())
