"""The three explicit factorizations left @ right of the counting matrix.

* ``sqrt``: both factors equal the lower-triangular Toeplitz square root C.
* ``nsr``: normalized square root.  The right factor C D^{-1} rescales the
  columns of C to unit norm (D = diag of column norms d_1..d_n); the left
  factor M D C^{-1} absorbs the scaling.
* ``group-algebra``: real n x 2n and 2n x n slices of the square root of
  the 2n x 2n circulant extension of the counting matrix, taken in the
  eigenvalue domain.

Every constructor computes the three scalars the error metrics read (the
largest squared row norm of the left factor, the largest squared column
norm of the right factor, the squared Frobenius norm of the left factor)
without materializing anything dense: in O(1) for sqrt and group-algebra,
from the O(n log n) row profile for nsr.  The other two row profiles and
the operators are built on their first read, which no report or sweep makes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .sequences import (_ReadOnly, _group_algebra_norm_sq, _sqrt_norm_sums, check_size,
                        coefficient_table, wallis_coeffs)
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
        import numpy as np
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
        import numpy as np
        return np.cumsum(self.d * self._convolve(y)[: self.n])

    def to_dense(self) -> np.ndarray:
        import numpy as np
        # Rows scaled by D, then summed down by M; the +0.0 entries above the
        # diagonal leave each column's running sum bit for bit unchanged.
        return np.cumsum(self.d[:, None] * super().to_dense(), axis=0)


class Factorization(_ReadOnly):
    """One explicit factorization with left @ right == counting_matrix(n).

    ``inner_dim`` is n for sqrt/nsr and 2n for group-algebra.  The error
    metrics read three scalars: ``max_row_sq_left``, ``max_col_sq_right``
    and ``frobenius_sq_left``.  ``row_profile()`` returns the read-only
    squared row norms of the left factor, which the simulator reads as
    ``row_norms_sq_left``; ``operators()`` returns (left, right), which
    offer only apply and to_dense.  Each is called once, on the first read
    of one of its values.  All agree with direct recomputation from the
    dense factors.
    """

    def __init__(self, method: str, n: int, inner_dim: int, max_row_sq_left: float,
                 max_col_sq_right: float, frobenius_sq_left: float,
                 row_profile: Callable[[], np.ndarray],
                 operators: Callable[[], tuple[CirculantSlice, CirculantSlice]]):
        vars(self).update(method=method, n=n, inner_dim=inner_dim,
                          max_row_sq_left=max_row_sq_left, max_col_sq_right=max_col_sq_right,
                          frobenius_sq_left=frobenius_sq_left, row_profile=row_profile,
                          operators=operators)

    @functools.cached_property
    def row_norms_sq_left(self) -> np.ndarray:
        return self.row_profile()

    @functools.cached_property
    def _pair(self) -> tuple[CirculantSlice, CirculantSlice]:
        return self.operators()

    left = property(lambda self: self._pair[0])
    right = property(lambda self: self._pair[1])


def sqrt_factorization(n: int) -> Factorization:
    """Square-root factorization C @ C: both factors are one operator, so
    the max row norm and max column norm coincide, at S(n) = d_sq[0].  The
    scalars come from sequences._sqrt_norm_sums in O(1).  The row profile
    (d_sq reversed: row j holds the first j+1 coefficients) and the
    operator (column r) each build their own coefficient table, on their
    first read."""
    s, w = _sqrt_norm_sums(n)
    return Factorization(
        method=SQRT,
        n=n,
        inner_dim=n,
        max_row_sq_left=s,
        max_col_sq_right=s,
        frobenius_sq_left=w,
        row_profile=lambda: coefficient_table(n).d_sq[::-1],
        operators=lambda: (LowerTriangularToeplitz(coefficient_table(n).r),) * 2,
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

    Working set: only d_sq is held through the three FFTs.  r, d and delta
    build w and are dropped with the table before the first rfft, then
    re-derived after the irfft (r by wallis_coeffs, as the table's r is, so
    bit for bit the same); q, s and the profile are formed in place in the
    rounding order of the formulas above.  The peak, at the second rfft, is
    ten n-length arrays: d_sq, the two spectra (two each), kappa, and
    numpy's FFT work buffer (about four, which tracemalloc does not see).
    """
    import numpy as np
    table = coefficient_table(n)
    r, d_sq = table.r, table.d_sq
    del table
    h_diag = d_sq[::-1]
    d = np.sqrt(d_sq)
    w = np.arange(2.0, 2.0 * n, 2.0)  # 2 (b + 1) at index b
    w *= r[1:]
    w *= _column_gaps(np.square(r), d)
    del r, d
    # V by one rfft/irfft pair, each array dropped after its last read.  The
    # product is formed in place with rfft(w) on the left: complex products
    # do not commute bit for bit.
    size = fft_length(n)
    spectrum = np.fft.rfft(w, size)
    del w
    kappa = np.arange(-1.0, 2.0 * n - 2.0, 2.0)  # 2m - 1 at index m
    np.divide(1.0, kappa, out=kappa)
    kappa[0] = 0.0
    spectrum *= np.fft.rfft(kappa, size)
    del kappa
    v = np.fft.irfft(spectrum, size)[1:n]
    del spectrum
    r = wallis_coeffs(n)
    v *= r[1:]
    d = np.sqrt(d_sq)
    delta = _column_gaps(np.square(r, out=r), d)
    del r
    q = np.zeros(n)
    np.multiply(delta, h_diag[:-1], out=q[1:])
    q[1:] -= v
    del v
    np.cumsum(q[1:], out=q[1:])
    q *= 2.0  # exactly, so d * (2q) rounds as (2.0 * d) * q
    s = np.zeros(n)
    np.multiply(delta, h_diag[:-1], out=s[1:])
    s[1:] += q[:-1]
    s[1:] *= delta
    np.cumsum(s[1:], out=s[1:])
    d *= q
    np.multiply(d_sq, h_diag, out=q)
    q += d
    s += q  # the profile, d_sq H + 2 d q + S
    s.setflags(write=False)
    return s


def _column_gaps(r_sq: np.ndarray, d: np.ndarray) -> np.ndarray:
    """delta_i = d_i - d_{i+1}: d_i^2 - d_{i+1}^2 = r_{n-1-i}^2, divided out."""
    import numpy as np
    delta = np.add(d[:-1], d[1:])
    return np.divide(r_sq[:0:-1], delta, out=delta)


def _nsr_operators(n: int) -> tuple[NsrLeft, ColumnScaled]:
    import numpy as np
    table = coefficient_table(n)
    d = np.sqrt(table.d_sq)
    return NsrLeft(table.rtilde, d), ColumnScaled(table.r, d)


def nsr_factorization(n: int) -> Factorization:
    """Normalized square root: right factor C D^{-1} has unit columns, left
    factor M D C^{-1} carries all the norm growth.  The row-norm profile
    is computed at once, and the scalars read from it; the operators build
    their own coefficient table."""
    import numpy as np
    row_sq = nsr_row_norms_sq(n)
    return Factorization(
        method=NSR,
        n=n,
        inner_dim=n,
        max_row_sq_left=float(np.max(row_sq)),
        max_col_sq_right=1.0,
        frobenius_sq_left=float(np.sum(row_sq)),
        row_profile=lambda: row_sq,
        operators=functools.partial(_nsr_operators, n),
    )


def group_algebra_factorization(n: int) -> Factorization:
    """Group-algebra factorization through the circulant extension.

    The spectrum of the extension is known in closed form, its square root
    is taken eigenvalue-wise, and the factors are the first n rows
    (respectively columns) of the resulting real circulant.  All rows of
    the left factor and all columns of the right factor share one squared
    norm.  By Parseval it is (1/2n) sum_k |lambda_k| over the 2n
    eigenvalues: 1/2 + (1/2n) sum_{l=1..n} csc(pi (2l - 1) / (2n)), read
    from the memoized odd cosecant sum.  Each slice computes the half
    spectrum on its first apply or dense view, so the norms never build it.
    """
    full = _group_algebra_norm_sq(n)
    spectrum = functools.partial(circulant_half_spectrum, n)

    def row_profile():
        import numpy as np
        return np.broadcast_to(full, n)  # read-only, one float for every entry

    return Factorization(
        method=GROUP_ALGEBRA,
        n=n,
        inner_dim=2 * n,
        max_row_sq_left=full,
        max_col_sq_right=full,
        frobenius_sq_left=n * full,
        row_profile=row_profile,
        operators=lambda: (CirculantSlice((n, 2 * n), 2 * n, spectrum),
                           CirculantSlice((2 * n, n), 2 * n, spectrum)),
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
    import numpy as np
    product = factorization.left.to_dense() @ factorization.right.to_dense()
    return float(np.abs(product - counting_matrix(factorization.n)).max())
