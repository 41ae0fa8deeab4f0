"""Tests for the structured-matrix kernels, with dense matmul, direct
convolution, the dense 0/1 circulant extension and its eigenvalues from
mpmath and extended precision as oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from memory import traced_peak
from numpy.testing import assert_allclose
from oracles import longdouble_column, mpmath_eigenvalues, mpmath_roots

from countfact.factorizations import factorize, group_algebra_factorization
from countfact.sequences import coefficient_table, wallis_coeffs
from countfact.structmat import (
    DENSE_BUDGET,
    LowerTriangularToeplitz,
    circulant_block,
    circulant_half_spectrum,
    counting_matrix,
)


# Sizes for the FFT kernel: 4097 is where 2n - 1 passes a power of two, so
# a transform one power too short would alias there.
KERNEL_SIZES = [1, 2, 3, 5, 64, 777, 4096, 4097]


def assert_matches_convolve(col, x):
    # Oracle: direct O(n^2) convolution, truncated to the first n terms.
    n = col.size
    got = LowerTriangularToeplitz(col).apply(x)
    # Bounds |col|_2 |x|_2 without squaring, which could underflow.
    scale = n * np.abs(col).max() * np.abs(x).max()
    assert got.shape == (n,)
    assert np.abs(got - np.convolve(col, x)[:n]).max() <= 1e-14 * scale + 1e-300


def circulant(col):
    # Dense m x m circulant with first column col, entry by entry.
    m = col.size
    return np.array([[col[(j - k) % m] for k in range(m)] for j in range(m)])


def extension_pattern(n):
    # Dense 0/1 circulant extension: first column is n ones then n zeros.
    return circulant(np.concatenate((np.ones(n), np.zeros(n))))


def extension_column(n):
    return np.concatenate((np.ones(n), np.zeros(n)))


def root_column(n):
    # The production dense column: one irfft of length 2n over the half
    # spectrum, built lazily by the group-algebra kernel.
    return group_algebra_factorization(n).left.col


class TestLowerTriangularToeplitz:
    def test_identity_column(self):
        eye = LowerTriangularToeplitz([1.0, 0.0, 0.0])
        assert np.array_equal(eye.to_dense(), np.eye(3))

    def test_square_root_squares_to_counting(self):
        c = LowerTriangularToeplitz([1.0, 0.5, 0.375]).to_dense()
        assert_allclose(c @ c, counting_matrix(3), atol=1e-15)

    def test_inverse_column_gives_identity(self):
        n = 4
        c = LowerTriangularToeplitz(wallis_coeffs(n)).to_dense()
        c_inv = LowerTriangularToeplitz(coefficient_table(n).rtilde).to_dense()
        assert_allclose(c @ c_inv, np.eye(n), atol=1e-15)

    @pytest.mark.parametrize("n", [5, 32, 128])
    def test_multiply_matches_dense(self, n):
        # The product is lower-triangular Toeplitz, with first column the
        # truncated convolution of the factors' columns.
        rng = np.random.default_rng(n)
        a = LowerTriangularToeplitz(rng.standard_normal(n))
        b = LowerTriangularToeplitz(rng.standard_normal(n))
        product = LowerTriangularToeplitz(np.convolve(a.col, b.col)[:n]).to_dense()
        assert np.abs(product - a.to_dense() @ b.to_dense()).max() <= 1e-11

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(7)
        a = LowerTriangularToeplitz(rng.standard_normal(33))
        x = rng.standard_normal(33)
        assert_allclose(a.apply(x), a.to_dense() @ x, atol=1e-12)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_apply_matches_truncated_convolve(self, n):
        rng = np.random.default_rng(n)
        assert_matches_convolve(rng.standard_normal(n), rng.standard_normal(n))

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_apply_matches_truncated_convolve_property(self, data):
        n = data.draw(st.integers(1, 300), label="n")
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
        col = data.draw(arrays(np.float64, n, elements=values), label="col")
        x = data.draw(arrays(np.float64, n, elements=values), label="x")
        assert_matches_convolve(col, x)

    def test_spectrum_computed_by_first_apply_and_kept(self):
        rng = np.random.default_rng(3)
        a = LowerTriangularToeplitz(rng.standard_normal(100))
        assert "spectrum" not in vars(a)
        x, y = rng.standard_normal(100), rng.standard_normal(100)
        a.apply(x)
        spectrum = vars(a)["spectrum"]
        assert spectrum.size == a.fft_size // 2 + 1 == 129
        assert np.array_equal(a.apply(y), LowerTriangularToeplitz(a.col).apply(y))
        assert vars(a)["spectrum"] is spectrum

    @pytest.mark.parametrize("col", [[], [[1.0, 0.5]]], ids=["empty", "2-D"])
    def test_refuses_a_column_that_is_not_a_nonempty_vector(self, col):
        with pytest.raises(ValueError, match="first column must be a nonempty 1-D array"):
            LowerTriangularToeplitz(col)

    def test_read_only_columns_are_shared_and_writable_ones_copied(self, monkeypatch):
        n = 1000
        table = coefficient_table(n)
        monkeypatch.setattr("countfact.factorizations.coefficient_table", lambda n: table)
        f = factorize("sqrt", n)
        assert np.shares_memory(f.left.col, table.r)
        assert np.shares_memory(f.row_norms_sq_left, table.d_sq)
        # A writable column is copied: changing it before the first apply,
        # which computes the spectrum, leaves the operator as it was built.
        col = np.random.default_rng(4).standard_normal(n)
        x = np.random.default_rng(5).standard_normal(n)
        expected = LowerTriangularToeplitz(col.copy()).apply(x)
        a = LowerTriangularToeplitz(col)
        col[:] = 0.0
        assert not np.shares_memory(a.col, col) and not a.col.flags.writeable
        assert np.array_equal(a.apply(x), expected)


class TestLazyColumn:
    def test_column_computed_on_first_read_and_kept(self):
        col = np.arange(1.0, 6.0)
        col.setflags(write=False)
        calls = []

        def column():
            calls.append(1)
            return col

        a = LowerTriangularToeplitz(column, 5)
        assert a.shape == (5, 5) and a.fft_size == 16 and not calls
        x = np.random.default_rng(2).standard_normal(5)
        assert np.array_equal(a.apply(x), LowerTriangularToeplitz(col).apply(x))
        assert np.array_equal(a.to_dense(), np.tril(circulant(col)))
        assert len(calls) == 1 and a.col is col


class TestCirculantBlock:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17])
    def test_every_shape_is_the_entrywise_definition(self, m):
        col = np.random.default_rng(m).standard_normal(m)
        full = np.vstack([circulant(col)] * 3)
        for rows in range(1, 2 * m + 2):
            for cols in range(1, m + 1):
                block = circulant_block(col, (rows, cols))
                assert block.flags.c_contiguous
                assert block.tobytes() == full[:rows, :cols].tobytes(), (rows, cols)


class TestCountingMatrix:
    @pytest.mark.parametrize("n", [*range(1, 65), DENSE_BUDGET])
    def test_bitwise_equal_to_the_lower_triangle_of_ones(self, n):
        got = counting_matrix(n)
        expected = np.tril(np.ones((n, n)))
        assert got.dtype == np.float64 and got.shape == (n, n)
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_matrix_and_a_few_columns(self):
        # circulant_block copies each row from a window view with one index
        # per row: seven n-length arrays (the 2n-long column, its reversal
        # repeated twice, the row index) and numpy's fixed overhead beside
        # the matrix.  An n x n index, as a gather would take, is 8 n^2.
        n = 1024
        assert traced_peak(lambda: counting_matrix(n)) <= 8 * n * n + 7 * 8 * n + 8192

    def test_refuses_over_budget_before_allocating(self):
        n = DENSE_BUDGET + 1

        def refused():
            with pytest.raises(ValueError, match=f"budget n <= {DENSE_BUDGET}"):
                counting_matrix(n)

        # The 2n-long circulant column only; one n x n array is 134 MB.
        assert traced_peak(refused) < 16 * 8 * n


class TestCirculantExtension:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_spectrum_values(self, n):
        # The squared bins are the extension's eigenvalues: the unnormalized
        # transform of its 0/1 first column, n at index 0 and 0 at every
        # other even index.
        half = circulant_half_spectrum(n)
        assert half.shape == (n + 1,) and half.dtype == np.complex128
        assert not half.flags.writeable
        lam = np.fft.fft(extension_column(n))[: n + 1]
        assert np.abs(half * half - lam).max() <= 1e-12 * max(n, 1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_conjugate_symmetry_and_reconstruction(self, n):
        # The root column is real, and its dense circulant squares to the
        # dense 0/1 extension, whose top-left block is the counting matrix.
        col = root_column(n)
        assert col.shape == (2 * n,) and col.dtype == np.float64
        dense = circulant(col)
        assert np.abs(dense @ dense - extension_pattern(n)).max() <= 1e-9
        assert np.array_equal(extension_pattern(n)[:n, :n], counting_matrix(n))

    @pytest.mark.parametrize("n", [2.5, 4.0, 0])
    def test_rejects_non_integer_or_nonpositive_size(self, n):
        with pytest.raises(TypeError if n else ValueError):
            circulant_half_spectrum(n)


class TestCirculantSqrt:
    # The root is circulant_half_spectrum(n), the Hermitian half of the
    # principal roots of the extension's eigenvalues.

    def test_fixed_points_and_branch(self):
        for n in (1, 2, 3, 8, 61):
            half = circulant_half_spectrum(n)
            assert half.shape == (n + 1,) and not half.flags.writeable
            assert half[0] == math.sqrt(n)
            assert not half[2::2].any()
            # Every eigenvalue has real part 1, so each principal root has
            # positive real part; for odd n the middle one is real.
            roots = half[1::2]
            assert (roots.real > 0).all()
            if n % 2:
                assert roots[-1].imag == 0.0 and abs(roots[-1] - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_squaring_recovers_spectrum(self, n):
        # For odd k <= n, bin k squared gives back lambda_k from mpmath.
        half = circulant_half_spectrum(n)
        lam = np.array([complex(value) for value in mpmath_eigenvalues(n)])
        roots = half[1::2]
        scale = max(n, np.abs(lam).max())
        assert np.abs(roots ** 2 - lam).max() <= 1e-14 * scale
        assert abs(half[0] ** 2 - n) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 777, 1024, 4095, 4096])
    def test_odd_bins_match_mpmath(self, n):
        # Each odd bin to within 1e-15 relative of the principal root of
        # lambda_k at 30 digits.
        roots = circulant_half_spectrum(n)[1::2]
        exact = mpmath_roots(n)
        worst = max(abs(mp.mpc(complex(got)) - value) / abs(value)
                    for got, value in zip(roots, exact))
        assert worst <= 1e-15

    def test_square_root_is_real(self):
        # h * h is the half spectrum of the square of the real circulant,
        # which must be the 0/1 extension.
        for n in (1, 2, 3, 16, 61, 64):
            half = circulant_half_spectrum(n)
            assert np.abs(np.fft.irfft(half * half, 2 * n) - extension_column(n)).max() <= 1e-12
        col = root_column(16)
        assert col.dtype == np.float64
        dense = circulant(col)
        assert np.abs(dense @ dense - extension_pattern(16)).max() <= 1e-10


@pytest.mark.parametrize("n", list(range(1, 65)) + [2**k for k in range(7, 17)])
def test_column_matches_complex_path(n):
    # The irfft of the closed-form half spectrum against the real part of
    # the complex inverse DFT of all 2n roots of the eigenvalues, each from
    # its definition in extended precision; odd n puts a nonzero eigenvalue
    # in the Nyquist bin.
    col = root_column(n)
    assert col.shape == (2 * n,)
    assert np.abs(col - longdouble_column(n)).max() <= 4e-16
