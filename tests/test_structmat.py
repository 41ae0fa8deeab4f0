"""Tests for the structured-matrix kernels, with dense matmul and direct
convolution as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from countfact.sequences import inverse_coeffs, wallis_coeffs
from countfact.structmat import (
    CirculantSpectrum,
    LowerTriangularToeplitz,
    circulant_extension_spectrum,
    circulant_first_column,
    circulant_sqrt,
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


def full_spectrum(spec):
    # All m eigenvalues: dc at index 0, the stored ones at odd indices, and
    # zeros at the other even indices.
    lam = np.zeros(spec.m, dtype=np.complex128)
    lam[0] = spec.dc
    lam[1::2] = spec.odd
    return lam


def complex_path_column(spec):
    # The former production path: real part of the complex inverse DFT of
    # the full length-m spectrum.
    return np.fft.ifft(full_spectrum(spec)).real


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
        c_inv = LowerTriangularToeplitz(inverse_coeffs(n)).to_dense()
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
        assert a._spectrum is None
        x, y = rng.standard_normal(100), rng.standard_normal(100)
        a.apply(x)
        spectrum = a._spectrum
        assert spectrum is not None and spectrum.size == a.fft_size // 2 + 1 == 129
        assert np.array_equal(a.apply(y), LowerTriangularToeplitz(a.col).apply(y))
        assert a._spectrum is spectrum


class TestCirculantExtension:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_spectrum_values(self, n):
        spec = circulant_extension_spectrum(n)
        assert spec.m == 2 * n
        assert spec.dc == n
        assert spec.odd.shape == (n,)
        # eigenvalues are the unnormalized transform of the 0/1 first column,
        # which vanishes at every even index but 0
        col = np.concatenate((np.ones(n), np.zeros(n)))
        assert np.abs(full_spectrum(spec) - np.fft.fft(col)).max() <= 1e-12 * max(n, 1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_conjugate_symmetry_and_reconstruction(self, n):
        spec = circulant_extension_spectrum(n)
        lam = full_spectrum(spec)
        assert np.abs(lam[1:] - np.conj(lam[1:][::-1])).max() <= 1e-12
        dense = circulant(circulant_first_column(spec))
        assert np.abs(dense - extension_pattern(n)).max() <= 1e-9
        # top-left block is the counting matrix itself
        assert np.array_equal(extension_pattern(n)[:n, :n], counting_matrix(n))

    @pytest.mark.parametrize("n", [2.5, 4.0, 0])
    def test_rejects_non_integer_or_nonpositive_size(self, n):
        with pytest.raises(TypeError if n else ValueError):
            circulant_extension_spectrum(n)


class TestCirculantSqrt:
    def test_fixed_points_and_branch(self):
        spec = CirculantSpectrum(m=4, dc=1.0, odd=np.array([1 - 1j, 1 + 1j]))
        root = circulant_sqrt(spec)
        assert root.m == 4
        assert root.dc == 1.0
        z = root.odd[0]
        assert z.real > 0
        assert_allclose(abs(z), 2 ** 0.25, rtol=1e-15)
        assert_allclose(z * z, 1 - 1j, rtol=1e-15)
        assert root.odd[1] == np.conj(z)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_squaring_recovers_spectrum(self, n):
        spec = circulant_extension_spectrum(n)
        root = circulant_sqrt(spec)
        squared = full_spectrum(root) ** 2
        scale = np.abs(full_spectrum(spec)).max()
        assert np.abs(squared - full_spectrum(spec)).max() <= 1e-14 * scale

    def test_square_root_is_real(self):
        root = circulant_sqrt(circulant_extension_spectrum(16))
        col = circulant_first_column(root)
        assert col.dtype == np.float64
        dense = circulant(col)
        assert np.abs(dense @ dense - extension_pattern(16)).max() <= 1e-10

    def test_rejects_asymmetric_spectrum(self):
        # lambda_1 != conj(lambda_3)
        bad = CirculantSpectrum(m=4, dc=1.0, odd=np.array([1j, 1j]))
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            circulant_first_column(bad)

    def test_rejects_non_real_middle_eigenvalue(self):
        # At m = 6 the odd index 3 is its own partner, so it must be real.
        bad = CirculantSpectrum(m=6, dc=1.0, odd=np.array([1.0, 1j, 1.0]))
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            circulant_first_column(bad)


@pytest.mark.parametrize("n", list(range(1, 65)) + [2**k for k in range(7, 17)])
def test_column_matches_complex_path(n):
    # The irfft of the Hermitian half spectrum against the real part of the
    # complex ifft of all 2n root eigenvalues; odd n puts a nonzero
    # eigenvalue in the Nyquist bin.
    root = circulant_sqrt(circulant_extension_spectrum(n))
    col = circulant_first_column(root)
    assert col.shape == (2 * n,)
    assert np.abs(col - complex_path_column(root)).max() <= 4e-16
