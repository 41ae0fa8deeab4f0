"""Tests for the structured-matrix kernels, with dense matmul and direct
convolution as oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from countfact.sequences import coefficient_table, wallis_coeffs
from countfact.structmat import (
    LowerTriangularToeplitz,
    RealConvolution,
    circulant_extension_spectrum,
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


def full_spectrum(dc, odd):
    # All 2n eigenvalues: dc at index 0, the n given ones at odd indices,
    # and zeros at the other even indices.
    lam = np.zeros(2 * odd.size, dtype=np.complex128)
    lam[0] = dc
    lam[1::2] = odd
    return lam


def root_column(n):
    # The production dense column: one irfft of length 2n over the half
    # spectrum.
    return RealConvolution.from_half_spectrum(circulant_half_spectrum(n)).col


def complex_path_column(n):
    # The former production path: real part of the complex inverse DFT of
    # all 2n principal roots of the extension's eigenvalues.
    roots = full_spectrum(math.sqrt(n), np.sqrt(circulant_extension_spectrum(n)))
    return np.fft.ifft(roots).real


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
        lam = circulant_extension_spectrum(n)
        assert lam.shape == (n,) and lam.dtype == np.complex128
        assert not lam.flags.writeable
        # eigenvalues are the unnormalized transform of the 0/1 first column,
        # which is n at index 0 and vanishes at every other even index
        col = np.concatenate((np.ones(n), np.zeros(n)))
        assert np.abs(full_spectrum(n, lam) - np.fft.fft(col)).max() <= 1e-12 * max(n, 1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_conjugate_symmetry_and_reconstruction(self, n):
        lam = circulant_extension_spectrum(n)
        assert np.abs(lam - np.conj(lam[::-1])).max() <= 1e-12
        dense = circulant(np.fft.ifft(full_spectrum(n, lam)).real)
        assert np.abs(dense - extension_pattern(n)).max() <= 1e-9
        # top-left block is the counting matrix itself
        assert np.array_equal(extension_pattern(n)[:n, :n], counting_matrix(n))

    @pytest.mark.parametrize("n", [2.5, 4.0, 0])
    def test_rejects_non_integer_or_nonpositive_size(self, n):
        for spectrum in (circulant_extension_spectrum, circulant_half_spectrum):
            with pytest.raises(TypeError if n else ValueError):
                spectrum(n)


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
        # For odd k <= n, bin k squared gives back lambda_k.
        half = circulant_half_spectrum(n)
        lam = circulant_extension_spectrum(n)
        roots = half[1::2]
        scale = max(n, np.abs(lam).max())
        assert np.abs(roots ** 2 - lam[: roots.size]).max() <= 1e-14 * scale
        assert abs(half[0] ** 2 - n) <= 1e-14 * scale

    def test_square_root_is_real(self):
        # h * h is the half spectrum of the square of the real circulant,
        # which must be the 0/1 extension.
        for n in (1, 2, 3, 16, 61, 64):
            half = circulant_half_spectrum(n)
            extension = np.concatenate((np.ones(n), np.zeros(n)))
            assert np.abs(np.fft.irfft(half * half, 2 * n) - extension).max() <= 1e-12
        col = root_column(16)
        assert col.dtype == np.float64
        dense = circulant(col)
        assert np.abs(dense @ dense - extension_pattern(16)).max() <= 1e-10

    def test_rejects_asymmetric_spectrum(self, monkeypatch):
        # lambda_1 != conj(lambda_3), so their roots are no conjugate pair
        monkeypatch.setattr("countfact.structmat.circulant_extension_spectrum",
                            lambda n: np.array([1j, 1j]))
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            circulant_half_spectrum(2)

    def test_rejects_non_real_middle_eigenvalue(self, monkeypatch):
        # At n = 3 the odd index 3 is its own partner, so it must be real.
        monkeypatch.setattr("countfact.structmat.circulant_extension_spectrum",
                            lambda n: np.array([1.0, 1j, 1.0]))
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            circulant_half_spectrum(3)


@pytest.mark.parametrize("n", list(range(1, 65)) + [2**k for k in range(7, 17)])
def test_column_matches_complex_path(n):
    # The irfft of the Hermitian half spectrum against the real part of the
    # complex ifft of all 2n root eigenvalues; odd n puts a nonzero
    # eigenvalue in the Nyquist bin.
    col = root_column(n)
    assert col.shape == (2 * n,)
    assert np.abs(col - complex_path_column(n)).max() <= 4e-16
