"""Tests for the three factorizations, checked against dense linear algebra
and high-precision direct evaluation of their defining formulas."""

import dataclasses
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory import BLOCK_WORKSPACE, rss_growth, traced_peak
from numpy.testing import assert_allclose
from oracles import (
    longdouble_norm_sq,
    longdouble_roots,
    mpmath_norm_sq,
    nsr_row_norms_sq_out_of_place,
)

from countfact import (
    GROUP_ALGEBRA,
    NSR,
    SQRT,
    coefficient_table,
    counting_matrix,
    factorize,
    nsr_factorization,
    nsr_row_norms_sq,
    verify_reconstruction,
)
from countfact.factorizations import (
    METHODS,
    ColumnScaled,
    NsrLeft,
    group_algebra_factorization,
    sqrt_factorization,
)
from countfact.metrics import error_report, maxse
from countfact.sequences import _odd_cosecant_sum, wallis_coeffs
from countfact.structmat import (
    DENSE_BUDGET,
    CirculantSlice,
    LowerTriangularToeplitz,
    circulant_block,
    circulant_half_spectrum,
)

# Sizes for the FFT kernel: 4097 is where 2n - 1 passes a power of two.
KERNEL_SIZES = [1, 2, 3, 5, 64, 777, 4096, 4097]


def dense_square_root(n):
    table = coefficient_table(n)
    c = np.zeros((n, n))
    for k in range(n):
        c[k:, k] = table.r[: n - k]
    return c


def nsr_left_oracle(n):
    # M D C^{-1} straight from dense linear algebra.
    table = coefficient_table(n)
    d = np.diag(np.sqrt(table.d_sq))
    return counting_matrix(n) @ d @ np.linalg.inv(dense_square_root(n))


def nsr_left_rearranged(n):
    # Entry-by-entry evaluation of the telescoped form
    # d_j r_{j-k} + sum_t r_{n-k-t}^2 / (d_{t+k} + d_{t+k+1}) * r_t
    # (1-indexed); an independent route to the same entries.
    table = coefficient_table(n)
    r = table.r
    d = np.sqrt(table.d_sq)
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1):
            acc = d[j] * r[j - k]
            for t in range(j - k):
                acc += r[n - 1 - k - t] ** 2 / (d[k + t] + d[k + t + 1]) * r[t]
            out[j, k] = acc
    return out


def nsr_row_norms_sq_loop(n):
    # The former production kernel: one O(n) pass per column of the left
    # factor, each column a running prefix sum; O(n^2) time overall.
    table = coefficient_table(n)
    d = np.sqrt(table.d_sq)
    row_sq = np.zeros(n)
    for k in range(n):
        col = np.cumsum(table.rtilde[: n - k] * d[k:])
        row_sq[k:] += col * col
    return row_sq


def nsr_row_norms_sq_mpmath(n, dps=30):
    # The same column loop on coefficients evaluated at dps decimal digits.
    mp.mp.dps = dps
    r = [mp.mpf(1)]
    for k in range(1, n):
        r.append(r[-1] * (2 * k - 1) / (2 * k))
    rtilde = [mp.mpf(1)] + [-r[j] / (2 * j - 1) for j in range(1, n)]
    prefix = [mp.mpf(0)]
    for value in r:
        prefix.append(prefix[-1] + value * value)
    d = [mp.sqrt(prefix[n - j]) for j in range(n)]
    row_sq = [mp.mpf(0)] * n
    for k in range(n):
        acc = mp.mpf(0)
        for t in range(n - k):
            acc += rtilde[t] * d[k + t]
            row_sq[k + t] += acc * acc
    return row_sq


def wallis_fractions(count):
    r = [Fraction(1)]
    for k in range(1, count):
        r.append(r[-1] * Fraction(2 * k - 1, 2 * k))
    return r


def group_algebra_direct(n):
    # The generating-function definition of the factors, evaluated at 40
    # decimal digits: entry (j, t) of the left factor is b(omega^(t-j)) with
    # b(x) = (1/2n) sum_l x^l (sum_k omega^(kl))^(1/2), omega = exp(i pi / n).
    mp.mp.dps = 40
    m = 2 * n
    omega = mp.exp(mp.mpc(0, 1) * mp.pi / n)
    roots = [mp.sqrt(sum(omega ** (k * l) for k in range(n))) for l in range(m)]

    def b(power):
        x = omega**power
        return sum(x**l * roots[l] for l in range(m)) / m

    values = {p: b(p) for p in range(-m + 1, m)}
    left = np.array([[complex(values[t - j]) for t in range(m)] for j in range(n)])
    right = np.array([[complex(values[k - t]) for k in range(n)] for t in range(m)])
    return left, right


class TestSqrtFactorization:
    def test_small_sizes(self):
        f = sqrt_factorization(1)
        assert f.inner_dim == 1
        assert f.left.to_dense().tolist() == [[1.0]]
        f2 = sqrt_factorization(2)
        assert f2.left.col.tolist() == [1.0, 0.5]
        assert f2.row_norms_sq_left.tolist() == [1.0, 1.25]
        assert f2.max_col_sq_right == 1.25
        assert sqrt_factorization(4).max_col_sq_right == 1.48828125

    def test_left_is_right(self):
        f = sqrt_factorization(16)
        assert f.left is f.right

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_factor_is_the_wallis_operator(self, n):
        # The operator is built on the first read of a factor; it is the
        # operator of wallis_coeffs(n) bit for bit, and of the same class, by
        # whose name applies are reported.
        f = sqrt_factorization(n)
        assert "_pair" not in vars(f)
        factor = f.left
        assert type(factor) is LowerTriangularToeplitz
        expected = LowerTriangularToeplitz(wallis_coeffs(n))
        x = np.random.default_rng(n).standard_normal(n)
        assert factor.apply(x).tobytes() == expected.apply(x).tobytes()
        if n <= DENSE_BUDGET:
            assert factor.to_dense().tobytes() == expected.to_dense().tobytes()

    @pytest.mark.parametrize("n", [2**10, 2**16])
    def test_profiles_read_on_first_read_agree_with_the_scalars(self, n):
        # The O(1) scalars and the table's d_sq are two evaluations of the
        # same sums; the row profile is built only when read.  Its last row,
        # d_sq[0], is the first column of the factor, the longest.
        f = sqrt_factorization(n)
        assert "row_norms_sq_left" not in vars(f)
        rows = f.row_norms_sq_left
        assert rows.shape == (n,)
        assert_allclose(np.max(rows), f.max_row_sq_left, rtol=1e-14, atol=0)
        assert_allclose(rows[-1], f.max_col_sq_right, rtol=1e-14, atol=0)
        assert_allclose(np.sum(rows), f.frobenius_sq_left, rtol=1e-14, atol=0)

    def test_norm_profiles_match_dense(self):
        f = sqrt_factorization(64)
        dense = f.left.to_dense()
        assert_allclose(f.row_norms_sq_left, (dense * dense).sum(axis=1), rtol=1e-12)
        assert_allclose(f.max_col_sq_right, (dense * dense).sum(axis=0).max(), rtol=1e-12)
        assert_allclose(f.frobenius_sq_left, (dense * dense).sum(), rtol=1e-12)


class TestNsrFactorization:
    def test_worked_example_n2(self):
        f = nsr_factorization(2)
        s5 = math.sqrt(5.0)
        assert_allclose(f.right.to_dense(), [[2 / s5, 0.0], [1 / s5, 1.0]], atol=1e-15)
        assert_allclose(f.left.to_dense(), [[s5 / 2, 0.0], [(s5 - 1) / 2, 1.0]], atol=1e-15)

    def test_trivial_n1(self):
        f = nsr_factorization(1)
        assert f.left.to_dense().tolist() == [[1.0]]
        assert f.right.to_dense().tolist() == [[1.0]]

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_left_matches_inverse_oracle(self, n):
        assert np.abs(nsr_factorization(n).left.to_dense() - nsr_left_oracle(n)).max() <= 1e-11

    @pytest.mark.parametrize("n", [8, 32])
    def test_left_matches_rearranged_form(self, n):
        assert np.abs(nsr_factorization(n).left.to_dense() - nsr_left_rearranged(n)).max() <= 1e-12

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_streamed_row_norms_match_dense(self, n):
        dense = nsr_factorization(n).left.to_dense()
        recomputed = (dense * dense).sum(axis=1)
        assert_allclose(nsr_row_norms_sq(n), recomputed, rtol=1e-12)

    @pytest.mark.parametrize("size", [3, 5])
    def test_right_factor_refuses_a_scale_of_the_wrong_length(self, size):
        with pytest.raises(ValueError, match="scale length must match matrix size"):
            ColumnScaled(coefficient_table(4).r, np.ones(size))

    def test_unit_right_columns(self):
        f = nsr_factorization(128)
        assert f.max_col_sq_right == 1.0
        dense = f.right.to_dense()
        assert np.abs((dense * dense).sum(axis=0) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_entrywise_lower_bound(self, n):
        # Every entry dominates d_j * r_{j-k}; the diagonal attains it.
        table = coefficient_table(n)
        d = np.sqrt(table.d_sq)
        dense = nsr_factorization(n).left.to_dense()
        for j in range(n):
            floor = d[j] * table.r[: j + 1][::-1]
            assert np.all(dense[j, : j + 1] >= floor - 1e-12)
        assert_allclose(np.diag(dense), d, rtol=1e-14)

    @pytest.mark.parametrize("n", [16, 64, 4096, 2**16])
    def test_row_norm_lower_bound(self, n):
        # row_sq[j] - d_j^2 H_jj = 2 d_j q_j + S_j, a sum of terms >= 0.
        table = coefficient_table(n)
        d_sq = table.d_sq
        row_sq = nsr_row_norms_sq(n)
        floor = d_sq * d_sq[::-1]
        assert np.all(row_sq >= floor - 1e-12)

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_maximal_row_sits_near_middle(self, n):
        row_sq = nsr_row_norms_sq(n)
        mid = (n + 1) // 2  # 1-indexed ceil(n/2) -> storage mid - 1
        assert math.sqrt(row_sq[mid - 1]) >= 0.99 * math.sqrt(row_sq.max())

    def test_lag_telescoping_exact(self):
        # (2l+1) (P_{l+1}[b] - P_l[b]) = -2 (b+1) r_{b+l+1} r_{b+1} for the
        # lag-l partial autocorrelation P_l[b] = sum_{t<=b} r_{t+l} r_t.
        r = wallis_fractions(81)

        def lagged(lag, b):
            return sum(r[t + lag] * r[t] for t in range(b + 1))

        for lag in range(40):
            for b in range(40):
                step = (2 * lag + 1) * (lagged(lag + 1, b) - lagged(lag, b))
                assert step == -2 * (b + 1) * r[b + lag + 1] * r[b + 1]

    def test_row_norm_decomposition_exact(self):
        # Both identities behind nsr_row_norms_sq, in rational arithmetic.
        # Summation by parts holds for any d, so d is the exact rational
        # value of each float64 column norm and delta_i = d_i - d_{i+1}.
        n = 40
        r = wallis_fractions(n)
        rtilde = [Fraction(1)] + [-r[j] / (2 * j - 1) for j in range(1, n)]
        d = [Fraction(float(x)) for x in np.sqrt(coefficient_table(n).d_sq)]
        delta = [d[i] - d[i + 1] for i in range(n - 1)]
        h = [[sum(r[a - b + t] * r[t] for t in range(b + 1)) if a >= b else None
              for b in range(n)] for a in range(n)]
        q = [sum(h[a][b] * delta[b] for b in range(a)) for a in range(n)]
        # q through the lag telescoping and the causal convolution V.
        w = [2 * (b + 1) * r[b + 1] * delta[b] for b in range(n - 1)]
        v = [sum(w[b] * Fraction(1, 2 * (j - b) - 1) for b in range(j)) for j in range(n)]
        for a in range(n):
            assert q[a] == sum(delta[b] * h[b][b] - r[b + 1] * v[b + 1] for b in range(a))
        # Row norms of L = M D C^{-1} against d_j^2 H_jj + 2 d_j q_j + S_j.
        s = Fraction(0)
        for j in range(n):
            entries = [sum(d[i] * rtilde[i - k] for i in range(k, j + 1))
                       for k in range(j + 1)]
            assert sum(e * e for e in entries) == d[j] ** 2 * h[j][j] + 2 * d[j] * q[j] + s
            if j < n - 1:
                s += 2 * delta[j] * q[j] + delta[j] ** 2 * h[j][j]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 777, 4096])
    def test_profile_matches_column_loop(self, n):
        fast = nsr_row_norms_sq(n)
        loop = nsr_row_norms_sq_loop(n)
        assert not fast.flags.writeable
        assert np.abs(fast - loop).max() <= 1e-13 * loop.max()
        assert math.isclose(math.sqrt(fast.max()), math.sqrt(loop.max()), rel_tol=1e-14)
        assert math.isclose(math.sqrt(fast.sum() / n), math.sqrt(loop.sum() / n),
                            rel_tol=1e-14)

    @pytest.mark.parametrize("n", [7, 64, 256])
    def test_maxse_meanse_match_mpmath(self, n):
        exact = nsr_row_norms_sq_mpmath(n)
        row_sq = nsr_row_norms_sq(n)
        exact_max = mp.sqrt(max(exact))
        exact_mean = mp.sqrt(mp.fsum(exact) / n)
        assert abs(math.sqrt(row_sq.max()) - exact_max) <= 1e-14 * exact_max
        assert abs(math.sqrt(row_sq.sum() / n) - exact_mean) <= 1e-14 * exact_mean
        assert max(abs(x - y) for x, y in zip(row_sq, exact)) <= 1e-13 * max(exact)

    def test_reruns_bit_identical(self):
        assert np.array_equal(nsr_row_norms_sq(1000), nsr_row_norms_sq(1000))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 1000, 4097, 2**16])
    def test_in_place_profile_equals_out_of_place_bitwise(self, n):
        assert nsr_row_norms_sq(n).tobytes() == nsr_row_norms_sq_out_of_place(n).tobytes()

    # Traced peaks in n-length float64 arrays (8n bytes) at n = 2^16.
    def test_profile_working_set(self, monkeypatch):
        # Its FFT stage: the spectrum of w, kappa and its spectrum, with the
        # table handed in already built.
        n = 2**16
        table = coefficient_table(n)
        table.r  # computed on first read, here outside the measured call
        monkeypatch.setattr("countfact.factorizations.coefficient_table", lambda n: table)
        assert traced_peak(lambda: nsr_row_norms_sq(n)) <= 6.5 * 8 * n

    def test_profile_resident_peak(self):
        # d_sq, the two spectra, kappa and numpy's FFT work buffer, which
        # tracemalloc does not see: ten arrays of 8n bytes.  countfact loads
        # numpy on first use, so the setup imports it outside the measure.
        n = 2**19
        growth = rss_growth("import numpy\nfrom countfact import nsr_row_norms_sq",
                            f"nsr_row_norms_sq({n})")
        assert growth <= 10.5 * 8 * n

    def test_factorization_holds_only_the_row_profile(self):
        # The operators, and the table they read, are built on first read.
        n = 2**16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = nsr_factorization(n)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert f.row_norms_sq_left.nbytes == 8 * n
        assert held <= 8 * n + 4096

    def test_cold_report_working_set(self):
        # The table's d_sq and the profile's FFT stage, before any operator
        # array.
        n = 2**16
        assert traced_peak(lambda: error_report(NSR, n)) <= 7.5 * 8 * n

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_apply_matches_convolve_oracle(self, n):
        f = nsr_factorization(n)
        y = np.random.default_rng(n).standard_normal(n)
        expected = np.cumsum(f.left.d * np.convolve(coefficient_table(n).rtilde, y)[:n])
        assert np.abs(f.left.apply(y) - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_dense_budget_enforced(self):
        m = DENSE_BUDGET + 1
        oversized = NsrLeft(np.zeros(m), np.ones(m))
        with pytest.raises(ValueError):
            oversized.to_dense()


class TestGroupAlgebraFactorization:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_generating_function_definition(self, n):
        f = group_algebra_factorization(n)
        left_direct, right_direct = group_algebra_direct(n)
        assert np.abs(left_direct.imag).max() <= 1e-12
        assert np.abs(right_direct.imag).max() <= 1e-12
        assert np.abs(f.left.to_dense() - left_direct.real).max() <= 1e-10
        assert np.abs(f.right.to_dense() - right_direct.real).max() <= 1e-10

    def test_shapes_and_inner_dim(self):
        f = group_algebra_factorization(8)
        assert f.inner_dim == 16
        assert f.left.shape == (8, 16)
        assert f.right.shape == (16, 8)

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_row_and_column_norms_are_equal(self, n):
        f = group_algebra_factorization(n)
        left = f.left.to_dense()
        right = f.right.to_dense()
        left_rows = (left * left).sum(axis=1)
        right_cols = (right * right).sum(axis=0)
        assert np.ptp(left_rows) <= 1e-10 * left_rows.max()
        assert np.ptp(right_cols) <= 1e-10 * right_cols.max()
        assert_allclose(f.row_norms_sq_left, left_rows, rtol=1e-12)
        assert_allclose(f.max_col_sq_right, right_cols.max(), rtol=1e-12)

    def test_apply_matches_dense(self):
        f = group_algebra_factorization(8)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(16)
        x = rng.standard_normal(8)
        assert_allclose(f.left.apply(y), f.left.to_dense() @ y, atol=1e-12)
        assert_allclose(f.right.apply(x), f.right.to_dense() @ x, atol=1e-12)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_apply_matches_complex_spectrum_path(self, n):
        # Reference: complex fft/ifft in extended precision with the roots of
        # the eigenvalues, each from its definition.
        f = group_algebra_factorization(n)
        roots = longdouble_roots(n)
        v = np.random.default_rng(n).standard_normal(2 * n)
        padded = np.concatenate((v[:n], np.zeros(n))).astype(np.longdouble)
        for got, spectrum, size in (
            (f.left.apply(v), np.fft.fft(v.astype(np.longdouble)), n),
            (f.right.apply(v[:n]), np.fft.fft(padded), 2 * n),
        ):
            reference = np.fft.ifft(roots * spectrum).real[:size]
            assert got.shape == (size,)
            assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_norm_profiles_are_one_read_only_array_cold_and_warm(self):
        # One float stands for every row norm.  Cold, the peak is the odd
        # cosecant sum, which builds its terms one block at a time (measured
        # 658,338 bytes, five blocks); warm, the memoized sum leaves
        # nothing n-long (measured 1,088 bytes).
        n = 2**16
        f = group_algebra_factorization(n)
        rows = f.row_norms_sq_left
        assert rows.strides == (0,) and rows[0] == f.max_row_sq_left
        _odd_cosecant_sum.cache_clear()
        peaks = [traced_peak(lambda: group_algebra_factorization(n)) for _ in ("cold", "warm")]
        assert peaks[0] <= BLOCK_WORKSPACE
        assert peaks[1] <= 4096


class TestOperatorConstruction:
    @pytest.mark.parametrize("method", METHODS)
    def test_built_once_by_one_call_on_first_read(self, method, monkeypatch):
        # One call of the factorization's function builds both operators,
        # one shared object for sqrt; later reads return the same ones.
        built = []
        init = CirculantSlice.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(CirculantSlice, "__init__", counted)
        f = factorize(method, 16)
        calls = []

        def operators():
            calls.append(1)
            return f.operators()

        g = dataclasses.replace(f, operators=operators)
        assert not built and not calls
        left = g.left
        assert calls == [1] and built == ([left] if method == SQRT else [left, g.right])
        assert g.left is left and g.right is built[-1] and calls == [1]
        assert (g.left is g.right) == (method == SQRT)

    @pytest.mark.parametrize("method", METHODS)
    def test_factor_is_freed_without_the_cycle_collector(self, method):
        f = factorize(method, 64)
        f.left.apply(np.ones(f.inner_dim))
        f.right.apply(np.ones(f.n))
        factors = [weakref.ref(f), weakref.ref(f.left), weakref.ref(f.right)]
        gc.disable()
        try:
            del f
            assert all(ref() is None for ref in factors)
        finally:
            gc.enable()


class TestOperatorSpectrum:
    @pytest.mark.parametrize("method", [SQRT, NSR])
    def test_only_apply_computes_the_spectrum(self, method):
        f = factorize(method, 64)
        rng = np.random.default_rng(0)
        ops = (f.left, f.right)  # one shared object for sqrt
        assert all("spectrum" not in vars(op) for op in ops)
        for op in ops:
            op.apply(rng.standard_normal(op.shape[1]))
            assert "spectrum" in vars(op)

    def test_group_algebra_apply_never_builds_the_column(self):
        # Each slice computes its half spectrum on its first apply; only a
        # dense view builds the column, and the generating-function
        # definition is its oracle.
        n = 4
        f = group_algebra_factorization(n)
        rng = np.random.default_rng(0)
        for op in (f.left, f.right):
            assert "spectrum" not in vars(op) and "col" not in vars(op)
            op.apply(rng.standard_normal(op.shape[1]))
            assert vars(op)["spectrum"].shape == (n + 1,) and "col" not in vars(op)
        for op, direct in zip((f.left, f.right), group_algebra_direct(n)):
            dense = op.to_dense()
            assert "col" in vars(op)
            assert np.abs(dense - direct.real).max() <= 1e-14

    @pytest.mark.parametrize("first", ["left", "right"])
    def test_group_algebra_slices_share_the_half_spectrum(self, first):
        # Whichever slice is applied first, the other's spectrum is still
        # unbuilt; each slice keeps the read-only spectrum of its first
        # apply, both hold the same half spectrum h of the one circulant,
        # and both products match the dense definition.
        n = 4
        f = group_algebra_factorization(n)
        direct = dict(zip(("left", "right"), group_algebra_direct(n)))
        ops = {"left": f.left, "right": f.right}
        order = (first, "right" if first == "left" else "left")
        rng = np.random.default_rng(1)
        for side in order:
            op = ops[side]
            assert "spectrum" not in vars(op)
            x = rng.standard_normal(op.shape[1])
            got = op.apply(x)
            spectrum = vars(op)["spectrum"]
            assert not spectrum.flags.writeable
            assert np.abs(got - direct[side].real @ x).max() <= 1e-13
            assert np.array_equal(op.apply(x), got) and vars(op)["spectrum"] is spectrum
        assert np.array_equal(f.left.spectrum, f.right.spectrum)


class TestGroupAlgebraSpectralNorm:
    @staticmethod
    def check_parseval_norm(n):
        # The lazily built column has the squared norm that Parseval gives
        # over the eigenvalues in extended precision.  The stored norm is
        # the closed form; test_stored_norm_matches_mpmath is its oracle.
        f = group_algebra_factorization(n)
        reference = longdouble_norm_sq(n)
        assert abs(math.fsum(np.square(f.left.col)) - reference) <= 1e-14 * reference, n
        assert f.frobenius_sq_left == n * f.row_norms_sq_left[0]

    def test_parseval_norm_small_sizes(self):
        for n in range(1, 301):
            self.check_parseval_norm(n)

    @pytest.mark.parametrize("n", [2**k + j for k in range(9, 21) for j in (0, 1)])
    def test_parseval_norm_large_sizes(self, n):
        self.check_parseval_norm(n)

    def test_stored_norm_matches_mpmath(self):
        # Within 1e-13 of the 30-digit value; the unreflected cosecant sum
        # loses accuracy as n grows (worst measured 7.2e-14, at n = 4097).
        sizes = list(range(1, 301)) + [2**k + j for k in range(9, 13) for j in (0, 1)]
        for n in sizes:
            stored = group_algebra_factorization(n).row_norms_sq_left[0]
            exact = mpmath_norm_sq(n)
            assert abs(stored - exact) <= 1e-13 * exact, n

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 61, 64, 777])
    def test_dense_slices_are_the_column_blocks(self, n):
        # The lazily built column is the irfft of the half spectrum, bit for
        # bit.
        f = group_algebra_factorization(n)
        col = np.fft.irfft(circulant_half_spectrum(n), 2 * n)
        assert np.array_equal(f.left.to_dense(), circulant_block(col, (n, 2 * n)))
        assert np.array_equal(f.right.to_dense(), circulant_block(col, (2 * n, n)))

    def test_norms_never_build_the_column(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the circulant column was built")

        monkeypatch.setattr(np.fft, "irfft", must_not_run)
        monkeypatch.setattr("countfact.factorizations.circulant_half_spectrum", must_not_run)
        report = error_report(GROUP_ALGEBRA, 1024)
        f = factorize(GROUP_ALGEBRA, 1024)
        assert report.maxse == report.meanse == maxse(f) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
@pytest.mark.parametrize("method", METHODS)
def test_stored_profiles_match_dense(method, n):
    # The row profile and the scalars stored on Factorization are the only
    # norms the metrics and the simulator read; the dense factors are their
    # oracle.
    f = factorize(method, n)
    left = f.left.to_dense()
    right = f.right.to_dense()
    assert f.row_norms_sq_left.shape == (n,)
    assert_allclose(f.row_norms_sq_left, np.einsum("jk,jk->j", left, left), rtol=1e-12)
    assert_allclose(f.frobenius_sq_left, np.einsum("jk,jk->", left, left), rtol=1e-12)
    assert_allclose(f.max_row_sq_left, np.einsum("jk,jk->j", left, left).max(), rtol=1e-12)
    assert_allclose(f.max_col_sq_right, np.einsum("jk,jk->k", right, right).max(),
                    rtol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_profiles_built_once_by_one_call_on_first_read(method):
    f = factorize(method, 16)
    calls = []

    def row_profile():
        calls.append(1)
        return f.row_profile()

    g = dataclasses.replace(f, row_profile=row_profile)
    assert calls == [] and "row_norms_sq_left" not in vars(g)
    rows = g.row_norms_sq_left
    assert g.row_norms_sq_left is rows
    assert calls == [1]


@pytest.mark.parametrize("method", METHODS)
def test_norm_profiles_are_read_only(method):
    # A frozen Factorization's norms cannot be changed through its profile.
    profile = factorize(method, 16).row_norms_sq_left
    assert not profile.flags.writeable
    with pytest.raises(ValueError):
        profile[0] = 0.0


@pytest.mark.parametrize("method", METHODS)
def test_apply_refuses_a_wrong_input_length(method):
    # rfft would cut a longer input, or pad a shorter one, into a product.
    f = factorize(method, 8)
    for op in (f.left, f.right):
        for size in (op.shape[1] - 1, op.shape[1] + 1):
            with pytest.raises(ValueError):
                op.apply(np.ones(size))


@pytest.mark.parametrize("method", METHODS)
def test_to_dense_refuses_over_budget_before_allocating(method):
    f = factorize(method, DENSE_BUDGET + 1)
    for op in (f.left, f.right):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                op.to_dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the dense factor would take 134 MB or more


class TestReconstruction:
    def test_examples(self):
        assert verify_reconstruction(sqrt_factorization(3)) <= 1e-12
        assert verify_reconstruction(nsr_factorization(64)) <= 1e-10
        assert verify_reconstruction(group_algebra_factorization(16)) <= 1e-9

    @pytest.mark.parametrize("method", [SQRT, NSR, GROUP_ALGEBRA])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_small_sizes(self, method, n):
        assert verify_reconstruction(factorize(method, n)) <= 1e-9

    def test_budget_enforced(self):
        f = sqrt_factorization(DENSE_BUDGET + 1)
        with pytest.raises(ValueError):
            verify_reconstruction(f)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            factorize("cholesky", 4)

    @pytest.mark.parametrize("n, error", [(2.5, TypeError), (4.0, TypeError), (0, ValueError)])
    @pytest.mark.parametrize("method", METHODS)
    def test_rejects_non_integer_or_nonpositive_size(self, method, n, error):
        with pytest.raises(error, match="n must be an integer"):
            factorize(method, n)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=1, max_value=256))
@example(n=1)
@example(n=256)
def test_dense_reconstruction_property(method, n):
    # Odd n puts a nonzero eigenvalue in the Nyquist bin of the group-algebra
    # column's irfft.
    assert verify_reconstruction(factorize(method, n)) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=1, max_value=128))
@example(n=1)
@example(n=128)
def test_nsr_right_columns_have_unit_norm_property(n):
    right = nsr_factorization(n).right.to_dense()
    norms = np.sqrt(np.einsum("jk,jk->k", right, right))
    assert np.abs(norms - 1.0).max() <= 1e-12
