"""Tests for the scalar sequences, checked against exact integer binomials."""

import itertools
import math
import timeit
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from memory import BLOCK_WORKSPACE, rss_growth, traced_peak
from numpy.testing import assert_allclose

from countfact import CONSTANTS, coefficient_table, error_report, landau_alpha, sequences
from countfact.bounds import bound_report
from countfact.cli import sweep_rows
from countfact.sequences import (
    _SUM_BLOCK,
    _blocks,
    _compensated_sum,
    _odd_cosecant_sum,
    wallis_coeffs,
)


def exact_coeff(k: int) -> Fraction:
    # binom(2k, k) / 4^k as an exact rational: the definition the
    # multiplicative recurrence must reproduce.
    return Fraction(math.comb(2 * k, k), 4**k)


class TestWallisCoeffs:
    def test_matches_exact_binomials(self):
        r = wallis_coeffs(300)
        expected = np.array([float(exact_coeff(k)) for k in range(300)])
        assert_allclose(r, expected, rtol=1e-12)

    def test_examples(self):
        assert wallis_coeffs(1).tolist() == [1.0]
        assert wallis_coeffs(3).tolist() == [1.0, 0.5, 0.375]
        assert_allclose(wallis_coeffs(4)[-1], 0.3125, rtol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wallis_coeffs(0)

    def test_sandwich_and_monotonicity(self):
        n = 2**14
        r = wallis_coeffs(n)
        assert r[0] == 1.0
        assert np.all(np.diff(r) < 0)
        k = np.arange(1, n)
        r_sq = r[1:] * r[1:]
        assert np.all(r_sq >= 1.0 / (np.pi * (k + 4.0 / np.pi - 1.0)))
        assert np.all(r_sq <= 1.0 / (np.pi * (k + 0.25)))


class TestInverseCoeffs:
    # coefficient_table(n).rtilde: the Taylor coefficients of (1 - x)^(1/2).

    def test_examples(self):
        assert coefficient_table(1).rtilde.tolist() == [1.0]
        assert coefficient_table(2).rtilde.tolist() == [1.0, -0.5]
        assert coefficient_table(3).rtilde.tolist() == [1.0, -0.5, -0.125]
        assert_allclose(coefficient_table(4).rtilde[-1], -0.0625, rtol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coefficient_table(0)

    def test_prefix_sums_telescope_to_r(self):
        table = coefficient_table(2**14)
        prefix = np.cumsum(table.rtilde)
        assert np.abs(prefix - table.r).max() <= 1e-13


class TestColumnNormsSq:
    # coefficient_table(n).d_sq: the squared column norms of the square root.

    def test_examples(self):
        assert coefficient_table(1).d_sq.tolist() == [1.0]
        assert coefficient_table(2).d_sq.tolist() == [1.25, 1.0]
        assert coefficient_table(3).d_sq[0] == 1.390625

    def test_last_entry_is_exactly_one(self):
        for n in (1, 2, 17, 256):
            assert coefficient_table(n).d_sq[-1] == 1.0

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_decreasing_with_coefficient_differences(self, n):
        d_sq = coefficient_table(n).d_sq
        r = wallis_coeffs(n)
        assert np.all(np.diff(d_sq) < 0)
        # d_j^2 - d_{j+1}^2 = r_{n-j}^2, to 1e-14 relative to the d_sq scale
        diff = d_sq[:-1] - d_sq[1:]
        expected = (r[1:] * r[1:])[::-1]
        assert np.abs(diff - expected).max() <= 1e-14 * d_sq[0]


class TestLandauAlpha:
    def test_trivial_and_two(self):
        assert landau_alpha(1) == 1.0
        expected = 1.25 - math.log(2.0) / math.pi
        assert abs(landau_alpha(2) - expected) <= 1e-14

    @pytest.mark.parametrize("n, value", [(1, 1.0), (2, 1.0293643998473483),
                                          (50, 1.0646876790384436),
                                          (4096, 1.0662564256094678)])
    def test_pinned_values(self, n, value):
        # math.fsum(r * r) - math.log(n) / math.pi over wallis_coeffs(n).
        assert landau_alpha(n) == value

    def test_monotone_small(self):
        alpha = coefficient_table(2000).alpha
        assert np.all(np.diff(alpha) > 0)
        assert alpha[0] == 1.0
        assert alpha[-1] < 1.0663

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_gap_to_limit(self, n):
        gap = CONSTANTS.alpha_infinity - landau_alpha(n)
        assert 0.0 < gap <= 1.0 / (5.0 * n)


class TestCoefficientTable:
    def test_built_per_call_and_immutable(self):
        table = coefficient_table(32)
        again = coefficient_table(32)
        assert again is not table
        assert np.array_equal(again.r, table.r) and np.array_equal(again.d_sq, table.d_sq)
        with pytest.raises(ValueError):
            table.r[0] = 2.0

    def test_compares_and_hashes_by_identity(self):
        # Generated __eq__ and __hash__ would compare the array fields, and
        # an array comparison has no single truth value.
        table = coefficient_table(4)
        assert table == table
        assert table != coefficient_table(4)
        assert table in {table}

    def test_no_table_outlives_a_sweep(self, monkeypatch):
        # Each table lives as long as the factorization that holds it.  The
        # sqrt points build none; each nsr point builds one.
        tables = []

        def recorded(n):
            table = coefficient_table(n)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr("countfact.factorizations.coefficient_table", recorded)
        sizes = [2**k for k in range(2, 17)]
        sweep_rows(("sqrt", "nsr"), ("maxse", "meanse"), sizes)
        assert len(tables) == len(sizes)
        assert all(ref() is None for ref in tables)

    def test_sqrt_and_group_algebra_sweep_builds_no_table(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return coefficient_table(n)

        for name in ("countfact.factorizations.coefficient_table",
                     "countfact.sequences.coefficient_table"):
            monkeypatch.setattr(name, counted)
        sizes = [2**k for k in range(2, 21)]
        rows = sweep_rows(("sqrt", "group-algebra"), ("maxse", "meanse"), sizes)
        assert len(rows) == 4 * len(sizes)
        assert calls == []

    def test_rtilde_and_alpha_computed_on_first_read(self, monkeypatch):
        table = coefficient_table(64)
        monkeypatch.setattr("countfact.factorizations.coefficient_table", lambda n: table)
        error_report("sqrt", 64)
        error_report("group-algebra", 64)
        assert "r" not in vars(table)
        assert "rtilde" not in vars(table) and "alpha" not in vars(table)
        m = np.arange(1, 65, dtype=np.float64)
        expected = compensated_cumsum(table.r * table.r) - np.log(m) / math.pi
        assert np.array_equal(table.alpha, expected)
        assert table.alpha is table.alpha and table.rtilde is table.rtilde
        for arr in (table.rtilde, table.alpha):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_peak_memory_is_d_sq_and_a_few_blocks(self):
        # The product streams one block at a time into the sum of squares.
        n = 2**16
        assert traced_peak(lambda: coefficient_table(n)) <= 8 * n + BLOCK_WORKSPACE

    @pytest.mark.parametrize("field", ["rtilde", "alpha"])
    def test_lazy_field_peak_memory_is_its_output(self, field):
        # Each is filled in place; a temporary would add n floats.
        n = 2**16
        table = coefficient_table(n)
        table.r  # computed on first read, here outside the measured call
        assert traced_peak(lambda: getattr(table, field)) <= 8 * n + 4096

    def test_consistent_with_operations(self):
        table = coefficient_table(50)
        assert table.n == 50
        assert_allclose(table.r, wallis_coeffs(50), rtol=0)
        # Exact rationals as the oracle: rtilde_j = -r_j / (2j - 1) and
        # d_sq[j - 1] = sum_{t<=n-j} r_t^2.
        exact = [exact_coeff(k) for k in range(50)]
        rtilde = [Fraction(1)] + [-exact[j] / (2 * j - 1) for j in range(1, 50)]
        d_sq = list(itertools.accumulate(c * c for c in exact))[::-1]
        assert_allclose(table.rtilde, [float(v) for v in rtilde], rtol=1e-15)
        assert_allclose(table.d_sq, [float(v) for v in d_sq], rtol=1e-15)
        assert abs(table.alpha[-1] - landau_alpha(50)) < 1e-14


def compensated_cumsum(x, out=None):
    """The corrected running sums of _compensated_sum over the blocks of x."""
    out = np.empty(len(x)) if out is None else out
    _compensated_sum(_blocks(x), out)
    return out


def kahan_cumsum(values):
    """Running sums by the per-element Kahan loop: the oracle the vectorized
    compensated kernel must match bit for bit on the squared coefficients."""
    out = np.empty(len(values))
    total = 0.0
    carry = 0.0
    for i, v in enumerate(values):
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


KAHAN_LIMIT = 2**20 + 1
UNIT_ROUNDOFF = Fraction(1, 2**53)


@pytest.fixture(scope="module")
def kahan_wallis_prefix():
    # Both wallis_coeffs (a cumprod) and the Kahan loop are sequential, so
    # the first n sums at KAHAN_LIMIT are the oracle at every n up to it.
    r = wallis_coeffs(KAHAN_LIMIT)
    return kahan_cumsum(r * r)


def gamma(k: int) -> Fraction:
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


# Mixed signs and magnitudes over 2**-40..2**40, so plain cumsum rounds.
mixed_floats = st.lists(
    st.builds(lambda m, k: m * 2.0**k,
              st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
              st.integers(-40, 40)),
    min_size=1, max_size=80,
)


def whole_array_table(n):
    """r and d_sq as one whole-array running product computes them, the
    oracle of the streamed product: the same multiplications in the same
    order."""
    r = np.arange(-1.0, 2.0 * n - 2.0, 2.0)  # 2k - 1 at index k
    for block in _blocks(r[1:]):
        np.divide(block, block + 1.0, out=block)
    r[0] = 1.0
    np.multiply.accumulate(r, out=r)
    d_sq = np.empty(n)
    _compensated_sum((block * block for block in _blocks(r)), out=d_sq[::-1])
    return r, d_sq


class TestStreamedProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1,
                                   2 * _SUM_BLOCK + 5, 2**20 + 3])
    @pytest.mark.filterwarnings("error")
    def test_byte_equal_to_the_whole_array_product(self, n):
        # Also no warning: the block at index 0 forms no quotient at k = 0,
        # where (2k - 1) / 2k would be -1 / 0.
        r, d_sq = whole_array_table(n)
        table = coefficient_table(n)
        assert table.d_sq.tobytes() == d_sq.tobytes()
        assert table.r.tobytes() == wallis_coeffs(n).tobytes() == r.tobytes()


def blocked_results(n):
    """Everything the block length cuts into pieces, compared bitwise."""
    return (wallis_coeffs(n).tobytes(), coefficient_table(n).d_sq.tobytes(),
            _odd_cosecant_sum.__wrapped__(n))


class TestBlockLength:
    # _SUM_BLOCK sets working memory only: a block cuts one sequential
    # recursion into pieces, carrying its last sum, error and product.
    @pytest.mark.parametrize("block", [2**10, 2**15])
    def test_values_do_not_depend_on_it(self, monkeypatch, block):
        sizes = [1, block - 1, block, block + 1, 3 * block + 5, 2**20]
        expected = [blocked_results(n) for n in sizes]
        monkeypatch.setattr(sequences, "_SUM_BLOCK", block)
        assert [blocked_results(n) for n in sizes] == expected

    # Peak resident growth of one cold call (the memo bypassed).  Each setup
    # runs the kernel once at n = 3, so that numpy's code pages, which its
    # first use maps in amounts that vary with the page cache, fall outside
    # the growth.  Measured at 2^14 (at 2^15): 324-392 KiB (988-1,152) for
    # the odd sum, five blocks at most; 944-1,008 KiB (1,520-1,536) for the
    # table, d_sq and five blocks at most.
    def test_odd_sum_resident_peak(self):
        setup = "from countfact.sequences import _odd_cosecant_sum as s; s.__wrapped__(3)"
        assert rss_growth(setup, "s.__wrapped__(2**20)") <= 640 * 1024

    def test_table_resident_peak(self):
        setup = "from countfact.sequences import coefficient_table; coefficient_table(3)"
        assert rss_growth(setup, "coefficient_table(2**16)") <= 1250 * 1024


def test_sweep_sums_each_odd_sum_once():
    # A sweep without nsr points runs n-major, so the group-algebra point and
    # the Mathias bound at one n meet the memo one after the other, however
    # many sizes there are.
    sizes = range(1, 201)
    _odd_cosecant_sum.cache_clear()
    rows = sweep_rows(("group-algebra",), ("maxse", "mathias_lb"), sizes)
    assert _odd_cosecant_sum.cache_info().misses == len(sizes)
    reports = [(n, error_report("group-algebra", n), bound_report(n)) for n in sizes]
    assert rows == (
        [(n, "group-algebra", "maxse", e.maxse, e.maxse_residual, e.predicted_maxse_residual)
         for n, e, _ in reports]
        + [(n, "lower-bound", "mathias_lb", b.mathias_lb, b.mathias_residual,
            b.predicted_mathias_residual) for n, _, b in reports])


class TestCompensatedCumsum:
    def test_bit_identical_to_kahan_small(self, kahan_wallis_prefix):
        for n in range(1, 601):
            got = compensated_cumsum(wallis_coeffs(n) ** 2)
            assert np.array_equal(got, kahan_wallis_prefix[:n]), n

    @pytest.mark.parametrize("k", range(1, 21))
    def test_bit_identical_to_kahan_at_powers(self, kahan_wallis_prefix, k):
        for n in (2**k, 2**k + 1):
            got = compensated_cumsum(wallis_coeffs(n) ** 2)
            assert np.array_equal(got, kahan_wallis_prefix[:n]), n

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=mixed_floats)
    def test_error_bound_and_ulp_property(self, values):
        # Every prefix of m terms obeys the Sum2 bound
        # |res - s| <= eps |s| + gamma_{m-1}^2 sum |x|, checked exactly.
        # Where the second term is below half an ulp of s, that bound puts
        # res within one ulp of the correctly rounded math.fsum.
        x = np.array(values)
        res = compensated_cumsum(x)
        exact = Fraction(0)
        absolute = Fraction(0)
        for i, v in enumerate(values):
            exact += Fraction(v)
            absolute += abs(Fraction(v))
            tail = gamma(i) ** 2 * absolute
            assert abs(Fraction(res[i]) - exact) <= UNIT_ROUNDOFF * abs(exact) + tail
            rounded = math.fsum(values[: i + 1])
            if tail <= Fraction(math.ulp(rounded)) / 2:
                assert abs(res[i] - rounded) <= math.ulp(rounded), i

    def test_mixed_sign_beats_plain_cumsum(self):
        x = np.random.default_rng(5).standard_normal(1500) * np.exp2(
            np.random.default_rng(6).integers(-30, 30, 1500))
        rounded = np.array([math.fsum(x[: i + 1]) for i in range(x.size)])
        ulps = np.abs(compensated_cumsum(x) - rounded) / np.spacing(np.abs(rounded))
        plain = np.abs(np.cumsum(x) - rounded) / np.spacing(np.abs(rounded))
        assert ulps.max() <= 1.0 < plain.max()

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 4097, 2**16, 2**20])
    def test_full_sum_is_fsum(self, n):
        table = coefficient_table(n)
        assert table.d_sq[0] == math.fsum(table.r * table.r)

    @pytest.mark.parametrize("n", [0, 1, 2, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1,
                                   3 * _SUM_BLOCK + 5])
    def test_blocked_sum_is_the_last_prefix(self, n):
        # Block by block, the same sequential recursion: bitwise equal, also
        # for mixed signs and magnitudes and across block boundaries.
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))
        assert _compensated_sum(_blocks(x)) == (compensated_cumsum(x)[-1] if n else 0.0)

    @pytest.mark.parametrize("n", [_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1,
                                   3 * _SUM_BLOCK + 5, 2**20])
    def test_table_bit_identical_to_kahan_at_block_edges(self, kahan_wallis_prefix, n):
        # The table squares r and sums it one block at a time, writing d_sq
        # in descending order.
        assert np.array_equal(coefficient_table(n).d_sq[::-1], kahan_wallis_prefix[:n])

    def test_reversed_out_holds_the_reversed_prefixes(self):
        n = 3 * _SUM_BLOCK + 5
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n))
        out = np.empty(n)
        assert compensated_cumsum(x, out=out[::-1]).base is out
        assert np.array_equal(out, compensated_cumsum(x)[::-1])

    def test_read_only_and_reversed_views(self):
        x = np.random.default_rng(1).standard_normal(1001)
        original = x.copy()
        x.setflags(write=False)
        for view in (x, x[::-1]):
            assert np.array_equal(compensated_cumsum(view), compensated_cumsum(view.copy()))
        assert np.array_equal(x, original)

    def test_two_to_the_twenty_is_fast(self):
        # The per-element Python loop takes about 0.42 s at this size on a
        # 2-core VM, the vectorized kernel about 0.03 s.
        x = wallis_coeffs(2**20) ** 2
        assert min(timeit.repeat(lambda: compensated_cumsum(x), number=1, repeat=3)) < 0.3


class TestNamedConstants:
    def test_formula_identities(self):
        c = CONSTANTS
        assert_allclose(c.alpha_infinity, 1.0662758532089143, rtol=1e-15)
        assert_allclose(c.nsr_maxse_const, c.alpha_infinity - math.log(2) / math.pi,
                        rtol=1e-14)
        assert_allclose(c.nsr_meanse_const, c.alpha_infinity - 1.0 / math.pi, rtol=1e-14)
        assert_allclose(c.sqrt_meanse_const, c.alpha_infinity - 0.5 / math.pi, rtol=1e-14)
        assert_allclose(c.ga_const, 0.5 + c.mathias_lb_const, rtol=1e-14)

    def test_decimal_anchors(self):
        # Four-to-five digit anchors; the exact values are fixed by the
        # formulas above.
        c = CONSTANTS
        assert abs(c.alpha_infinity - 1.0663) < 1e-4
        assert abs(c.nsr_maxse_const - 0.84564) < 1e-4
        assert abs(c.nsr_meanse_const - 0.74794) < 1e-4
        assert abs(c.sqrt_meanse_const - 0.90710) < 1e-4
        assert abs(c.ga_const - 0.98133) < 1e-4
        assert abs(c.lb_const - 0.70193) < 1e-4
        assert abs(c.mathias_lb_const - 0.48133) < 1e-4
