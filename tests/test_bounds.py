"""Tests for the lower bounds; the SVD of the dense counting matrix is the
independent oracle for the cosecant form of the nuclear norm."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory import BLOCK_WORKSPACE, traced_peak
from numpy.testing import assert_allclose

from countfact import (
    CONSTANTS,
    closed_form_maxse_group_algebra,
    counting_matrix,
    error_report,
    mathias_lower_bound,
    nuclear_lower_bound,
    residual_offset,
)
from countfact import bounds, sequences
from countfact.bounds import bound_report, cosecant_average
from countfact.cli import main
from countfact.factorizations import METHODS
from countfact.sequences import _cosecant_total, _odd_cosecant_sum

# Every size the odd cosecant sum is tested at bitwise: all of 1..299, and
# each power of two up to 2**20 with its successor.
COSECANT_SIZES = sorted(set(range(1, 300)) | {2**k + e for k in range(21) for e in (0, 1)})

# The blocked odd sum (Mathias bound, group-algebra closed form), unmemoized.
odd_cosecant_sum = _odd_cosecant_sum.__wrapped__


class TestNuclearLowerBound:
    def test_small_values(self):
        assert_allclose(nuclear_lower_bound(1), 1.0, rtol=1e-12)
        # singular values of [[1,0],[1,1]] are the golden ratio and its inverse
        assert_allclose(nuclear_lower_bound(2), math.sqrt(5.0) / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 33)))
    def test_svd_oracle(self, n):
        singular_values = np.linalg.svd(counting_matrix(n), compute_uv=False)
        oracle = float(singular_values.sum()) / n
        assert abs(nuclear_lower_bound(n) - oracle) <= 1e-8

    def test_residual_converges_monotonically(self):
        residuals = [nuclear_lower_bound(2**p) - residual_offset(2**p)
                     for p in range(2, 13)]
        assert all(b <= a + 1e-4 for a, b in zip(residuals, residuals[1:]))
        assert abs(residuals[-1] - CONSTANTS.lb_const) < 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nuclear_lower_bound(0)


class TestMathiasLowerBound:
    def test_small_values(self):
        assert_allclose(mathias_lower_bound(1), 1.0, rtol=1e-12)
        assert_allclose(mathias_lower_bound(2), 3.0 * math.sqrt(2.0) / 4.0, rtol=1e-12)

    def test_residual_near_limit(self):
        residual = mathias_lower_bound(2**12) - residual_offset(2**12)
        assert abs(residual - CONSTANTS.mathias_lb_const) < 0.02

    @pytest.mark.parametrize("n, value", [
        (1, 1.0),
        (2, 1.0606601717798212),
        (7, 1.2584083172603029),
        (1024, 2.6902420621148133),
        (2**17, 4.232098904079505),
    ])
    def test_pinned_values(self, n, value):
        # Bitwise, as computed before the odd-cosecant sum became one helper.
        assert mathias_lower_bound(n) == value

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
    def test_weaker_than_nuclear(self, n):
        assert mathias_lower_bound(n) <= nuclear_lower_bound(n)


class TestCosecantAverage:
    def test_small_values(self):
        value, _ = cosecant_average(2)
        assert value == 0.5
        value4, _ = cosecant_average(4)
        assert_allclose(value4, (1.0 + 2.0 * math.sqrt(2.0)) / 4.0, rtol=1e-15)
        assert abs(value4 - 0.95711) < 1e-5

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            cosecant_average(1)

    def test_prediction_converges(self):
        value, predicted = cosecant_average(2**16)
        assert abs(value - predicted) < 5e-3

    @pytest.mark.parametrize("n", [33, 1001, 4097])
    def test_odd_sizes_track_even_neighbors(self, n):
        # No stated rate for odd sizes; allow the looser 2e-2 margin.
        odd, _ = cosecant_average(n)
        even, _ = cosecant_average(2 * (n // 2))
        assert abs(odd - even) < 2e-2


@pytest.fixture
def cosecant_average_calls(monkeypatch):
    """The sizes bounds.cosecant_average is called at, in call order."""
    calls = []
    original = bounds.cosecant_average

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(bounds, "cosecant_average", counted)
    return calls


class TestBoundReport:
    def test_fields(self):
        report = bound_report(16)
        assert report.nuclear_lb == nuclear_lower_bound(16)
        assert report.mathias_lb == mathias_lower_bound(16)
        assert report.nuclear_residual == report.nuclear_lb - residual_offset(16)
        assert report.nuclear_lb >= report.mathias_lb
        assert report.predicted_nuclear_residual == CONSTANTS.lb_const
        assert report.predicted_mathias_residual == CONSTANTS.mathias_lb_const
        # A plain record: nothing on it is computed after construction.
        assert not [name for name, member in vars(type(report)).items()
                    if isinstance(member, (property, functools.cached_property))]

    def test_n1_has_no_cosecant_average(self, capsys, cosecant_average_calls):
        # G(n) starts at n = 2: bounds --n 1 neither computes nor prints it.
        calls = cosecant_average_calls
        for check in ((), ("--check",)):
            assert main(["bounds", "--n", "1", *check]) == 0
            assert "g_n" not in capsys.readouterr().out
        assert calls == []

    def test_cosecant_average_computed_once_on_first_read(self, capsys,
                                                           cosecant_average_calls):
        # bound_report computes no G(n); each bounds run computes it once
        # and prints both values at 17 digits.
        calls = cosecant_average_calls
        bound_report(64)
        assert calls == []
        expected = cosecant_average(64)
        for check in ((), ("--check",)):
            calls.clear()
            assert main(["bounds", "--n", "64", *check]) == 0
            table = dict(line.split() for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("CHECK"))
            assert calls == [64]
            assert (float(table["g_n"]), float(table["g_n_predicted"])) == expected


def test_cosecant_sum_equals_fsum_bitwise():
    # The compensated kernel of the odd sum rounds each exact sum once, like
    # math.fsum, and every term is the one the direct expression gives.
    mismatches = []
    for n in COSECANT_SIZES:
        expected = math.fsum(1.0 / np.sin(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        got = odd_cosecant_sum(n)
        if got != expected:
            mismatches.append((n, (got - expected) / math.ulp(expected)))
    assert mismatches == []


@pytest.mark.parametrize("n", [2**16, 2**18])
def test_cosecant_sums_work_in_a_few_blocks(n):
    # One n-independent bound; at 2**18 it is below one n-length array.
    assert traced_peak(lambda: odd_cosecant_sum(n)) <= BLOCK_WORKSPACE


def test_cosecant_total_matches_the_reflected_fsum():
    # Below the series floor the kernel is this sum; above it the series
    # meets it within a few ulps (the golden table checks it to 2**24).
    for m in range(1, 300):
        terms = 1.0 / np.sin(np.pi * np.minimum(np.arange(1, m), m - np.arange(1, m)) / m)
        expected = math.fsum(terms)
        got = _cosecant_total(m)
        assert abs(got - expected) <= 4 * math.ulp(expected), m


def test_o1_bounds_allocate_no_arrays():
    # The nuclear bound and G(n) read T in O(1): no n-length array, at any n.
    for n in (2**20, 2**24):
        assert traced_peak(lambda: (nuclear_lower_bound(n), cosecant_average(n))) < 4096


CHECKED_SIZE_FUNCTIONS = [nuclear_lower_bound, mathias_lower_bound, cosecant_average,
                          bound_report, closed_form_maxse_group_algebra]


@pytest.mark.parametrize("n, error", [(2.5, TypeError), (4.0, TypeError), (0, ValueError)])
@pytest.mark.parametrize("function", CHECKED_SIZE_FUNCTIONS, ids=lambda f: f.__name__)
def test_rejects_non_integer_or_nonpositive_size_before_any_work(monkeypatch, function, n, error):
    def no_work(*args):
        raise AssertionError("a cosecant sum ran before n was checked")

    for kernel in ("_cosecant_total", "_odd_cosecant_sum"):
        monkeypatch.setattr(sequences, kernel, no_work)
        monkeypatch.setattr(bounds, kernel, no_work)
    with pytest.raises(error):
        function(n)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=1, max_value=4096))
@example(n=1)
@example(n=4096)
def test_nuclear_below_meanse_below_maxse(method, n):
    """No factorization beats the nuclear bound, and the mean error never
    exceeds the worst; 1e-12 absorbs rounding where they meet (n = 1)."""
    report = error_report(method, n)
    assert nuclear_lower_bound(n) <= report.meanse * (1 + 1e-12)
    assert report.meanse <= report.maxse * (1 + 1e-12)
