"""Reported norms and bounds against golden.json: direct mpmath sums at 40
digits (see golden.py), at every size the table holds."""

import mpmath as mp
import pytest
from golden import COSECANT, DIGITS, GOLDEN, SIZES, relative_error, sqrt_norms

from countfact import bounds, error_report, factorize
from countfact.bounds import bound_report, cosecant_average, nuclear_lower_bound

# The O(1) series are within 4.5e-16 of the sums from n = 16 up (measured
# worst: n = 16); below it they are summed directly.
TOL = 1e-15
# The nuclear bound and G(n), differences of the O(1) T(m), are within
# 4.5e-16 of the sums (measured worst: n = 1).
COSECANT_TOL = 1e-14


def test_table_holds_every_size():
    assert sorted(GOLDEN) == SIZES
    assert sorted(COSECANT) == SIZES
    assert max(SIZES) == 2**24


@pytest.mark.parametrize("n", SIZES)
def test_sqrt_norms_match_the_golden_sums(n):
    s, w = GOLDEN[n]
    exact_max, exact_mean = sqrt_norms(n)
    report = error_report("sqrt", n)
    assert relative_error(report.maxse, exact_max) <= TOL
    assert relative_error(report.meanse, exact_mean) <= TOL
    f = factorize("sqrt", n)
    assert relative_error(f.max_row_sq_left, s) <= TOL
    assert relative_error(f.max_col_sq_right, s) <= TOL
    assert relative_error(f.frobenius_sq_left, w) <= TOL


@pytest.mark.parametrize("n", SIZES)
def test_nuclear_bound_and_g_n_match_the_golden_sums(monkeypatch, n):
    t, nuclear, _odd = COSECANT[n]
    with mp.workdps(DIGITS):
        exact_nuclear = nuclear / (2 * n)
        exact_g = t / n
    # The report's Mathias bound, an O(n) odd sum, is not under test here.
    monkeypatch.setattr(bounds, "mathias_lower_bound", lambda n: 0.0)
    assert relative_error(nuclear_lower_bound(n), exact_nuclear) <= COSECANT_TOL
    assert relative_error(bound_report(n).nuclear_lb, exact_nuclear) <= COSECANT_TOL
    if n >= 2:  # G(n) starts at n = 2
        assert relative_error(cosecant_average(n)[0], exact_g) <= COSECANT_TOL
