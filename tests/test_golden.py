"""The square-root factorization's reported norms against golden.json: direct
mpmath sums at 40 digits (see golden.py), at every size the table holds."""

import pytest
from golden import GOLDEN, SIZES, relative_error, sqrt_norms

from countfact import error_report, factorize

# The O(1) series are within 4.5e-16 of the sums from n = 16 up (measured
# worst: n = 16); below it they are summed directly.
TOL = 1e-15


def test_table_holds_every_size():
    assert sorted(GOLDEN) == SIZES
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
