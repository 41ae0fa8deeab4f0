"""Tests for the error norms and their closed forms."""

import functools
import math

import pytest
from memory import BLOCK_WORKSPACE, traced_growth, traced_peak
from numpy.testing import assert_allclose

from countfact import (
    CONSTANTS,
    GROUP_ALGEBRA,
    NSR,
    SQRT,
    closed_form_maxse_group_algebra,
    closed_form_maxse_sqrt,
    coefficient_table,
    error_report,
    factorize,
    maxse,
    meanse,
    nsr_factorization,
    nuclear_lower_bound,
    residual_offset,
)
from countfact import metrics
from countfact.cli import main
from countfact.factorizations import sqrt_factorization
from countfact.metrics import MAXSE, MEANSE, predicted_residual


class TestMaxseMeanse:
    def test_sqrt_n2(self):
        f = sqrt_factorization(2)
        assert_allclose(maxse(f), 1.25, rtol=1e-15)
        expected = math.sqrt(2.25 / 2.0) * math.sqrt(1.25)
        assert_allclose(meanse(f), expected, rtol=1e-15)
        assert abs(meanse(f) - 1.18585) < 1e-4

    def test_nsr_n2(self):
        f = nsr_factorization(2)
        assert_allclose(maxse(f), math.sqrt((10.0 - 2.0 * math.sqrt(5.0)) / 4.0),
                        rtol=1e-12)
        # Frobenius^2 of the left factor is (15 - 2 sqrt 5) / 4
        expected = math.sqrt((15.0 - 2.0 * math.sqrt(5.0)) / 8.0)
        assert_allclose(meanse(f), expected, rtol=1e-12)

    def test_group_algebra_small(self):
        assert_allclose(maxse(factorize(GROUP_ALGEBRA, 1)), 1.0, rtol=1e-12)
        assert_allclose(maxse(factorize(GROUP_ALGEBRA, 2)), 0.5 + math.sqrt(2.0) / 2.0,
                        rtol=1e-12)

    @pytest.mark.parametrize("method", [SQRT, NSR, GROUP_ALGEBRA])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_meanse_below_maxse(self, method, n):
        f = factorize(method, n)
        assert meanse(f) <= maxse(f) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_maxse_above_nuclear_bound(self, n):
        for method in (SQRT, NSR, GROUP_ALGEBRA):
            assert nuclear_lower_bound(n) <= maxse(factorize(method, n)) * (1 + 1e-9)

    def test_maxse_is_the_stored_squared_norm_exactly(self):
        # Where the left rows and right columns peak at one squared norm a,
        # MaxSE is a itself: d_sq[0] for sqrt, the one stored norm for
        # group-algebra.  Two square roots multiplied missed it by an ulp
        # at 1,367 and 1,304 of these sizes.
        for n in range(1, 3000):
            assert maxse(sqrt_factorization(n)) == coefficient_table(n).d_sq[0], n
            f = factorize(GROUP_ALGEBRA, n)
            assert maxse(f) == f.row_norms_sq_left[0] == f.col_norms_sq_right[0], n


class TestClosedForms:
    @pytest.mark.parametrize("n", list(range(1, 65)) + [256, 1024])
    def test_sqrt_direct_equals_closed_form(self, n):
        direct = maxse(sqrt_factorization(n))
        closed = closed_form_maxse_sqrt(n)
        assert abs(direct - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
    def test_group_algebra_direct_equals_closed_form(self, n):
        f = factorize(GROUP_ALGEBRA, n)
        closed = closed_form_maxse_group_algebra(n)
        assert abs(maxse(f) - closed) <= 1e-9 * closed
        assert abs(meanse(f) - maxse(f)) <= 1e-10 * maxse(f)

    @pytest.mark.parametrize("n, value", [
        (1, 1.0),
        (2, 1.2071067811865475),
        (7, 1.601107277602765),
        (1024, 3.1876174357127502),
        (2**17, 4.73206661597361),
    ])
    def test_group_algebra_pinned_values(self, n, value):
        # Bitwise, as computed before the odd-cosecant sum became one helper.
        assert closed_form_maxse_group_algebra(n) == value

    def test_group_algebra_values(self):
        assert_allclose(closed_form_maxse_group_algebra(1), 1.0, rtol=1e-15)
        assert_allclose(closed_form_maxse_group_algebra(2), 0.5 + math.sqrt(2.0) / 2.0,
                        rtol=1e-15)


class TestPredictedResiduals:
    def test_mapping(self):
        assert predicted_residual(SQRT, MAXSE) == CONSTANTS.alpha_infinity
        assert predicted_residual(SQRT, MEANSE) == CONSTANTS.sqrt_meanse_const
        assert predicted_residual(NSR, MAXSE) == CONSTANTS.nsr_maxse_const
        assert predicted_residual(NSR, MEANSE) == CONSTANTS.nsr_meanse_const
        assert predicted_residual(GROUP_ALGEBRA, MAXSE) == CONSTANTS.ga_const
        assert predicted_residual(GROUP_ALGEBRA, MEANSE) == CONSTANTS.ga_const

    def test_decimal_anchors(self):
        assert abs(predicted_residual(NSR, MAXSE) - 0.84564) < 1e-4
        assert abs(predicted_residual(NSR, MEANSE) - 0.74794) < 1e-4
        assert abs(predicted_residual(SQRT, MEANSE) - 0.90710) < 1e-4

    def test_unknown(self):
        with pytest.raises(ValueError):
            predicted_residual("cholesky", MAXSE)
        with pytest.raises(ValueError):
            predicted_residual(SQRT, "l1")


class TestErrorReport:
    def test_sqrt_report_adds_nothing_n_long_to_the_table(self, monkeypatch):
        # The peak is the coefficient table's d_sq and the blocks of the
        # streamed product and its compensated sum; the factors never read
        # r.  Handed a built table, the row profile is a view of its d_sq.
        n = 2**16
        assert traced_peak(lambda: error_report(SQRT, n)) <= 8 * n + BLOCK_WORKSPACE
        table = coefficient_table(n)
        monkeypatch.setattr("countfact.factorizations.coefficient_table", lambda n: table)
        assert traced_peak(lambda: error_report(SQRT, n)) <= 4096

    @pytest.mark.parametrize("method", [SQRT, NSR, GROUP_ALGEBRA])
    def test_report_keeps_nothing_alive(self, method):
        # Tables live only as long as the factorization that holds them;
        # the odd cosecant sum's memo keeps one float per size.
        error_report(method, 64)  # first-call allocations of numpy and the memo
        assert traced_growth(lambda: error_report(method, 2**16)) <= 4096

    def test_residual_definition(self):
        report = error_report(NSR, 16)
        assert report.maxse_residual == report.maxse - residual_offset(16)
        assert report.meanse_residual == report.meanse - residual_offset(16)
        # A plain record: nothing on it is computed after construction.
        assert not [name for name, member in vars(type(report)).items()
                    if isinstance(member, (property, functools.cached_property))]

    def test_builds_its_own_factorization(self):
        # A factorization passed in could belong to another (method, n)
        # and be reported under this one's name.
        with pytest.raises(TypeError):
            error_report(SQRT, 64, factorization=factorize(NSR, 128))

    def test_closed_forms_attached(self, capsys):
        # metrics prints the closed forms after the report's fields, at 17
        # digits; the group-algebra MeanSE is its MaxSE, and nsr has none.
        expected = {
            SQRT: {"closed_form_maxse": closed_form_maxse_sqrt(8)},
            GROUP_ALGEBRA: {"closed_form_maxse": closed_form_maxse_group_algebra(8),
                            "closed_form_meanse": closed_form_maxse_group_algebra(8)},
            NSR: {},
        }
        for method, closed in expected.items():
            assert main(["metrics", "--method", method, "--n", "8"]) == 0
            lines = [line.split() for line in capsys.readouterr().out.splitlines()]
            printed = [(name, float(value)) for name, value in lines
                       if name.startswith("closed_form")]
            assert printed == list(closed.items())

    def test_closed_form_computed_once_on_first_read(self, monkeypatch):
        # error_report computes no closed form; each metrics run computes
        # its method's once, and --check compares against the printed one.
        calls = []
        for name in ("closed_form_maxse_sqrt", "closed_form_maxse_group_algebra"):
            def counted(n, name=name, original=getattr(metrics, name)):
                calls.append(name)
                return original(n)

            monkeypatch.setattr(metrics, name, counted)
        for method in (SQRT, NSR, GROUP_ALGEBRA):
            error_report(method, 64)
        assert calls == []
        for method, expected in ((SQRT, ["closed_form_maxse_sqrt"]), (NSR, []),
                                 (GROUP_ALGEBRA, ["closed_form_maxse_group_algebra"])):
            for check in ((), ("--check",)):
                calls.clear()
                assert main(["metrics", "--method", method, "--n", "64", *check]) == 0
                assert calls == expected, (method, check)

    def test_nsr_maxse_approach_is_monotone(self):
        # |residual - limit| shrinks along 2^8..2^14, up to a 1e-3 floor.
        target = CONSTANTS.nsr_maxse_const
        gaps = [abs(error_report(NSR, 2**p).maxse_residual - target)
                for p in range(8, 15)]
        assert all(b <= a + 1e-3 for a, b in zip(gaps, gaps[1:]))

    def test_nsr_below_sqrt_from_four(self):
        for n in (4, 8, 16, 64):
            assert error_report(NSR, n).maxse <= error_report(SQRT, n).maxse
