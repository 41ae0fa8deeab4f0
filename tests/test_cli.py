"""End-to-end tests of the command-line interface (invoked in-process)."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from golden import COSECANT, GOLDEN, relative_error, sqrt_norms

from countfact import bounds as bounds_mod
from countfact import cli
from countfact import factorizations as fz
from countfact import metrics as mt
from countfact import sequences
from countfact.cli import main
from countfact.mechanism import POOL_FLOOR, _generator
from countfact.sequences import wallis_coeffs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHECK_FAIL = re.compile(r"CHECK FAIL \[([a-z]+)\] (.+): (\S+) > (\S+)")


def check_failures(err):
    """(label, what, measured, bound) of each line of err, every one a
    CHECK FAIL line whose record broke the rule: measured > bound, or a NaN
    measured."""
    records = []
    for line in err.splitlines():
        label, what, measured, bound = CHECK_FAIL.fullmatch(line).groups()
        measured, bound = float(measured), float(bound)
        assert measured > bound or math.isnan(measured), line
        records.append((label, what, measured, bound))
    return records


def failed_checks(err):
    """The (label, what) of each CHECK FAIL line of err."""
    return [(label, what) for label, what, _, _ in check_failures(err)]


def assert_sqrt_report(n, maxse, meanse, maxse_residual=None, meanse_residual=None):
    """Printed sqrt norms (strings) within 1e-15 of the golden sums, and
    residuals, when given, the norms less log(n)/pi to the last bit."""
    exact_max, exact_mean = sqrt_norms(n)
    assert relative_error(float(maxse), exact_max) <= 1e-15
    assert relative_error(float(meanse), exact_mean) <= 1e-15
    offset = mt.residual_offset(n)
    for value, residual in ((maxse, maxse_residual), (meanse, meanse_residual)):
        assert residual is None or float(residual) == float(value) - offset


def assert_nuclear_row(n, value, residual):
    """A printed nuclear bound (string) within 1e-14 of the golden sum over
    2n, and its residual the bound less log(n)/pi to the last bit."""
    assert relative_error(float(value), COSECANT[n][1] / (2 * n)) <= 1e-14
    assert float(residual) == float(value) - mt.residual_offset(n)


class TestCoeffs:
    def test_prints_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--n", "3")
        assert code == 0
        for token in ("1", "0.5", "0.375"):
            assert token in out

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--n", "64", "--check")
        assert code == 0
        assert "CHECK OK" in out

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "coeffs.csv"
        code, _, _ = run_cli(capsys, "coeffs", "--n", "4", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,r,rtilde,d_sq,alpha"
        assert len(lines) == 5

    def test_csv_replaces_the_file(self, capsys, tmp_path):
        # The table has no n column, so appended tables could not be told apart.
        path, fresh = tmp_path / "coeffs.csv", tmp_path / "fresh.csv"
        for n in ("2", "3"):
            assert run_cli(capsys, "coeffs", "--n", n, "--csv", str(path))[0] == 0
        assert run_cli(capsys, "coeffs", "--n", "3", "--csv", str(fresh))[0] == 0
        assert path.read_bytes() == fresh.read_bytes()
        assert path.read_text().count("k,r,rtilde,d_sq,alpha\n") == 1

    # Each doctored column, one entry scaled, breaks one documented property
    # of the table; the rest of the table is the real one.  A factor of None
    # sets the entry equal to the one before: a tie is no strict step.
    @pytest.mark.parametrize("n, field, index, factor, what", [
        (1, "r", 0, 2.0, "|r[0] - 1|"),
        (8, "r", 0, 2.0, "|r[0] - 1|"),
        (8, "r", 3, 1.25, "r entries not below the one before"),
        (8, "r", 7, 0.5, "r^2 entries outside the Wallis sandwich"),
        (8, "rtilde", 7, 1.0 + 1e-9, "max |cumsum(rtilde) - r|"),
        (1, "d_sq", 0, 1.5, "|d_sq[n-1] - 1|"),
        (8, "d_sq", 7, 1.5, "|d_sq[n-1] - 1|"),
        (8, "d_sq", 0, 1.0 + 1e-12, "d_sq steps off r^2 by more than 1e-14 d_sq"),
        (8, "alpha", 2, 0.98, "alpha entries not above the one before"),
        (1, "alpha", 0, 1.07, "alpha entries outside [1 - 1e-12, 1.0663]"),
        (8, "alpha", 7, 1.02, "alpha entries outside [1 - 1e-12, 1.0663]"),
        (8, "r", 4, None, "r entries not below the one before"),
        (8, "d_sq", 4, None, "d_sq entries not below the one before"),
        (8, "alpha", 4, None, "alpha entries not above the one before"),
    ])
    def test_check_fails_on_a_doctored_table(self, capsys, monkeypatch, n, field, index,
                                             factor, what):
        table = sequences.coefficient_table(n)
        columns = {name: getattr(table, name).copy()
                   for name in ("r", "rtilde", "d_sq", "alpha")}
        column = columns[field]
        column[index] = column[index - 1] if factor is None else column[index] * factor
        monkeypatch.setattr(cli, "coefficient_table",
                            lambda size: types.SimpleNamespace(n=size, **columns))
        code, _, err = run_cli(capsys, "coeffs", "--n", str(n), "--check")
        assert code == 1
        assert ("coeffs", what) in failed_checks(err)


class TestFactorize:
    def test_dump_round_trips(self, capsys, tmp_path):
        prefix = tmp_path / "nsr8"
        code, out, _ = run_cli(capsys, "factorize", "--method", "nsr", "--n", "8",
                               "--dump", str(prefix), "--check")
        assert code == 0
        assert "CHECK OK" in out
        left = np.loadtxt(f"{prefix}_left.csv", delimiter=",")
        right = np.loadtxt(f"{prefix}_right.csv", delimiter=",")
        assert left.shape == (8, 8)
        product = left @ right
        assert np.abs(product - np.tril(np.ones((8, 8)))).max() <= 1e-9

    @pytest.mark.parametrize("bad", ["missing-dir", "left-is-directory",
                                     "right-is-directory"])
    def test_unwritable_dump_exits_2_before_computing(self, capsys, tmp_path,
                                                      monkeypatch, bad):
        def must_not_run(*args, **kwargs):
            raise AssertionError("factorize computed before checking --dump")

        monkeypatch.setattr("countfact.factorizations.factorize", must_not_run)
        prefix = tmp_path / "x"
        if bad == "missing-dir":
            prefix = tmp_path / "missing-dir" / "x"
        else:
            (tmp_path / f"x_{bad.split('-')[0]}.csv").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(capsys, "factorize", "--method", "nsr", "--n", "8",
                                 "--dump", str(prefix))
        assert code == 2
        assert "cannot write" in err
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_dump_over_budget_exits_2_before_computing(self, capsys, tmp_path,
                                                       monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("factorize computed before checking --dump's size")

        monkeypatch.setattr("countfact.factorizations.factorize", must_not_run)
        code, out, err = run_cli(capsys, "factorize", "--method", "sqrt", "--n", "4097",
                                 "--dump", str(tmp_path / "x"))
        assert code == 2
        assert "--dump needs n <= 4096" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_check_over_budget_exits_2_before_computing(self, capsys, monkeypatch):
        # Every factorize check is dense: above the budget it would check nothing.
        def must_not_run(*args, **kwargs):
            raise AssertionError("factorize computed before checking --check's size")

        monkeypatch.setattr("countfact.factorizations.factorize", must_not_run)
        code, out, err = run_cli(capsys, "factorize", "--method", "nsr", "--n", "5000",
                                 "--check")
        assert (code, out) == (2, "")
        assert err == "error: --check needs n <= 4096\n"

    def test_unknown_method_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["factorize", "--method", "qr", "--n", "4"])
        assert excinfo.value.code == 2

    def test_check_catches_non_unit_nsr_columns(self, capsys, monkeypatch):
        # Both factors built with a perturbed column scale still multiply
        # to the counting matrix; only the unit-column check can see it.
        original = fz.factorize

        def perturbed(method, n):
            f = original(method, n)
            d = f.right.scale * (1.0 + 1e-6)
            return dataclasses.replace(f, operators=lambda: (fz.NsrLeft(f.left.col, d),
                                                             fz.ColumnScaled(f.right.col, d)))

        monkeypatch.setattr(fz, "factorize", perturbed)
        code, _, err = run_cli(capsys, "factorize", "--method", "nsr", "--n", "64",
                               "--check")
        assert code == 1
        assert failed_checks(err) == [("factorize", "max |right column norm^2 - 1|")]

    def test_check_catches_a_wrong_product(self, capsys, monkeypatch):
        monkeypatch.setattr(fz, "verify_reconstruction", lambda f: 1e-6)
        code, _, err = run_cli(capsys, "factorize", "--method", "sqrt", "--n", "8",
                               "--check")
        assert code == 1
        assert check_failures(err) == [
            ("factorize", "max |left @ right - counting matrix|", 1e-6, 1e-9)]

    def test_sqrt_at_2_to_24_prints_its_scalars_and_builds_no_table(self, capsys,
                                                                    monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("factorize built a coefficient table")

        monkeypatch.setattr("countfact.factorizations.coefficient_table", must_not_run)
        n = 2**24
        code, out, err = run_cli(capsys, "factorize", "--method", "sqrt", "--n", str(n))
        assert (code, err) == (0, "")
        fields = dict(line.split() for line in out.splitlines())
        assert (fields["method"], fields["n"], fields["inner_dim"]) == ("sqrt", str(n), str(n))
        assert_sqrt_report(n, fields["maxse"], fields["meanse"])
        s, w = GOLDEN[n]
        assert fields["max_row_norm_left"] == fields["max_col_norm_right"]
        assert relative_error(float(fields["max_row_norm_left"]) ** 2, s) <= 1e-15
        assert relative_error(float(fields["frobenius_left"]) ** 2, w) <= 1e-15

    def test_without_check_verifies_nothing(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("factorize verified without --check")

        monkeypatch.setattr(fz, "verify_reconstruction", must_not_run)
        code, out, err = run_cli(capsys, "factorize", "--method", "nsr", "--n", "8")
        assert (code, err) == (0, "")
        assert "maxse" in out and "CHECK" not in out


class TestMetrics:
    def test_check_passes_on_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--method", "nsr", "--n", "2",
                               "--check")
        assert code == 0
        assert "CHECK OK" in out
        assert "1.1755705045849463" in out

    def test_csv_rows_append(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        run_cli(capsys, "metrics", "--method", "sqrt", "--n", "2", "--csv", str(path))
        run_cli(capsys, "metrics", "--method", "sqrt", "--n", "4", "--csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,method,metric,value,residual,predicted_residual"
        assert len(lines) == 5  # header + two rows per invocation

    @pytest.mark.parametrize("n", ["64", "4097"])
    def test_group_algebra_check_passes(self, capsys, n):
        code, out, _ = run_cli(capsys, "metrics", "--method", "group-algebra", "--n", n,
                               "--check")
        assert code == 0
        assert "CHECK OK [metrics]" in out

    def test_group_algebra_check_has_an_independent_oracle(self, capsys, monkeypatch):
        # A stored norm and closed form that agree with each other, both off
        # by 1e-6 through the one odd sum they read, fail against the
        # operator's column.
        original = sequences._odd_cosecant_sum
        monkeypatch.setattr(sequences, "_odd_cosecant_sum",
                            lambda n: original(n) * (1 + 1e-6))
        code, _, err = run_cli(capsys, "metrics", "--method", "group-algebra", "--n", "64",
                               "--check")
        assert code == 1
        assert failed_checks(err) == [("metrics", "relative deviation of maxse from its oracle")]


class TestBounds:
    def test_n1_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--check")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("nuclear_lb"))
        assert abs(float(line.split()[-1]) - 1.0) < 1e-12

    def test_check_catches_bounds_out_of_order(self, capsys, monkeypatch):
        original = bounds_mod.bound_report

        def swapped(n):
            report = original(n)
            return dataclasses.replace(report, nuclear_lb=report.mathias_lb,
                                       mathias_lb=report.nuclear_lb)

        monkeypatch.setattr(bounds_mod, "bound_report", swapped)
        code, _, err = run_cli(capsys, "bounds", "--n", "64", "--check")  # no SVD above 32
        assert code == 1
        assert failed_checks(err) == [("bounds", "mathias_lb vs nuclear_lb")]

    def test_check_catches_a_disagreeing_svd(self, capsys, monkeypatch):
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs: 1.001 * svd(a, **kwargs))
        code, _, err = run_cli(capsys, "bounds", "--n", "16", "--check")
        assert code == 1
        assert failed_checks(err) == [("bounds", "|SVD nuclear norm / n - nuclear_lb|")]


class TestSweep:
    @pytest.mark.parametrize("methods", [("sqrt", "group-algebra"), fz.METHODS],
                             ids=["n-major", "pool"])
    def test_rows_are_in_tuple_key_order(self, methods):
        # Sizes out of order and repeated: the rows come out as one stable
        # sort of the same rows by (method, metric, n).
        sizes = [64, 1, 8, 1, 3, 64]
        metrics = (*mt.METRICS, *cli.BOUND_METRICS)
        rows = cli.sweep_rows(methods, metrics, sizes)
        unsorted = [row for n in sizes for row in cli.sweep_rows(methods, metrics, [n])]
        assert rows == sorted(unsorted, key=lambda row: (row[1], row[2], row[0]))
        assert len(rows) == len(sizes) * (2 * len(methods) + 2)

    def test_known_values_and_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--methods", "sqrt", "--metrics", "maxse",
                             "--n-min", "2", "--n-max", "4", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,method,metric,value,residual,predicted_residual"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "4"]
        values = [float(r[3]) for r in rows]
        assert abs(values[0] - 1.25) < 1e-12
        assert abs(values[1] - 1.48828125) < 1e-12
        # residual column round-trips bitwise and equals value - log(n)/pi
        for r in rows:
            n, value, residual = int(r[0]), float(r[3]), float(r[4])
            assert residual == value - math.log(n) / math.pi

    def test_svg_emitted(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, _, _ = run_cli(capsys, "sweep", "--methods", "sqrt,nsr",
                             "--metrics", "maxse,nuclear_lb", "--n-min", "4",
                             "--n-max", "32", "--out", str(csv_path),
                             "--svg", str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3  # sqrt/maxse, nsr/maxse, lower-bound/nuclear_lb
        assert "stroke-dasharray" in svg
        assert 'viewBox="0 0 960 540"' in svg

    def test_empty_methods_exits_2_without_file(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, err = run_cli(capsys, "sweep", "--methods", "", "--out", str(path))
        assert code == 2
        assert not path.exists()
        assert "method" in err

    def test_unknown_method_exits_2(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, _, _ = run_cli(capsys, "sweep", "--methods", "qr", "--out", str(path))
        assert code == 2
        assert not path.exists()

    @pytest.mark.parametrize("metrics, message", [("", "empty metric set"),
                                                  ("bogus", "unknown metric(s): bogus")])
    def test_bad_metrics_exit_2_without_file(self, capsys, tmp_path, metrics, message):
        path = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", "--metrics", metrics, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not path.exists()

    @pytest.mark.parametrize("flag, names, kept", [
        ("--methods", "sqrt,sqrt", ["sqrt"]),
        ("--methods", "nsr, sqrt,nsr", ["nsr", "sqrt"]),
        ("--metrics", "maxse,maxse", ["maxse"]),
        ("--metrics", "meanse,maxse,meanse", ["meanse", "maxse"]),
    ])
    def test_repeated_names_count_once(self, capsys, tmp_path, monkeypatch,
                                       flag, names, kept):
        # A repeated method would write and compute every point twice.
        calls = []
        original = cli.sweep_rows

        def recorded(methods, metrics, sizes):
            calls.append(methods if flag == "--methods" else metrics)
            return original(methods, metrics, sizes)

        monkeypatch.setattr(cli, "sweep_rows", recorded)
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", flag, names, "--n-min", "2", "--n-max", "4",
                             "--out", str(path))
        assert (code, calls) == (0, [kept])
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == len(set(rows))

    def test_no_rows_exits_2_without_file(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        # No power of two lies in 3..3.
        code, out, err = run_cli(capsys, "sweep", "--methods", "sqrt", "--n-min", "3",
                                 "--n-max", "3", "--out", str(path))
        assert code == 2
        assert not path.exists()
        assert "no rows" in err
        assert "wrote" not in out

    @pytest.mark.parametrize("methods", ["lower-bound", "sqrt,lower-bound"])
    def test_lower_bound_is_not_a_method(self, capsys, tmp_path, methods):
        # Bound rows follow --metrics; their method column is no choice.
        path = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", "--methods", methods,
                                 "--metrics", "maxse", "--out", str(path))
        assert (code, out, err) == (2, "", "error: unknown method(s): lower-bound\n")
        assert not path.exists()

    @pytest.mark.parametrize("svg", ["sweep.csv", "./link.csv"])
    def test_out_and_svg_naming_one_file_exit_2(self, capsys, tmp_path, monkeypatch, svg):
        # The SVG would overwrite the CSV just written; a symbolic link to
        # it counts as the same file.  Refused before computing.
        def must_not_run(*args, **kwargs):
            raise AssertionError("sweep computed before checking its output paths")

        monkeypatch.setattr(cli, "sweep_rows", must_not_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.csv").symlink_to(tmp_path / "sweep.csv")
        code, out, err = run_cli(capsys, "sweep", "--n-max", "16", "--out", "sweep.csv",
                                 "--svg", svg)
        assert (code, out) == (2, "")
        assert err == f"error: two outputs name one file: sweep.csv and {svg}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv"]

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_path_exits_2_before_computing(self, capsys, tmp_path,
                                                      monkeypatch, flag):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sweep computed before checking its output paths")

        monkeypatch.setattr(cli, "sweep_rows", must_not_run)
        paths = {"--out": str(tmp_path / "sweep.csv"), "--svg": str(tmp_path / "sweep.svg")}
        paths[flag] = str(tmp_path / "missing-dir" / "x")
        code, _, err = run_cli(capsys, "sweep", "--methods", "sqrt", "--metrics", "maxse",
                               "--out", paths["--out"], "--svg", paths["--svg"])
        assert code == 2
        assert "cannot write" in err and "missing-dir" in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_out_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--methods", "sqrt", "--metrics", "maxse",
                               "--out", str(tmp_path))
        assert code == 2
        assert "cannot write" in err

    def test_check_passes_ordering(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--n-min", "4", "--n-max", "64",
                               "--out", str(path), "--check")
        assert code == 0
        assert "CHECK OK" in out

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_threads_is_unrecognized_before_computing(self, capsys, tmp_path,
                                                      monkeypatch, threads):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sweep computed with an unknown option")

        monkeypatch.setattr(cli, "sweep_rows", must_not_run)
        path = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--threads", threads, "--out", str(path)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --threads {threads}" in captured.err
        assert captured.out == ""
        assert not path.exists()

    def test_only_a_sweep_with_nsr_points_starts_a_pool(self, capsys, tmp_path, monkeypatch):
        pools = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        lines = {}
        for methods in ("sqrt,group-algebra", "nsr", "sqrt,nsr,group-algebra"):
            pools.clear()
            path = tmp_path / f"{methods}.csv"
            assert run_cli(capsys, "sweep", "--methods", methods, "--n-max", "1024",
                           "--out", str(path))[0] == 0
            assert len(pools) == ("nsr" in methods)
            lines[methods] = path.read_text().splitlines()
        # The rows of each point do not depend on where it was computed.
        pooled = lines["sqrt,nsr,group-algebra"]
        assert [line for line in pooled if ",nsr," not in line] == lines["sqrt,group-algebra"]
        assert [line for line in pooled if ",nsr," in line] == [
            line for line in lines["nsr"] if ",nsr," in line]

    def test_a_sweep_without_nsr_starts_no_thread(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys, threading, countfact.cli; "
                "countfact.cli.main(['sweep', '--methods', 'sqrt,group-algebra', "
                f"'--out', {str(tmp_path / 'sweep.csv')!r}]); "
                "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert result.stdout.splitlines()[-1] == "1 False"

    def test_rows_do_not_depend_on_the_worker_count(self, capsys, tmp_path, monkeypatch):
        workers = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        outputs = []
        for cpus in (1, 2, 8, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            path = tmp_path / f"sweep-{cpus}.csv"
            assert run_cli(capsys, "sweep", "--out", str(path))[0] == 0
            outputs.append(path.read_bytes())
        assert workers == [1, 2, 4, 1]
        assert outputs[1:] == outputs[:1] * 3

    def test_importing_the_cli_leaves_the_pool_module_unloaded(self):
        # Only the pools import concurrent.futures, and with it logging.
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys, countfact.cli; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize("metrics", ["maxse,meanse,nuclear_lb,mathias_lb",
                                         "maxse"])
    def test_check_computes_one_nuclear_bound_per_size(self, capsys, tmp_path,
                                                       monkeypatch, metrics):
        calls = []
        original = bounds_mod.nuclear_lower_bound

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(bounds_mod, "nuclear_lower_bound", counted)
        code, out, _ = run_cli(capsys, "sweep", "--metrics", metrics,
                               "--out", str(tmp_path / "sweep.csv"), "--check")
        assert code == 0
        assert "CHECK OK [sweep]" in out
        # The check computes the O(1) bound at every size; the nuclear_lb
        # rows, when selected, computed it once more.
        sizes = cli.sweep_sizes(4, 8192, geometric=True)
        assert sorted(calls) == sorted(sizes * (2 if "nuclear_lb" in metrics else 1))

    def test_check_catches_nsr_above_sqrt(self, capsys, tmp_path, monkeypatch):
        original = mt.error_report

        def doubled_nsr(method, n):
            report = original(method, n)
            return (dataclasses.replace(report, maxse=2.0 * report.maxse)
                    if method == fz.NSR else report)

        monkeypatch.setattr(mt, "error_report", doubled_nsr)
        code, _, err = run_cli(capsys, "sweep", "--methods", "sqrt,nsr", "--metrics", "maxse",
                               "--n-min", "2", "--n-max", "8",
                               "--out", str(tmp_path / "sweep.csv"), "--check")
        # n = 2 is exempt: there nsr is below sqrt only from n = 4 on.
        assert code == 1
        assert failed_checks(err) == [("sweep", f"nsr maxse vs sqrt maxse at n = {n}")
                                      for n in (4, 8)]

    def test_every_size_without_geometric(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--methods", "sqrt", "--metrics", "maxse",
                             "--n-min", "3", "--n-max", "6", "--no-geometric",
                             "--out", str(path))
        assert code == 0
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3", "4", "5", "6"]

    def test_n_min_above_n_max_exits_2_without_file(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", "--n-min", "9", "--n-max", "4",
                                 "--out", str(path))
        assert (code, out, err) == (2, "", "error: need 1 <= n_min <= n_max, got 9..4\n")
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        [(8, "sqrt", "maxse", 2.0, 1.0, 1.1)],  # one size: no x range
        [(n, "nsr", "maxse", 2.0, 0.8, 0.8) for n in (4, 8, 16)],  # constant y
    ], ids=["one-size", "constant-residual"])
    def test_svg_of_a_degenerate_range_is_finite(self, tmp_path, rows):
        # The chart widens an empty range to one unit, centred on its value,
        # rather than divide by zero.
        path = tmp_path / "sweep.svg"
        cli.write_sweep_svg(str(path), rows)
        svg = path.read_text()
        coordinates = re.findall(r'\s(?:points|x|y|x1|y1|x2|y2)="([^"]*)"', svg)
        numbers = [float(x) for value in coordinates for x in re.split(r"[ ,]", value)]
        assert svg.count("<polyline") == 1
        assert numbers and all(math.isfinite(x) for x in numbers)
        assert not re.search(r"nan|inf", svg)


# The whole stdout of metrics and bounds, pinned: the report's fields, then
# the closed forms (sqrt, group-algebra) or G(n) (from n = 2 on).  The sqrt
# norms at n = 64 are checked against the golden sums instead.
PRINTED = {
    ("metrics", "--method", "group-algebra", "--n", "64"): (
        "method                     group-algebra\n"
        "n                          64\n"
        "maxse                      2.3050803403564499\n"
        "meanse                     2.3050803403564499\n"
        "maxse_residual             0.98126673944054033\n"
        "meanse_residual            0.98126673944054033\n"
        "predicted_maxse_residual   0.98126141338035655\n"
        "predicted_meanse_residual  0.98126141338035655\n"
        "closed_form_maxse          2.3050803403564499\n"
        "closed_form_meanse         2.3050803403564499\n"),
    ("metrics", "--method", "nsr", "--n", "64"): (
        "method                     nsr\n"
        "n                          64\n"
        "maxse                      2.2117689433623644\n"
        "meanse                     2.1277017443554116\n"
        "maxse_residual             0.8879553424464548\n"
        "meanse_residual            0.80388814343950199\n"
        "predicted_maxse_residual   0.84564025305626267\n"
        "predicted_meanse_residual  0.74796596702512363\n"),
    ("metrics", "--method", "sqrt", "--n", "1"): (
        "method                     sqrt\n"
        "n                          1\n"
        "maxse                      1\n"
        "meanse                     1\n"
        "maxse_residual             1\n"
        "meanse_residual            1\n"
        "predicted_maxse_residual   1.0662758532089143\n"
        "predicted_meanse_residual  0.9071209101170189\n"
        "closed_form_maxse          1\n"),
    ("metrics", "--method", "nsr", "--n", "1"): (
        "method                     nsr\n"
        "n                          1\n"
        "maxse                      1\n"
        "meanse                     1\n"
        "maxse_residual             1\n"
        "meanse_residual            1\n"
        "predicted_maxse_residual   0.84564025305626267\n"
        "predicted_meanse_residual  0.74796596702512363\n"),
    ("metrics", "--method", "group-algebra", "--n", "1"): (
        "method                     group-algebra\n"
        "n                          1\n"
        "maxse                      1\n"
        "meanse                     1\n"
        "maxse_residual             1\n"
        "meanse_residual            1\n"
        "predicted_maxse_residual   0.98126141338035655\n"
        "predicted_meanse_residual  0.98126141338035655\n"
        "closed_form_maxse          1\n"
        "closed_form_meanse         1\n"),
}


class TestSweepComputesOnlyWhatItWrites:
    def test_csv_unchanged_without_closed_forms_or_g_n(self, capsys, tmp_path,
                                                       monkeypatch):
        plain = tmp_path / "plain.csv"
        assert run_cli(capsys, "sweep", "--out", str(plain))[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep computed a value it does not write")

        for name in ("countfact.metrics.closed_form_maxse_sqrt",
                     "countfact.metrics.closed_form_maxse_group_algebra",
                     "countfact.bounds.cosecant_average"):
            monkeypatch.setattr(name, refuse)
        patched = tmp_path / "patched.csv"
        assert run_cli(capsys, "sweep", "--out", str(patched))[0] == 0
        assert patched.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv", PRINTED, ids=[
        "group-algebra", "nsr", "sqrt-n1", "nsr-n1", "group-algebra-n1"])
    def test_metrics_and_bounds_still_print_them(self, capsys, argv):
        assert run_cli(capsys, *argv) == (0, PRINTED[argv], "")

    @pytest.mark.parametrize("n, mathias", [
        (1, ("1", "1")),
        (64, ("1.8332847206745193", "0.5094711197586097")),
    ], ids=["bounds-n1", "bounds"])
    def test_bounds_print_the_golden_sums(self, capsys, n, mathias):
        # The same fields in the same order; the nuclear bound and G(n) are
        # checked against the golden sums, the Mathias bound bitwise.
        code, out, err = run_cli(capsys, "bounds", "--n", str(n))
        assert (code, err) == (0, "")
        fields = dict(line.split() for line in out.splitlines())
        g_n = ["g_n", "g_n_predicted"] if n >= 2 else []
        assert list(fields) == ["n", "nuclear_lb", "mathias_lb", "nuclear_residual",
                                "mathias_residual", "predicted_nuclear_residual",
                                "predicted_mathias_residual", *g_n]
        assert fields["n"] == str(n)
        assert (fields["mathias_lb"], fields["mathias_residual"]) == mathias
        assert fields["predicted_nuclear_residual"] == "0.70189701353300815"
        assert fields["predicted_mathias_residual"] == "0.4812614133803565"
        assert_nuclear_row(n, fields["nuclear_lb"], fields["nuclear_residual"])
        if g_n:
            assert relative_error(float(fields["g_n"]), COSECANT[n][0] / n) <= 1e-14
            assert fields["g_n_predicted"] == "2.7276076279819259"

    def test_sqrt_metrics_print_the_golden_norms(self, capsys):
        # The same fields in the same order; the norms are checked against
        # the golden sums, the closed form too (its own O(n) fsum).
        code, out, err = run_cli(capsys, "metrics", "--method", "sqrt", "--n", "64")
        assert (code, err) == (0, "")
        fields = dict(line.split() for line in out.splitlines())
        assert list(fields) == ["method", "n", "maxse", "meanse", "maxse_residual",
                                "meanse_residual", "predicted_maxse_residual",
                                "predicted_meanse_residual", "closed_form_maxse"]
        assert (fields["method"], fields["n"]) == ("sqrt", "64")
        assert fields["predicted_maxse_residual"] == "1.0662758532089143"
        assert fields["predicted_meanse_residual"] == "0.9071209101170189"
        assert_sqrt_report(64, fields["maxse"], fields["meanse"],
                           fields["maxse_residual"], fields["meanse_residual"])
        assert relative_error(float(fields["closed_form_maxse"]), GOLDEN[64][0]) <= 1e-15


class TestCsvWriter:
    """The CSV files are byte for byte those of the per-command writers the
    one writer replaced."""

    def test_coeffs(self, capsys, tmp_path):
        path = tmp_path / "coeffs.csv"
        assert run_cli(capsys, "coeffs", "--n", "1000", "--csv", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f3878c980c54d7e6384e4999faeeea5a55c09d9643d4639f0f23a2cef44ad3b6")

    def test_metrics_and_bounds_append_under_one_header(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        for argv in (("metrics", "--method", "sqrt", "--n", "64"),
                     ("metrics", "--method", "nsr", "--n", "64"),
                     ("bounds", "--n", "1"),
                     ("bounds", "--n", "5")):
            assert run_cli(capsys, *argv, "--csv", str(path))[0] == 0
        header, sqrt_max, sqrt_mean, *rest = path.read_text().splitlines(keepends=True)
        assert header == "n,method,metric,value,residual,predicted_residual\n"
        # The sqrt rows against the golden sums.
        rows = [line.rstrip("\n").split(",") for line in (sqrt_max, sqrt_mean)]
        assert [row[:3] for row in rows] == [["64", "sqrt", "maxse"], ["64", "sqrt", "meanse"]]
        assert [row[5] for row in rows] == ["1.0662758532089143", "0.9071209101170189"]
        assert_sqrt_report(64, rows[0][3], rows[1][3], rows[0][4], rows[1][4])
        nsr_rows, (nuclear_1, mathias_1), (nuclear_5, mathias_5) = rest[:2], rest[2:4], rest[4:]
        assert "".join(nsr_rows + [mathias_1, mathias_5]) == (
            "64,nsr,maxse,2.2117689433623644,0.8879553424464548,0.84564025305626267\n"
            "64,nsr,meanse,2.1277017443554116,0.80388814343950199,0.74796596702512363\n"
            "1,lower-bound,mathias_lb,1,1,0.4812614133803565\n"
            "5,lower-bound,mathias_lb,1.1933126291998988,0.68101263047312266,"
            "0.4812614133803565\n")
        # The nuclear rows against the golden sums.
        for n, line in ((1, nuclear_1), (5, nuclear_5)):
            row = line.rstrip("\n").split(",")
            assert row[:3] + row[5:] == [str(n), "lower-bound", "nuclear_lb",
                                         "0.70189701353300815"]
            assert_nuclear_row(n, row[3], row[4])

    def test_simulate_appends_under_one_header(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        for argv in (("--method", "nsr", "--seed", "1"),
                     ("--method", "sqrt", "--seed", "2", "--mu", "0.5")):
            assert run_cli(capsys, "simulate", "--n", "64", "--trials", "20", *argv,
                           "--csv", str(path))[0] == 0
        header, nsr, sqrt = path.read_text().splitlines(keepends=True)
        assert header == ("n,method,mu,trials,seed,empirical_err_inf,empirical_err_2,"
                          "theory_err_inf,theory_err_2\n")
        assert nsr == ("64,nsr,1,20,1,2.8916046209078097,2.1274254609308785,"
                       "2.2117689433623644,2.1277017443554116\n")
        # The empirical errors against the dense factor applied to each
        # trial's noise, scaled by the golden S(64); the theory errors are the
        # golden norms over mu = 0.5.
        *fields, err_inf, err_2, theory_inf, theory_2 = sqrt.rstrip("\n").split(",")
        assert fields == ["64", "sqrt", "0.5", "20", "2"]
        r = wallis_coeffs(64)
        dense = np.tril(r[np.subtract.outer(np.arange(64), np.arange(64)) % 64])
        sigma = math.sqrt(float(GOLDEN[64][0])) / 0.5
        devs = np.array([dense @ (sigma * _generator(2, t).standard_normal(64))
                         for t in range(20)])
        per_coord = np.mean(devs * devs, axis=0)
        for printed, oracle in ((err_inf, per_coord.max()), (err_2, per_coord.mean())):
            assert abs(float(printed) / math.sqrt(oracle) - 1) <= 1e-14
        assert_sqrt_report(64, float(theory_inf) / 2, float(theory_2) / 2)


class TestCsvHeader:
    @pytest.mark.parametrize("argv, header", [
        (("metrics", "--method", "sqrt", "--n", "8"), cli.SWEEP_HEADER),
        (("bounds", "--n", "8"), cli.SWEEP_HEADER),
        (("simulate", "--method", "nsr", "--n", "8", "--trials", "2"),
         cli.SIMULATE_HEADER),
    ], ids=["metrics", "bounds", "simulate"])
    def test_existing_empty_file_gets_the_header(self, capsys, tmp_path, argv, header):
        path = tmp_path / "rows.csv"
        path.touch()
        assert run_cli(capsys, *argv, "--csv", str(path))[0] == 0
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert len(lines) > 1 and all(line != lines[0] for line in lines[1:])

    @pytest.mark.parametrize("first, then, compute", [
        (("simulate", "--method", "sqrt", "--n", "4", "--trials", "2", "--csv"),
         ("metrics", "--method", "sqrt", "--n", "4"), "countfact.metrics.error_report"),
        (("simulate", "--method", "sqrt", "--n", "4", "--trials", "2", "--csv"),
         ("bounds", "--n", "4"), "countfact.bounds.bound_report"),
        (("sweep", "--methods", "sqrt", "--metrics", "maxse", "--n-max", "8", "--out"),
         ("simulate", "--method", "sqrt", "--n", "4", "--trials", "2"),
         "countfact.cli.estimate_errors"),
    ], ids=["simulate-then-metrics", "simulate-then-bounds", "sweep-then-simulate"])
    def test_another_commands_file_exits_2_untouched(self, capsys, tmp_path, monkeypatch,
                                                     first, then, compute):
        # Appending would put rows of one schema under the other's header.
        path = tmp_path / "rows.csv"
        assert run_cli(capsys, *first, str(path))[0] == 0
        before = path.read_bytes()

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{then[0]} computed before checking the --csv header")

        monkeypatch.setattr(compute, must_not_run)
        header = cli.SIMULATE_HEADER if then[0] == "simulate" else cli.SWEEP_HEADER
        code, out, err = run_cli(capsys, *then, "--csv", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: --csv {path} does not start with the {then[0]} header "
                       f"{','.join(header)}\n")
        assert path.read_bytes() == before


class TestCsvPaths:
    @pytest.mark.parametrize("argv, module, compute", [
        (("coeffs", "--n", "4"), "countfact.cli", "coefficient_table"),
        (("metrics", "--method", "nsr", "--n", "8"), "countfact.metrics", "error_report"),
        (("bounds", "--n", "8"), "countfact.bounds", "bound_report"),
        (("simulate", "--method", "nsr", "--n", "8", "--trials", "2"),
         "countfact.cli", "estimate_errors"),
    ], ids=["coeffs", "metrics", "bounds", "simulate"])
    @pytest.mark.parametrize("bad", ["missing-dir", "directory"])
    def test_unwritable_csv_exits_2_before_computing(self, capsys, tmp_path,
                                                     monkeypatch, argv, module,
                                                     compute, bad):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{argv[0]} computed before checking --csv")

        monkeypatch.setattr(f"{module}.{compute}", must_not_run)
        path = tmp_path / "missing-dir" / "x.csv" if bad == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--csv", str(path))
        assert code == 2
        assert f"cannot write {path}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestEmptyOutputPath:
    @pytest.mark.parametrize("argv, module, compute", [
        (("sweep", "--methods", "sqrt", "--metrics", "maxse", "--out", ""),
         "countfact.cli", "sweep_rows"),
        (("sweep", "--methods", "sqrt", "--metrics", "maxse", "--out", "sweep.csv",
          "--svg", ""), "countfact.cli", "sweep_rows"),
        (("coeffs", "--n", "4", "--csv", ""), "countfact.cli", "coefficient_table"),
        (("metrics", "--method", "nsr", "--n", "8", "--csv", ""),
         "countfact.metrics", "error_report"),
        (("bounds", "--n", "8", "--csv", ""), "countfact.bounds", "bound_report"),
        (("simulate", "--method", "nsr", "--n", "8", "--trials", "2", "--csv", ""),
         "countfact.cli", "estimate_errors"),
        (("factorize", "--method", "nsr", "--n", "8", "--dump", ""),
         "countfact.factorizations", "factorize"),
    ], ids=["sweep-out", "sweep-svg", "coeffs", "metrics", "bounds", "simulate",
            "factorize-dump"])
    def test_empty_path_exits_2_before_computing(self, capsys, tmp_path, monkeypatch,
                                                 argv, module, compute):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{argv[0]} computed before refusing an empty path")

        monkeypatch.setattr(f"{module}.{compute}", must_not_run)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "cannot write ''" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


FULL = "/dev/full"  # every write to it fails with ENOSPC


@pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} on this system")
class TestWriteFailure:
    """A write that fails after the paths were checked exits 2 and names
    the file, whichever subcommand writes it."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--methods", "sqrt", "--n-max", "16", "--out", FULL),
        ("sweep", "--methods", "sqrt", "--n-max", "16", "--out", "sweep.csv",
         "--svg", FULL),
        ("coeffs", "--n", "4", "--csv", FULL),
        ("metrics", "--method", "nsr", "--n", "4", "--csv", FULL),
        ("bounds", "--n", "4", "--csv", FULL),
        ("simulate", "--method", "nsr", "--n", "4", "--trials", "2", "--csv", FULL),
        ("factorize", "--method", "nsr", "--n", "4", "--dump", "dump"),
    ], ids=["sweep-out", "sweep-svg", "coeffs", "metrics", "bounds", "simulate",
            "factorize-dump"])
    def test_full_device_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        failing = FULL
        if argv[0] == "factorize":
            failing = "dump_left.csv"
            os.symlink(FULL, failing)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: cannot write ")
        assert failing in err and "No space left on device" in err


class TestOutOfMemory:
    """A failed allocation exits 2 with one line; exit 1 is kept for --check."""

    @pytest.mark.parametrize("argv, main_thread", [
        (("metrics", "--method", "sqrt", "--n", "4"), True),
        (("sweep", "--methods", "nsr", "--metrics", "maxse", "--n-max", "8",
          "--out", "sweep.csv"), False),
        (("sweep", "--methods", "sqrt", "--metrics", "maxse", "--n-max", "8",
          "--out", "sweep.csv"), True),
    ], ids=["metrics", "sweep", "sqrt-sweep"])
    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 TiB", ""],
                             ids=["numpy", "bare"])
    def test_memory_error_exits_2(self, capsys, tmp_path, monkeypatch, argv, main_thread,
                                  message):
        threads = []

        def exhausted(*args, **kwargs):
            threads.append(threading.current_thread() is threading.main_thread())
            raise MemoryError(message)

        monkeypatch.setattr("countfact.metrics.error_report", exhausted)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: out of memory{': ' + message if message else ''}\n"
        assert list(tmp_path.iterdir()) == []
        # An nsr sweep raises in a pool worker; metrics and a sqrt sweep in
        # the main thread.
        assert threads and set(threads) == {main_thread}


class TestSizeCheckedFirst:
    @pytest.mark.parametrize("argv", [
        ("coeffs",),
        ("factorize", "--method", "nsr"),
        ("metrics", "--method", "nsr"),
        ("bounds",),
        ("simulate", "--method", "nsr", "--trials", "2"),
    ], ids=["coeffs", "factorize", "metrics", "bounds", "simulate"])
    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_bad_n_exits_2_before_any_work(self, capsys, monkeypatch, argv, n):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{argv[0]} worked before checking --n")

        for target in ("countfact.factorizations.factorize",
                       "countfact.cli.estimate_errors", "countfact.cli.coefficient_table",
                       "countfact.metrics.error_report", "countfact.bounds.bound_report"):
            monkeypatch.setattr(target, must_not_run)
        code, out, err = run_cli(capsys, *argv, "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: n must be an integer >= 1, got {n}\n"


class TestPointChecks:
    """metrics --check and sweep --check share one rule per (method, n)
    point; breaking either ordering fails both subcommands."""

    ARGV = [
        ("metrics", "--method", "sqrt", "--n", "16", "--check"),
        ("sweep", "--methods", "sqrt,nsr", "--metrics", "maxse,meanse", "--n-max", "16",
         "--out", "sweep.csv", "--check"),
    ]

    @pytest.mark.parametrize("argv", ARGV, ids=["metrics", "sweep"])
    def test_meanse_above_maxse_fails(self, capsys, tmp_path, monkeypatch, argv):
        maxse = mt.maxse
        monkeypatch.setattr(mt, "meanse", lambda f: 2.0 * maxse(f))
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        whats = {what.split(" at ")[0] for _, what in failed_checks(err)}
        assert whats == {"meanse vs maxse"}
        assert {label for label, _ in failed_checks(err)} == {argv[0]}

    @pytest.mark.parametrize("argv", ARGV, ids=["metrics", "sweep"])
    def test_nuclear_bound_above_maxse_fails(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(bounds_mod, "nuclear_lower_bound", lambda n: 1e300)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        whats = {what.split(" at ")[0] for _, what in failed_checks(err)}
        assert whats == {"nuclear_lb vs meanse", "nuclear_lb vs maxse"}
        assert {label for label, _ in failed_checks(err)} == {argv[0]}

    def test_a_sweep_without_maxse_orders_the_bound_against_meanse(
            self, capsys, tmp_path, monkeypatch):
        argv = ("sweep", "--metrics", "meanse", "--n-max", "16", "--out", "sweep.csv",
                "--check")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv)[:2] == (0, "wrote sweep.csv (9 rows)\nCHECK OK [sweep]\n")
        monkeypatch.setattr(bounds_mod, "nuclear_lower_bound", lambda n: 1e300)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        failed = failed_checks(err)
        assert {what.split(" at ")[0] for _, what in failed} == {"nuclear_lb vs meanse"}
        assert len(failed) == 9


class TestCheckRecords:
    """Every --check record fails unless measured <= bound: a NaN fails, and
    so does a tie with a strict bound."""

    @pytest.mark.parametrize("target, argv, whats", [
        ("countfact.factorizations.verify_reconstruction",
         ("factorize", "--method", "sqrt", "--n", "8"), ["max |left @ right - counting matrix|"]),
        ("countfact.bounds.nuclear_lower_bound",
         ("metrics", "--method", "sqrt", "--n", "16"),
         ["nuclear_lb vs meanse", "nuclear_lb vs maxse"]),
    ], ids=["factorize", "metrics"])
    def test_a_nan_measurement_fails(self, capsys, monkeypatch, target, argv, whats):
        monkeypatch.setattr(target, lambda *args: math.nan)
        code, out, err = run_cli(capsys, *argv, "--check")
        assert (code, out.count("CHECK OK")) == (1, 0)
        failures = check_failures(err)
        assert [(label, failed) for label, failed, _, _ in failures] == [
            (argv[0], what) for what in whats]
        assert all(math.isnan(measured) for _, _, measured, _ in failures)

    # Correct code leaves |z_mean| below its bound and z_var inside an open
    # band; a value on the edge fails, one inside it passes.
    @pytest.mark.parametrize("bands, what", [
        ((0.5, 0.0, 2.0), "|z_mean| entries not below the bound"),
        ((0.6, 1.0, 2.0), "z_var entries outside the band"),
        ((0.6, 0.0, 1.0), "z_var entries outside the band"),
        ((0.6, 0.0, 2.0), None),
    ])
    def test_simulate_bands_fail_a_tie(self, capsys, monkeypatch, bands, what):
        original = cli.estimate_errors

        def flat(cfg):
            result = original(cfg)
            return dataclasses.replace(result, z_mean=np.full(cfg.factorization.n, -0.5),
                                       z_var=np.ones(cfg.factorization.n))

        monkeypatch.setattr(cli, "estimate_errors", flat)
        monkeypatch.setattr(cli, "_z_bands", lambda trials, n: bands)
        code, _, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "16",
                               "--trials", "20", "--check")
        if what is None:
            assert (code, err) == (0, "")
        else:
            assert code == 1
            assert check_failures(err) == [("simulate", what, 16.0, 0.0)]


class TestSimulate:
    def test_deterministic_output(self, capsys):
        argv = ("simulate", "--method", "nsr", "--n", "8", "--mu", "1",
                "--trials", "100", "--seed", "5")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "8",
                               "--mu", "1", "--trials", "500", "--seed", "5",
                               "--check")
        assert code == 0
        assert "CHECK OK" in out

    @pytest.mark.parametrize("method, n, trials, seed", [
        *(("sqrt", 2048, 200, seed) for seed in range(1, 9)),
        ("nsr", 256, 50, 3),
    ])
    def test_check_passes_at_large_n(self, capsys, method, n, trials, seed):
        # Bounds that do not grow with n failed 5 of these 8 sqrt seeds.
        code, out, err = run_cli(capsys, "simulate", "--method", method, "--n", str(n),
                                 "--trials", str(trials), "--seed", str(seed), "--check")
        assert (code, err) == (0, "")
        assert "CHECK OK [simulate]" in out

    def test_check_fails_on_wrong_row_norms(self, capsys, monkeypatch):
        original = fz.factorize

        def scaled(method, n):
            f = original(method, n)
            return dataclasses.replace(f, row_profile=lambda: 4.0 * f.row_norms_sq_left)

        monkeypatch.setattr(fz, "factorize", scaled)
        code, _, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "2048",
                               "--trials", "200", "--seed", "1", "--check")
        assert code == 1
        assert ("simulate", "z_var entries outside the band") in failed_checks(err)

    def test_check_catches_a_biased_mean(self, capsys, monkeypatch):
        original = cli.estimate_errors

        def biased(cfg):
            result = original(cfg)
            return dataclasses.replace(result, z_mean=result.z_mean + 10.0)

        monkeypatch.setattr(cli, "estimate_errors", biased)
        code, _, err = run_cli(capsys, "simulate", "--method", "nsr", "--n", "64",
                               "--trials", "50", "--seed", "1", "--check")
        assert code == 1
        assert failed_checks(err) == [("simulate", "|z_mean| entries not below the bound")]

    def test_check_catches_a_rerun_that_differs(self, capsys, monkeypatch):
        original, runs = cli.estimate_errors, []

        def drifting(cfg):  # the rerun is one ulp off
            result = original(cfg)
            runs.append(cfg)
            if len(runs) == 1:
                return result
            return dataclasses.replace(
                result, empirical_err_2=math.nextafter(result.empirical_err_2, math.inf))

        monkeypatch.setattr(cli, "estimate_errors", drifting)
        code, _, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "64",
                               "--trials", "50", "--seed", "1", "--check")
        assert code == 1
        assert check_failures(err) == [
            ("simulate", "errors that differ on a same-seed rerun", 1.0, 0.0)]
        assert len(runs) == 2

    def test_ones_input_gives_the_zeros_row(self, capsys, tmp_path):
        # The estimates are computed from the noise alone, whatever the input.
        rows = {}
        for source in ("zeros", "ones"):
            path = tmp_path / f"{source}.csv"
            assert run_cli(capsys, "simulate", "--method", "group-algebra", "--n", "16",
                           "--trials", "20", "--seed", "3", "--input", source,
                           "--csv", str(path))[0] == 0
            rows[source] = path.read_text()
        assert rows["ones"] == rows["zeros"]

    def test_infinite_mu_has_no_z_lines_and_passes_check(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--method", "nsr", "--n", "16",
                                 "--trials", "5", "--mu", "inf", "--check")
        assert (code, err) == (0, "")
        *lines, last = out.splitlines()
        printed = dict(line.split() for line in lines)
        assert printed["empirical_err_inf"] == printed["theory_err_inf"] == "0"
        assert not [name for name in printed if name.startswith("z_")]
        assert last == "CHECK OK [simulate]"

    def test_one_trial_passes_check(self, capsys):
        # One trial leaves z_var = 0: its band is open, only z_mean is tested.
        code, out, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "16",
                                 "--trials", "1", "--check")
        assert (code, err) == (0, "")
        *lines, last = out.splitlines()
        printed = dict(line.split() for line in lines)
        assert printed["z_var_min"] == printed["z_var_max"] == "0"
        assert last == "CHECK OK [simulate]"
        assert cli._z_bands(1, 16)[1:] == (-math.inf, math.inf)

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--mu", "0", "mu must be positive, got 0.0"),
        ("--mu", "nan", "mu must be positive, got nan"),
        ("--seed", "-1", "seed must fit in an unsigned 64-bit integer"),
    ])
    def test_bad_parameters_exit_2_before_factorizing(self, capsys, monkeypatch,
                                                      flag, value, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulate factorized before checking its parameters")

        monkeypatch.setattr("countfact.factorizations.factorize", must_not_run)
        code, out, err = run_cli(capsys, "simulate", "--method", "group-algebra",
                                 "--n", "1048576", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["group-algebra", "nsr"])
    @pytest.mark.parametrize("mu, overflow", [("1e-320", "the noise scale sigma overflows"),
                                              ("1e-200", "the squared deviations overflow")])
    def test_mu_too_small_exits_2(self, capsys, method, mu, overflow):
        # Unrefused, sigma = inf prints NaN errors and fails the rerun check
        # (NaN != NaN), and sigma = 1e200 prints inf errors under CHECK OK.
        code, out, err = run_cli(capsys, "simulate", "--method", method, "--n", "4",
                                 "--trials", "3", "--mu", mu, "--check")
        assert (code, out) == (2, "")
        assert err == f"error: mu = {float(mu)!r} is too small: {overflow}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["group-algebra", "nsr"])
    @pytest.mark.parametrize("mu, overflow", [("1e-320", "the noise scale sigma overflows"),
                                              ("1e-305", "the squared deviations overflow"),
                                              ("1e-200", "the squared deviations overflow")])
    def test_mu_too_small_exits_2_on_the_pool(self, capsys, monkeypatch, method, mu, overflow):
        # At n = POOL_FLOOR the trials run on worker threads.  At mu = 1e-305
        # the apply itself overflows there; at 1e-200 only the squares do.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, "simulate", "--method", method,
                                 "--n", str(POOL_FLOOR), "--trials", "3", "--mu", mu)
        assert (code, out) == (2, "")
        assert err == f"error: mu = {float(mu)!r} is too small: {overflow}\n"

    def test_small_finite_mu_passes(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--method", "group-algebra", "--n", "4",
                                 "--trials", "3", "--mu", "1e-150", "--check")
        assert (code, err) == (0, "")
        *lines, last = out.splitlines()
        values = dict(line.split() for line in lines)
        for name in ("empirical_err_inf", "empirical_err_2", "theory_err_inf", "theory_err_2"):
            assert math.isfinite(float(values[name])), name
        assert last == "CHECK OK [simulate]"

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n".join(str(float(i)) for i in range(4)) + "\n")
        code, out, _ = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "4",
                               "--trials", "10", "--seed", "1", "--input", str(path))
        assert code == 0
        assert "empirical_err_inf" in out

    @pytest.mark.parametrize("csv", ["x.csv", "link.csv"])
    def test_input_naming_the_csv_exits_2_untouched(self, capsys, tmp_path, monkeypatch,
                                                     csv):
        # The appended row would corrupt the input for its next run; a
        # symbolic link to it counts as the same file.
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulate factorized before checking its paths")

        monkeypatch.setattr(fz, "factorize", must_not_run)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "x.csv"
        path.write_text("0\n1\n2\n3\n")
        (tmp_path / "link.csv").symlink_to(path)
        code, out, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "4",
                                 "--trials", "2", "--input", "x.csv", "--csv", csv)
        assert (code, out, err) == (2, "", "error: --input x.csv is also an output\n")
        assert path.read_text() == "0\n1\n2\n3\n"

    @staticmethod
    def run_with_input(capsys, monkeypatch, path):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulate factorized before reading its input")

        monkeypatch.setattr(fz, "factorize", must_not_run)
        return run_cli(capsys, "simulate", "--method", "sqrt", "--n", "4",
                       "--trials", "10", "--seed", "1", "--input", str(path))

    def test_input_length_mismatch_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n")
        code, out, err = self.run_with_input(capsys, monkeypatch, path)
        assert (code, out) == (2, "")
        assert err == "error: input length 2 != n = 4\n"

    def test_missing_input_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "missing.csv"
        code, out, err = self.run_with_input(capsys, monkeypatch, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_non_numeric_input_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        code, out, err = self.run_with_input(capsys, monkeypatch, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --input {path} is not a numeric CSV: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, columns", [("1,2\n3,4\n", 2), ("1,2,3,4\n", 4)],
                             ids=["two-by-two", "one-row"])
    def test_multi_column_input_exits_2(self, capsys, tmp_path, monkeypatch, text, columns):
        path = tmp_path / "x.csv"
        path.write_text(text)
        code, out, err = self.run_with_input(capsys, monkeypatch, path)
        assert (code, out) == (2, "")
        assert err == f"error: --input {path} has {columns} columns, not one\n"

    @pytest.mark.filterwarnings("error")  # numpy warns on an empty file
    def test_empty_input_exits_2_with_the_length_message_only(self, capsys, tmp_path,
                                                               monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("")
        code, out, err = self.run_with_input(capsys, monkeypatch, path)
        assert (code, out) == (2, "")
        assert err == "error: input length 0 != n = 4\n"


class TestReadmeSynopsis:
    def test_options_match_the_parser(self):
        """README's CLI block lists exactly the options of each subcommand."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        documented = {}
        for line in block.strip().splitlines():
            if line.startswith("countfact "):
                command = line.split()[1]
            documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        parsed = {name: {flag for action in parser._actions for flag in action.option_strings}
                  - {"-h", "--help"} for name, parser in subparsers.choices.items()}
        assert documented == parsed
