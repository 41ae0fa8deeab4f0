"""End-to-end tests of the command-line interface (invoked in-process)."""

import math

import numpy as np
import pytest

from countfact import cli
from countfact.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_method_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["factorize", "--method", "qr", "--n", "4"])
        assert excinfo.value.code == 2


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


class TestBounds:
    def test_n1_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--check")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("nuclear_lb"))
        assert abs(float(line.split()[-1]) - 1.0) < 1e-12


class TestSweep:
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

    @pytest.mark.parametrize("selection", [
        ("--methods", "lower-bound", "--metrics", "maxse"),
        ("--methods", "sqrt", "--n-min", "3", "--n-max", "3"),  # no power of two
    ])
    def test_no_rows_exits_2_without_file(self, capsys, tmp_path, selection):
        path = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", *selection, "--out", str(path))
        assert code == 2
        assert not path.exists()
        assert "no rows" in err
        assert "wrote" not in out

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
                               "--out", str(path), "--check", "--threads", "2")
        assert code == 0
        assert "CHECK OK" in out


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

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n".join(str(float(i)) for i in range(4)) + "\n")
        code, out, _ = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "4",
                               "--trials", "10", "--seed", "1", "--input", str(path))
        assert code == 0
        assert "empirical_err_inf" in out

    def test_input_length_mismatch_exits_2(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n")
        code, _, err = run_cli(capsys, "simulate", "--method", "sqrt", "--n", "4",
                               "--trials", "10", "--seed", "1", "--input", str(path))
        assert code == 2
        assert "length" in err
