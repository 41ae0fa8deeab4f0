"""The benchmark's per-layer spans (perfbench/tracing.py) still see countfact.

The spans are installed from outside the package by function and class name,
and read attributes such as n off the arguments.  A renamed function zeroes
its layer's metrics, and an argument that loses the attribute a span reads
crashes the traced benchmark run; both show up here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402

from countfact import cli, factorizations, structmat  # noqa: E402

# Every span perfbench installs but structmat.circulant, whose three
# functions are gone.
LAYERS = ("sequences.coefficient_table", "factorizations.nsr_row_norms_sq",
          "factorizations.factorize", "metrics.error_report", "bounds.bound_report",
          "mechanism.estimate_errors", "cli.sweep_rows", "cli.write")


@pytest.fixture(scope="module")
def spans(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    argvs = [
        ["sweep", "--n-max", "64", "--out", str(out / "sweep.csv"),
         "--svg", str(out / "sweep.svg")],
        *(["simulate", "--method", method, "--n", "64", "--trials", "3"]
          for method in ("nsr", "group-algebra")),
    ]
    recorder = tracing.Recorder()
    tracing.clear_caches()
    with tracing.Instrumentation(recorder):
        codes = [cli.main(argv) for argv in argvs]
    assert codes == [0, 0, 0]
    return recorder.spans


@pytest.mark.parametrize("name", LAYERS)
def test_layer_recorded(spans, name):
    recorded = [span for span in spans if span.name == name]
    assert recorded, f"no {name} span"
    assert all(span.end >= span.start for span in recorded)


def test_half_spectrum_built_only_by_simulate(tmp_path, monkeypatch):
    # The group-algebra root spectrum, which the structmat.circulant layer
    # used to trace, is computed by the first apply: a sweep never builds
    # it, and each simulate builds it once, whatever its trial count.
    calls = []
    original = factorizations.circulant_half_spectrum

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(factorizations, "circulant_half_spectrum", counted)
    assert cli.main(["sweep", "--n-max", "64", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert calls == []
    for trials in ("1", "3"):
        assert cli.main(["simulate", "--method", "group-algebra", "--n", "64",
                         "--trials", trials]) == 0
    assert calls == [64, 64]


def test_sweep_points_hang_under_sweep_rows(spans):
    # perfbench's cli.sweep_rows.wait_ms and parallel_ratio read only the
    # children of that span: 3 methods and the bounds at 5 sizes.
    (sweep,) = [span for span in spans if span.name == "cli.sweep_rows"]
    points = [span for span in spans
              if span.name in ("metrics.error_report", "bounds.bound_report")]
    assert len(points) == 20
    assert all(span.parent == sweep.id for span in points)


@pytest.mark.parametrize("cls", ["NsrLeft", "CirculantSlice"])
def test_apply_recorded_per_class(spans, cls):
    applies = [span for span in spans
               if span.name == "structmat.apply" and span.attrs["cls"] == cls]
    assert len(applies) == 3  # one per trial
    assert {span.attrs["n"] for span in applies} == {64}


def test_inherited_apply_recorded_under_the_runtime_class():
    # LowerTriangularToeplitz inherits CirculantSlice.apply, which is the
    # method traced; the span still names the class of the operator.
    recorder = tracing.Recorder()
    op = structmat.LowerTriangularToeplitz([1.0, 0.5, 0.375])
    with tracing.Instrumentation(recorder):
        op.apply(np.ones(3))
    assert [(span.name, span.attrs) for span in recorder.spans] == [
        ("structmat.apply", {"cls": "LowerTriangularToeplitz", "n": 3})]


def test_spans_recorded_when_only_the_cli_is_imported_first(tmp_path):
    # perfbench's in-process round imports countfact.cli alone before it
    # installs the spans, and Instrumentation patches only the countfact
    # modules loaded by then; the fixture above imports more itself.  A
    # module the package loaded late would lose its spans here.
    argvs = [
        ["sweep", "--n-max", "64", "--out", str(tmp_path / "sweep.csv"),
         "--svg", str(tmp_path / "sweep.svg")],
        *(["simulate", "--method", method, "--n", "64", "--trials", "3"]
          for method in ("nsr", "group-algebra")),
    ]
    code = f"""\
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1])!r})
from perfbench import tracing
import countfact.cli
tracing.clear_caches()
recorder = tracing.Recorder()
with tracing.Instrumentation(recorder):
    codes = [countfact.cli.main(argv) for argv in {argvs!r}]
print(json.dumps([codes, sorted({{span.name for span in recorder.spans}})]))
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    codes, names = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert set(LAYERS) | {"structmat.apply"} <= set(names)
