"""Every benchmark workload's outputs pass the benchmark's own checks.

perfbench/run.py builds each workload's CLI invocations, and perfbench/checks.py
compares their outputs with the pinned references under perfbench/reference/.
Running them here, in process, shows a change that moves a benchmarked number
past the checks' tolerance before the benchmark itself runs.
"""

import sys
from pathlib import Path

import pytest

# run.py imports checks and tracing as top-level modules from its own directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

from countfact import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_passes_its_reference_checks(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(run.ROOT)  # the argv paths are relative to the checkout
    for invocation in run.WORKLOADS[workload](1, tmp_path):
        assert cli.main(invocation.argv) == 0, invocation.label
        assert invocation.check() == [], invocation.label
