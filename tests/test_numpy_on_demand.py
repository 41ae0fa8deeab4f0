"""numpy is imported only inside the functions that build or read arrays.

Importing the package or the CLI loads no numpy, and neither does a sweep
whose every number is O(1) scalar arithmetic.  None of them loads
dataclasses or inspect either.  Each check runs in a fresh interpreter,
since the test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from same_behaviour import TABLE, digests, label, platform_key, record

import countfact
from countfact.mechanism import POOL_FLOOR

SRC = Path(countfact.__file__).resolve().parents[1]

# Writes which of numpy, dataclasses and inspect were loaded after
# `import countfact`, after `import countfact.cli` and after cli.main(argv),
# then exits with main's code.  numpy's own import loads inspect.
_LOADED_SCRIPT = """\
import json, sys
def watched():
    return [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
import countfact
loaded = [watched()]
import countfact.cli
loaded.append(watched())
code = countfact.cli.main(json.loads(sys.argv[1]))
loaded.append(watched())
with open(sys.argv[2], "w") as handle:
    json.dump(loaded, handle)
sys.exit(code)
"""

# Records the thread of numpy's first import during cli.main(argv).
_THREAD_SCRIPT = """\
import json, sys, threading
importers = []
sys.addaudithook(lambda event, args: importers.append(threading.current_thread().name)
                 if event == "import" and args[0] == "numpy" else None)
import countfact.cli
code = countfact.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, importers, threading.main_thread().name]))
"""

NUMPY_FREE = ("sweep", "--methods", "sqrt", "--metrics", "maxse,meanse,nuclear_lb",
              "--n-min", "1", "--n-max", "64", "--no-geometric", "--out", "sweep.csv",
              "--check")
# Runs of the same-behaviour matrix that build arrays.
NUMPY_USERS = (
    ("sweep", "--out", "sweep.csv", "--svg", "sweep.svg", "--check"),
    ("simulate", "--method", "nsr", "--n", "64", "--trials", "50", "--check",
     "--csv", "sim.csv"),
    ("coeffs", "--n", "300", "--csv", "coeffs.csv", "--check"),
    ("factorize", "--method", "sqrt", "--n", "61", "--dump", "f", "--check"),
)


def _fresh(script: str, argv, cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, json.dumps(list(argv)), *extra],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def _fresh_record(argv, tmp_path: Path) -> tuple[list[list[str]], dict]:
    """Which watched modules were loaded at each step of a fresh run of argv,
    and the run's record as same_behaviour.record makes it."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    loaded_path = tmp_path / "loaded.json"
    result = _fresh(_LOADED_SCRIPT, argv, run_dir, str(loaded_path))
    return json.loads(loaded_path.read_text()), digests(
        result.returncode, result.stdout, result.stderr, run_dir)


def test_scalar_sweep_loads_no_numpy(tmp_path):
    # --n-min 1 covers the sums below the series floor, n < 16.
    loaded, fresh = _fresh_record(NUMPY_FREE, tmp_path)
    assert loaded == [[], [], []]
    in_process = tmp_path / "in_process"
    in_process.mkdir()
    assert fresh == record(NUMPY_FREE, in_process)
    assert fresh["exit"] == 0


@pytest.mark.parametrize("argv", NUMPY_USERS, ids=label)
def test_array_commands_load_numpy_and_print_as_before(tmp_path, argv):
    loaded, fresh = _fresh_record(argv, tmp_path)
    assert loaded[:2] == [[], []] and "numpy" in loaded[2]
    table = json.loads(TABLE.read_text())
    if {key: table[key] for key in platform_key()} != platform_key():
        pytest.skip(f"digests were taken on another platform than {platform_key()}")
    assert fresh == table["runs"][label(argv)]


@pytest.mark.parametrize("argv", [
    ("sweep", "--methods", "sqrt,nsr", "--n-max", "4096", "--out", "sweep.csv"),
    ("simulate", "--method", "nsr", "--n", str(POOL_FLOOR), "--trials", "3"),
], ids=["nsr-sweep-pool", "simulate-pool"])
def test_numpy_is_first_imported_on_the_calling_thread(tmp_path, argv):
    # Both pools start only after the calling thread has imported numpy.
    result = _fresh(_THREAD_SCRIPT, argv, tmp_path)
    code, importers, main_thread = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert importers == [main_thread]
