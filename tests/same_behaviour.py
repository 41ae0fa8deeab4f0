"""The "same behaviour" matrix: CLI runs whose every output byte is pinned.

Each run goes through ``cli.main`` in process, in a directory of its own,
with relative output paths, so that nothing printed names a temporary path.
Its record is the exit code and the sha256 of stdout, stderr and every file
it wrote.  ``same_behaviour.json`` holds the records of the committed code,
with the numpy version and machine they were taken on; run this module to
regenerate it:

    PYTHONPATH=src python tests/same_behaviour.py

A change that moves values on purpose regenerates the table and names each
digest that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from countfact import cli
from countfact.factorizations import GROUP_ALGEBRA, METHODS
from countfact.mechanism import POOL_FLOOR

TABLE = Path(__file__).with_name("same_behaviour.json")


def _matrix() -> list[tuple[str, ...]]:
    runs = [
        ("sweep", "--out", "sweep.csv", "--svg", "sweep.svg", "--check"),
        ("sweep", "--n-max", "32768", "--out", "sweep.csv", "--svg", "sweep.svg"),
        ("sweep", "--methods", "sqrt,group-algebra", "--n-max", "1048576",
         "--out", "sweep.csv"),
        # Every integer size on the n-major path, and a check without maxse.
        ("sweep", "--no-geometric", "--n-min", "1", "--n-max", "300",
         "--methods", "sqrt,group-algebra", "--out", "sweep.csv", "--svg", "sweep.svg",
         "--check"),
        ("sweep", "--metrics", "meanse", "--out", "sweep.csv", "--check"),
        # Bound rows only: the check orders the Mathias bound at each size.
        ("sweep", "--metrics", "nuclear_lb,mathias_lb", "--out", "sweep.csv", "--check"),
    ]
    for method in METHODS:
        runs += [("metrics", "--method", method, "--n", n, "--check", "--csv", "rows.csv")
                 for n in ("1", "2", "64", "4096")]
        runs += [
            ("factorize", "--method", method, "--n", "61", "--dump", "f", "--check"),
            ("simulate", "--method", method, "--n", "64", "--trials", "50", "--check",
             "--csv", "sim.csv"),
            ("simulate", "--method", method, "--n", "8192", "--trials", "200",
             "--seed", "1", "--csv", "sim.csv"),
        ]
    runs += [("bounds", "--n", n, "--check", "--csv", "rows.csv")
             for n in ("1", "2", "5", "64", "4096")]
    runs += [("coeffs", "--n", n, "--csv", "coeffs.csv", "--check")
             for n in ("1", "2", "300")]
    # mu = inf (sigma = 0) below the pool floor and on the pool.
    runs += [("simulate", "--method", GROUP_ALGEBRA, "--n", n, "--mu", "inf",
              "--trials", "3", "--check", "--csv", "sim.csv")
             for n in ("8", str(POOL_FLOOR))]
    return runs


MATRIX = _matrix()


def label(argv) -> str:
    return " ".join(argv)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv, directory: Path) -> dict:
    """Run argv in directory, which must be empty, and return its record."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return digests(code, out.getvalue(), err.getvalue(), directory)


def digests(code: int, stdout: str, stderr: str, directory: Path) -> dict:
    """The record of a run that exited with code, printed stdout and stderr
    and wrote the files in directory."""
    files = {path.relative_to(directory).as_posix(): _sha256(path.read_bytes())
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": _sha256(stdout.encode()),
            "stderr": _sha256(stderr.encode()), "files": files}


def platform_key() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def main() -> None:
    runs = {}
    for argv in MATRIX:
        with tempfile.TemporaryDirectory() as directory:
            runs[label(argv)] = record(argv, Path(directory))
    TABLE.write_text(json.dumps({**platform_key(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {TABLE} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
