"""countfact benchmark: the CLI paths behind the paper's outputs, timed cold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout this file sits in,
and the countfact package is taken from its ``src`` directory.

``--trace 0`` launches the countfact CLI as cold child processes, one at a
time, so every run pays for the import and for filling every cache, as a
user's run does.  One round is the workload's invocations in order, then
SETUP_SAMPLES_PER_ROUND children that only import; rounds repeat while
another fits in S seconds.  End-to-end metrics:

  wall_s       median over rounds of the round's wall time, spawn to exit,
               summed over its invocations
  setup_s      spawn until ``import countfact.cli`` returns: the median over
               every cold import of the run (each invocation's and each
               import-only child's) times the invocations per round, so the
               set-up one round of the workload pays
  peak_rss_mb  median over rounds of the largest ru_maxrss (from os.wait4)
               among the round's invocations

``--trace 1`` runs the same invocations inside this process through
``countfact.cli.main``, alternating untraced and traced rounds with the
coefficient and NSR caches cleared before each round, and reports the
per-layer metrics of tracing.py (medians over traced rounds), plus
``setup.import_ms`` (median over IMPORT_SAMPLES cold imports) and
``trace.overhead_ms`` (traced minus untraced round wall time).

Every output of every invocation is checked (checks.py); an invocation that
exits non-zero or fails a check counts in ``failed``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; a ``provenance`` line precedes it, and the whole result, with raw
samples, goes to perfbench/out/.  Without a result the exit code is 1: the
countfact sources are missing or do not import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

CHILD_TIMEOUT_S = 150  # a hung child is killed and counted as failed
IMPORT_SAMPLES = 5
SETUP_SAMPLES_PER_ROUND = 4
SIMULATE_N = 8192
SIMULATE_TRIALS = 200


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[], list[str]]


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


# The sweeps take no random input, so the seed leaves them unchanged.  The
# reason for each workload is its "why" line in BENCHMARK.json.


def sweep_32k(seed: int, work: Path) -> list[Invocation]:
    out, svg = work / "sweep.csv", work / "sweep.svg"
    reference = checks.REFERENCE_DIR / "sweep-32k.csv"
    return [Invocation(
        "sweep", ["sweep", "--n-max", "32768", "--out", rel(out), "--svg", rel(svg)],
        (out, svg),
        lambda: checks.compare_sweep(out, reference) + checks.check_svg(svg, out))]


def sweep_1m_fast(seed: int, work: Path) -> list[Invocation]:
    out = work / "sweep.csv"
    reference = checks.REFERENCE_DIR / "sweep-1m-fast.csv"
    return [Invocation(
        "sweep", ["sweep", "--methods", "sqrt,group-algebra", "--n-max", "1048576",
                  "--out", rel(out)],
        (out,), lambda: checks.compare_sweep(out, reference))]


def simulate_8k(seed: int, work: Path) -> list[Invocation]:
    cli_seed = seed % 2**64  # the CLI takes an unsigned 64-bit seed
    reference = checks.REFERENCE_DIR / "simulate-8k.csv"
    first_rows: dict = {}  # (method, seed) -> first output row of this run
    invocations = []
    for method in ("nsr", "group-algebra"):
        out = work / f"simulate-{method}.csv"
        invocations.append(Invocation(
            method, ["simulate", "--method", method, "--n", str(SIMULATE_N),
                     "--trials", str(SIMULATE_TRIALS), "--seed", str(cli_seed),
                     "--csv", rel(out)],
            (out,),
            lambda out=out, method=method: checks.check_simulate(
                out, reference, method, cli_seed, SIMULATE_TRIALS, first_rows)))
    return invocations


WORKLOADS = {
    "sweep-32k": sweep_32k,
    "sweep-1m-fast": sweep_1m_fast,
    "simulate-8k": simulate_8k,
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list[str], log_dir: Path) -> dict:
    """Run child.py with argv to exit; wall, set-up, peak RSS and exit code."""
    stdout_path, stderr_path = log_dir / "child.out", log_dir / "child.err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = tracing.now_ns()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = tracing.now_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    imported = None
    stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
    for line in stderr_text.splitlines():
        marker, _, value = line.partition(" ")
        if marker == "perfbench-imported":
            imported = int(value)
    return {
        "argv": argv,
        "exit_code": proc.returncode,
        "wall_s": (end - start) / 1e9,
        "setup_s": None if imported is None else (imported - start) / 1e9,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": stderr_text,
    }


def preflight(log_dir: Path) -> dict:
    """Check that the checkout's countfact imports; return its versions."""
    if not (SRC / "countfact" / "cli.py").is_file():
        raise SystemExit(f"error: no countfact sources at {rel(SRC)}/countfact")
    result = spawn(["--import-only"], log_dir)
    if result["exit_code"] != 0:
        raise SystemExit(f"error: countfact does not import:\n{result['stderr']}")
    info = json.loads(result["stdout"].splitlines()[-1])
    if not Path(info["countfact_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: countfact imported from {info['countfact_file']},"
                         f" not from {SRC}")
    info["import_s"] = result["setup_s"]
    return info


def _clear_outputs(invocation: Invocation) -> None:
    for path in invocation.outputs:
        path.unlink(missing_ok=True)


def cold_round(invocations: list[Invocation], log_dir: Path) -> dict:
    records = []
    for invocation in invocations:
        _clear_outputs(invocation)
        record = spawn(invocation.argv, log_dir)
        failures = [] if record["exit_code"] == 0 else [
            f"{invocation.label} exited {record['exit_code']}: {record['stderr'][-500:]}"]
        failures += invocation.check() if not failures else []
        del record["stdout"], record["stderr"]
        record.update(label=invocation.label, failures=failures)
        records.append(record)
    setups = [r["setup_s"] for r in records]
    return {
        "invocations": records,
        "wall_s": sum(r["wall_s"] for r in records),
        "setup_s": None if None in setups else sum(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def _repeat(seconds: float, one_round: Callable[[int], object]) -> list:
    """Rounds until the next one, at the median round time, would end past
    ``seconds``; at least one."""
    start = tracing.now_ns()
    results, durations = [], []
    while True:
        began = tracing.now_ns()
        results.append(one_round(len(results)))
        durations.append(tracing.now_ns() - began)
        if tracing.now_ns() - start + statistics.median(durations) > seconds * 1e9:
            return results


def measure_cold(invocations, seconds, log_dir) -> tuple[dict, list[dict]]:
    def one_round(i: int) -> dict:
        result = cold_round(invocations, log_dir)
        result["import_only_setup_s"] = [spawn(["--import-only"], log_dir)["setup_s"]
                                         for _ in range(SETUP_SAMPLES_PER_ROUND)]
        return result

    rounds = _repeat(seconds, one_round)
    imports = [s for r in rounds
               for s in [*(inv["setup_s"] for inv in r["invocations"]),
                         *r["import_only_setup_s"]]
               if s is not None]
    if not imports:
        raise SystemExit("error: no child reached the end of its import:\n"
                         + json.dumps(rounds[-1]["invocations"], indent=1))
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(imports) * len(invocations)
    return metrics, rounds


# ---------------------------------------------------------------------------
# in-process traced run
# ---------------------------------------------------------------------------


def _run_main(main, argv: list[str]) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, stderr.getvalue()


def in_process_round(invocations, traced: bool) -> dict:
    import countfact.cli

    tracing.clear_caches()
    for invocation in invocations:
        _clear_outputs(invocation)
    recorder = tracing.Recorder()
    runs = []
    instrumentation = (tracing.Instrumentation(recorder) if traced
                       else contextlib.nullcontext())
    start = tracing.now_ns()
    with instrumentation:
        for invocation in invocations:
            span = recorder.open("cli.main", {"label": invocation.label}) if traced else None
            runs.append(_run_main(countfact.cli.main, invocation.argv))
            if span is not None:
                recorder.close(span)
    wall = tracing.now_ns() - start
    records = []
    for invocation, (code, stderr) in zip(invocations, runs):
        failures = invocation.check() if code == 0 else [
            f"{invocation.label} exited {code}: {stderr[-500:]}"]
        records.append({"label": invocation.label, "argv": invocation.argv,
                         "exit_code": code, "failures": failures})
    out = {"traced": traced, "wall_ms": wall / 1e6, "invocations": records}
    if traced:
        out["metrics"] = tracing.layer_metrics(recorder, wall)
        out["spans"] = recorder.spans
    return out


def measure_traced(invocations, seconds, log_dir, spans_path) -> tuple[dict, list[dict]]:
    imports = [preflight(log_dir)["import_s"] for _ in range(IMPORT_SAMPLES)]
    sys.path.insert(0, str(SRC))

    def pair(i: int) -> list[dict]:
        # Alternate which side of the pair goes first, so drift hits both.
        order = (False, True) if i % 2 == 0 else (True, False)
        return [in_process_round(invocations, traced) for traced in order]

    rounds = [r for p in _repeat(seconds, pair) for r in p]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {name: statistics.median(r["metrics"][name] for r in traced)
               for name in traced[0]["metrics"]}
    metrics["setup.import_ms"] = statistics.median(imports) * 1e3
    metrics["trace.overhead_ms"] = (statistics.median(r["wall_ms"] for r in traced)
                                    - statistics.median(r["wall_ms"] for r in plain))
    _write_spans(traced[-1]["spans"], spans_path)
    for r in traced:
        del r["spans"]
    return metrics, rounds


def _write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start_ns": s.start, "end_ns": s.end,
                                     "cpu_ns": s.cpu, "attrs": s.attrs}) + "\n")


def separation(metrics: dict) -> list[str]:
    """How far the workload isolates the layers it is meant to stress."""
    wall = metrics["trace.wall_ms"]
    lines = [
        f"nsr_row_norms_sq self / traced wall (pool points overlap; can exceed 1) = "
        f"{metrics['factorizations.nsr_row_norms_sq.self_ms'] / wall:.3f}",
        f"structmat.apply calls = {metrics['structmat.apply.calls']:g}",
        f"unattributed / traced wall = {metrics['trace.unattributed_ms'] / wall:.3f}",
    ]
    if "cli.main.nsr_ms" in metrics:
        lines.append(f"NsrLeft apply self / nsr invocation wall = "
                     f"{metrics['structmat.apply.NsrLeft.self_ms'] / metrics['cli.main.nsr_ms']:.3f}")
    return lines


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def tally(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Invocations attempted, invocations failed, and every failure message."""
    invocations = [inv for r in rounds for inv in r["invocations"]]
    failures = [f for inv in invocations for f in inv["failures"]]
    return len(invocations), sum(1 for inv in invocations if inv["failures"]), failures


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "countfact").rglob("*.py")):
        digest.update(rel(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(args, versions: dict, invocations: list[Invocation]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [["countfact", *inv.argv] for inv in invocations],
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "platform": platform.platform(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        versions = preflight(work)
        invocations = WORKLOADS[args.workload](args.seed, work)
        benchmark = load_benchmark()
        if args.trace:
            metrics, rounds = measure_traced(
                invocations, args.seconds, work,
                OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            wanted = benchmark["per_layer"]
            samples = (f"{sum(r['traced'] for r in rounds)} traced rounds"
                       f" ({IMPORT_SAMPLES} cold imports for setup.import_ms)")
        else:
            metrics, rounds = measure_cold(invocations, args.seconds, work)
            wanted = benchmark["end_to_end"]
            samples = (f"{len(rounds)} rounds ({len(rounds) * SETUP_SAMPLES_PER_ROUND}"
                       f" more cold imports for setup_s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures = tally(rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"provenance": provenance(args, versions, invocations), "result": result,
              "error_rate": failed / attempted, "failures": failures, "rounds": rounds}
    if args.trace:
        record["separation"] = separation(metrics)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload} seed {args.seed}: medians over {samples}; "
          f"{attempted} invocations, error_rate {failed / attempted:g}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>16.6f} {entry['unit']}")
    for line in record.get("separation", []):
        print(f"  separation: {line}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
