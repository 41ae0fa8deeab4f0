"""Run the benchmark over several seeds and report every metric with its spread.

    python3 perfbench/report.py [--runs 10] [--first-seed 1]

For each workload of BENCHMARK.json this makes --runs untraced runs of
run.py, one seed each, of BENCHMARK.json's run_seconds, and prints per
end-to-end metric the median of the runs, the quartile
spread (q3 - q1) / median from ``statistics.quantiles(values, n=4)``, and
the metric's bound; a spread at or above a third of the bound is flagged,
and makes the exit code 1.  Then one traced run per workload prints the
per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    benchmark = run.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = benchmark["run_seconds"]

    steady = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = [bench(workload, args.first_seed + i, seconds, 0)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, {attempted} invocations, "
              f"error_rate {failed / attempted:g}")
        for metric in benchmark["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            spread = 0.0
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            flag = "" if spread < metric["bound"] / 3 else "  SPREAD >= bound/3"
            steady &= not flag
            print(f"  {metric['name']:<14} median {median:12.6f} {metric['unit']:<3} "
                  f"spread {spread:7.4f}  bound {metric['bound']}{flag}")
            print(f"  {'':<14} values {' '.join(f'{v:.4f}' for v in values)}")
        traced = bench(workload, args.first_seed, seconds, 1)
        print(f"  traced run: {traced['attempted']} invocations, {traced['failed']} failed")
        for name, entry in traced["metrics"].items():
            print(f"    {name:<48} {entry['value']:>16.6f} {entry['unit']}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
