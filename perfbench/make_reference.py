"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload's invocations once, cold, at checks.REFERENCE_SEED and
writes the CSV rows they produce to reference/<workload>.csv.  The files in
the repository were made this way when the benchmark was defined and are
pinned: rerunning this after a change to countfact would make the
correctness check compare the change with itself.
"""

import shutil
import sys

import checks
import run


def main() -> int:
    work = run.OUT / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        run.preflight(work)
        for name, build in run.WORKLOADS.items():
            header, rows = None, []
            for invocation in build(checks.REFERENCE_SEED, work):
                record = run.spawn(invocation.argv, work)
                if record["exit_code"] != 0:
                    print(f"{name}: {invocation.argv} exited {record['exit_code']}\n"
                          f"{record['stderr']}", file=sys.stderr)
                    return 1
                for path in invocation.outputs:
                    if path.suffix == ".csv":
                        header, more = checks.read_csv(path)
                        rows += more
            target = checks.REFERENCE_DIR / f"{name}.csv"
            target.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                              encoding="utf-8")
            print(f"wrote {run.rel(target)} ({len(rows)} rows)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
