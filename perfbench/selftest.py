"""Show that the benchmark's correctness checks catch what they must.

    python3 perfbench/selftest.py

Each case feeds the checker a reference output with one defect and expects
a failure, or an untouched one and expects none; the last case runs a CLI
invocation that exits non-zero through the cold runner and expects it to be
counted as failed.  Exits 0 when every case behaves, 1 otherwise.
"""

import shutil
import sys

import checks
import run


def _write(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                    encoding="utf-8")


def _perturb(text: str, rel: float) -> str:
    return format(float(text) * (1.0 + rel), ".17g")


def sweep_cases(work):
    reference = checks.REFERENCE_DIR / "sweep-32k.csv"
    header, rows = checks.read_csv(reference)
    path = work / "sweep.csv"

    def case(name, new_rows, should_fail):
        _write(path, header, new_rows)
        return name, bool(checks.compare_sweep(path, reference)), should_fail

    nudged = [r[:] for r in rows]
    nudged[40][3] = _perturb(nudged[40][3], 1e-9)
    drift = [r[:] for r in rows]
    drift[40][3] = _perturb(drift[40][3], 1e-14)
    renamed = [r[:] for r in rows]
    renamed[7][2] = "meanse" if renamed[7][2] == "maxse" else "maxse"
    yield case("sweep: reference itself passes", rows, False)
    yield case("sweep: value off by 1e-14 relative passes", drift, False)
    yield case("sweep: value off by 1e-9 relative fails", nudged, True)
    yield case("sweep: missing row fails", rows[:-1], True)
    yield case("sweep: changed key fails", renamed, True)


def simulate_cases(work):
    reference = checks.REFERENCE_DIR / "simulate-8k.csv"
    header, rows = checks.read_csv(reference)
    nsr = next(r for r in rows if r[1] == "nsr")
    trials, seed = int(nsr[3]), int(nsr[4])
    path = work / "simulate.csv"
    column = {name: i for i, name in enumerate(header)}

    def case(name, row, first_rows, should_fail, row_seed=seed):
        row = row[:]
        row[column["seed"]] = str(row_seed)
        _write(path, header, [row])
        failures = checks.check_simulate(path, reference, "nsr", row_seed, trials, first_rows)
        return name, bool(failures), should_fail

    nudged = nsr[:]
    nudged[column["empirical_err_2"]] = _perturb(nsr[column["empirical_err_2"]], 1e-9)
    yield case("simulate: reference row passes", nsr, {}, False)
    yield case("simulate: empirical value off by 1e-9 at the reference seed fails",
               nudged, {}, True)
    yield case("simulate: rerun differing in the last digit fails", nudged,
               {("nsr", seed + 7): nsr}, True, seed + 7)
    far = nsr[:]
    tolerance = checks.mc_tolerance(trials)
    far[column["empirical_err_2"]] = _perturb(nsr[column["theory_err_2"]], 1.5 * tolerance)
    yield case(f"simulate: empirical_err_2 {1.5 * tolerance:.3f} off theory fails",
               far, {}, True, seed + 7)
    near = nsr[:]
    near[column["empirical_err_2"]] = _perturb(nsr[column["theory_err_2"]], 0.5 * tolerance)
    yield case(f"simulate: empirical_err_2 {0.5 * tolerance:.3f} off theory passes",
               near, {}, False, seed + 7)
    for name in ("empirical_err_2", "empirical_err_inf"):
        nan = nsr[:]
        nan[column[name]] = "nan"
        yield case(f"simulate: {name} NaN at another seed fails", nan,
                   {("nsr", seed + 7): nan}, True, seed + 7)
    low, high = checks.inf_band(trials, int(nsr[0]))
    theory_inf = nsr[column["theory_err_inf"]]
    for factor, should_fail in ((0.98 * low, True), (1.02 * low, False),
                                (0.98 * high, False), (1.02 * high, True)):
        row = nsr[:]
        row[column["empirical_err_inf"]] = _perturb(theory_inf, factor - 1.0)
        verdict = "fails" if should_fail else "passes"
        yield case(f"simulate: empirical_err_inf {factor:.3f} x theory {verdict}",
                   row, {}, should_fail, seed + 7)


def exit_code_case(work):
    run.preflight(work)
    bad = run.Invocation("bad", ["sweep", "--methods", "qr", "--out",
                                 run.rel(work / "x.csv")], (), lambda: [])
    attempted, failed, _ = run.tally([run.cold_round([bad], work)])
    return ("cold runner: invocation exiting non-zero is counted as failed",
            (attempted, failed) == (1, 1), True)


def main() -> int:
    work = run.OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        results = [*sweep_cases(work), *simulate_cases(work), exit_code_case(work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, failed, should_fail in results:
        good = failed == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
