"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; a
plain `pytest` run prints them for any failing criterion.

Criterion 5 is known to fail by a hair: the mean-error residual of the
normalized square root at n = 2**13 is 0.77802, which sits 0.0301 from the
asymptotic constant, just outside the 0.03 gate (the gap keeps shrinking
and is 0.0283 at 2**14).  The value is cross-checked against dense linear
algebra in test_factorizations; the gate is kept as stated rather than
widened.
"""

import math
import time

import numpy as np

from countfact import (
    CONSTANTS,
    GROUP_ALGEBRA,
    NSR,
    SQRT,
    MechanismConfig,
    closed_form_maxse_group_algebra,
    closed_form_maxse_sqrt,
    coefficient_table,
    counting_matrix,
    error_report,
    estimate_errors,
    factorize,
    landau_alpha,
    mathias_lower_bound,
    maxse,
    meanse,
    nsr_factorization,
    nsr_row_norms_sq,
    nuclear_lower_bound,
    residual_offset,
    verify_reconstruction,
)

SWEEP_POWERS = range(2, 14)  # n = 2**2 .. 2**13


def criterion(num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} {detail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_reconstruction():
    start = time.monotonic()
    failures = []
    worst = 0.0
    for method in (SQRT, NSR, GROUP_ALGEBRA):
        for n in (1, 2, 3, 4, 8, 16, 64, 256):
            deviation = verify_reconstruction(factorize(method, n))
            worst = max(worst, deviation)
            if deviation > 1e-9:
                failures.append(f"{method} n={n}: deviation {deviation:.3e}")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    criterion(1, failures, f"max |LR - M| = {worst:.3e} over all methods, {elapsed:.1f}s")


def test_criterion_02_sqrt_exact_identity():
    failures = []
    worst = 0.0
    for n in list(range(1, 65)) + [1024]:
        direct = maxse(factorize(SQRT, n))
        closed = closed_form_maxse_sqrt(n)
        rel = abs(direct - closed) / closed
        worst = max(worst, rel)
        if rel > 1e-12:
            failures.append(f"n={n}: relative gap {rel:.3e}")
    criterion(2, failures, f"max relative gap direct vs closed form = {worst:.3e}")


def test_criterion_03_landau_limit():
    failures = []
    alpha = coefficient_table(10**5).alpha
    if not np.all(np.diff(alpha) > 0):
        failures.append("alpha not monotone up to 1e5")
    # Limit from the closed form (euler_gamma + log 16)/pi = 1.06627585...;
    # the 1/(5n) gate at n = 1e6 requires the full-precision constant.
    limit = CONSTANTS.alpha_infinity
    gaps = {}
    for n in (10**2, 10**3, 10**4, 10**6):
        gap = abs(landau_alpha(n) - limit)
        gaps[n] = gap
        if gap > 1.0 / (5.0 * n):
            failures.append(f"|alpha_{n} - limit| = {gap:.3e} > 1/(5n)")
    alpha_two = 1.25 - math.log(2.0) / math.pi
    if abs(landau_alpha(2) - alpha_two) > 1e-14:
        failures.append("alpha_2 != 1.25 - log(2)/pi at 1e-14")
    criterion(3, failures,
              f"monotone to 1e5; |alpha_n - {limit:.6f}|: " +
              ", ".join(f"n=1e{int(math.log10(n))}: {g:.2e}" for n, g in gaps.items()))


def test_criterion_04_nsr_maxse_residual():
    failures = []
    n = 2**12
    residual = error_report(NSR, n).maxse_residual
    floor = nuclear_lower_bound(n) - residual_offset(n)
    if not floor <= residual <= 0.88:
        failures.append(f"residual {residual:.5f} outside [{floor:.5f}, 0.88]")
    target = CONSTANTS.nsr_maxse_const
    gaps = [abs(error_report(NSR, 2**p).maxse_residual - target) for p in range(8, 14)]
    for a, b in zip(gaps, gaps[1:]):
        if b > a + 1e-3:
            failures.append(f"approach not monotone: {a:.5f} -> {b:.5f}")
    criterion(4, failures,
              f"residual(2^12) = {residual:.5f} in [{floor:.5f}, 0.88]; "
              f"gaps to {target:.5f}: " + " > ".join(f"{g:.4f}" for g in gaps))


def test_criterion_05_nsr_meanse_residual():
    failures = []
    n = 2**13
    residual = error_report(NSR, n).meanse_residual
    gap = abs(residual - 0.74794)
    if gap > 0.03:
        failures.append(f"|{residual:.5f} - 0.74794| = {gap:.5f} > 0.03")
    criterion(5, failures, f"residual(2^13) = {residual:.5f}, gap {gap:.5f} (gate 0.03)")


def test_criterion_06_group_algebra():
    failures = []
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 64, 256):
        f = factorize(GROUP_ALGEBRA, n)
        closed = closed_form_maxse_group_algebra(n)
        rel = abs(maxse(f) - closed) / closed
        worst = max(worst, rel)
        if rel > 1e-9:
            failures.append(f"n={n}: closed-form gap {rel:.3e}")
        if abs(meanse(f) - maxse(f)) > 1e-10 * maxse(f):
            failures.append(f"n={n}: meanse != maxse")
    n = 2**12
    residual = closed_form_maxse_group_algebra(n) - residual_offset(n)
    gap = abs(residual - 0.98133)
    if gap > 0.02:
        failures.append(f"residual {residual:.5f} not within 0.02 of 0.98133")
    criterion(6, failures,
              f"max closed-form gap {worst:.3e}; residual(2^12) = {residual:.5f}, "
              f"gap {gap:.5f}")


def test_criterion_07_sqrt_meanse_residual():
    failures = []
    n = 2**13
    residual = error_report(SQRT, n).meanse_residual
    gap = abs(residual - 0.90710)
    if gap > 0.02:
        failures.append(f"|{residual:.5f} - 0.90710| = {gap:.5f} > 0.02")
    criterion(7, failures, f"residual(2^13) = {residual:.5f}, gap {gap:.5f} (gate 0.02)")


def test_criterion_08_lower_bounds():
    failures = []
    n = 2**12
    nuclear_res = nuclear_lower_bound(n) - residual_offset(n)
    mathias_res = mathias_lower_bound(n) - residual_offset(n)
    if abs(nuclear_res - 0.70193) > 0.02:
        failures.append(f"nuclear residual {nuclear_res:.5f} not within 0.02 of 0.70193")
    if abs(mathias_res - 0.48133) > 0.02:
        failures.append(f"mathias residual {mathias_res:.5f} not within 0.02 of 0.48133")
    worst = 0.0
    for size in range(1, 33):
        singular_values = np.linalg.svd(counting_matrix(size), compute_uv=False)
        oracle = float(singular_values.sum()) / size
        gap = abs(nuclear_lower_bound(size) - oracle)
        worst = max(worst, gap)
        if gap > 1e-8:
            failures.append(f"SVD oracle gap {gap:.3e} at n={size}")
    criterion(8, failures,
              f"nuclear(2^12) res {nuclear_res:.5f}, mathias {mathias_res:.5f}, "
              f"max SVD gap {worst:.2e}")


def test_criterion_09_nsr_sandwiches():
    failures = []
    for n in (16, 64, 256, 512):
        table = coefficient_table(n)
        d = np.sqrt(table.d_sq)
        dense = nsr_factorization(n).left.to_dense()
        entry_violation = 0.0
        for j in range(n):
            floor = d[j] * table.r[: j + 1][::-1]
            entry_violation = max(entry_violation,
                                  float((floor - dense[j, : j + 1]).max()))
        if entry_violation > 1e-12:
            failures.append(f"n={n}: entrywise floor violated by {entry_violation:.3e}")
        row_sq = nsr_row_norms_sq(n)
        row_floor = table.d_sq * table.d_sq[::-1]
        row_violation = float((row_floor - row_sq).max())
        if row_violation > 1e-12:
            failures.append(f"n={n}: row-norm floor violated by {row_violation:.3e}")
    criterion(9, failures, "entrywise and row-norm floors hold at n = 16, 64, 256, 512")


def test_criterion_10_mechanism_statistics():
    failures = []
    n, trials, seed = 64, 10**4, 1
    f = nsr_factorization(n)
    cfg = MechanismConfig(factorization=f, mu=1.0, trials=trials, seed=seed,
                          input=np.zeros(n))
    result = estimate_errors(cfg)
    inf_rel = abs(result.empirical_err_inf - result.theory_err_inf) / result.theory_err_inf
    two_rel = abs(result.empirical_err_2 - result.theory_err_2) / result.theory_err_2
    if inf_rel > 0.05:
        failures.append(f"err_inf off theory by {inf_rel:.2%} > 5%")
    if two_rel > 0.03:
        failures.append(f"err_2 off theory by {two_rel:.2%} > 3%")
    rerun = estimate_errors(cfg)
    if (rerun.empirical_err_inf != result.empirical_err_inf
            or rerun.empirical_err_2 != result.empirical_err_2
            or not np.array_equal(rerun.z_mean, result.z_mean)):
        failures.append("rerun with identical seed is not bit-identical")
    halved = estimate_errors(MechanismConfig(factorization=f, mu=2.0, trials=trials,
                                             seed=seed, input=np.zeros(n)))
    if (halved.empirical_err_inf != result.empirical_err_inf / 2.0
            or halved.empirical_err_2 != result.empirical_err_2 / 2.0):
        failures.append("mu = 2 does not halve the errors exactly")
    criterion(10, failures,
              f"err_inf off by {inf_rel:.2%} (5% gate), err_2 by {two_rel:.2%} "
              f"(3% gate); rerun bit-identical; mu=2 halves exactly")


def test_criterion_11_sweep_orderings():
    failures = []
    for p in SWEEP_POWERS:
        n = 2**p
        nuclear = nuclear_lower_bound(n)
        values = {}
        for method in (SQRT, NSR, GROUP_ALGEBRA):
            report = error_report(method, n)
            values[method] = report.maxse
            if report.meanse > report.maxse * (1 + 1e-12):
                failures.append(f"meanse > maxse for {method} at n={n}")
            if nuclear > report.maxse * (1 + 1e-9):
                failures.append(f"nuclear bound above {method} maxse at n={n}")
        if n >= 4 and values[NSR] > values[SQRT]:
            failures.append(f"normalized maxse above square root at n={n}")
    criterion(11, failures,
              f"orderings hold at n = 2^2..2^13 "
              f"(meanse <= maxse, nuclear <= maxse, normalized <= square root)")
