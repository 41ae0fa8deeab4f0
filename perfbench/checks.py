"""Correctness checks on the CLI outputs of every benchmark invocation.

Each check returns a list of failure messages; an empty list means the
output is correct.  The references under ``reference/`` were produced by
``make_reference.py`` from the countfact sources the benchmark was defined
on, and are pinned: a change that alters them must explain why.

Sweeps: the (n, method, metric) keys must match the reference exactly and
every number must be within REL_TOL relative of it.  REL_TOL = 1e-12 leaves
room for the <= 1e-14 summation-order drift a kernel change may introduce,
and catches anything larger.

Simulations: the output must be bit-identical across reruns at one seed
(the determinism contract), the seed-independent theory columns must match
the reference at REL_TOL, the whole row must match it at REFERENCE_SEED,
and at any seed every number must be finite, empirical_err_2 must agree
with theory_err_2 within the Monte-Carlo tolerance of ``mc_tolerance``, and
empirical_err_inf / theory_err_inf must lie in the band of ``inf_band``.
"""

from __future__ import annotations

import csv
import math
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
REFERENCE_SEED = 1

SWEEP_HEADER = ["n", "method", "metric", "value", "residual", "predicted_residual"]
SIMULATE_HEADER = ["n", "method", "mu", "trials", "seed", "empirical_err_inf",
                   "empirical_err_2", "theory_err_inf", "theory_err_2"]

# Monte-Carlo tolerance on empirical_err_2 / theory_err_2.
#
# With dev_t = sigma L z_t, z_t standard normal, and A = L^T L, the ratio
# R = empirical_err_2^2 / theory_err_2^2 = sum_t z_t^T A z_t / (T tr A) has
# mean 1 and variance 2 tr(A^2) / (T tr(A)^2) = 2 kappa / T, where
# kappa = |L L^T|_F^2 / |L|_F^4 <= 1.  Measured densely on the left factors,
# kappa falls with n for both nsr and group-algebra (0.102, 0.088, 0.076,
# 0.066 at n = 256, 512, 1024, 2048, the group-algebra values, which are the
# larger), so KAPPA_BOUND covers every n >= 2048.  sqrt(R) then has standard
# deviation sqrt(kappa / (2 T)), and the check allows MC_SIGMAS of them: at
# T = 200 trials that is 5 * 0.0129 = 0.064 relative.  R sums T independent
# quadratic forms of ~1/kappa effective degrees of freedom each, so it is
# close to normal and a 5-sigma excursion has odds of about 1 in 10^6.
KAPPA_BOUND = 0.0665
MC_SIGMAS = 5.0


def mc_tolerance(trials: int) -> float:
    """Allowed |empirical_err_2 / theory_err_2 - 1| at the given trial count."""
    return MC_SIGMAS * math.sqrt(KAPPA_BOUND / (2.0 * trials))


# Band on empirical_err_inf / theory_err_inf.
#
# Coordinate i of dev_t has variance sigma^2 |L_i|^2, independently across
# trials, so Y_i = (mean over trials of dev_{t,i}^2) / (sigma^2 |L_i|^2) is
# chi-squared with T degrees of freedom over T, whatever the correlation
# between coordinates.  theory_err_inf is sigma max_i |L_i|, so the squared
# ratio lies between Y_{i*} at the coordinate i* of the largest row norm and
# max_i Y_i.  The band takes the lower INF_TAIL quantile of Y for the first
# and, by the union bound over the n coordinates, its upper INF_TAIL / n
# quantile for the second: each side fails with odds of at most INF_TAIL.
# The quantiles use the Wilson-Hilferty cube-root normal approximation,
# within 0.2% of the exact chi-squared quantiles at T = 200, n = 8192, where
# the band is [0.770, 1.331].
INF_TAIL = 1e-6


def _chi2_over_df_quantile(df: int, prob: float) -> float:
    c = 2.0 / (9.0 * df)
    return (1.0 - c + statistics.NormalDist().inv_cdf(prob) * math.sqrt(c)) ** 3


def inf_band(trials: int, n: int) -> tuple[float, float]:
    """Allowed range of empirical_err_inf / theory_err_inf."""
    low = _chi2_over_df_quantile(trials, INF_TAIL)
    high = _chi2_over_df_quantile(trials, 1.0 - INF_TAIL / n)
    return math.sqrt(low), math.sqrt(high)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def compare_sweep(path: Path, reference: Path) -> list[str]:
    """Keys equal to the reference's, values within REL_TOL of it."""
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if header != SWEEP_HEADER:
        return [f"{path.name}: header {header} != {SWEEP_HEADER}"]
    _, ref_rows = read_csv(reference)
    want = {tuple(row[:3]): row[3:] for row in ref_rows}
    got: dict[tuple, list[str]] = {}
    failures = []
    for row in rows:
        if len(row) != len(SWEEP_HEADER):
            failures.append(f"{path.name}: malformed row {row}")
            continue
        key = tuple(row[:3])
        if key in got:
            failures.append(f"{path.name}: duplicate row {key}")
        got[key] = row[3:]
    for key in sorted(want.keys() - got.keys()):
        failures.append(f"{path.name}: missing row {key}")
    for key in sorted(got.keys() - want.keys()):
        failures.append(f"{path.name}: unexpected row {key}")
    for key in sorted(want.keys() & got.keys()):
        for column, text, ref_text in zip(SWEEP_HEADER[3:], got[key], want[key]):
            try:
                value = float(text)
            except ValueError:
                failures.append(f"{path.name}: {key} {column} is not a number: {text!r}")
                continue
            if not _close(value, float(ref_text)):
                failures.append(f"{path.name}: {key} {column} = {text}, reference {ref_text}")
    return failures


def check_svg(path: Path, csv_path: Path) -> list[str]:
    """Well-formed SVG with one polyline per (method, metric) series of the CSV."""
    try:
        root = ET.parse(path).getroot()
        _, rows = read_csv(csv_path)
    except (OSError, ET.ParseError) as exc:
        return [f"cannot read {path.name}: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    series = {(row[1], row[2]) for row in rows}
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != len(series):
        return [f"{path.name}: {len(lines)} polylines for {len(series)} series"]
    return []


def check_simulate(path: Path, reference: Path, method: str, seed: int, trials: int,
                   first_rows: dict[tuple[str, int], list[str]]) -> list[str]:
    """One simulate CSV against the determinism, reference and Monte-Carlo checks.

    ``first_rows`` maps (method, seed) to the first row seen in this run; the
    first call for a key stores its row, later calls must reproduce it.
    """
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if header != SIMULATE_HEADER or len(rows) != 1 or len(rows[0]) != len(header):
        return [f"{path.name}: expected the simulate header and one row"]
    row = rows[0]
    fields = dict(zip(header, row))
    if (fields["method"], fields["seed"], fields["trials"]) != (method, str(seed), str(trials)):
        return [f"{path.name}: row is for {fields['method']} seed {fields['seed']}"
                f" trials {fields['trials']}"]
    failures = []
    previous = first_rows.setdefault((method, seed), row)
    if row != previous:
        failures.append(f"{path.name}: rerun at seed {seed} is not bit-identical:"
                        f" {row} != {previous}")
    values = {}
    for column in SIMULATE_HEADER[5:]:
        try:
            values[column] = float(fields[column])
        except ValueError:
            values[column] = math.nan
        if not math.isfinite(values[column]):
            failures.append(f"{path.name}: {column} is not a finite number:"
                            f" {fields[column]!r}")
    if failures:
        return failures
    _, ref_rows = read_csv(reference)
    ref = next(dict(zip(header, r)) for r in ref_rows if r[1] == method)
    compared = ["theory_err_inf", "theory_err_2"]
    if seed == REFERENCE_SEED:
        compared += ["empirical_err_inf", "empirical_err_2"]
    for column in compared:
        if not _close(values[column], float(ref[column])):
            failures.append(f"{path.name}: {column} = {fields[column]},"
                            f" reference {ref[column]}")
    ratio = values["empirical_err_2"] / values["theory_err_2"]
    if not abs(ratio - 1.0) <= mc_tolerance(trials):
        failures.append(f"{path.name}: empirical_err_2 / theory_err_2 = {ratio:.6f},"
                        f" outside 1 +- {mc_tolerance(trials):.6f}")
    low, high = inf_band(trials, int(fields["n"]))
    ratio = values["empirical_err_inf"] / values["theory_err_inf"]
    if not low <= ratio <= high:
        failures.append(f"{path.name}: empirical_err_inf / theory_err_inf = {ratio:.6f},"
                        f" outside [{low:.6f}, {high:.6f}]")
    return failures
