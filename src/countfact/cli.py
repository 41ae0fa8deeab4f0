"""Command-line front end.

Subcommands: coeffs, factorize, metrics, bounds, sweep, simulate.
Exit codes: 0 success, 1 invariant violation under --check, 2 usage or write
error or out of memory.
--check records are (what, measured, bound); each passes only if measured <=
bound, so a NaN fails.  Every failing one prints "CHECK FAIL [command] what:
measured > bound" (.3e) to stderr or, if none fails, "CHECK OK [command]" to stdout.
All numeric output is emitted at 17 significant digits with a '.' decimal
separator, which round-trips float64 bitwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import operator
import os
import sys
import warnings

from . import bounds as bounds_mod
from . import factorizations as fz
from . import metrics as mt
from .mechanism import MechanismConfig, check_parameters, estimate_errors, pool_size
from .sequences import check_size, coefficient_table
from .structmat import DENSE_BUDGET, counting_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SWEEP_HEADER = ("n", "method", "metric", "value", "residual", "predicted_residual")
SIMULATE_HEADER = ("n", "method", "mu", "trials", "seed", "empirical_err_inf",
                   "empirical_err_2", "theory_err_inf", "theory_err_2")
BOUND_METRICS = ("nuclear_lb", "mathias_lb")
LOWER_BOUND_METHOD = "lower-bound"  # method column for bound rows

# Chance that one z-statistic test of simulate --check fails on correct
# code, whatever n: the union bound splits it over the n coordinates.
CHECK_FALSE_ALARM = 1e-6


def _fmt(x) -> str:
    """One output cell: a float at 17 significant digits, anything else by str."""
    return format(float(x), ".17g") if isinstance(x, float) else str(x)


def _print_table(pairs) -> None:
    width = max(len(name) for name, _ in pairs)
    for name, value in pairs:
        print(f"{name:<{width}}  {_fmt(value)}")


def _print_report(report, extras) -> None:
    """A report's fields, then the (name, value) extras."""
    _print_table([(field.name, getattr(report, field.name))
                  for field in dataclasses.fields(report)] + list(extras))


def _run_checks(label: str, records) -> int:
    """The one judge of (what, measured, bound) records: each fails unless
    measured <= bound, which a NaN never is."""
    failed = [record for record in records if not record[1] <= record[2]]
    for what, measured, bound in failed:
        print(f"CHECK FAIL [{label}] {what}: {measured:.3e} > {bound:.3e}", file=sys.stderr)
    if not failed:
        print(f"CHECK OK [{label}]")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _misses(holds) -> int:
    """How many entries of a comparison's array are False; a NaN compares False."""
    return holds.size - int(holds.sum())


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------


def sweep_sizes(n_min: int, n_max: int, geometric: bool) -> list[int]:
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    if not geometric:
        return list(range(n_min, n_max + 1))
    sizes = []
    n = 1
    while n <= n_max:
        if n >= n_min:
            sizes.append(n)
        n *= 2
    return sizes


# metric -> (value, residual, predicted residual) read off the report of its
# point: an ErrorReport for maxse/meanse, a BoundReport for the bounds.
_ROW_GETTERS = {
    mt.MAXSE: lambda r: (r.maxse, r.maxse_residual, r.predicted_maxse_residual),
    mt.MEANSE: lambda r: (r.meanse, r.meanse_residual, r.predicted_meanse_residual),
    "nuclear_lb": lambda r: (r.nuclear_lb, r.nuclear_residual, r.predicted_nuclear_residual),
    "mathias_lb": lambda r: (r.mathias_lb, r.mathias_residual, r.predicted_mathias_residual),
}


def _report_rows(n, method, report, metrics) -> list[tuple]:
    return [(n, method, metric, *_ROW_GETTERS[metric](report)) for metric in metrics]


def sweep_rows(methods, metrics, sizes):
    """One (n, method, metric, value, residual, predicted) tuple per point,
    sorted by (method, metric, n) whatever the workers or the point order.
    A sweep with nsr points computes them method-major on pool_size() worker
    threads, each holding the arrays of one point: the rfft/irfft pairs of an
    nsr profile release the GIL, and the two largest start together (n-major
    was 5% slower at 2^20).  Any other sweep runs n-major on the calling
    thread, so the group-algebra norm and Mathias bound share one odd sum."""
    method_metrics = [m for m in mt.METRICS if m in metrics]
    bound_metrics = [m for m in BOUND_METRICS if m in metrics]

    def point(task):
        method, n = task
        if method == LOWER_BOUND_METHOD:
            return _report_rows(n, method, bounds_mod.bound_report(n, bound_metrics),
                                bound_metrics)
        return _report_rows(n, method, mt.error_report(method, n), method_metrics)

    point_methods = (list(methods) if method_metrics else []) + (
        [LOWER_BOUND_METHOD] if bound_metrics else [])
    if method_metrics and fz.NSR in methods:
        import concurrent.futures

        import numpy  # noqa: F401 (on the calling thread, before the workers start)

        points = [(method, n) for method in point_methods for n in sizes]
        with concurrent.futures.ThreadPoolExecutor(pool_size()) as pool:
            results = list(pool.map(point, points))
    else:
        results = map(point, [(method, n) for n in sizes for method in point_methods])
    rows = [row for point_rows in results for row in point_rows]
    for column in (0, 2, 1):  # stable passes, the last key first: no key tuple per row
        rows.sort(key=operator.itemgetter(column))
    return rows


def _write_csv(path: str, header, rows, append: bool = False) -> None:
    """Write rows under a header (None: no header line), each cell as _fmt
    writes it; every row has the cell types of the first.  An appended file
    gets the header only when it is absent or empty."""
    write_header = header and not (append and os.path.exists(path) and os.path.getsize(path))
    # One %-format for all rows: twice as fast as cell by cell on a dump row.
    row_format = None
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as handle:
        if write_header:
            handle.write(",".join(header) + "\n")
        for row in rows:
            if row_format is None:
                row_format = ",".join("%.17g" if isinstance(x, float) else "%s"
                                      for x in row) + "\n"
            handle.write(row_format % tuple(row))


def write_sweep_csv(path: str, rows) -> None:
    _write_csv(path, SWEEP_HEADER, rows)


def _append_rows(args, rows) -> None:
    """Append rows to --csv, if given, under the header main checks it against."""
    if args.csv:
        _write_csv(args.csv, _APPENDED_HEADER[args.command], rows, append=True)


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


def write_sweep_svg(path: str, rows) -> None:
    """Residual vs log2(n) line chart: one polyline per (method, metric)
    series, one dashed horizontal line at each series' predicted residual."""
    series: dict[tuple[str, str], list] = {}
    for n, method, metric, _value, residual, predicted in rows:
        series.setdefault((method, metric), []).append((math.log2(n), residual, predicted))
    for points in series.values():
        points.sort()

    width, height = 960, 540
    left, right, top, bottom = 70, 200, 30, 50
    xs = [x for points in series.values() for x, _, _ in points]
    ys = [y for points in series.values() for _, y, _ in points]
    ys += [p for points in series.values() for _, _, p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(k)
        parts.append(f'<line x1="{x:.1f}" y1="{height - bottom}" x2="{x:.1f}" '
                     f'y2="{height - bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - bottom + 18}" '
                     f'text-anchor="middle">2^{k}</text>')
    for i in range(7):
        y_val = y_lo + i * (y_hi - y_lo) / 6
        y = py(y_val)
        parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">'
                     f'{y_val:.3f}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle">n (log2 axis)</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(top + height - bottom) / 2:.1f})">'
                 f'value - log(n)/pi</text>')

    for i, ((method, metric), points) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y, _ in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        predicted = points[0][2]
        y = py(predicted)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                     f'stroke="{color}" stroke-dasharray="6 4" stroke-width="1"/>')
        legend_y = top + 16 * i + 4
        parts.append(f'<line x1="{width - right + 10}" y1="{legend_y}" '
                     f'x2="{width - right + 34}" y2="{legend_y}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 40}" y="{legend_y + 4}">'
                     f'{method}/{metric} (limit {predicted:.5f})</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> list[tuple] | None:
    table = coefficient_table(args.n)
    columns = (table.r, table.rtilde, table.d_sq, table.alpha)
    rows = list(zip(range(args.n), *(c.tolist() for c in columns)))
    print(f"coefficient table at n = {args.n}")
    print(f"{'k':>6} {'r':>24} {'rtilde':>24} {'d_sq[j=k+1]':>24} {'alpha[m=k+1]':>24}")
    for k, *values in rows:
        print(f"{k:>6} " + " ".join(f"{_fmt(v):>24}" for v in values))
    if args.csv:
        _write_csv(args.csv, ("k", "r", "rtilde", "d_sq", "alpha"), rows)
    return _coeff_checks(table) if args.check else None


def _coeff_checks(table) -> list[tuple]:
    import numpy as np
    r, d_sq, alpha = table.r, table.d_sq, table.alpha
    k = np.arange(1, table.n)
    r_sq = r[1:] ** 2
    lower = 1.0 / (np.pi * (k + 4.0 / np.pi - 1.0))
    upper = 1.0 / (np.pi * (k + 0.25))
    gaps = np.abs(d_sq[:-1] - d_sq[1:] - r_sq[::-1])
    return [
        ("|r[0] - 1|", abs(r[0] - 1.0), 0),
        ("r entries not below the one before", _misses(np.diff(r) < 0), 0),
        ("r^2 entries outside the Wallis sandwich",
         _misses((r_sq >= lower * (1 - 1e-12)) & (r_sq <= upper * (1 + 1e-12))), 0),
        ("max |cumsum(rtilde) - r|", np.abs(np.cumsum(table.rtilde) - r).max(), 1e-13),
        ("|d_sq[n-1] - 1|", abs(d_sq[-1] - 1.0), 0),
        ("d_sq entries not below the one before", _misses(np.diff(d_sq) < 0), 0),
        ("d_sq steps off r^2 by more than 1e-14 d_sq", _misses(gaps <= 1e-14 * d_sq[:-1]), 0),
        ("alpha entries not above the one before", _misses(np.diff(alpha) > 0), 0),
        ("alpha entries outside [1 - 1e-12, 1.0663]",
         _misses((alpha >= 1.0 - 1e-12) & (alpha <= 1.0663)), 0),
    ]


def _dump_paths(prefix: str) -> tuple[str, str]:
    return f"{prefix}_left.csv", f"{prefix}_right.csv"


def cmd_factorize(args) -> list[tuple] | None:
    # Both build dense matrices; refused before the factorization is built.
    for flag in ("dump", "check"):
        if getattr(args, flag) and args.n > DENSE_BUDGET:
            raise UsageError(f"--{flag} needs n <= {DENSE_BUDGET}")
    f = fz.factorize(args.method, args.n)
    _print_table([
        ("method", f.method),
        ("n", f.n),
        ("inner_dim", f.inner_dim),
        ("max_row_norm_left", math.sqrt(f.max_row_sq_left)),
        ("max_col_norm_right", math.sqrt(f.max_col_sq_right)),
        ("frobenius_left", math.sqrt(f.frobenius_sq_left)),
        ("maxse", mt.maxse(f)),
        ("meanse", mt.meanse(f)),
    ])
    if args.dump:
        for path, mat in zip(_dump_paths(args.dump), (f.left, f.right)):
            _write_csv(path, None, (row.tolist() for row in mat.to_dense()))
            print(f"wrote {path}")
    if not args.check:
        return None
    records = [("max |left @ right - counting matrix|", fz.verify_reconstruction(f), 1e-9)]
    if args.method == fz.NSR:
        import numpy as np
        right = f.right.to_dense()
        records.append(("max |right column norm^2 - 1|",
                        np.abs(np.einsum("jk,jk->k", right, right) - 1.0).max(), 1e-12))
    return records


def cmd_metrics(args) -> list[tuple] | None:
    report = mt.error_report(args.method, args.n)
    closed_form, extras = None, []
    if args.method == fz.SQRT:
        closed_form = mt.closed_form_maxse_sqrt(args.n)
        extras = [("closed_form_maxse", closed_form)]
    elif args.method == fz.GROUP_ALGEBRA:  # its MeanSE is its MaxSE
        closed_form = mt.closed_form_maxse_group_algebra(args.n)
        extras = [("closed_form_maxse", closed_form), ("closed_form_meanse", closed_form)]
    _print_report(report, extras)
    _append_rows(args, _report_rows(args.n, args.method, report, mt.METRICS))
    return _metric_checks(report, closed_form) if args.check else None


def _point_checks(maxse, meanse, nuclear: float, at="") -> list[tuple]:
    """The orderings nuclear_lb <= meanse <= maxse at one (method, n) point,
    among the norms it reports (None: not reported)."""
    records = [(f"nuclear_lb vs {metric}{at}", nuclear, value * (1 + 1e-9))
               for metric, value in ((mt.MEANSE, meanse), (mt.MAXSE, maxse))
               if value is not None]
    if maxse is not None and meanse is not None:
        records.append((f"meanse vs maxse{at}", meanse, maxse * (1 + 1e-12)))
    return records


def _metric_checks(report, closed_form) -> list[tuple]:
    records = _point_checks(report.maxse, report.meanse,
                            bounds_mod.nuclear_lower_bound(report.n))
    # The group-algebra norm is stored as its closed form, so its oracle is
    # the squared norm of the operator's column: one irfft of the half
    # spectrum, which a factorization builds only when asked.
    if report.method == fz.SQRT:
        oracle, tol = closed_form, 1e-12
    elif report.method == fz.GROUP_ALGEBRA:
        import numpy as np
        column = fz.factorize(fz.GROUP_ALGEBRA, report.n).left.col
        oracle, tol = math.fsum(np.square(column)), 1e-9
    else:
        return records
    return records + [("relative deviation of maxse from its oracle",
                       abs(report.maxse - oracle) / oracle, tol)]


def cmd_bounds(args) -> list[tuple] | None:
    report = bounds_mod.bound_report(args.n)
    # G(n) is defined from n = 2 on.
    _print_report(report, zip(("g_n", "g_n_predicted"), bounds_mod.cosecant_average(args.n))
                  if args.n >= 2 else ())
    _append_rows(args, _report_rows(args.n, LOWER_BOUND_METHOD, report, BOUND_METRICS))
    if not args.check:
        return None
    records = []
    if args.n >= 2:
        records.append(("mathias_lb vs nuclear_lb", report.mathias_lb, report.nuclear_lb))
    if args.n <= 32:
        import numpy as np
        singular = np.linalg.svd(counting_matrix(args.n), compute_uv=False)
        records.append(("|SVD nuclear norm / n - nuclear_lb|",
                        abs(float(singular.sum()) / args.n - report.nuclear_lb), 1e-8))
    return records


def _writable(path: str) -> bool:
    """Whether path can be created or overwritten; touches nothing."""
    if not path or os.path.isdir(path):
        return False
    if os.path.exists(path):
        return os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)


def _starts_without(path: str, header) -> bool:
    """Whether path is a non-empty file whose first line is not header."""
    if not (os.path.isfile(path) and os.path.getsize(path)):
        return False
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.readline().rstrip("\n") != ",".join(header)


def _name_list(text: str, kind: str, known) -> list[str]:
    """The names in a comma-separated option, each once, in first-seen
    order; refuses an empty list and any name not in known."""
    names = list(dict.fromkeys(name.strip() for name in text.split(",") if name.strip()))
    if not names:
        raise UsageError(f"empty {kind} set")
    bad = [name for name in names if name not in known]
    if bad:
        raise UsageError(f"unknown {kind}(s): {', '.join(bad)}")
    return names


def cmd_sweep(args) -> list[tuple] | None:
    methods = _name_list(args.methods, "method", fz.METHODS)
    metrics = _name_list(args.metrics, "metric", mt.METRICS + BOUND_METRICS)
    sizes = sweep_sizes(args.n_min, args.n_max, args.geometric)

    rows = sweep_rows(methods, metrics, sizes)
    if not rows:
        raise UsageError("the selected methods, metrics and sizes yield no rows")
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.svg:
        write_sweep_svg(args.svg, rows)
        print(f"wrote {args.svg}")
    return _sweep_checks(rows) if args.check else None


def _sweep_checks(rows) -> list[tuple]:
    """Ordering invariants at every sweep point."""
    records = []
    by_point: dict[tuple[str, int], dict[str, float]] = {}
    sizes = set()
    for n, method, metric, value, _residual, _predicted in rows:
        by_point.setdefault((method, n), {})[metric] = value
        sizes.add(n)
    nuclear = {n: bounds_mod.nuclear_lower_bound(n) for n in sizes}
    for (method, n), values in sorted(by_point.items()):
        if method != LOWER_BOUND_METHOD:
            records += _point_checks(values.get(mt.MAXSE), values.get(mt.MEANSE), nuclear[n],
                                     f" at ({method}, {n})")
    for n in sorted(sizes):
        nsr_v = by_point.get((fz.NSR, n), {}).get(mt.MAXSE)
        sqrt_v = by_point.get((fz.SQRT, n), {}).get(mt.MAXSE)
        if n >= 4 and nsr_v is not None and sqrt_v is not None:
            records.append((f"nsr maxse vs sqrt maxse at n = {n}", nsr_v, sqrt_v))
    return records


def cmd_simulate(args) -> list[tuple] | None:
    import numpy as np
    check_parameters(args.mu, args.trials, args.seed)
    if args.input == "zeros":
        x = np.zeros(args.n)
    elif args.input == "ones":
        x = np.ones(args.n)
    else:
        try:
            with warnings.catch_warnings():  # an empty file fails the length check
                warnings.simplefilter("ignore", UserWarning)
                x = np.loadtxt(args.input, delimiter=",", dtype=np.float64, ndmin=2)
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"--input {args.input} is not a numeric CSV: {exc}") from None
        if x.shape[1] != 1:
            raise UsageError(f"--input {args.input} has {x.shape[1]} columns, not one")
        if x.shape[0] != args.n:
            raise UsageError(f"input length {x.shape[0]} != n = {args.n}")
        x = x[:, 0]
    f = fz.factorize(args.method, args.n)
    cfg = MechanismConfig(factorization=f, mu=args.mu, trials=args.trials,
                          seed=args.seed, input=x)
    result = estimate_errors(cfg)
    standardized = np.isfinite(result.z_mean).all()  # sigma > 0
    if standardized:
        z_summary = [
            ("max_abs_z_mean", float(np.abs(result.z_mean).max())),
            ("z_var_min", float(result.z_var.min())),
            ("z_var_max", float(result.z_var.max())),
        ]
    else:
        z_summary = []  # sigma = 0: no standardized deviations to report
    values = (args.n, args.method, args.mu, args.trials, args.seed,
              result.empirical_err_inf, result.empirical_err_2,
              result.theory_err_inf, result.theory_err_2)
    _print_table(list(zip(SIMULATE_HEADER, values)) + z_summary)
    _append_rows(args, [values])
    if not args.check:
        return None
    records = []
    if standardized:
        mean_bound, low, high = _z_bands(args.trials, args.n)
        z_mean, z_var = np.abs(result.z_mean), result.z_var
        records += [("|z_mean| entries not below the bound", _misses(z_mean < mean_bound), 0),
                    ("z_var entries outside the band", _misses((z_var > low) & (z_var < high)), 0)]
    rerun = estimate_errors(cfg)
    return records + [("errors that differ on a same-seed rerun",
                       (rerun.empirical_err_inf != result.empirical_err_inf)
                       + (rerun.empirical_err_2 != result.empirical_err_2), 0)]


def _z_bands(trials: int, n: int) -> tuple[float, float, float]:
    """Bound on max |z_mean| and the open range for z_var that correct code
    leaves, each with probability at least 1 - CHECK_FALSE_ALARM.

    Each coordinate's standardized deviations are independent N(0, 1)
    draws across the T trials, so z_mean ~ N(0, 1/T) and T z_var ~
    chi^2_{T-1}, whatever the correlation between coordinates.  The union
    bound over n coordinates and two tails leaves CHECK_FALSE_ALARM / 2n to
    each tail.  The chi-squared quantiles use the Wilson-Hilferty cube-root
    normal approximation; with one trial z_var is 0 and is not tested.
    """
    import statistics  # here, not at the top: it adds ~5 ms to every start-up

    z = statistics.NormalDist().inv_cdf(1.0 - CHECK_FALSE_ALARM / (2 * n))
    df = trials - 1
    if df == 0:
        return z / math.sqrt(trials), -math.inf, math.inf
    c = 2.0 / (9.0 * df)
    low, high = (df / trials * (1.0 - c + sign * z * math.sqrt(c)) ** 3
                 for sign in (-1.0, 1.0))
    return z / math.sqrt(trials), low, high


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """A command line that cannot be run; main reports it and exits 2, as it
    does for every ValueError."""


# Flags shared by several subcommands, each declared once.
_N = ("--n", dict(type=int, required=True))
_METHOD = ("--method", dict(required=True, choices=fz.METHODS))
_CHECK = ("--check", dict(action="store_true", help="verify invariants; exit 1 on violation"))
_CSV = ("--csv", dict(metavar="PATH", help="append result rows to a CSV file"))
_METHODS, _METRICS = ",".join(fz.METHODS), ",".join(mt.METRICS + BOUND_METRICS)
# The header each --csv that appends writes first: a file must start with it.
_APPENDED_HEADER = {"metrics": SWEEP_HEADER, "bounds": SWEEP_HEADER,
                    "simulate": SIMULATE_HEADER}

# name -> (handler, help, flags in --help order).  A handler returns its
# --check records, or None when --check is not given.
COMMANDS = {
    "coeffs": (cmd_coeffs, "print the coefficient table at size n", (
        _N, _CHECK,
        ("--csv", dict(metavar="PATH", help="write the table to a CSV file, replacing it")))),
    "factorize": (cmd_factorize, "construct one factorization", (
        _METHOD, _N,
        ("--dump", dict(metavar="PREFIX", help="write PREFIX_left.csv / PREFIX_right.csv "
                                               "(17 significant digits)")),
        _CHECK)),
    "metrics": (cmd_metrics, "error norms for one (method, n)", (_METHOD, _N, _CHECK, _CSV)),
    "bounds": (cmd_bounds, "lower bounds at size n", (_N, _CHECK, _CSV)),
    "sweep": (cmd_sweep, "residual sweep over a grid of sizes", (
        ("--methods", dict(default=_METHODS, help=f"comma-separated subset of: {_METHODS}")),
        ("--metrics", dict(default=_METRICS, help=f"comma-separated subset of: {_METRICS}")),
        ("--n-min", dict(type=int, default=4)),
        ("--n-max", dict(type=int, default=8192)),
        ("--geometric", dict(action=argparse.BooleanOptionalAction, default=True,
                             help="powers of two (default) vs every integer size")),
        ("--out", dict(required=True, metavar="CSV", help="output CSV path")),
        ("--svg", dict(metavar="SVG", help="optional SVG line chart")),
        ("--check", dict(action="store_true", help="verify ordering invariants at every "
                                                   "point; exit 1 on violation")))),
    "simulate": (cmd_simulate, "seeded Monte-Carlo of the Gaussian mechanism", (
        _METHOD, _N,
        ("--mu", dict(type=float, default=1.0, help="GDP level (inf allowed)")),
        ("--trials", dict(type=int, default=1000)),
        ("--seed", dict(type=int, default=0)),
        ("--input", dict(default="zeros",
                         help="zeros | ones | path to a one-column CSV of length n")),
        _CHECK, _CSV)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countfact",
        description="Factorizations of the prefix-sum counting matrix, their "
                    "error norms, lower bounds, sweeps, and a Gaussian-mechanism "
                    "simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            command.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    paths = [getattr(args, flag, None) for flag in ("csv", "out", "svg")]
    dump = getattr(args, "dump", None)
    paths += _dump_paths(dump) if dump else [dump]
    try:
        if hasattr(args, "n"):  # every subcommand but sweep
            check_size(args.n)
        # Every given output path, the empty one too, is checked before any
        # computation, which can be long.
        for path in paths:
            if path is not None and not _writable(path):
                raise UsageError(f"cannot write {path or repr(path)}")
        outputs = [path for path in paths if path]
        real = {os.path.realpath(path) for path in outputs}
        if len(real) < len(outputs):
            raise UsageError(f"two outputs name one file: {' and '.join(outputs)}")
        source = getattr(args, "input", "zeros")
        if source not in ("zeros", "ones") and os.path.realpath(source) in real:
            raise UsageError(f"--input {source} is also an output")
        header = _APPENDED_HEADER.get(args.command)
        if header and args.csv and _starts_without(args.csv, header):
            raise UsageError(f"--csv {args.csv} does not start with the "
                             f"{args.command} header {','.join(header)}")
        records = COMMANDS[args.command][0](args)
        return EXIT_OK if records is None else _run_checks(args.command, records)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # A failed read of simulate's --input is a UsageError, and an
        # appended --csv is read only once _writable has passed it.
        # A write that fails after open carries no file name: name every output.
        name = exc.filename or " or ".join(path for path in paths if path)
        print(f"error: cannot write {name}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
