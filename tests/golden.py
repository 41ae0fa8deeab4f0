"""High-precision reference values for the closed-form families.

``golden.json`` holds, for each size n in SIZES, the two sums that the
square-root factorization's error norms read, from the coefficients
r_k = binom(2k, k) / 4^k:

    S(n) = sum_{k<n} r_k^2            (MaxSE; every squared row and column norm peaks at it)
    W(n) = sum_{k<n} (n - k) r_k^2    (the squared Frobenius norm of the factor)

so that MaxSE = S(n) and MeanSE = sqrt(W(n) S(n) / n), and the three
cosecant sums behind the other closed forms:

    T(n)       = sum_{l=1..n-1} csc(pi l / n)               (G(n) = T(n) / n)
    nuclear(n) = sum_{j=1..n} csc(pi (2j - 1) / (4n + 2))   (nuclear_lb = nuclear(n) / 2n)
    odd(n)     = sum_{l=1..n} csc(pi (2l - 1) / (2n))       (group-algebra norm, mathias_lb)

All are summed directly, term by term, in mpmath at DIGITS decimal digits.
S and W come from one pass over k < max(SIZES) with the running product
r_k = r_{k-1} (2k - 1) / (2k), recording S and W = n S - sum_{k<n} k r_k^2
at each size.  Each cosecant sum is the exact sum (mpmath.fsum) of its
terms; csc(pi - x) = csc(x) halves T and odd(n), whose terms pair up
around pi / 2.  Each value is stored to STORED significant digits.  The
file also records mpmath's version, the working digits, the run time and
the largest relative gap of the running product from
Gamma(n + 1/2) / (sqrt(pi) Gamma(n + 1)) at the recorded sizes.
Regenerate it (about 16 minutes on one core) with

    python tests/golden.py

The tests read it through ``GOLDEN``, ``COSECANT``, ``sqrt_norms`` and
``relative_error``.
"""

import json
import sys
import time
from pathlib import Path

import mpmath as mp

TABLE = Path(__file__).with_name("golden.json")
DIGITS = 40
STORED = 25
SIZES = sorted({*range(1, 65), 4097, 2**17 + 3, *(2**k for k in range(25))})


def _sums(sizes, dps=DIGITS):
    """{n: (S(n), W(n))} for every n in the ascending list sizes, and the
    largest relative gap of the running product from the Gamma ratio."""
    out, drift = {}, mp.mpf(0)
    with mp.workdps(dps):
        r, s, t = mp.mpf(1), mp.mpf(0), mp.mpf(0)  # r_k, sum r^2, sum k r^2
        wanted = iter(sizes)
        n = next(wanted)
        for k in range(sizes[-1]):
            if k:
                r = r * (2 * k - 1) / (2 * k)
            term = r * r
            s += term
            t += k * term
            if k + 1 == n:
                out[n] = (s, n * s - t)
                exact = mp.gamma(k + mp.mpf(0.5)) / (mp.sqrt(mp.pi) * mp.gamma(k + 1))
                drift = max(drift, abs(r / exact - 1))
                n = next(wanted, None)
    return out, drift


def _csc_sum(numerators, denominator):
    """sum csc(pi l / denominator) over the numerators l, summed exactly."""
    step = mp.pi / denominator
    return mp.fsum(1 / mp.sin(step * l) for l in numerators)


def _cosecant_sums(n: int, dps=DIGITS):
    """(T(n), nuclear(n), odd(n)).  The terms of T and odd(n) pair up
    around pi / 2, where a middle term, csc(pi / 2) = 1, is left over when
    n is even (T) or odd (odd(n))."""
    with mp.workdps(dps):
        t = 2 * _csc_sum(range(1, (n + 1) // 2), n) + (n % 2 == 0)
        nuclear = _csc_sum(range(1, 2 * n, 2), 4 * n + 2)
        odd = 2 * _csc_sum(range(1, 2 * (n // 2), 2), 2 * n) + n % 2
    return t, nuclear, odd


def _load(family: str, keys) -> dict:
    table = json.loads(TABLE.read_text()).get(family, {}) if TABLE.exists() else {}
    with mp.workdps(DIGITS):
        return {int(n): tuple(mp.mpf(v[key]) for key in keys) for n, v in table.items()}


GOLDEN = _load("sqrt", ("S", "W"))
"""{n: (S(n), W(n))} from golden.json, as mpmath numbers."""

COSECANT = _load("cosecant", ("T", "nuclear", "odd"))
"""{n: (T(n), nuclear(n), odd(n))} from golden.json, as mpmath numbers."""


def sqrt_norms(n: int):
    """(MaxSE, MeanSE) of the square-root factorization at a size in GOLDEN."""
    s, w = GOLDEN[n]
    with mp.workdps(DIGITS):
        return s, mp.sqrt(w * s / n)


def relative_error(value: float, exact) -> float:
    """|value / exact - 1|, evaluated at DIGITS digits."""
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(value) / exact - 1))


def main() -> None:
    start = time.perf_counter()
    sums, drift = _sums(SIZES)
    print(f"sqrt: {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
    cosecant = {}
    for n in SIZES:
        cosecant[n] = _cosecant_sums(n)
        print(f"cosecant n = {n}: {time.perf_counter() - start:.1f} s",
              file=sys.stderr, flush=True)
    seconds = time.perf_counter() - start
    table = {
        "generator": "tests/golden.py",
        "mpmath": mp.__version__,
        "digits": DIGITS,
        "stored_digits": STORED,
        "seconds": round(seconds, 1),
        "product_drift": mp.nstr(drift, 3),
        "sqrt": {str(n): {"S": mp.nstr(s, STORED), "W": mp.nstr(w, STORED)}
                 for n, (s, w) in sums.items()},
        "cosecant": {str(n): dict(zip(("T", "nuclear", "odd"),
                                      (mp.nstr(v, STORED) for v in values)))
                     for n, values in cosecant.items()},
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE} ({len(sums)} sizes, {seconds:.1f} s)")


if __name__ == "__main__":
    main()
