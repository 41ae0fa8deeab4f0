"""High-precision reference values for the square-root factorization's norms.

``golden.json`` holds, for each size n in SIZES, the two sums that the
square-root factorization's error norms read, from the coefficients
r_k = binom(2k, k) / 4^k:

    S(n) = sum_{k<n} r_k^2            (MaxSE; every squared row and column norm peaks at it)
    W(n) = sum_{k<n} (n - k) r_k^2    (the squared Frobenius norm of the factor)

so that MaxSE = S(n) and MeanSE = sqrt(W(n) S(n) / n).  Both are summed
directly, term by term, in mpmath at DIGITS decimal digits: one pass over
k < max(SIZES) with the running product r_k = r_{k-1} (2k - 1) / (2k),
recording S and W = n S - sum_{k<n} k r_k^2 at each size.  Each value is
stored to STORED significant digits.  The file also records mpmath's
version, the working digits, the run time and the largest relative gap of
the running product from Gamma(n + 1/2) / (sqrt(pi) Gamma(n + 1)) at the
recorded sizes.  Regenerate it (about 3-4 minutes on one core) with

    python tests/golden.py

The tests read it through ``GOLDEN``, ``sqrt_norms`` and ``relative_error``.
"""

import json
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


def _load() -> dict:
    with mp.workdps(DIGITS):
        table = json.loads(TABLE.read_text())["sqrt"]
        return {int(n): (mp.mpf(v["S"]), mp.mpf(v["W"])) for n, v in table.items()}


GOLDEN = _load() if TABLE.exists() else {}
"""{n: (S(n), W(n))} from golden.json, as mpmath numbers."""


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
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE} ({len(sums)} sizes, {seconds:.1f} s)")


if __name__ == "__main__":
    main()
