"""Lower bounds on the attainable error norms, and the cosecant-sum
asymptotics behind them.

The singular values of the counting matrix are 1 / (2 sin((2j-1) pi / (4n+2)))
for j = 1..n, so its nuclear norm over n is a pure cosecant sum; the same is
true of the older spectral bound it improves on.  The nuclear bound and
G(n) are differences of T(m) = sum_{l=1..m-1} csc(pi l / m), which
sequences._cosecant_total evaluates in O(1); the Mathias bound reads the
memoized odd sum, a blocked compensated sum in O(n), that the
group-algebra factorization's norm also reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sequences import CONSTANTS, EULER_GAMMA, _cosecant_total, _odd_cosecant_sum, check_size
from .metrics import residual_offset


def nuclear_lower_bound(n: int) -> float:
    """(1/2n) sum_{j=1..n} csc((2j - 1) pi / (4n + 2)): nuclear norm of the
    counting matrix divided by n.  No factorization can beat it on either
    error norm.  Approaches log(n)/pi + (euler_gamma + log(16/pi))/pi.

    The odd terms of T(4n + 2) are twice this sum and csc(pi/2) = 1; its
    even terms are T(2n + 1).  So the bound is
    (T(4n + 2) - T(2n + 1) - 1) / 4n, in O(1).
    """
    n = check_size(n)
    return (_cosecant_total(4 * n + 2) - _cosecant_total(2 * n + 1) - 1.0) / (4 * n)


def mathias_lower_bound(n: int) -> float:
    """((n + 1) / 2n^2) sum_{j=1..n} csc((2j - 1) pi / (2n)): the classical
    Hadamard-multiplier bound.  Approaches log(n)/pi + (euler_gamma +
    log(8/pi))/pi, weaker than the nuclear bound for every n >= 2.
    """
    n = check_size(n)
    return (n + 1) / (2.0 * n * n) * _odd_cosecant_sum(n)


def cosecant_average(n: int) -> tuple[float, float]:
    """G(n) = (1/n) sum_{l=1..n-1} csc(pi l / n), with its prediction.

    Returns (value, predicted) where predicted =
    (2/pi) (log n + euler_gamma + log(2/pi)); the two agree up to a
    vanishing term as n grows.  The value is T(n) / n, in O(1).
    """
    n = check_size(n, 2)
    value = _cosecant_total(n) / n
    predicted = (2.0 / math.pi) * (math.log(n) + EULER_GAMMA + math.log(2.0 / math.pi))
    return value, predicted


@dataclass(frozen=True)
class BoundReport:
    """Both lower bounds at one n, their residuals against log(n)/pi, and
    the constants the residuals converge to.  A bound that was not asked
    for reads None, and so does its residual."""

    n: int
    nuclear_lb: float | None
    mathias_lb: float | None
    nuclear_residual: float | None
    mathias_residual: float | None
    predicted_nuclear_residual: float
    predicted_mathias_residual: float


def bound_report(n: int, selected=("nuclear_lb", "mathias_lb")) -> BoundReport:
    """The bounds named in selected, both by default, at n: a sweep of the
    O(1) nuclear bound alone skips the Mathias bound's O(n) odd sum."""
    nuclear = nuclear_lower_bound(n) if "nuclear_lb" in selected else None
    mathias = mathias_lower_bound(n) if "mathias_lb" in selected else None
    offset = residual_offset(n)
    return BoundReport(
        n=n,
        nuclear_lb=nuclear,
        mathias_lb=mathias,
        nuclear_residual=None if nuclear is None else nuclear - offset,
        mathias_residual=None if mathias is None else mathias - offset,
        predicted_nuclear_residual=CONSTANTS.lb_const,
        predicted_mathias_residual=CONSTANTS.mathias_lb_const,
    )
