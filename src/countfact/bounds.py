"""Lower bounds on the attainable error norms, and the cosecant-sum
asymptotics behind them.

The singular values of the counting matrix are 1 / (2 sin((2j-1) pi / (4n+2)))
for j = 1..n, so its nuclear norm over n is a pure cosecant sum; the same is
true of the older spectral bound it improves on.  All sums here go through
sequences._cosecant_sum, one blocked compensated sum that rounds the exact
sum of its positive terms once; the Mathias bound reads the memoized odd
sum that the group-algebra factorization's norm also reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .sequences import CONSTANTS, EULER_GAMMA, _cosecant_sum, _odd_cosecant_sum, check_size
from .metrics import residual_offset


def nuclear_lower_bound(n: int) -> float:
    """(1/2n) sum_{j=1..n} csc((2j - 1) pi / (4n + 2)): nuclear norm of the
    counting matrix divided by n.  No factorization can beat it on either
    error norm.  Approaches log(n)/pi + (euler_gamma + log(16/pi))/pi.
    """
    n = check_size(n)
    return _cosecant_sum(range(1, 2 * n, 2), 4 * n + 2) / (2 * n)


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
    vanishing term as n grows.
    """
    n = check_size(n, 2)
    value = _cosecant_sum(range(1, n), n) / n
    predicted = (2.0 / math.pi) * (math.log(n) + EULER_GAMMA + math.log(2.0 / math.pi))
    return value, predicted


@dataclass(frozen=True)
class BoundReport:
    """Both lower bounds at one n, their residuals against log(n)/pi, and
    the constants the residuals converge to.  The cosecant average G(n) and
    its prediction (None when n < 2) are computed on first read."""

    n: int
    nuclear_lb: float
    mathias_lb: float
    nuclear_residual: float
    mathias_residual: float
    predicted_nuclear_residual: float
    predicted_mathias_residual: float

    @cached_property
    def _cosecant_average(self) -> tuple[float | None, float | None]:
        return cosecant_average(self.n) if self.n >= 2 else (None, None)

    @property
    def g_n(self) -> float | None:
        return self._cosecant_average[0]

    @property
    def g_n_predicted(self) -> float | None:
        return self._cosecant_average[1]


def bound_report(n: int) -> BoundReport:
    nuclear = nuclear_lower_bound(n)
    mathias = mathias_lower_bound(n)
    offset = residual_offset(n)
    return BoundReport(
        n=n,
        nuclear_lb=nuclear,
        mathias_lb=mathias,
        nuclear_residual=nuclear - offset,
        mathias_residual=mathias - offset,
        predicted_nuclear_residual=CONSTANTS.lb_const,
        predicted_mathias_residual=CONSTANTS.mathias_lb_const,
    )
