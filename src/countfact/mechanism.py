"""Seeded Monte-Carlo simulator of the Gaussian mechanism
M(x) = L (R x + sigma z) for a factorization L R of the counting matrix.

Noise calibration follows the usual convention for mu-GDP release of
prefix sums: neighboring inputs differ in one coordinate by at most 1, so
the l2 sensitivity of R x is the maximum column norm of R, and
sigma = |R|_{1->2} / mu.  Under that scaling the per-coordinate standard
deviation of M(x) - M_count x is sigma |L_{i,:}|, so the worst coordinate
estimates MaxSE/mu and the root mean square estimates MeanSE/mu.
"""

from __future__ import annotations

import collections
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .factorizations import Factorization
from .metrics import maxse, meanse


# Trials whose noise is shorter than this run on the calling thread: numpy
# drops and retakes the GIL on every call, and on short arrays that costs
# more than a second core gains.
POOL_FLOOR = 8192
# Noise draws per pool task: short trials are handed out several at a time.
_TASK_DRAWS = 2**15


def pool_size() -> int:
    """Threads of a worker pool: one per CPU, at most four.  Each thread
    holds the arrays of one task, so the cap bounds peak memory."""
    return min(4, os.cpu_count() or 1)


def check_parameters(mu: float, trials: int, seed: int) -> None:
    """Refuse a GDP level, trial count or seed that no simulation accepts;
    a float seed, truncated, would run another seed's noise."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    for name, value in (("trials", trials), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class MechanismConfig:
    """One simulation setup.

    ``mu`` is the GDP level; ``mu = inf`` is allowed and means sigma = 0.
    ``seed`` is a 64-bit unsigned integer; together with a trial index it
    fully determines the noise draw.
    """

    factorization: Factorization
    mu: float
    trials: int
    seed: int
    input: np.ndarray

    def __post_init__(self):
        check_parameters(self.mu, self.trials, self.seed)
        x = np.asarray(self.input, dtype=np.float64)
        if x.shape != (self.factorization.n,):
            raise ValueError(
                f"input must have shape ({self.factorization.n},), got {x.shape}"
            )
        object.__setattr__(self, "input", x)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical error estimates and their theoretical targets.

    z_mean / z_var hold, per coordinate, the mean and variance across
    trials of the standardized deviations (M(x) - M_count x)_i divided by
    sigma |L_{i,:}|; they should look standard normal.  Both are NaN when
    sigma = 0.
    """

    empirical_err_inf: float
    empirical_err_2: float
    theory_err_inf: float
    theory_err_2: float
    z_mean: np.ndarray
    z_var: np.ndarray


def _generator(seed: int, trial_index: int) -> np.random.Generator:
    # Philox is counter-based: keying it with the 128-bit word
    # (trial_index << 64) | seed yields an independent, reproducible
    # stream per (seed, trial) with no sequential state.
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    key = (int(trial_index) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


def noise_scale(f: Factorization, mu: float) -> float:
    """sigma = max column norm of the right factor, divided by mu."""
    sens = math.sqrt(float(np.max(f.col_norms_sq_right)))
    return sens / mu  # mu = inf gives exactly 0.0


def _in_order(fn, tasks, workers: int):
    """fn(task) for each task, in order, computed on a pool of worker
    threads with at most workers + 1 tasks submitted and not yet read."""
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        window = collections.deque()
        for task in tasks:
            window.append(pool.submit(fn, task))
            if len(window) > workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def estimate_errors(cfg: MechanismConfig) -> SimulationResult:
    """Monte-Carlo estimates of the worst-coordinate and mean errors.

    The deviation M(x) - M_count x equals L(sigma z) identically, so it is
    computed noise-only; the estimates are therefore bit-for-bit
    independent of the input, and scaling mu by a power of two rescales
    them exactly.  From an inner dimension of POOL_FLOOR up, the deviations
    are computed a chunk of trials at a time on pool_size() worker threads;
    below it, on the calling thread.  Either way the caller adds per-trial
    statistics to plain sums in trial order, so identical configs give
    bit-identical results at any number of threads.  A mu so small that
    sigma or the squared deviations overflow raises ValueError.
    """
    f = cfg.factorization
    n, inner_dim = f.n, f.inner_dim
    sigma = noise_scale(f, cfg.mu)
    if not math.isfinite(sigma):
        raise ValueError(f"mu = {cfg.mu} is too small: the noise scale sigma overflows")
    z_scale = sigma * np.sqrt(np.asarray(f.row_norms_sq_left, dtype=np.float64))
    dev_sq_sum = np.zeros(n)
    z_sum = np.zeros(n)
    z_sq_sum = np.zeros(n)

    def deviations(trials: range) -> list:
        # errstate is per thread, so each worker sets its own; the caller
        # refuses an overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            return [f.left.apply(sigma * _generator(cfg.seed, t).standard_normal(inner_dim))
                    for t in trials]

    per_task = max(1, _TASK_DRAWS // inner_dim)
    trials = range(cfg.trials)
    tasks = (trials[start:start + per_task] for start in trials[::per_task])
    if inner_dim < POOL_FLOOR:
        chunks = map(deviations, tasks)
    else:
        f.left.spectrum  # built here, so that no two workers build it
        chunks = _in_order(deviations, tasks, pool_size())
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        for devs in chunks:
            for dev in devs:
                dev_sq_sum += dev * dev
                if sigma > 0.0:
                    standardized = dev / z_scale
                    z_sum += standardized
                    z_sq_sum += standardized * standardized
    per_coord_ms = dev_sq_sum / cfg.trials
    if not math.isfinite(total_ms := float(per_coord_ms.sum())):  # each entry is >= 0
        raise ValueError(f"mu = {cfg.mu} is too small: the squared deviations overflow")
    if sigma > 0.0:
        z_mean = z_sum / cfg.trials
        z_var = z_sq_sum / cfg.trials - z_mean * z_mean
    else:
        z_mean = np.full(n, np.nan)
        z_var = np.full(n, np.nan)
    return SimulationResult(
        empirical_err_inf=math.sqrt(float(per_coord_ms.max())),
        empirical_err_2=math.sqrt(total_ms / n),
        theory_err_inf=maxse(f) / cfg.mu,
        theory_err_2=meanse(f) / cfg.mu,
        z_mean=z_mean,
        z_var=z_var,
    )
