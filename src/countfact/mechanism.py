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

import math
from dataclasses import dataclass

import numpy as np

from .factorizations import Factorization
from .metrics import maxse, meanse


def check_parameters(mu: float, trials: int, seed: int) -> None:
    """Refuse a GDP level, trial count or seed that no simulation accepts."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
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


def estimate_errors(cfg: MechanismConfig) -> SimulationResult:
    """Monte-Carlo estimates of the worst-coordinate and mean errors.

    The deviation M(x) - M_count x equals L(sigma z) identically, so it is
    computed noise-only; the estimates are therefore bit-for-bit
    independent of the input, and scaling mu by a power of two rescales
    them exactly.  Accumulation is a plain sum of per-trial statistics in
    trial order, so identical configs give bit-identical results.
    """
    f = cfg.factorization
    n = f.n
    sigma = noise_scale(f, cfg.mu)
    z_scale = sigma * np.sqrt(np.asarray(f.row_norms_sq_left, dtype=np.float64))
    dev_sq_sum = np.zeros(n)
    z_sum = np.zeros(n)
    z_sq_sum = np.zeros(n)
    for trial in range(cfg.trials):
        z = _generator(cfg.seed, trial).standard_normal(f.inner_dim)
        dev = f.left.apply(sigma * z)
        dev_sq_sum += dev * dev
        if sigma > 0.0:
            standardized = dev / z_scale
            z_sum += standardized
            z_sq_sum += standardized * standardized
    per_coord_ms = dev_sq_sum / cfg.trials
    if sigma > 0.0:
        z_mean = z_sum / cfg.trials
        z_var = z_sq_sum / cfg.trials - z_mean * z_mean
    else:
        z_mean = np.full(n, np.nan)
        z_var = np.full(n, np.nan)
    return SimulationResult(
        empirical_err_inf=math.sqrt(float(per_coord_ms.max())),
        empirical_err_2=math.sqrt(float(per_coord_ms.sum()) / n),
        theory_err_inf=maxse(f) / cfg.mu,
        theory_err_2=meanse(f) / cfg.mu,
        z_mean=z_mean,
        z_var=z_var,
    )
