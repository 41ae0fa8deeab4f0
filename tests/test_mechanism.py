"""Tests for the seeded Gaussian-mechanism simulator."""

import concurrent.futures
import functools
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory import traced_peak
from numpy.testing import assert_allclose

from countfact import (
    GROUP_ALGEBRA,
    MechanismConfig,
    estimate_errors,
    factorize,
    maxse,
    meanse,
    nsr_factorization,
)
from countfact import mechanism
from countfact.factorizations import METHODS, sqrt_factorization
from countfact.mechanism import POOL_FLOOR, _generator, noise_scale


def run_mechanism_once(cfg, trial_index):
    # Oracle: one full mechanism output L(R x + sigma z) for trial
    # trial_index, with the noise estimate_errors draws for that trial.
    f = cfg.factorization
    z = _generator(cfg.seed, trial_index).standard_normal(f.inner_dim)
    sigma = noise_scale(f, cfg.mu)
    return f.left.apply(f.right.apply(cfg.input) + sigma * z)


def make_config(method="nsr", n=16, mu=1.0, trials=200, seed=42, x=None):
    f = factorize(method, n)
    if x is None:
        x = np.zeros(n)
    return MechanismConfig(factorization=f, mu=mu, trials=trials, seed=seed, input=x)


class TestConfigValidation:
    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            make_config(mu=0.0)
        with pytest.raises(ValueError):
            make_config(mu=-1.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            make_config(trials=0)

    @pytest.mark.parametrize("name, value", [("seed", 1.7), ("seed", 1.0),
                                             ("trials", 2.5), ("trials", 3.0)])
    def test_refuses_non_integer_seed_and_trials(self, name, value):
        # A float seed would be truncated to another seed's noise.
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
            make_config(**{name: value})

    def test_rejects_wrong_input_length(self):
        with pytest.raises(ValueError):
            make_config(n=8, x=np.zeros(9))

    def test_refuses_a_negative_trial_index(self):
        # A negative index would make the Philox key negative.
        with pytest.raises(ValueError, match="trial_index must be >= 0, got -1"):
            _generator(0, -1)

    def test_infinite_mu_allowed(self):
        cfg = make_config(mu=math.inf)
        assert cfg.mu == math.inf


class TestDeterminism:
    def test_identical_configs_are_bit_identical(self):
        a = estimate_errors(make_config(trials=50))
        b = estimate_errors(make_config(trials=50))
        assert a.empirical_err_inf == b.empirical_err_inf
        assert a.empirical_err_2 == b.empirical_err_2
        assert np.array_equal(a.z_mean, b.z_mean)
        assert np.array_equal(a.z_var, b.z_var)

    def test_run_once_deterministic_per_trial(self):
        cfg = make_config(x=np.arange(16.0))
        assert np.array_equal(run_mechanism_once(cfg, 3), run_mechanism_once(cfg, 3))
        assert not np.array_equal(run_mechanism_once(cfg, 3), run_mechanism_once(cfg, 4))

    def test_estimates_independent_of_input(self):
        a = estimate_errors(make_config(trials=50, x=np.zeros(16)))
        b = estimate_errors(make_config(trials=50, x=np.full(16, 9.5)))
        assert a.empirical_err_inf == b.empirical_err_inf
        assert a.empirical_err_2 == b.empirical_err_2


class TestNoiseFreeLimit:
    @pytest.mark.parametrize("method", ["sqrt", "nsr", GROUP_ALGEBRA])
    def test_infinite_mu_returns_prefix_sums(self, method):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        cfg = make_config(method=method, n=32, mu=math.inf, trials=1, x=x)
        out = run_mechanism_once(cfg, 0)
        assert_allclose(out, np.cumsum(x), atol=1e-10)
        result = estimate_errors(cfg)
        assert result.empirical_err_inf == 0.0
        assert result.theory_err_inf == 0.0
        assert np.all(np.isnan(result.z_mean))


class TestAdditivity:
    def test_outputs_differ_by_prefix_sums_of_difference(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(16)
        x2 = rng.standard_normal(16)
        out1 = run_mechanism_once(make_config(x=x1), 5)
        out2 = run_mechanism_once(make_config(x=x2), 5)
        assert_allclose(out1 - out2, np.cumsum(x1 - x2), atol=1e-10)

    def test_single_size_standard_normal_sample(self):
        # n = 1, sqrt method, mu = 1: L = R = [1], so the output on x = 0 is
        # one standard normal draw.
        cfg = MechanismConfig(factorization=sqrt_factorization(1), mu=1.0,
                              trials=1, seed=9, input=np.zeros(1))
        out = run_mechanism_once(cfg, 0)
        z = np.random.Generator(np.random.Philox(key=9)).standard_normal(1)
        assert out[0] == z[0]


class TestPinnedEstimates:
    # Values of the direct-convolution simulator (np.convolve for sqrt and
    # nsr, complex fft/ifft for group-algebra) at n = 1024, seed 3.
    PINNED = {
        "sqrt": (4.320414768744701, 3.0277414327453442),
        "nsr": (3.7111304480785985, 2.9106766766529333),
        GROUP_ALGEBRA: (4.004161010885295, 3.1496648677980974),
    }

    @pytest.mark.parametrize("method", ["sqrt", "nsr", GROUP_ALGEBRA])
    def test_matches_direct_convolution(self, method):
        result = estimate_errors(make_config(method=method, n=1024, trials=50, seed=3))
        err_inf, err_2 = self.PINNED[method]
        assert_allclose(result.empirical_err_inf, err_inf, rtol=1e-12)
        assert_allclose(result.empirical_err_2, err_2, rtol=1e-12)


# Small configurations for the property tests: every method, n <= 128, a
# few trials, any seed.
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None)
methods = st.sampled_from(METHODS)
sizes = st.integers(min_value=1, max_value=128)
seeds = st.integers(min_value=0, max_value=2**64 - 1)
trial_counts = st.integers(min_value=1, max_value=4)


@PROPERTY_SETTINGS
@given(method=methods, n=sizes, seed=seeds, trials=trial_counts)
def test_reruns_are_bit_identical_property(method, n, seed, trials):
    # Each run builds its own factorization, as a separate process would.
    a = estimate_errors(make_config(method, n, trials=trials, seed=seed))
    b = estimate_errors(make_config(method, n, trials=trials, seed=seed))
    assert a.empirical_err_inf == b.empirical_err_inf
    assert a.empirical_err_2 == b.empirical_err_2
    assert np.array_equal(a.z_mean, b.z_mean)
    assert np.array_equal(a.z_var, b.z_var)


@PROPERTY_SETTINGS
@given(method=methods, n=sizes, seed=seeds, trials=trial_counts,
       mu=st.floats(min_value=0.25, max_value=4.0), k=st.integers(min_value=-3, max_value=3))
def test_mu_times_power_of_two_scales_errors_exactly_property(method, n, seed, trials,
                                                              mu, k):
    base = estimate_errors(make_config(method, n, mu=mu, trials=trials, seed=seed))
    scaled = estimate_errors(make_config(method, n, mu=mu * 2.0**k, trials=trials,
                                         seed=seed))
    assert scaled.empirical_err_inf == base.empirical_err_inf / 2.0**k
    assert scaled.empirical_err_2 == base.empirical_err_2 / 2.0**k


class TestScaleLaw:
    def test_doubling_mu_halves_errors_exactly(self):
        base = estimate_errors(make_config(mu=1.0, trials=100))
        half = estimate_errors(make_config(mu=2.0, trials=100))
        assert half.empirical_err_inf == base.empirical_err_inf / 2.0
        assert half.empirical_err_2 == base.empirical_err_2 / 2.0

    def test_general_mu_scales_within_roundoff(self):
        base = estimate_errors(make_config(mu=1.0, trials=100))
        third = estimate_errors(make_config(mu=3.0, trials=100))
        assert_allclose(third.empirical_err_inf, base.empirical_err_inf / 3.0,
                        rtol=1e-12)

    def test_theory_fields(self):
        f = nsr_factorization(16)
        result = estimate_errors(MechanismConfig(factorization=f, mu=2.0, trials=10,
                                                 seed=0, input=np.zeros(16)))
        assert result.theory_err_inf == maxse(f) / 2.0
        assert result.theory_err_2 == meanse(f) / 2.0


class TestStatistics:
    def test_standardized_deviations_look_normal(self):
        trials = 2000
        result = estimate_errors(make_config(trials=trials, seed=42))
        assert np.abs(result.z_mean).max() < 4.0 / math.sqrt(trials)
        assert result.z_var.min() > 1.0 - 5.0 / math.sqrt(trials)
        assert result.z_var.max() < 1.0 + 5.0 / math.sqrt(trials)

    def test_single_coordinate_rms_is_near_one(self):
        cfg = MechanismConfig(factorization=sqrt_factorization(1), mu=1.0,
                              trials=20000, seed=42, input=np.zeros(1))
        result = estimate_errors(cfg)
        assert 0.98 < result.empirical_err_inf < 1.02

    def test_empirical_tracks_theory_at_moderate_size(self):
        result = estimate_errors(make_config(n=32, trials=3000, seed=7))
        assert abs(result.empirical_err_inf - result.theory_err_inf) \
            < 0.08 * result.theory_err_inf
        assert abs(result.empirical_err_2 - result.theory_err_2) \
            < 0.05 * result.theory_err_2


@functools.cache
def pool_factorization(method, n):
    return factorize(method, n)


def run_with_cpus(cfg, cpus, floor=POOL_FLOOR):
    """estimate_errors(cfg) with os.cpu_count() returning cpus and the pool
    floor at floor, and the max_workers of every pool it started."""
    workers = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    with mock.patch.object(os, "cpu_count", lambda: cpus), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", Recorded), \
            mock.patch.object(mechanism, "POOL_FLOOR", floor):
        return estimate_errors(cfg), workers


def assert_bitwise_equal(result, reference):
    for field in ("empirical_err_inf", "empirical_err_2", "theory_err_inf", "theory_err_2"):
        assert getattr(result, field).hex() == getattr(reference, field).hex(), field
    assert np.array_equal(result.z_mean, reference.z_mean)
    assert np.array_equal(result.z_var, reference.z_var)


# Both sides of the floor: inner_dim is n for sqrt and nsr and 2n for
# group-algebra, so at n = 4096 only group-algebra runs on the pool.  A
# task holds 2**15 // inner_dim trials: 8, 4 or 2 here.
@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(method=methods, n=st.sampled_from((4096, 8192)), seed=seeds,
       trials=st.integers(min_value=1, max_value=9))
@example(method="nsr", n=8192, seed=5, trials=3)  # fewer trials than one task holds
@example(method="sqrt", n=8192, seed=5, trials=9)  # two full tasks and one partial
@example(method=GROUP_ALGEBRA, n=4096, seed=5, trials=7)
@example(method=GROUP_ALGEBRA, n=8192, seed=5, trials=5)
def test_pooled_results_are_bitwise_serial_property(method, n, seed, trials):
    f = pool_factorization(method, n)
    cfg = MechanismConfig(factorization=f, mu=1.0, trials=trials, seed=seed,
                          input=np.zeros(n))
    reference, workers = run_with_cpus(cfg, 1, floor=math.inf)
    assert workers == []
    pooled = f.inner_dim >= POOL_FLOOR
    for cpus, size in ((1, 1), (2, 2), (8, 4), (None, 1)):
        result, workers = run_with_cpus(cfg, cpus)
        assert workers == ([size] if pooled else [])
        assert_bitwise_equal(result, reference)


def test_pool_is_bitwise_serial_under_frequent_thread_switches():
    # Four workers on at most two cores, switching threads every
    # microsecond: a lost or reordered update to a running sum changes bits.
    f = pool_factorization("nsr", POOL_FLOOR)
    cfg = MechanismConfig(factorization=f, mu=1.0, trials=24, seed=3,
                          input=np.zeros(POOL_FLOOR))
    reference, _ = run_with_cpus(cfg, 1, floor=math.inf)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result, workers = run_with_cpus(cfg, 8)
    finally:
        sys.setswitchinterval(interval)
    assert workers == [4]
    assert_bitwise_equal(result, reference)


def test_pool_memory_does_not_grow_with_the_trial_count():
    # One trial per task at n = 2**15, at most three tasks in flight on two
    # workers.  How the threads interleave moves the peak by up to a few
    # n-length arrays; keeping every deviation would add 180 of them.
    n = 2**15
    f = pool_factorization("sqrt", n)

    def peak(trials):
        cfg = MechanismConfig(factorization=f, mu=1.0, trials=trials, seed=0,
                              input=np.zeros(n))
        return traced_peak(lambda: run_with_cpus(cfg, 2))

    peak(1)  # the first pool imports concurrent.futures.thread
    assert peak(200) <= peak(20) + 16 * 8 * n
