"""Distribution-level tests: sampling moments, densities, the clamped
importance weights of the sampled value and closed-form KL divergences, each
checked against an independent oracle (quadrature, Monte Carlo, scipy or
direct density evaluation)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from spgl.gaussian import (
    THETA_MIN,
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_params,
    kl_to_target,
    log_density_params,
    sample,
    sampled_value,
)


def make_dist(mu, theta, mu_tilde=None, sigma=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = mu.size
    target = TargetSpec(
        mu_tilde=np.zeros(d) if mu_tilde is None else np.atleast_1d(mu_tilde),
        sigma_tilde_diag=np.ones(d) if sigma is None else np.atleast_1d(sigma),
    )
    return ContextDistribution(mu=mu, theta=theta, target=target)


def log_density(dist, c):
    return log_density_params(np.asarray(c, dtype=float), dist.mu, dist.covariance_diag())


def importance_ratio(new, old, c):
    """``p_new(c) / p_old(c)`` as the weight :func:`sampled_value` gives the
    single context ``c`` with value 1."""
    contexts = np.atleast_2d(c)
    log_p0 = log_density(old, contexts)
    return sampled_value(contexts, np.ones(len(contexts)), log_p0, new.mu, new.covariance_diag())


# Table-style point-mass setup used in several moment checks.
SETUP1_TARGET = TargetSpec(
    mu_tilde=np.array([2.6, 0.7, 0.1]),
    sigma_tilde_diag=np.array([9e-4, 4e-4, 1e-4]),
)
SETUP1_INITIAL = ContextDistribution(
    mu=np.array([0.0, 4.0, 2.0]), theta=np.array([4.0, 3.5, 1.0]), target=SETUP1_TARGET
)


class TestConstruction:
    def test_theta_floor_rejected(self):
        with pytest.raises(ValueError):
            make_dist([0.0], [1e-12])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(mu_tilde=np.zeros(2), sigma_tilde_diag=np.array([1.0, 0.0]))

    def test_arrays_are_read_only(self):
        dist = make_dist([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            dist.mu[0] = 5.0

    def test_at_target_matches_target(self):
        dist = ContextDistribution.at_target(SETUP1_TARGET)
        assert kl_to_target(dist) == 0.0

    def test_with_params_copies_and_validates(self):
        dist = make_dist([0.0, 1.0], [1.0, 2.0])
        mu, theta = np.array([0.5, -0.5]), np.array([3.0, 0.25])
        new = dist.with_params(mu=mu, theta=theta)
        mu[0] = theta[0] = 9.0
        assert new.mu.tolist() == [0.5, -0.5] and new.theta.tolist() == [3.0, 0.25]
        assert new.target is dist.target
        for arr in (new.mu, new.theta):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        kept = dist.with_params(theta=np.array([THETA_MIN, 1.0]))
        assert np.array_equal(kept.mu, dist.mu) and kept.theta[0] == THETA_MIN
        with pytest.raises(ValueError, match="theta entries must be >="):
            dist.with_params(theta=np.array([0.5 * THETA_MIN, 1.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                dist.with_params(mu=np.array([bad, 0.0]))
            with pytest.raises(ValueError, match="theta must be finite"):
                dist.with_params(theta=np.array([1.0, bad]))


class TestSampling:
    def test_degenerate_variance_limit(self):
        # smallest admissible scales with a tiny base variance: samples
        # collapse onto the mean
        dist = make_dist([1.5], [THETA_MIN], sigma=[1e-6])
        draws = sample(dist, np.random.default_rng(0), 1000)
        assert np.all(np.abs(draws - 1.5) < 1e-4)

    def test_standard_normal_moments(self):
        dist = make_dist([0.0], [1.0])
        draws = sample(dist, np.random.default_rng(1), 10**6)
        assert abs(float(np.mean(draws))) < 0.01
        assert abs(float(np.var(draws)) - 1.0) < 0.01

    def test_setup1_initial_variances(self):
        draws = sample(SETUP1_INITIAL, np.random.default_rng(2), 10**6)
        expected = SETUP1_INITIAL.covariance_diag()
        observed = np.var(draws, axis=0)
        # variance MC standard error is var * sqrt(2/N)
        se = expected * math.sqrt(2.0 / draws.shape[0])
        assert np.all(np.abs(observed - expected) < 5 * se)
        mean_se = np.sqrt(expected / draws.shape[0])
        assert np.all(np.abs(np.mean(draws, axis=0) - SETUP1_INITIAL.mu) < 5 * mean_se)

    def test_seeded_determinism(self):
        a = sample(SETUP1_INITIAL, np.random.default_rng(7), 64)
        b = sample(SETUP1_INITIAL, np.random.default_rng(7), 64)
        assert np.array_equal(a, b)


class TestLogDensity:
    def test_standard_normal_mode(self):
        dist = make_dist([0.0], [1.0])
        assert log_density(dist, np.array([0.0])) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_standard_normal_unit_offset(self):
        dist = make_dist([0.0], [1.0])
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert log_density(dist, np.array([1.0])) == pytest.approx(expected)

    def test_density_integrates_to_one(self):
        dist = make_dist([0.7], [2.3], sigma=[0.5])
        std = math.sqrt(float(dist.covariance_diag()[0]))
        grid = np.linspace(0.7 - 10 * std, 0.7 + 10 * std, 20001)[:, None]
        density = np.exp(log_density(dist, grid))
        integral = np.trapezoid(density, dx=grid[1, 0] - grid[0, 0])
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_batched_matches_single(self):
        dist = make_dist([0.1, -0.4], [1.2, 0.8])
        pts = np.random.default_rng(3).standard_normal((5, 2))
        batched = log_density(dist, pts)
        singles = np.array([log_density(dist, p) for p in pts])
        assert np.array_equal(batched, singles)

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        mu, var = rng.normal(size=3), np.exp(rng.uniform(-8.0, 2.0, 3))
        pts = mu + rng.standard_normal((6, 3)) * 3.0 * np.sqrt(var)
        expected = norm.logpdf(pts, loc=mu, scale=np.sqrt(var)).sum(axis=1)
        np.testing.assert_allclose(log_density_params(pts, mu, var), expected, rtol=1e-12)
        # parameter rows (n, 1, d) give one row of batch densities each
        rows = log_density_params(
            pts, np.stack([mu, -mu])[:, None], np.stack([var, 2 * var])[:, None]
        )
        np.testing.assert_allclose(rows[0], expected, rtol=1e-12)
        np.testing.assert_allclose(
            rows[1], norm.logpdf(pts, loc=-mu, scale=np.sqrt(2 * var)).sum(axis=1), rtol=1e-12
        )


class TestImportanceRatio:
    def test_identical_distributions(self):
        dist = make_dist([0.3, 1.0], [1.5, 0.5])
        c = np.array([0.2, -1.0])
        assert importance_ratio(dist, dist, c) == pytest.approx(1.0)

    def test_unit_mean_shift(self):
        old = make_dist([0.0], [1.0])
        new = make_dist([1.0], [1.0])
        assert importance_ratio(new, old, np.array([1.0])) == pytest.approx(math.exp(0.5))

    def test_matches_direct_density_quotient(self):
        rng = np.random.default_rng(4)
        old = make_dist([0.5, -0.2], [2.0, 0.7], sigma=[0.3, 1.4])
        new = make_dist([0.1, 0.4], [1.1, 1.9], sigma=[0.3, 1.4])
        for _ in range(20):
            c = rng.standard_normal(2)

            def pdf(dist):
                var = dist.covariance_diag()
                return np.prod(
                    np.exp(-0.5 * (c - dist.mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
                )

            assert importance_ratio(new, old, c) == pytest.approx(
                pdf(new) / pdf(old), rel=1e-12
            )

    def test_ratio_clamped_for_narrow_targets(self):
        # variances at the 1e-4 scale drive raw ratios past double range;
        # the clamp keeps them usable
        old = make_dist([0.0], [1.0], sigma=[1e-4])
        new = make_dist([3.0], [1.0], sigma=[1e-4])
        ratio = importance_ratio(new, old, np.array([3.0]))
        assert ratio == pytest.approx(1e30, rel=1e-12)
        assert importance_ratio(old, new, np.array([3.0])) == pytest.approx(1e-30, rel=1e-12)
        # the sampled value weights each value by its clamped ratio
        contexts = np.array([[3.0], [0.0]])
        log_p0 = log_density(old, contexts)
        value = sampled_value(contexts, np.array([2.0, 5.0]), log_p0, new.mu, new.covariance_diag())
        assert value == pytest.approx(0.5 * (2.0 * 1e30 + 5.0 * 1e-30), rel=1e-12)

    @given(
        mu_new=st.floats(-3, 3),
        mu_old=st.floats(-3, 3),
        theta_new=st.floats(0.05, 20),
        theta_old=st.floats(0.05, 20),
        c=st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_property(self, mu_new, mu_old, theta_new, theta_old, c):
        old = make_dist([mu_old], [theta_old])
        new = make_dist([mu_new], [theta_new])
        point = np.array([c])
        forward = importance_ratio(new, old, point)
        backward = importance_ratio(old, new, point)
        assert forward * backward == pytest.approx(1.0, rel=1e-12)


class TestKL:
    def test_zero_at_target(self):
        dist = make_dist([0.0, 0.0], [1.0, 1.0])
        assert kl_to_target(dist) == 0.0

    def test_unit_mean_offset(self):
        dist = make_dist([1.0], [1.0])
        assert kl_to_target(dist) == pytest.approx(0.5)

    def test_setup1_against_monte_carlo(self):
        # KL(target || sampling) estimated from target samples of the
        # log-density ratio
        rng = np.random.default_rng(5)
        n = 10**6
        target_dist = ContextDistribution.at_target(SETUP1_TARGET)
        draws = sample(target_dist, rng, n)
        log_ratio = log_density(target_dist, draws) - log_density(SETUP1_INITIAL, draws)
        estimate = float(np.mean(log_ratio))
        se = float(np.std(log_ratio)) / math.sqrt(n)
        assert abs(kl_to_target(SETUP1_INITIAL) - estimate) < 3 * se

    def test_kl_between_identical(self):
        dist = make_dist([0.2, 0.8], [0.7, 1.4])
        assert kl_between(dist, dist) == 0.0

    def test_kl_between_mean_shift(self):
        old = make_dist([0.0], [1.0])
        new = make_dist([0.4], [1.0])
        assert kl_between(new, old) == pytest.approx(0.08)
        # at equal scales kl_params is the mean-shift part alone
        sigma = old.target.sigma_tilde_diag
        assert float(kl_params(new.mu, old.theta, old.mu, old.theta, sigma)) == kl_between(new, old)

    @pytest.mark.parametrize(
        "other", [([0.0, 0.0], [1.0, 1.0], [1.0, 1.0]), ([0.0], [1.0], [0.5])]
    )
    def test_kl_between_rejects_another_target_spec(self, other):
        # another dimension or other target variances
        mu, theta, sigma = other
        with pytest.raises(ValueError, match="common target spec"):
            kl_between(make_dist(mu, theta, sigma=sigma), make_dist([0.0], [1.0], sigma=[1.0]))

    def test_kl_between_theta_change_against_monte_carlo(self):
        rng = np.random.default_rng(6)
        old = make_dist([0.5], [2.0], sigma=[0.8])
        new = make_dist([0.5], [0.9], sigma=[0.8])
        n = 10**6
        draws = sample(new, rng, n)
        log_ratio = log_density(new, draws) - log_density(old, draws)
        estimate = float(np.mean(log_ratio))
        se = float(np.std(log_ratio)) / math.sqrt(n)
        assert abs(kl_between(new, old) - estimate) < 3 * se

    @given(
        mu=st.floats(-2, 2),
        theta=st.floats(0.1, 10),
        mu2=st.floats(-2, 2),
        theta2=st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, mu, theta, mu2, theta2):
        a = make_dist([mu], [theta])
        b = make_dist([mu2], [theta2])
        assert kl_to_target(a) >= 0.0
        assert kl_between(a, b) >= 0.0
        if mu == mu2 and theta == theta2:
            assert kl_between(a, b) == 0.0
        elif abs(mu - mu2) > 1e-6 or abs(theta - theta2) > 1e-6:
            assert kl_between(a, b) > 0.0

    def test_mean_only_kl_is_exact_quadratic(self):
        old = make_dist([1.0, -2.0], [0.5, 3.0], sigma=[0.2, 1.1])
        new = old.with_params(mu=np.array([1.3, -1.4]))
        precision = 1.0 / old.covariance_diag()
        expected = 0.5 * float(np.sum((new.mu - old.mu) ** 2 * precision))
        assert kl_between(new, old) == pytest.approx(expected, rel=1e-14)
