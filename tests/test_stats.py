"""Batch-statistic tests.  The gradient statistics are normative: each one is
checked with central finite differences against the objective it linearizes
(importance-weighted batch value for u_bar/psi_bar, KL-to-target for omega),
and the scale-block curvature ``h = 1/theta^2`` that the update solves with is
checked against the step KL."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spgl.gaussian import (
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_to_target,
    log_density_params,
    sampled_value,
)
from spgl.stats import RolloutBatch, compute_stats
from spgl.update import performance_step

FD_STEP = 1e-5
FD_RTOL = 1e-4


def make_dist(mu, theta, mu_tilde=None, sigma=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = mu.size
    target = TargetSpec(
        mu_tilde=np.zeros(d) if mu_tilde is None else np.atleast_1d(mu_tilde),
        sigma_tilde_diag=np.ones(d) if sigma is None else np.atleast_1d(sigma),
    )
    return ContextDistribution(mu=mu, theta=theta, target=target)


def random_instance(rng, d):
    sigma = rng.uniform(0.2, 2.0, d)
    mu_tilde = rng.normal(0.0, 1.0, d)
    theta = rng.uniform(0.3, 3.0, d)
    mu = mu_tilde + rng.normal(0.0, 1.0, d)
    dist = make_dist(mu, theta, mu_tilde=mu_tilde, sigma=sigma)
    contexts = np.random.default_rng(rng.integers(2**32)).normal(
        dist.mu, np.sqrt(dist.covariance_diag()), size=(16, d)
    )
    values = rng.normal(1.0, 2.0, 16)
    return dist, RolloutBatch(contexts, values, dist)


def sampled_objective(batch, dist, mu=None, theta=None):
    """The importance-weighted batch value as a function of the candidate
    parameters; the quantity u_bar and psi_bar linearize."""
    candidate = dist.with_params(mu=mu, theta=theta)
    log_p0 = log_density_params(batch.contexts, dist.mu, dist.covariance_diag())
    return float(
        sampled_value(
            batch.contexts, batch.values, log_p0, candidate.mu, candidate.covariance_diag()
        )
    )


class TestValueStats:
    def test_hand_example(self):
        dist = make_dist([0.0], [1.0])
        batch = RolloutBatch([[1.0], [-1.0]], [2.0, 1.0], dist)
        stats = compute_stats(batch)
        assert stats.u_bar[0] == pytest.approx(0.5)
        assert stats.v_bar == pytest.approx(1.5)

    def test_symmetric_contexts_cancel(self):
        dist = make_dist([0.5, -1.0], [1.0, 2.0])
        offsets = np.array([[0.3, -0.7], [-0.3, 0.7]])
        batch = RolloutBatch(dist.mu + offsets, [2.0, 2.0], dist)
        stats = compute_stats(batch)
        assert np.allclose(stats.u_bar, 0.0, atol=1e-15)

    def test_psi_bar_single_context_value(self):
        # duplicated context keeps the batch size valid without changing the
        # mean statistics
        dist = make_dist([0.0], [1.0])
        batch = RolloutBatch([[0.0], [0.0]], [1.0, 1.0], dist)
        stats = compute_stats(batch)
        assert stats.psi_bar[0] == pytest.approx(-0.5)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(11)
        dist, batch = random_instance(rng, 3)
        first = compute_stats(batch)
        second = compute_stats(batch)
        for name in ("u_bar", "v_bar", "psi_bar", "omega"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_batch_requires_two_rollouts(self):
        dist = make_dist([0.0], [1.0])
        with pytest.raises(ValueError, match="at least two"):
            RolloutBatch([[0.0]], [1.0], dist)

    def test_batch_rejects_context_dimension_mismatch(self):
        dist = make_dist([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            RolloutBatch([[0.0], [1.0]], [1.0, 2.0], dist)
        with pytest.raises(ValueError, match="dimension"):
            RolloutBatch([0.0, 1.0], [1.0, 2.0], dist)

    def test_batch_rejects_value_count_mismatch(self):
        dist = make_dist([0.0], [1.0])
        with pytest.raises(ValueError, match="one value per context"):
            RolloutBatch([[0.0], [1.0]], [1.0, 2.0, 3.0], dist)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_rejects_non_finite_values(self, bad):
        dist = make_dist([0.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            RolloutBatch([[0.0], [1.0]], [1.0, bad], dist)


def reference_stats(batch, dist, target):
    """The statistics written with ``np.mean``, as the definitions read."""
    theta, sigma = dist.theta, dist.target.sigma_tilde_diag
    delta = batch.contexts - dist.mu
    u_bar = np.mean(batch.values[:, None] * delta, axis=0)
    psi_terms = delta**2 / (theta**2 * sigma) - 1.0 / theta
    psi_bar = 0.5 * np.mean(batch.values[:, None] * psi_terms, axis=0)
    gap = target.mu_tilde - dist.mu
    omega = 0.5 * (1.0 / theta - 1.0 / theta**2 - gap**2 / (theta**2 * target.sigma_tilde_diag))
    return u_bar, float(np.mean(batch.values)), psi_bar, omega


def same_bits(stats, expected):
    got = (stats.u_bar, stats.v_bar, stats.psi_bar, stats.omega)
    return all(
        np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
        for a, b in zip(got, expected)
    )


class TestFastPaths:
    """``compute_stats`` reduces with ``np.add.reduce`` and a division by K
    and must give the bits of the plain definitions, whichever of two equal
    distribution objects drew the batch."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 128),
        d=st.integers(1, 32),
        value_exp=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_mean_reference_bit_for_bit(self, seed, k, d, value_exp):
        rng = np.random.default_rng(seed)
        dist = make_dist(
            rng.normal(0.0, 2.0, d),
            10.0 ** rng.uniform(-3.0, 3.0, d),
            mu_tilde=rng.normal(0.0, 2.0, d),
            sigma=10.0 ** rng.uniform(-2.0, 2.0, d),
        )
        contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
        batch = RolloutBatch(contexts, 10.0**value_exp * rng.normal(size=k), dist)
        stats = compute_stats(batch)
        assert same_bits(stats, reference_stats(batch, dist, dist.target))

    def test_equal_snapshot_gives_the_same_stats(self):
        rng = np.random.default_rng(5)
        dist, batch = random_instance(rng, 4)
        target = dist.target
        twin = ContextDistribution(
            mu=dist.mu.copy(),
            theta=dist.theta.copy(),
            target=TargetSpec(target.mu_tilde.copy(), target.sigma_tilde_diag.copy()),
        )
        assert twin is not dist
        from_twin = compute_stats(RolloutBatch(batch.contexts, batch.values, twin))
        assert same_bits(from_twin, reference_stats(batch, dist, target))
        assert same_bits(compute_stats(batch), reference_stats(batch, dist, target))


class TestGeometryStats:
    def test_unit_curvature(self):
        # at theta = 1 the scale ball is Euclidean with radius 2 sqrt(eps),
        # whatever the target variance
        dist = make_dist([0.0], [1.0], sigma=[0.37])
        stats = compute_stats(RolloutBatch([[0.0], [0.0]], [1.0, 1.0], dist))
        _, theta, _, _ = performance_step(dist, stats, 0.01)
        assert theta[0] == pytest.approx(1.0 - 2.0 * 0.1, abs=1e-12)

    def test_omega_zero_at_target(self):
        target = TargetSpec(mu_tilde=np.array([1.0, -2.0]), sigma_tilde_diag=np.array([0.5, 2.0]))
        dist = ContextDistribution.at_target(target)
        batch = RolloutBatch([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], dist)
        omega = compute_stats(batch).omega
        assert np.allclose(omega, 0.0, atol=1e-15)

    def test_omega_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dist, batch = random_instance(rng, 2)
            omega = compute_stats(batch).omega
            fd = np.zeros(dist.d)
            for j in range(dist.d):
                bump = np.zeros(dist.d)
                bump[j] = FD_STEP
                up = kl_to_target(dist.with_params(theta=dist.theta + bump))
                down = kl_to_target(dist.with_params(theta=dist.theta - bump))
                fd[j] = (up - down) / (2 * FD_STEP)
            assert np.linalg.norm(omega - fd) <= FD_RTOL * max(np.linalg.norm(fd), 1e-8)


class TestGradientConsistency:
    def test_u_bar_is_mean_gradient(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dist, batch = random_instance(rng, 3)
            u_bar = compute_stats(batch).u_bar
            precision = 1.0 / dist.covariance_diag()
            analytic = precision * u_bar
            fd = np.zeros(dist.d)
            for j in range(dist.d):
                bump = np.zeros(dist.d)
                bump[j] = FD_STEP
                up = sampled_objective(batch, dist, mu=dist.mu + bump)
                down = sampled_objective(batch, dist, mu=dist.mu - bump)
                fd[j] = (up - down) / (2 * FD_STEP)
            assert np.linalg.norm(analytic - fd) <= FD_RTOL * max(np.linalg.norm(fd), 1e-8)

    def test_psi_bar_is_scale_gradient(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            dist, batch = random_instance(rng, 3)
            psi_bar = compute_stats(batch).psi_bar
            fd = np.zeros(dist.d)
            for j in range(dist.d):
                bump = np.zeros(dist.d)
                bump[j] = FD_STEP
                up = sampled_objective(batch, dist, theta=dist.theta + bump)
                down = sampled_objective(batch, dist, theta=dist.theta - bump)
                fd[j] = (up - down) / (2 * FD_STEP)
            assert np.linalg.norm(psi_bar - fd) <= FD_RTOL * max(np.linalg.norm(fd), 1e-8)

    def test_h_matches_step_kl_to_second_order(self):
        # the scale block steps to the model ball 0.25 * sum(h * delta^2) = eps;
        # the true step KL must agree with it to second order
        rng = np.random.default_rng(15)
        for _ in range(10):
            dist, batch = random_instance(rng, 3)
            stats = dataclasses.replace(
                compute_stats(batch), u_bar=np.zeros(dist.d)
            )
            for eps in (1e-4, 1e-6):
                _, theta, moved, _ = performance_step(dist, stats, eps)
                rel_step = float(np.max(np.abs(theta / dist.theta - 1.0)))
                actual = kl_between(dist.with_params(theta=theta), dist)
                assert moved
                assert abs(actual - eps) <= 10.0 * rel_step * eps
