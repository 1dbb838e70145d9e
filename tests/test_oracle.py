"""Numerical solver tests: dual-bisection subproblem solutions with KKT
certificates, infeasibility detection, the exact solver's ray projection onto
the KL ball, and the exact sampled solver's feasibility / consistency /
dominance properties."""

import math

import numpy as np
import pytest

from spgl.gaussian import ContextDistribution, TargetSpec, importance_ratio, kl_between
from spgl.oracle import (
    InfeasibleSubproblem,
    LinearizedSubproblem,
    _kl_params,
    numerical_update,
    project_to_ball,
    solve_exact_sampled,
    solve_numeric,
)
from spgl.stats import ContextRollout, RolloutBatch
from spgl.update import CurriculumConfig, update


def make_batch(dist, contexts, values):
    rollouts = tuple(
        ContextRollout(context=np.asarray(c, float), value_estimate=float(v), episode_length=1, success=False)
        for c, v in zip(contexts, values)
    )
    return RolloutBatch(rollouts=rollouts, source_distribution=dist)


class TestSolveNumeric:
    def test_linear_objective_on_ball(self):
        # maximizer sits on the boundary along the metric-scaled gradient
        center = np.array([1.0, -2.0])
        gradient = np.array([0.6, -0.3])
        metric = np.array([2.0, 0.5])
        radius_sq = 0.08
        sol = solve_numeric(
            LinearizedSubproblem(
                center=center,
                objective_gradient=gradient,
                metric_diag=metric,
                radius_sq=radius_sq,
            )
        )
        direction = gradient / metric
        expected = center + math.sqrt(radius_sq) * direction / math.sqrt(
            float(np.sum(direction**2 * metric))
        )
        assert np.allclose(sol.x, expected, rtol=1e-10)
        assert sol.max_residual <= 1e-10

    def test_zero_gradient_returns_center(self):
        center = np.array([0.3])
        sol = solve_numeric(
            LinearizedSubproblem(
                center=center,
                objective_gradient=np.zeros(1),
                metric_diag=np.ones(1),
                radius_sq=0.1,
            )
        )
        assert np.array_equal(sol.x, center)

    def test_quadratic_interior_optimum(self):
        sol = solve_numeric(
            LinearizedSubproblem(
                center=np.zeros(2),
                objective_gradient=np.zeros(2),
                metric_diag=np.array([1.0, 4.0]),
                radius_sq=10.0,
                quadratic_target=np.array([0.5, -0.25]),
            )
        )
        assert np.allclose(sol.x, [0.5, -0.25], atol=1e-12)
        assert sol.lambda_ball == 0.0

    def test_infeasible_half_space(self):
        with pytest.raises(InfeasibleSubproblem):
            solve_numeric(
                LinearizedSubproblem(
                    center=np.zeros(1),
                    objective_gradient=np.ones(1),
                    metric_diag=np.ones(1),
                    radius_sq=0.01,
                    performance=(np.ones(1), -10.0),
                )
            )

    def test_certificates_on_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            metric = rng.uniform(0.2, 5.0, d)
            radius_sq = float(rng.uniform(0.01, 0.5))
            kwargs = dict(
                center=rng.normal(size=d),
                objective_gradient=rng.normal(size=d),
                metric_diag=metric,
                radius_sq=radius_sq,
            )
            if rng.uniform() < 0.5:
                kwargs["quadratic_target"] = kwargs["center"] + rng.normal(size=d)
            if rng.uniform() < 0.7:
                a = rng.normal(size=d)
                reach = math.sqrt(radius_sq * float(np.sum(a**2 / metric)))
                offset = float(rng.normal(0.0, reach))
                if offset < -0.95 * reach:
                    offset = -0.5 * reach
                kwargs["performance"] = (a, offset)
            sol = solve_numeric(LinearizedSubproblem(**kwargs))
            assert sol.max_residual <= 1e-10


def ray_kl(rng, d, theta_min=1e-6):
    """Step KL around a random centre in the exact solver's (mu, log theta)
    coordinates, with its clip of log theta to [log theta_min, 50]."""
    sigma = rng.uniform(0.05, 2.0, d)
    mu0 = rng.normal(size=d)
    theta0 = np.exp(rng.uniform(-3.0, 3.0, d))
    log_theta_min = math.log(theta_min)

    def kl(z):
        theta = np.exp(np.clip(z[d:], log_theta_min, 50.0))
        return _kl_params(z[:d], theta, mu0, theta0, sigma)

    return kl, np.concatenate([mu0, np.log(theta0)])


def counting(kl):
    """``kl`` wrapped to record each call in the returned list."""
    calls = []

    def counted(z):
        calls.append(z)
        return kl(z)

    return counted, calls


class TestProjectToBall:
    MAX_KL_EVALS = 15

    def rays(self, rng, d):
        """Random rays; mean-only and scale-only rays; rays whose log-scales
        run past both clip bounds (the KL is flat beyond them)."""
        for _ in range(4):
            yield rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        mean_only = rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        mean_only[d:] = 0.0
        yield mean_only
        scale_only = rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        scale_only[:d] = 0.0
        yield scale_only
        for _ in range(2):
            crossing = rng.normal(size=2 * d)
            crossing[d:] = rng.choice([-80.0, 80.0], size=d)
            yield crossing

    def test_random_rays_land_on_the_boundary(self):
        rng = np.random.default_rng(0)
        left = 0
        for _ in range(150):
            d = int(rng.choice([1, 2, 3, 5]))
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            kl, z0 = ray_kl(rng, d)
            for step in self.rays(rng, d):
                counted, evals = counting(kl)
                z = z0 + step
                projected = project_to_ball(counted, z0, z, eps)
                assert len(evals) <= self.MAX_KL_EVALS
                if kl(z) <= eps:
                    assert projected is z
                    continue
                left += 1
                k = kl(projected)
                assert k <= eps * (1.0 - 1e-12)
                assert eps - k <= 1e-9 * eps
        assert left > 1000

    def test_point_inside_is_returned_unchanged(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 5):
            kl, z0 = ray_kl(rng, d)
            for eps in (1e-6, 1e-3, 1.0):
                z = z0 + 1e-3 * math.sqrt(eps) * rng.normal(size=2 * d)
                assert kl(z) <= eps
                counted, evals = counting(kl)
                assert project_to_ball(counted, z0, z, eps) is z
                assert len(evals) == 1


def exact_setting(seed=0, d=2, k=16, width=2.0):
    rng = np.random.default_rng(seed)
    target = TargetSpec(mu_tilde=np.full(d, 1.0), sigma_tilde_diag=np.full(d, 0.5))
    dist = ContextDistribution(mu=np.zeros(d), theta=np.full(d, 1.5), target=target)
    contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
    values = 10.0 * np.exp(-0.5 * np.sum((contexts - 0.5) ** 2, axis=1) / width**2)
    return dist, target, make_batch(dist, contexts, values)


class TestSolveExactSampled:
    def test_feasible_and_dominates_closed_form(self):
        dist, target, batch = exact_setting()
        config = CurriculumConfig(epsilon=0.05, v_lower=100.0, k_contexts=16)
        result = solve_exact_sampled(batch, dist, target, config, "performance", seed=1)
        assert result.kl_step <= config.epsilon + 1e-8

        closed_dist, _ = update(dist, batch, target, config)
        ratios = importance_ratio(closed_dist, dist, batch.contexts())
        closed_value = float(np.mean(batch.values() * ratios))
        assert result.sampled_value >= closed_value - 1e-4

    def test_small_radius_matches_closed_form(self):
        dist, target, batch = exact_setting(seed=2)
        eps = 1e-6
        config = CurriculumConfig(epsilon=eps, v_lower=100.0, k_contexts=16)
        result = solve_exact_sampled(batch, dist, target, config, "performance", seed=3)
        closed_dist, _ = update(dist, batch, target, config)
        gap = np.concatenate(
            [
                result.distribution.mu - closed_dist.mu,
                result.distribution.theta - closed_dist.theta,
            ]
        )
        assert float(np.linalg.norm(gap)) <= 1e-3

    def test_symmetric_batch_keeps_mean(self):
        d = 2
        target = TargetSpec(mu_tilde=np.zeros(d), sigma_tilde_diag=np.ones(d))
        dist = ContextDistribution(mu=np.full(d, 0.3), theta=np.ones(d), target=target)
        contexts = np.tile(dist.mu, (8, 1))
        batch = make_batch(dist, contexts, [2.0] * 8)
        config = CurriculumConfig(epsilon=0.01, v_lower=100.0, k_contexts=8)
        result = solve_exact_sampled(batch, dist, target, config, "performance", seed=4)
        assert np.allclose(result.distribution.mu, dist.mu, atol=1e-5)

    def test_convergence_mode_respects_constraints(self):
        dist, target, batch = exact_setting(seed=5, width=50.0)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=16)
        result = solve_exact_sampled(batch, dist, target, config, "convergence", seed=6)
        assert result.kl_step <= config.epsilon + 1e-8
        assert result.sampled_value >= config.v_lower - 1e-6

    def test_linearization_error_bound(self):
        # small radii keep the exact and linearized solutions close
        for seed in range(3):
            dist, target, batch = exact_setting(seed=seed + 10)
            eps = 1e-3
            config = CurriculumConfig(epsilon=eps, v_lower=100.0, k_contexts=16)
            result = solve_exact_sampled(batch, dist, target, config, "performance", seed=seed)
            closed_dist, _ = update(dist, batch, target, config)
            gap = np.concatenate(
                [
                    result.distribution.mu - closed_dist.mu,
                    result.distribution.theta - closed_dist.theta,
                ]
            )
            assert float(np.linalg.norm(gap)) <= 10.0 * eps

    def test_seeded_determinism(self):
        dist, target, batch = exact_setting(seed=7)
        config = CurriculumConfig(epsilon=0.02, v_lower=100.0, k_contexts=16)
        a = solve_exact_sampled(batch, dist, target, config, "performance", seed=8)
        b = solve_exact_sampled(batch, dist, target, config, "performance", seed=8)
        assert np.array_equal(a.distribution.mu, b.distribution.mu)
        assert np.array_equal(a.distribution.theta, b.distribution.theta)


class TestNumericalUpdate:
    def test_dispatch_matches_closed_form_rule(self):
        dist, target, batch = exact_setting(seed=9, width=50.0)
        low = CurriculumConfig(epsilon=0.05, v_lower=1e3, k_contexts=16)
        high = CurriculumConfig(epsilon=0.05, v_lower=-1e3, k_contexts=16)
        _, report_low = numerical_update(dist, batch, target, low, seed=1, restarts=2, iterations=50)
        _, report_high = numerical_update(dist, batch, target, high, seed=1, restarts=2, iterations=50)
        assert report_low.kind == "performance"
        assert report_high.kind == "convergence"

    def test_step_stays_in_trust_region(self):
        dist, target, batch = exact_setting(seed=11, width=50.0)
        config = CurriculumConfig(epsilon=0.03, v_lower=5.0, k_contexts=16)
        new_dist, report = numerical_update(dist, batch, target, config, seed=2, restarts=3, iterations=100)
        assert kl_between(new_dist, dist) <= config.epsilon + 1e-8
        assert report.kl_step <= config.epsilon + 1e-8
