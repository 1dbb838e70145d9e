"""Closed-form update engine tests: dispatch, both step kinds, the KKT case
table, degenerate guards, and the trust-region / convergence properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spgl.update as update_module
from digest import update_instance
from spgl.gaussian import (
    THETA_MIN,
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_params,
    kl_to_target,
)
from spgl.oracle import numerical_update
from spgl.stats import CurriculumStats, RolloutBatch
from spgl.update import (
    BOTH_ACTIVE,
    BOTH_INACTIVE,
    PERF_ACTIVE,
    PROXIMITY_ACTIVE,
    CurriculumConfig,
    CurriculumError,
    KKT_TOL,
    InfeasiblePerformanceConstraint,
    MeanBlock,
    ScaleBlock,
    convergence_step,
    performance_step,
    should_run_performance_step,
    update,
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


def make_stats(d, u_bar=None, v_bar=0.0, psi_bar=None, omega=None):
    return CurriculumStats(
        u_bar=np.zeros(d) if u_bar is None else np.atleast_1d(np.asarray(u_bar, float)),
        v_bar=v_bar,
        psi_bar=np.zeros(d) if psi_bar is None else np.atleast_1d(np.asarray(psi_bar, float)),
        omega=np.zeros(d) if omega is None else np.atleast_1d(np.asarray(omega, float)),
    )


class TestDispatch:
    def test_below_threshold_triggers_performance(self):
        config = CurriculumConfig(epsilon=0.1, v_lower=5.0)
        assert should_run_performance_step(make_stats(1, v_bar=1.4), config)

    def test_boundary_counts_as_satisfied(self):
        config = CurriculumConfig(epsilon=0.1, v_lower=5.0)
        assert not should_run_performance_step(make_stats(1, v_bar=5.0), config)

    def test_high_value_skips_performance(self):
        config = CurriculumConfig(epsilon=0.1, v_lower=5.0)
        assert not should_run_performance_step(make_stats(1, v_bar=100.0), config)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_scale_invariance_of_dispatch_and_cases(self, scale):
        dist = make_dist([0.0], [1.0], mu_tilde=[1.0])
        config = CurriculumConfig(epsilon=0.02, v_lower=0.0)
        base = make_stats(1, u_bar=[0.4], v_bar=3.0)
        scaled = make_stats(1, u_bar=[0.4 * scale], v_bar=3.0 * scale)
        assert should_run_performance_step(base, config) == should_run_performance_step(
            scaled, config
        )
        _, sol = MeanBlock(dist, base, 0.0).solve(0.02)
        _, sol_scaled = MeanBlock(dist, scaled, 0.0).solve(0.02)
        assert sol.active_case == sol_scaled.active_case


class TestPerformanceStep:
    def test_mu_block_example(self):
        # one informative block: u_bar = 0.5, eps = 0.08 -> mean moves to 0.4
        dist = make_dist([0.0], [1.0])
        stats = make_stats(1, u_bar=[0.5], psi_bar=[0.0])
        mu, theta, moved, _ = performance_step(dist, stats, 0.08)
        assert mu[0] == pytest.approx(0.4, abs=1e-12)
        assert theta[0] == 1.0
        assert moved

    def test_theta_block_example(self):
        # psi_bar = -0.5, eps = 0.01 with unit curvature -> theta 1.0 -> 0.8
        dist = make_dist([0.0], [1.0])
        stats = make_stats(1, u_bar=[0.0], psi_bar=[-0.5])
        mu, theta, moved, _ = performance_step(dist, stats, 0.01)
        assert theta[0] == pytest.approx(0.8, abs=1e-12)
        assert mu[0] == 0.0
        assert moved

    def test_small_u_leaves_mu_unchanged(self):
        dist = make_dist([0.3], [1.0])
        stats = make_stats(1, u_bar=[1e-12], psi_bar=[-0.5])
        mu, _, _, _ = performance_step(dist, stats, 0.01)
        assert mu[0] == 0.3

    def test_both_degenerate_does_not_move(self):
        dist = make_dist([0.0], [1.0])
        stats = make_stats(1, u_bar=[1e-12], psi_bar=[1e-12])
        mu, theta, moved, backtracked = performance_step(dist, stats, 0.01)
        assert not moved and not backtracked
        assert np.array_equal(mu, dist.mu) and np.array_equal(theta, dist.theta)

    def test_step_saturates_trust_region(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            dist = make_dist(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
            stats = make_stats(d, u_bar=rng.normal(size=d), psi_bar=np.zeros(d))
            eps = float(rng.uniform(0.001, 0.1))
            mu, _, _, _ = performance_step(dist, stats, eps)
            # the mean part of the step KL: kl_params at equal scales
            sigma = dist.target.sigma_tilde_diag
            mean_kl = kl_params(mu, dist.theta, dist.mu, dist.theta, sigma)
            assert mean_kl == pytest.approx(eps, rel=1e-10)

    def test_linearized_objective_strictly_improves(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            dist = make_dist(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
            u_bar = rng.normal(size=d)
            stats = make_stats(d, u_bar=u_bar, psi_bar=np.zeros(d))
            mu, _, _, _ = performance_step(dist, stats, 0.05)
            precision = 1.0 / dist.covariance_diag()
            gain = float(np.sum(u_bar * (mu - dist.mu) * precision))
            assert gain > 0.0

    def test_theta_positivity_backtracking(self):
        # a full step would cross the floor; the direction must be kept
        dist = make_dist([0.0], [2e-6], sigma=[1.0])
        stats = make_stats(1, u_bar=[0.0], psi_bar=[-1.0])
        _, theta, moved, backtracked = performance_step(dist, stats, 0.2)
        assert theta[0] == pytest.approx(THETA_MIN, rel=1e-12)
        assert moved and backtracked


class TestMuConvergence:
    def test_both_inactive_returns_target_exactly(self):
        dist = make_dist([0.9], [1.0], mu_tilde=[1.0])
        stats = make_stats(1, u_bar=[0.2], v_bar=50.0)
        mu_new, sol = MeanBlock(dist, stats, 0.0).solve(0.1)
        assert sol.active_case == BOTH_INACTIVE
        assert (sol.lambda_perf, sol.lambda_ball) == (0.0, 1.0)
        assert mu_new[0] == 1.0

    def test_proximity_active_example(self):
        # unit offset, eps = 0.02, performance slack huge -> lambda_2 = 5 and
        # the mean covers a fifth of the gap
        dist = make_dist([0.0], [1.0], mu_tilde=[1.0])
        stats = make_stats(1, u_bar=[0.1], v_bar=1000.0)
        mu_new, sol = MeanBlock(dist, stats, 0.0).solve(0.02)
        assert sol.active_case == PROXIMITY_ACTIVE
        assert sol.lambda_ball == pytest.approx(5.0, rel=1e-12)
        assert mu_new[0] == pytest.approx(0.2, rel=1e-12)

    def test_perf_active_case(self):
        # target reachable but the performance constraint binds
        dist = make_dist([0.0], [1.0], mu_tilde=[0.1])
        stats = make_stats(1, u_bar=[1.0], v_bar=-0.5)
        block = MeanBlock(dist, stats, 0.0)
        mu_new, sol = block.solve(0.5)
        assert sol.active_case == PERF_ACTIVE
        res = dict(block.residuals(mu_new, sol, 0.5))
        assert max(res.values()) <= 1e-8

    def test_infeasible_performance_raises(self):
        dist = make_dist([0.0], [1.0], mu_tilde=[1.0])
        stats = make_stats(1, u_bar=[1e-4], v_bar=-100.0)
        with pytest.raises(InfeasiblePerformanceConstraint):
            MeanBlock(dist, stats, 0.0).solve(0.01)

    def test_kkt_certificate_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            dist = make_dist(
                rng.normal(size=d),
                rng.uniform(0.3, 3.0, d),
                mu_tilde=rng.normal(size=d),
                sigma=rng.uniform(0.2, 2.0, d),
            )
            eps = float(rng.uniform(0.005, 0.2))
            u_bar = rng.normal(size=d)
            reach = math.sqrt(
                2 * eps * float(np.sum(u_bar**2 / dist.covariance_diag()))
            )
            v_bar = float(rng.normal(0.0, reach))
            if v_bar + reach < 0:
                v_bar = -0.9 * reach
            stats = make_stats(d, u_bar=u_bar, v_bar=v_bar)
            block = MeanBlock(dist, stats, 0.0)
            mu_new, sol = block.solve(eps)
            res = dict(block.residuals(mu_new, sol, eps))
            assert max(res.values()) <= 1e-8, (sol.active_case, res)


class TestThetaConvergence:
    def test_proximity_active_multiplier_example(self):
        # |omega|_Hinv / (2 sqrt(eps)) = 0.3 / 0.3 = 1 -> theta falls by
        # H^-1 omega; the metric norm of omega = 0.15 is theta * 0.15 = 0.3
        dist = make_dist([0.0], [2.0], sigma=[1.0])
        stats = make_stats(1, psi_bar=[0.01], v_bar=10.0, omega=[0.3 / 2.0])
        theta_new, sol, _ = ScaleBlock(dist, stats, 0.0).solve(0.0225)
        assert sol.active_case == PROXIMITY_ACTIVE
        assert sol.lambda_ball == pytest.approx(1.0, rel=1e-12)
        # step is H^-1 omega / lambda_4 = theta^2 * 0.15 = 0.6
        assert theta_new[0] == pytest.approx(2.0 - 0.6, rel=1e-12)

    def test_jump_branch_returns_ones(self):
        dist = make_dist([0.0], [1.05], sigma=[1.0])
        stats = make_stats(1, psi_bar=[0.2], v_bar=10.0, omega=[0.1])
        theta_new, sol, _ = ScaleBlock(dist, stats, 0.0).solve(0.05)
        assert sol.active_case == BOTH_INACTIVE
        assert np.array_equal(theta_new, np.ones(1))

    def test_zero_omega_at_target_is_identity(self):
        target = TargetSpec(mu_tilde=np.array([0.5]), sigma_tilde_diag=np.array([1.0]))
        dist = ContextDistribution.at_target(target)
        stats = make_stats(1, psi_bar=[0.3], v_bar=10.0, omega=[0.0])
        theta_new, _, _ = ScaleBlock(dist, stats, 0.0).solve(0.01)
        assert np.array_equal(theta_new, dist.theta)

    def test_zero_omega_below_the_bound_moves_to_the_face(self):
        # staying violates the bound and the jump to theta = 1 is outside the
        # ball, but the face point is a KKT point with zero multipliers
        dist = make_dist([0.0, 0.0], [3.0, 4.0])
        stats = make_stats(2, psi_bar=[0.5, -0.2], v_bar=-0.05, omega=[0.0, 0.0])
        block = ScaleBlock(dist, stats, 0.0)
        theta_new, sol, backtracked = block.solve(0.01)
        assert sol.active_case == PERF_ACTIVE
        assert sol.lambda_perf == 0.0 and sol.lambda_ball == 0.0
        assert not backtracked
        residuals = dict(block.residuals(theta_new, sol, 0.01))
        assert all(r <= KKT_TOL for r in residuals.values()), residuals
        assert -0.05 + float(np.dot(stats.psi_bar, theta_new - dist.theta)) == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_performance_raises(self):
        dist = make_dist([0.0], [1.0])
        stats = make_stats(1, psi_bar=[1e-4], v_bar=-50.0, omega=[0.3])
        with pytest.raises(InfeasiblePerformanceConstraint):
            ScaleBlock(dist, stats, 0.0).solve(0.01)

    def test_kkt_certificate_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            theta = rng.uniform(0.3, 3.0, d)
            dist = make_dist(rng.normal(size=d), theta)
            eps = float(rng.uniform(0.005, 0.2))
            psi_bar = rng.normal(size=d)
            omega = rng.normal(size=d) * 0.3
            reach = 2 * math.sqrt(eps * float(np.sum(psi_bar**2 * theta**2)))
            v_bar = float(rng.normal(0.0, reach))
            if v_bar + reach < 0:
                v_bar = -0.9 * reach
            stats = make_stats(d, psi_bar=psi_bar, v_bar=v_bar, omega=omega)
            block = ScaleBlock(dist, stats, 0.0)
            theta_new, sol, backtracked = block.solve(eps)
            if backtracked:
                continue
            res = dict(block.residuals(theta_new, sol, eps))
            assert max(res.values()) <= 1e-8, (sol.active_case, res)

    def test_near_colinear_gradients_keep_both_active_on_the_ball(self):
        # a convergence step of the self-paced synthetic run at program seed
        # 413: omega is nearly parallel to psi_bar, so the difference form
        # ||omega||^2 ||psi||^2 - <psi, omega>^2 cancelled, the ball missed
        # eps by 2.5e-8 and no KKT case matched
        target = TargetSpec(mu_tilde=np.array([1.0, -0.8]), sigma_tilde_diag=np.ones(2))
        dist = ContextDistribution(
            mu=np.array([0.8921718786350739, -0.7380999605638358]),
            theta=np.array([0.7233228837471795, 0.7510923060734028]),
            target=target,
        )
        stats = make_stats(
            2,
            u_bar=[0.36644828603011725, 0.862416760638984],
            v_bar=5.211014276064539,
            psi_bar=[-1.4999714301917355, -1.2194524403307343],
            omega=[-0.275522006315253, -0.22400420516805036],
        )
        eps = 0.043265779443782515
        block = ScaleBlock(dist, stats, 5.0)
        theta_new, sol, backtracked = block.solve(eps)
        assert sol.active_case == BOTH_ACTIVE and not backtracked
        res = dict(block.residuals(theta_new, sol, eps))
        assert max(res.values()) <= 1e-10, res

    def test_near_colinear_both_active_is_certified(self):
        # a random instance with omega nearly parallel to psi_bar: the
        # both-active point used to miss the performance slack by 4e-8 (it
        # stepped by H^-1 (lam3 psi - omega) / lam4, amplifying rounding by
        # 1 / tilt) and was admitted only by a relaxed retry
        mu = np.array([1.3910192318711645, -1.1311593221358107])
        target = TargetSpec(
            mu_tilde=mu, sigma_tilde_diag=np.array([0.17685800884658953, 0.0009803709107096645])
        )
        dist = ContextDistribution(
            mu=mu, theta=np.array([19.647129316314484, 17.09000468743078]), target=target
        )
        stats = make_stats(
            2,
            v_bar=0.06307692025771058,
            psi_bar=[6.1974224531142275, -29.491923416058107],
            omega=[2.497359162512075, -11.884274948553093],
        )
        eps = 0.0019335267435009384
        block = ScaleBlock(dist, stats, 0.0)
        theta_new, sol, backtracked = block.solve(eps)
        assert sol.active_case == BOTH_ACTIVE and not backtracked
        res = dict(block.residuals(theta_new, sol, eps))
        assert max(res.values()) <= KKT_TOL, res


class TestCertifiedByConstruction:
    """Every case a block solver returns passes the certificate ``verify``
    applies, including when omega is (nearly) parallel to psi_bar and the
    threshold gap sits at the edge of the reach.  The only raise is an
    infeasible performance bound, for ``b + reach <= 0`` up to the rounding
    of ``reach``: on the edge itself one point of the trust region meets the
    bound, but it has no KKT multipliers."""

    @staticmethod
    def instance(seed, d, eps, tilt):
        # vectors from a seeded generator; hypothesis drives the knobs the
        # KKT cases turn on
        rng = np.random.default_rng(seed)
        theta = np.exp(rng.uniform(math.log(0.1), math.log(20.0), d))
        sigma = np.exp(rng.uniform(math.log(1e-3), math.log(2.0), d))
        dist = make_dist(rng.normal(0.0, 1.5, d), theta, rng.normal(0.0, 2.0, d), sigma)
        u_bar = rng.normal(size=d) * math.exp(rng.uniform(-2.0, 2.0))
        psi_bar = rng.normal(size=d) * math.exp(rng.uniform(-2.0, 2.0))
        omega = rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-3.0, 1.0)) * psi_bar
        omega = omega + tilt * float(np.linalg.norm(omega)) * rng.normal(size=d)
        # each block's best performance gain over the trust region
        reach_mu = math.sqrt(2.0 * eps * float(np.sum(u_bar**2 / (theta * sigma))))
        reach_theta = 2.0 * math.sqrt(eps * float(np.sum(psi_bar**2 * theta**2)))
        return dist, u_bar, psi_bar, omega, reach_mu, reach_theta

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        eps=st.floats(1e-4, 1.0),
        tilt=st.one_of(st.just(0.0), st.floats(-14.0, -2.0).map(lambda e: 10.0**e)),
        sign=st.sampled_from([-1.0, 1.0]),
        gap=st.floats(0.5, 1.5),
    )
    # found by this test: b = -reach exactly left no certified case
    @example(seed=0, d=2, eps=1.0, tilt=0.0, sign=-1.0, gap=1.0)
    @settings(max_examples=300, deadline=None)
    def test_each_block_returns_a_certified_case(self, seed, d, eps, tilt, sign, gap):
        dist, u_bar, psi_bar, omega, reach_mu, reach_theta = self.instance(seed, d, eps, tilt)
        b_mu, b_theta = sign * gap * reach_mu, sign * gap * reach_theta
        stats = make_stats(d, u_bar=u_bar, v_bar=b_mu, psi_bar=psi_bar, omega=omega)
        try:
            block = MeanBlock(dist, stats, 0.0)
            mu_new, sol = block.solve(eps)
        except InfeasiblePerformanceConstraint:
            assert b_mu + reach_mu <= 1e-12 * reach_mu
        else:
            res = dict(block.residuals(mu_new, sol, eps))
            assert max(res.values()) <= KKT_TOL, (sol.active_case, res)

        stats = make_stats(d, u_bar=u_bar, v_bar=b_theta, psi_bar=psi_bar, omega=omega)
        try:
            block = ScaleBlock(dist, stats, 0.0)
            theta_new, sol, backtracked = block.solve(eps)
        except InfeasiblePerformanceConstraint:
            assert b_theta + reach_theta <= 1e-12 * reach_theta
        else:
            if not backtracked:
                res = dict(block.residuals(theta_new, sol, eps))
                assert max(res.values()) <= KKT_TOL, (sol.active_case, res)


class TestConvergenceBudget:
    """How :func:`convergence_step` splits the joint radius, read from the
    budgets it hands the two block solvers."""

    EPS = 0.04

    def budgets(self, monkeypatch, dist, stats):
        seen = []
        for block in (MeanBlock, ScaleBlock):

            def spy(self, eps, real=block.solve):
                seen.append(eps)
                return real(self, eps)

            monkeypatch.setattr(block, "solve", spy)
        convergence_step(dist, stats, self.EPS, 0.0)
        return seen

    def test_both_blocks_degenerate_split_evenly(self, monkeypatch):
        dist = make_dist([1.0, -0.5], [2.0, 0.5], mu_tilde=[1.0, -0.5])
        eps_mu, eps_theta = self.budgets(monkeypatch, dist, make_stats(2, v_bar=1.0))
        # the mean is already at its target, so it spends nothing
        assert eps_mu == 0.5 * self.EPS
        assert eps_theta == self.EPS

    def test_degenerate_omega_gives_the_mean_the_whole_budget(self, monkeypatch):
        dist = make_dist([0.0], [2.0], mu_tilde=[1.0])
        eps_mu, eps_theta = self.budgets(monkeypatch, dist, make_stats(1, v_bar=1.0))
        assert eps_mu == self.EPS
        # the target is outside the ball: the mean spends its whole budget
        assert eps_theta <= 1e-12

    def test_mean_at_target_gets_the_floor(self, monkeypatch):
        dist = make_dist([1.0], [2.0], mu_tilde=[1.0])
        stats = make_stats(1, v_bar=1.0, omega=[0.3])
        eps_mu, eps_theta = self.budgets(monkeypatch, dist, stats)
        assert eps_mu == 1e-6 * self.EPS
        assert eps_theta == self.EPS

    def test_regular_split_follows_the_marginal_decrease(self, monkeypatch):
        dist = make_dist([0.0], [2.0], mu_tilde=[0.1])
        stats = make_stats(1, v_bar=1.0, omega=[0.3])
        eps_mu, _ = self.budgets(monkeypatch, dist, stats)
        dist_sq, omega_sq = 0.1**2 / 2.0, 0.3**2 * 4.0
        assert eps_mu == pytest.approx(self.EPS * dist_sq / (dist_sq + 2.0 * omega_sq), rel=1e-14)


class TestFullUpdate:
    def make_setting(self, v_values, mu=(0.0, 0.0), theta=(0.5, 0.5), mu_tilde=(1.0, -0.5)):
        dist = make_dist(list(mu), list(theta), mu_tilde=list(mu_tilde))
        rng = np.random.default_rng(4)
        contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(8, dist.d))
        batch = RolloutBatch(contexts, v_values, dist)
        return dist, batch

    def test_dispatch_to_performance(self):
        dist, batch = self.make_setting([1.0] * 8)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=8)
        _, report = update(batch, config)
        assert report.kind == "performance"

    def test_near_target_composes_to_target(self):
        dist, batch = self.make_setting([50.0] * 8, mu=(0.99, -0.49), theta=(0.98, 1.01))
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=8)
        new_dist, report = update(batch, config)
        assert report.kind == "convergence"
        assert np.array_equal(new_dist.mu, dist.target.mu_tilde)
        assert np.array_equal(new_dist.theta, np.ones(2))
        assert report.mu_solution.active_case == BOTH_INACTIVE
        assert report.theta_solution.active_case == BOTH_INACTIVE

    def test_degenerate_batch_returns_unchanged(self):
        dist = make_dist([0.0], [1.0])
        batch = RolloutBatch([[0.5], [-0.5]], [0.0, 0.0], dist)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=2)
        new_dist, report = update(batch, config)
        assert report.degenerate
        assert new_dist is dist
        assert report.kl_to_target_after == kl_to_target(dist)

    def test_clipped_scale_step_stays_on_the_floor(self):
        # theta + s * delta with s = (theta - THETA_MIN) / -delta can round
        # one ulp below THETA_MIN, and the distribution then
        # refused the update; about one in eight of these instances did
        target = TargetSpec(mu_tilde=np.zeros(1), sigma_tilde_diag=np.array([0.231]))
        clipped = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            theta = float(10 ** rng.uniform(-5.7, -4.0))
            dist = ContextDistribution(mu=np.zeros(1), theta=np.array([theta]), target=target)
            contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, 1))
            values = np.exp(-0.5 * contexts[:, 0] ** 2 / (theta * 0.231))
            batch = RolloutBatch(contexts, values, dist)
            eps = float(rng.uniform(0.2, 1.0))
            config = CurriculumConfig(epsilon=eps, v_lower=100.0, k_contexts=16)
            new_dist, report = update(batch, config)
            assert report.kind == "performance"
            assert new_dist.theta[0] >= THETA_MIN
            clipped += int(new_dist.theta[0] == THETA_MIN)
        assert clipped >= 5

    def test_clip_lands_on_the_floor_exactly(self):
        theta, delta = np.array([5.346856655547358e-05]), np.array([-2.535532882876411e-04])
        theta_new, backtracked = update_module._clip_theta_step(theta, delta)
        assert theta_new[0] == 1e-6 and backtracked

    def test_clip_keeps_entries_on_the_floor(self):
        # an entry on the floor that would shrink gets scale 0 for the whole
        # step; entries that do not shrink never set the scale
        theta, delta = np.array([THETA_MIN, THETA_MIN, 1.0]), np.array([-5e-7, 0.0, -0.5])
        theta_new, backtracked = update_module._clip_theta_step(theta, delta)
        assert np.array_equal(theta_new, theta) and backtracked
        theta_new, backtracked = update_module._clip_theta_step(theta[1:], delta[1:])
        assert np.array_equal(theta_new, [THETA_MIN, 0.5]) and not backtracked

    def test_trust_region_respected_over_random_updates(self):
        rng = np.random.default_rng(5)
        eps = 0.08
        config = CurriculumConfig(epsilon=eps, v_lower=2.0, k_contexts=16)
        dist = make_dist([0.0, 0.0], [3.0, 0.2], mu_tilde=[2.0, -1.0], sigma=[0.5, 1.5])
        for step in range(60):
            contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, 2))
            values = 8.0 * np.exp(-0.25 * np.sum((contexts - 1.0) ** 2, axis=1)) + rng.normal(
                0, 0.3, 16
            )
            batch = RolloutBatch(contexts, values, dist)
            new_dist, report = update(batch, config)
            assert report.kl_step <= eps + 1e-12
            assert report.kl_step_mean_part <= eps + 1e-10
            assert kl_between(new_dist, dist) == pytest.approx(report.kl_step, abs=1e-12)
            dist = new_dist

    def test_report_kl_bookkeeping(self):
        dist, batch = self.make_setting([10.0] * 8)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=8)
        new_dist, report = update(batch, config)
        assert report.kl_to_target_after == pytest.approx(kl_to_target(new_dist))
        assert report.kl_step == pytest.approx(kl_between(new_dist, dist))

    def test_convergence_run_reaches_target(self):
        # analytic high-value setting: the performance condition always holds,
        # the distribution walks to the target and the KL never increases
        rng = np.random.default_rng(6)
        target = TargetSpec(mu_tilde=np.array([1.0, -0.8]), sigma_tilde_diag=np.array([1.0, 1.0]))
        dist = ContextDistribution(mu=np.array([0.0, 0.0]), theta=np.array([0.5, 0.25]), target=target)
        config = CurriculumConfig(epsilon=0.05, v_lower=1.0, k_contexts=16)
        kl_trace = [kl_to_target(dist)]
        for step in range(200):
            contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, 2))
            values = 10.0 * np.exp(-np.sum((contexts - target.mu_tilde) ** 2, axis=1) / (2 * 50.0**2))
            batch = RolloutBatch(contexts, values, dist)
            dist, report = update(batch, config)
            assert report.kind == "convergence"
            kl_trace.append(kl_to_target(dist))
        diffs = np.diff(kl_trace)
        assert np.all(diffs <= 1e-9)
        assert kl_trace[-1] < 1e-2


class TestJointKlBacktrack:
    # Rays whose scale step was clipped at THETA_MIN end where the scale KL
    # has a log singularity; the secant needs a few more evaluations there.
    MAX_EVALS = 10
    MAX_EVALS_AT_FLOOR = 12

    @staticmethod
    def random_update(rng):
        d = int(rng.choice([1, 2, 3, 5]))
        eps = 10.0 ** rng.uniform(-6.0, 0.0)
        dist = make_dist(
            rng.normal(size=d),
            np.exp(rng.uniform(-2.0, 2.0, d)),
            mu_tilde=rng.normal(size=d),
            sigma=np.exp(rng.uniform(-2.0, 1.0, d)),
        )
        contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, d))
        bump = rng.normal(size=d)
        values = 5.0 * np.exp(-0.5 * np.sum((contexts - bump) ** 2, axis=1))
        values += rng.normal(0.0, 0.1, 16)
        # half performance steps, half convergence steps with reachable slack
        if rng.random() < 0.5:
            v_lower = 100.0
        else:
            v_lower = float(np.mean(values)) - rng.uniform(0.0, 1.0)
        config = CurriculumConfig(epsilon=eps, v_lower=v_lower, k_contexts=16)
        return dist, RolloutBatch(contexts, values, dist), config

    def test_backtracks_land_on_the_boundary_in_few_evaluations(self, monkeypatch):
        # KL evaluations inside each ray solve, one entry per backtrack
        calls, evals = [0], []
        real_kl, real_project = update_module.kl_params, update_module.project_to_ball

        def counted_kl(*args):
            calls[0] += 1
            return real_kl(*args)

        def counted_project(kl, z0, z, eps):
            before = calls[0]
            point = real_project(kl, z0, z, eps)
            evals.append(calls[0] - before)
            return point

        monkeypatch.setattr(update_module, "kl_params", counted_kl)
        monkeypatch.setattr(update_module, "project_to_ball", counted_project)
        rng = np.random.default_rng(11)
        backtracks = 0
        for _ in range(600):
            dist, batch, config = self.random_update(rng)
            solves = len(evals)
            new_dist, report = update(batch, config)
            eps = config.epsilon
            assert report.kl_step <= eps + 1e-12
            if not report.trust_region_backtracked:
                assert len(evals) == solves
                continue
            backtracks += 1
            assert eps - report.kl_step <= 1e-9 * eps
            assert np.all(new_dist.theta >= config.theta_min)
            if len(evals) == solves:
                # the mean part filled the radius: no solve, scales kept
                assert np.array_equal(new_dist.theta, dist.theta)
                continue
            bound = self.MAX_EVALS_AT_FLOOR if report.theta_backtracked else self.MAX_EVALS
            assert len(evals) == solves + 1 and evals[-1] <= bound
        assert backtracks > 200

    def test_mean_part_filling_the_radius_keeps_the_scales(self):
        # theta0 * sigma = 0.5 in the first dimension, so a mean step of
        # delta there has KL delta**2: exactly eps for the first two cases
        # (no budget left for the scales), past eps for the third
        mu0, theta0, sigma = np.zeros(2), np.array([1.0, 2.0]), np.array([0.5, 1.5])
        theta_new = np.array([0.4, 3.0])
        for eps, delta in ((2.0**-4, 2.0**-2), (2.0**-20, 2.0**-10), (0.05, 0.5)):
            mu_new = np.array([delta, 0.0])
            theta, kl_step, mean_part, backtracked = update_module._backtrack_joint_kl(
                mu0, theta0, sigma, mu_new, theta_new, eps
            )
            assert backtracked
            assert np.array_equal(theta, theta0)
            assert mean_part == delta**2
            assert kl_step == mean_part


class TestUpdateAtExtremeInputs:
    """``update`` keeps its contracts far outside the presets' ranges: it
    raises nothing but :class:`CurriculumError`, the joint step KL stays
    within ``epsilon`` and every scale at or above :data:`THETA_MIN`.
    Returns up to the largest float take the step of the same batch at
    unit scale, in ``update`` and in ``numerical_update``.

    Vectors come from a seeded generator; hypothesis drives the dimension,
    the batch size and the scales.  "No KKT case matched the mean
    subproblem" still raises on some convergence steps with scales near
    the floor (ROADMAP item 1); a raise is allowed here, any other
    exception or a broken contract is not."""

    @staticmethod
    def instance(seed, d, k, return_exp, flat, eps_exp, gap):
        rng = np.random.default_rng(seed)
        theta = np.maximum(10.0 ** rng.uniform(-6.0, 5.0, d), THETA_MIN)
        sigma = 10.0 ** rng.uniform(-3.0, 2.0, d)
        dist = make_dist(rng.normal(0.0, 2.0, d), theta, rng.normal(0.0, 2.0, d), sigma)
        contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
        scale = 10.0**return_exp
        values = np.full(k, scale * rng.normal()) if flat else scale * rng.normal(size=k)
        # the threshold within about one return scale of the batch mean
        v_lower = float(np.mean(values)) + gap * scale
        config = CurriculumConfig(epsilon=10.0**eps_exp, v_lower=v_lower, k_contexts=k)
        return dist, RolloutBatch(contexts, values, dist), config

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3, 8, 32]),
        k=st.sampled_from([2, 4, 16, 64]),
        return_exp=st.floats(-6.0, 6.0),
        flat=st.integers(0, 4).map(lambda i: i == 0),  # one batch in five all equal
        eps_exp=st.floats(-6.0, 0.0),
        gap=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_contracts_hold(self, seed, d, k, return_exp, flat, eps_exp, gap):
        dist, batch, config = self.instance(seed, d, k, return_exp, flat, eps_exp, gap)
        try:
            new_dist, report = update(batch, config)
        except CurriculumError:
            return
        assert report.kl_step <= config.epsilon + 1e-12
        assert np.all(new_dist.theta >= THETA_MIN)

    @pytest.mark.xfail(strict=True, raises=CurriculumError)
    def test_mean_subproblem_near_its_rounding_floor(self):
        # tests/digest.py updates instance 17 (d = 32, K = 64, eps 1.3e-4),
        # one of the 2,229 digest calls that raise "no KKT case matched the
        # mean subproblem" (ROADMAP item 2; the FOUND on solve_mu_block in
        # CHANGES.md): the mean step rounds away when mu + a / lambda2 is
        # stored.  A mend of that raise turns this test into a pass
        batch, config = update_instance(17)
        new_dist, report = update(batch, config)
        assert report.kind == "convergence"
        assert report.kl_step <= config.epsilon + 1e-12
        assert kl_between(new_dist, batch.source_distribution) <= config.epsilon + 1e-12
        assert np.all(new_dist.theta >= THETA_MIN)

    @pytest.mark.parametrize("return_scale", [1e160, 1e300, 1.5e308])
    @pytest.mark.parametrize("kind", ["performance", "convergence"])
    @pytest.mark.parametrize("step", [update, numerical_update], ids=["update", "numerical_update"])
    def test_huge_returns_take_the_step_of_unit_returns(self, step, kind, return_scale):
        # unscaled, the squared statistics overflow: an OverflowError or a
        # silent no-op from 1e155, a ValueError from the statistics at 1.5e308
        rng = np.random.default_rng(5)
        dist = make_dist(
            rng.normal(0.0, 2.0, 2), rng.uniform(0.5, 2.0, 2), rng.normal(0.0, 2.0, 2), np.ones(2)
        )
        contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, 2))
        values = rng.uniform(0.1, 1.0, 16)
        # above every return, or just below their mean, where both blocks of
        # the convergence step have both constraints active
        v_lower = 1.0 if kind == "performance" else float(np.mean(values)) - 0.01

        def take(scale):
            batch = RolloutBatch(contexts, scale * values, dist)
            return step(batch, CurriculumConfig(0.05, scale * v_lower, 16))

        (new, report), (unit, unit_report) = take(return_scale), take(1.0)
        assert report.kind == kind and not report.degenerate
        assert 0.0 < report.kl_step <= 0.05
        # the closed forms agree to rounding, the exact solver to its tolerance
        rtol = 1e-12 if step is update else 1e-8
        np.testing.assert_allclose(new.mu, unit.mu, rtol=rtol)
        np.testing.assert_allclose(new.theta, unit.theta, rtol=rtol)
        for solution, unit_solution in (
            (report.mu_solution, unit_report.mu_solution),
            (report.theta_solution, unit_report.theta_solution),
        ):
            if unit_solution is not None:
                assert solution.active_case == unit_solution.active_case
                # a performance multiplier is in units of 1 / return
                assert solution.lambda_perf * return_scale == pytest.approx(
                    unit_solution.lambda_perf, rel=1e-9
                )
