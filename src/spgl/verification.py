"""Randomized cross-check suites: closed forms vs the numerical oracle,
gradient statistics vs finite differences, and closed-form vs exact-solver
timing.

These suites back the ``verify`` CLI subcommand and the acceptance tests.
Instances are generated over dimensions {1, 2, 3, 5} with broad parameter
ranges, and the per-case selection counts are reported so case coverage is
visible.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_to_target_params,
    log_density_params,
    sampled_value,
)
from .oracle import LinearizedSubproblem, numerical_update, solve_numeric
from .stats import CurriculumStats, RolloutBatch, compute_stats
from .update import (
    BOTH_INACTIVE,
    KKT_TOL,
    CurriculumConfig,
    MeanBlock,
    ScaleBlock,
    performance_step,
    update,
)

__all__ = ["VerifyReport", "run_fd_suite", "run_oracle_suite", "run_timing_suite"]

DIMENSIONS = (1, 2, 3, 5)
PARAM_RTOL = 1e-6
FD_RTOL = 1e-4
FD_STEP = 1e-5


def _worst(*errors) -> float:
    """The largest error, ``nan`` if any error is ``nan``: a ``nan`` must
    fail a suite and show in its report, where ``max`` would drop it."""
    worst = -math.inf
    for err in errors:
        if err > worst or err != err:
            worst = err
    return float(worst)


@dataclass
class VerifyReport:
    """Aggregated residuals of the verification suites."""

    oracle_max_param_error: float = 0.0
    oracle_max_multiplier_error: float = 0.0
    oracle_max_kkt_residual: float = 0.0
    oracle_case_counts: dict = field(default_factory=dict)
    fd_max_error: float = 0.0
    closed_form_seconds: float = 0.0
    exact_solver_seconds: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.closed_form_seconds <= 0.0:
            return math.inf
        return self.exact_solver_seconds / self.closed_form_seconds

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge(self, other: "VerifyReport") -> None:
        self.oracle_max_param_error = _worst(
            self.oracle_max_param_error, other.oracle_max_param_error
        )
        self.oracle_max_multiplier_error = _worst(
            self.oracle_max_multiplier_error, other.oracle_max_multiplier_error
        )
        self.oracle_max_kkt_residual = _worst(
            self.oracle_max_kkt_residual, other.oracle_max_kkt_residual
        )
        counts = Counter(self.oracle_case_counts)
        counts.update(other.oracle_case_counts)
        self.oracle_case_counts = dict(counts)
        self.fd_max_error = _worst(self.fd_max_error, other.fd_max_error)
        self.closed_form_seconds += other.closed_form_seconds
        self.exact_solver_seconds += other.exact_solver_seconds
        self.failures.extend(other.failures)

    def format_lines(self) -> list[str]:
        lines = [
            f"oracle suite: max parameter error {self.oracle_max_param_error:.3e}"
            f" (limit {PARAM_RTOL:.0e})",
            f"oracle suite: max multiplier error {self.oracle_max_multiplier_error:.3e}"
            f" (limit {PARAM_RTOL:.0e})",
            f"oracle suite: max KKT residual {self.oracle_max_kkt_residual:.3e}"
            f" (limit {KKT_TOL:.0e})",
            f"oracle suite: case counts {self.oracle_case_counts}",
            f"finite differences: max relative error {self.fd_max_error:.3e}"
            f" (limit {FD_RTOL:.0e})",
        ]
        if self.exact_solver_seconds > 0.0:
            lines.append(
                "timing: closed form "
                f"{self.closed_form_seconds * 1e3:.3f} ms vs exact solver "
                f"{self.exact_solver_seconds * 1e3:.1f} ms per update "
                f"(speedup {self.speedup:.1f}x)"
            )
        for failure in self.failures:
            lines.append(f"FAIL: {failure}")
        if not self.failures:
            lines.append("all verification suites passed")
        return lines


def _random_geometry(rng, d):
    sigma = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), d))
    theta = np.exp(rng.uniform(math.log(0.1), math.log(10.0), d))
    mu = rng.normal(0.0, 2.0, d)
    return mu, theta, sigma


def _rel_vec_error(candidate, reference):
    ref_norm = float(np.linalg.norm(np.asarray(reference)))
    return float(np.linalg.norm(np.asarray(candidate) - np.asarray(reference))) / max(
        1.0, ref_norm
    )


def _rel_scalar_error(candidate, reference):
    return abs(candidate - reference) / max(1.0, abs(reference))


def _make_stats(d, u_bar=None, v_bar=0.0, psi_bar=None, omega=None):
    return CurriculumStats(
        u_bar=np.zeros(d) if u_bar is None else u_bar,
        v_bar=v_bar,
        psi_bar=np.zeros(d) if psi_bar is None else psi_bar,
        omega=np.zeros(d) if omega is None else omega,
    )


def run_oracle_suite(seed: int, instances_per_block: int = 100) -> VerifyReport:
    """Compare every closed-form block against the dual-bisection oracle."""
    rng = np.random.default_rng(seed)
    report = VerifyReport()
    counts = Counter()

    def record_param(label, closed, reference):
        err = _rel_vec_error(closed, reference)
        report.oracle_max_param_error = _worst(report.oracle_max_param_error, err)
        if not err <= PARAM_RTOL:
            report.failures.append(f"{label}: parameter error {err:.3e}")

    def record_mult(label, closed, reference):
        err = _rel_scalar_error(closed, reference)
        report.oracle_max_multiplier_error = _worst(report.oracle_max_multiplier_error, err)
        if not err <= PARAM_RTOL:
            report.failures.append(f"{label}: multiplier error {err:.3e}")

    def record_kkt(label, residuals):
        worst = _worst(*residuals.values())
        report.oracle_max_kkt_residual = _worst(report.oracle_max_kkt_residual, worst)
        if not worst <= KKT_TOL:
            report.failures.append(f"{label}: KKT residual {worst:.3e}")

    for i in range(instances_per_block):
        d = DIMENSIONS[i % len(DIMENSIONS)]

        # ---- value-ascent mean block
        mu, theta, sigma = _random_geometry(rng, d)
        eps = float(np.exp(rng.uniform(math.log(1e-4), math.log(0.15))))
        if i % 7 == 0:
            # bias some targets inside the trust region so the jump-to-target
            # mean case gets exercised
            offset = rng.normal(0.0, 1.0, d)
            offset *= 0.5 * math.sqrt(2.0 * eps) / max(
                math.sqrt(float(np.sum(offset**2 / (theta * sigma)))), 1e-12
            )
            mu_tilde = mu + offset
        else:
            mu_tilde = rng.normal(0.0, 2.0, d)
        target = TargetSpec(mu_tilde=mu_tilde, sigma_tilde_diag=sigma)
        dist = ContextDistribution(mu=mu, theta=theta, target=target)
        precision = 1.0 / dist.covariance_diag()
        u_bar = rng.normal(0.0, 1.0, d) * float(np.exp(rng.uniform(-1.5, 1.5)))
        if math.sqrt(float(np.sum(u_bar**2 * precision))) < 1e-4:
            u_bar = u_bar + 0.1
        # the scale gradient is zero, so the mean block gets the whole budget
        closed_mu, _, _, _ = performance_step(dist, _make_stats(d, u_bar=u_bar), eps)
        oracle = solve_numeric(
            LinearizedSubproblem(
                center=mu,
                objective_gradient=precision * u_bar,
                metric_diag=precision,
                radius_sq=2.0 * eps,
            )
        )
        record_param(f"perf-mu[{i}]", closed_mu, oracle.x)
        record_kkt(f"perf-mu-oracle[{i}]", oracle.residuals)

        # ---- value-ascent scale block
        h_diag = 1.0 / theta**2
        psi_bar = rng.normal(0.0, 1.0, d) * float(np.exp(rng.uniform(-1.5, 1.5)))
        if math.sqrt(float(np.sum(psi_bar**2 / h_diag))) < 1e-4:
            psi_bar = psi_bar + 0.1
        # the mean gradient is zero, so the scale block gets the whole budget
        _, closed_theta, _, _ = performance_step(dist, _make_stats(d, psi_bar=psi_bar), eps)
        oracle = solve_numeric(
            LinearizedSubproblem(
                center=theta,
                objective_gradient=psi_bar,
                metric_diag=h_diag,
                radius_sq=4.0 * eps,
            )
        )
        record_param(f"perf-theta[{i}]", closed_theta, oracle.x)
        record_kkt(f"perf-theta-oracle[{i}]", oracle.residuals)

        # ---- convergence mean block
        for _ in range(200):
            b = _sample_threshold_gap(rng, math.sqrt(2.0 * eps * float(np.sum(u_bar**2 * precision))))
            if b + math.sqrt(2.0 * eps * float(np.sum(u_bar**2 * precision))) >= 1e-8:
                break
        block = MeanBlock(dist, _make_stats(d, u_bar=u_bar, v_bar=b), 0.0)
        mu_new, mu_sol = block.solve(eps)
        counts[f"mu:{mu_sol.active_case}"] += 1
        oracle = solve_numeric(
            LinearizedSubproblem(
                center=mu,
                objective_gradient=np.zeros(d),
                metric_diag=precision,
                radius_sq=2.0 * eps,
                performance=(precision * u_bar, b),
                quadratic_target=target.mu_tilde,
            )
        )
        record_param(f"conv-mu[{i}]", mu_new, oracle.x)
        record_mult(f"conv-mu-l1[{i}]", mu_sol.lambda_perf, oracle.lambda_perf)
        record_mult(f"conv-mu-l2[{i}]", mu_sol.lambda_ball, oracle.lambda_ball + 1.0)
        record_kkt(f"conv-mu-kkt[{i}]", dict(block.residuals(mu_new, mu_sol, eps)))

        # ---- convergence scale block (jump branch excluded: it is not the
        # solution of the linearized problem and is tested directly instead)
        omega = rng.normal(0.0, 1.0, d) * float(np.exp(rng.uniform(-1.5, 1.5)))
        if math.sqrt(float(np.sum(omega**2 / h_diag))) < 1e-4:
            omega = omega + 0.1
        for _ in range(200):
            b = _sample_threshold_gap(
                rng, 2.0 * math.sqrt(eps * float(np.sum(psi_bar**2 / h_diag)))
            )
            feasible = b + 2.0 * math.sqrt(eps * float(np.sum(psi_bar**2 / h_diag))) >= 1e-8
            ones = np.ones(d)
            jump_ok = (
                0.25 * float(np.sum((ones - theta) ** 2 * h_diag)) <= eps
                and b + float(np.sum(psi_bar * (ones - theta))) >= 0.0
            )
            if feasible and not jump_ok:
                break
        else:
            continue
        block = ScaleBlock(dist, _make_stats(d, psi_bar=psi_bar, v_bar=b, omega=omega), 0.0)
        theta_new, th_sol, backtracked = block.solve(eps)
        if th_sol.active_case == BOTH_INACTIVE or backtracked:
            continue
        counts[f"theta:{th_sol.active_case}"] += 1
        oracle = solve_numeric(
            LinearizedSubproblem(
                center=theta,
                objective_gradient=-omega,
                metric_diag=h_diag,
                radius_sq=4.0 * eps,
                performance=(psi_bar, b),
            )
        )
        record_param(f"conv-theta[{i}]", theta_new, oracle.x)
        record_mult(f"conv-theta-l3[{i}]", th_sol.lambda_perf, oracle.lambda_perf)
        record_mult(f"conv-theta-l4[{i}]", th_sol.lambda_ball, oracle.lambda_ball)
        record_kkt(f"conv-theta-kkt[{i}]", dict(block.residuals(theta_new, th_sol, eps)))

    report.oracle_case_counts = dict(counts)
    return report


def _sample_threshold_gap(rng, reach):
    """Threshold gap v_bar - v_lower, mixed so all KKT cases occur."""
    mode = rng.uniform()
    scale = max(reach, 0.1)
    if mode < 0.45:
        return abs(rng.normal(0.0, 2.0 * scale))
    if mode < 0.8:
        return -abs(rng.normal(0.0, 0.5 * scale))
    return rng.normal(0.0, scale)


def _fd_batch(rng, d):
    sigma = np.exp(rng.uniform(math.log(0.05), math.log(2.0), d))
    theta = np.exp(rng.uniform(math.log(0.3), math.log(3.0), d))
    mu_tilde = rng.normal(0.0, 1.0, d)
    mu = mu_tilde + rng.normal(0.0, 1.0, d)
    target = TargetSpec(mu_tilde=mu_tilde, sigma_tilde_diag=sigma)
    dist = ContextDistribution(mu=mu, theta=theta, target=target)
    contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(16, d))
    values = rng.normal(1.0, 2.0, 16)
    return dist, RolloutBatch(contexts, values, dist)


def run_fd_suite(seed: int, instances: int = 100) -> VerifyReport:
    """Central finite-difference checks of u_bar, psi_bar, omega and h.

    The importance-weighted batch value is the exact solver's
    :func:`spgl.gaussian.sampled_value`, with the batch's log-densities under
    the drawing distribution computed once per instance, and the KL to the
    target is :func:`spgl.gaussian.kl_to_target_params`.  Both take rows of
    parameters, so an instance's 2d mean bumps, its 2d scale bumps and the
    KL at those scale bumps are one call each.  A row has the bits of the
    one-row call, so each difference subtracts the same two floats as
    evaluating the bumps one by one."""
    rng = np.random.default_rng(seed)
    report = VerifyReport()

    for i in range(instances):
        d = DIMENSIONS[i % len(DIMENSIONS)]
        dist, batch = _fd_batch(rng, d)
        contexts = batch.contexts
        values = batch.values
        mu, theta = dist.mu, dist.theta
        sigma = dist.target.sigma_tilde_diag
        var = dist.covariance_diag()
        log_p0 = log_density_params(contexts, mu, var)

        stats = compute_stats(batch)
        u_bar, psi_bar, omega = stats.u_bar, stats.psi_bar, stats.omega
        h_diag = 1.0 / theta**2
        precision = 1.0 / var

        # rows x + FD_STEP e_j, then x - FD_STEP e_j: bumped[j] and
        # bumped[d + j] are the two sides of the j-th central difference
        bumps = FD_STEP * np.eye(d)
        theta_rows = np.concatenate([theta + bumps, theta - bumps])
        mu_rows = np.concatenate([mu + bumps, mu - bumps])
        checks = [
            ("u_bar", precision * u_bar, sampled_value(contexts, values, log_p0, mu_rows, var)),
            ("psi_bar", psi_bar, sampled_value(contexts, values, log_p0, mu, theta_rows * sigma)),
            ("omega", omega, kl_to_target_params(mu, theta_rows, dist.target.mu_tilde, sigma)),
        ]
        for label, analytic, bumped in checks:
            reference = (bumped[:d] - bumped[d:]) / (2 * FD_STEP)
            err = float(np.linalg.norm(analytic - reference)) / max(
                float(np.linalg.norm(reference)), 1e-6
            )
            report.fd_max_error = _worst(report.fd_max_error, err)
            if not err <= FD_RTOL:
                report.failures.append(f"fd-{label}[{i}]: relative error {err:.3e}")

        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        delta = FD_STEP * direction
        model = 0.25 * float(np.sum(delta**2 * h_diag))
        actual = kl_between(dist.with_params(theta=theta + delta), dist)
        err = abs(model - actual) / max(actual, 1e-15)
        report.fd_max_error = _worst(report.fd_max_error, err)
        if not err <= FD_RTOL:
            report.failures.append(f"fd-h[{i}]: relative error {err:.3e}")

    return report


def _timing_batch(rng, dist, center, k):
    contexts = dist.mu + rng.standard_normal((k, dist.d)) * np.sqrt(dist.covariance_diag())
    values = 10.0 * np.exp(-0.5 * np.sum((contexts - center) ** 2, axis=1) / 4.0)
    return RolloutBatch(contexts, values, dist)


def run_timing_suite(seed: int, updates: int = 50, d: int = 3) -> VerifyReport:
    """Wall-clock comparison: closed-form update vs the exact numerical
    solver on identical batches of 64 contexts.

    Each closed-form update is timed as the median of three calls on the
    same batch, the first call's result carrying the run on: one update
    takes a fraction of a millisecond, so a single stall of the host would
    otherwise decide the 10x bound.  The exact solve is timed once."""
    if updates < 1:
        raise ValueError(f"updates must be >= 1, got {updates}")
    rng = np.random.default_rng(seed)
    target = TargetSpec(mu_tilde=np.full(d, 1.5), sigma_tilde_diag=np.full(d, 0.05))
    dist = ContextDistribution(mu=np.zeros(d), theta=np.full(d, 2.0), target=target)
    config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=64)
    center = np.zeros(d)

    closed_total = 0.0
    exact_total = 0.0
    for step in range(updates):
        batch = _timing_batch(rng, dist, center, config.k_contexts)

        results, times = [], []
        for _ in range(3):
            start = time.perf_counter()
            results.append(update(batch, config))
            times.append(time.perf_counter() - start)
        closed_total += sorted(times)[1]
        new_dist = results[0][0]

        start = time.perf_counter()
        numerical_update(batch, config, seed=seed + step)
        exact_total += time.perf_counter() - start

        dist = new_dist

    report = VerifyReport()
    report.closed_form_seconds = closed_total / updates
    report.exact_solver_seconds = exact_total / updates
    if report.speedup < 10.0:
        report.failures.append(
            f"timing: closed-form speedup {report.speedup:.1f}x below the 10x bound"
        )
    return report
