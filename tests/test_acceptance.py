"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest -s tests/test_acceptance.py -v``.

1. closed-form / oracle equivalence (1e-6 parameters, 1e-8 KKT, < 1 min)
2. gradient and curvature finite-difference consistency (1e-4, < 1 min)
3. trust-region respect across full training runs (joint <= eps + 1e-12,
   mean component <= eps + 1e-10)
4. convergence to the target distribution on the analytic environment
   (KL < 1e-2 after 200 updates, nonincreasing within 1e-9, < 1 min)
5. point-mass curriculum trend over 5 seeds (median success gap >= 20
   percentage points, final KL < 0.1, < 15 min)
6. closed-form update at least 10x faster than the exact numerical solver at
   d = 3, 16 and 64
7. byte-identical training CSVs for identical config and seed
8. degenerate-case behaviour (gradient guards, target jump, positivity
   backtracking, infeasibility reporting)
"""

import time

import numpy as np
import pytest

from spgl.cli import main
from spgl.config import load_config, preset_path
from spgl.gaussian import THETA_MIN, ContextDistribution, TargetSpec
from spgl.harness import evaluate_run, run_training, train_runs, verify
from spgl.oracle import InfeasibleSubproblem, LinearizedSubproblem, solve_numeric
from spgl.stats import CurriculumStats, RolloutBatch
from spgl.update import (
    BOTH_INACTIVE,
    CurriculumConfig,
    InfeasiblePerformanceConstraint,
    MeanBlock,
    ScaleBlock,
    performance_step,
    update,
)


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


def make_stats(d, **kw):
    return CurriculumStats(
        u_bar=kw.get("u_bar", np.zeros(d)),
        v_bar=kw.get("v_bar", 0.0),
        psi_bar=kw.get("psi_bar", np.zeros(d)),
        omega=kw.get("omega", np.zeros(d)),
    )


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rep = verify(seed=101, instance_count=100, include_timing=False)
    elapsed = time.perf_counter() - start
    mu_cases = {c for c in rep.oracle_case_counts if c.startswith("mu:")}
    ok = (
        rep.passed
        and rep.oracle_max_param_error <= 1e-6
        and rep.oracle_max_multiplier_error <= 1e-6
        and rep.oracle_max_kkt_residual <= 1e-8
        and len(mu_cases) == 4
        and elapsed < 60.0
    )
    report(
        "1 oracle-equivalence",
        ok,
        f"param {rep.oracle_max_param_error:.2e}, kkt {rep.oracle_max_kkt_residual:.2e}, "
        f"cases {sorted(rep.oracle_case_counts)}, {elapsed:.1f}s",
    )


def test_criterion_2_finite_difference_consistency():
    from spgl.verification import run_fd_suite

    start = time.perf_counter()
    rep = run_fd_suite(seed=202, instances=100)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.fd_max_error <= 1e-4 and elapsed < 60.0
    report(
        "2 finite-differences",
        ok,
        f"max relative error {rep.fd_max_error:.2e}, {elapsed:.1f}s",
    )


def _audit_trust_region(config, records, label):
    eps = config.curriculum.epsilon
    prev_mu = config.initial_mu
    prev_theta = config.initial_theta
    sigma = config.target.sigma_tilde_diag
    worst_joint = 0.0
    worst_mean = 0.0
    for r in records:
        worst_joint = max(worst_joint, r.kl_step)
        mean_part = 0.5 * float(np.sum((r.mu - prev_mu) ** 2 / (prev_theta * sigma)))
        worst_mean = max(worst_mean, mean_part)
        prev_mu, prev_theta = r.mu, r.theta
    joint_ok = worst_joint <= eps + 1e-12
    mean_ok = worst_mean <= eps + 1e-10
    return joint_ok and mean_ok, f"{label}: joint {worst_joint:.4g} (eps {eps}), mean {worst_mean:.4g}"


def test_criterion_3_trust_region_respected():
    details = []
    ok = True
    for preset in ("synthetic_convergence", "point_mass_setup1"):
        config = load_config(preset_path(preset))
        result = run_training(config, seed=0)
        good, detail = _audit_trust_region(config, result.records, preset)
        ok = ok and good
        details.append(detail)
    report("3 trust-region", ok, "; ".join(details))


def test_criterion_4_convergence_to_target():
    start = time.perf_counter()
    config = load_config(preset_path("synthetic_convergence"))
    result = run_training(config, seed=0)
    elapsed = time.perf_counter() - start
    kls = [r.kl_to_target for r in result.records]
    increases = np.diff(kls)
    max_increase = float(np.max(increases)) if increases.size else 0.0
    ok = (
        len(result.records) == 200
        and kls[-1] < 1e-2
        and max_increase <= 1e-9
        and elapsed < 60.0
    )
    report(
        "4 convergence",
        ok,
        f"final KL {kls[-1]:.3e}, max per-step increase {max_increase:.3e}, {elapsed:.1f}s",
    )


def test_criterion_5_point_mass_trend():
    start = time.perf_counter()
    config = load_config(preset_path("point_mass_setup1"))
    seeds = [0, 1, 2, 3, 4]
    success = {"spgl": [], "default": []}
    final_kl = []
    # all ten runs train in lock-step and are evaluated in one batch
    runs = [(mode, seed) for mode in ("spgl", "default") for seed in seeds]
    results = train_runs(config, runs)
    evals = evaluate_run(config, [r.policy for r in results], [seed for _, seed in runs])
    for (mode, _), result, ev in zip(runs, results, evals):
        success[mode].append(ev.success_rate)
        if mode == "spgl":
            final_kl.append(result.records[-1].kl_to_target)
    elapsed = time.perf_counter() - start
    spgl_median = float(np.median(success["spgl"]))
    default_median = float(np.median(success["default"]))
    kl_median = float(np.median(final_kl))
    ok = (
        spgl_median - default_median >= 20.0
        and kl_median < 0.1
        and elapsed < 15 * 60.0
    )
    report(
        "5 point-mass-trend",
        ok,
        f"spgl median {spgl_median:.1f}% vs default {default_median:.1f}%, "
        f"median final KL {kl_median:.3g}, {elapsed:.0f}s",
    )


def test_criterion_6_closed_form_speedup():
    from spgl.verification import run_timing_suite

    # 50 updates at d = 3, then 3 each in the higher-dimensional context
    # spaces where inner-loop solvers are said not to scale
    races = {
        d: run_timing_suite(seed=606, updates=n, d=d) for d, n in [(3, 50), (16, 3), (64, 3)]
    }
    ok = all(rep.passed and rep.speedup >= 10.0 for rep in races.values())
    report(
        "6 speedup",
        ok,
        "; ".join(
            f"d={d}: closed {rep.closed_form_seconds * 1e3:.2f} ms vs exact "
            f"{rep.exact_solver_seconds * 1e3:.0f} ms per update ({rep.speedup:.0f}x)"
            for d, rep in races.items()
        ),
    )


def test_criterion_7_byte_identical_csv(tmp_path):
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            [
                "train",
                "--config",
                "synthetic_convergence",
                "--seed",
                "11",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("7 determinism", ok, f"{len(outputs[0])} bytes")


def test_criterion_8_degenerate_cases():
    checks = []

    # zero value gradient leaves the mean unmoved; with both gradients zero
    # nothing moves and the update is a flagged no-op
    target = TargetSpec(mu_tilde=np.zeros(1), sigma_tilde_diag=np.ones(1))
    dist = ContextDistribution(mu=np.array([0.4]), theta=np.array([1.0]), target=target)
    mu, _, _, _ = performance_step(
        dist, make_stats(1, u_bar=np.array([1e-12]), psi_bar=np.array([-0.5])), 0.05
    )
    checks.append(("u-guard", mu[0] == 0.4))
    _, _, moved, _ = performance_step(
        dist, make_stats(1, u_bar=np.array([1e-12]), psi_bar=np.array([1e-12])), 0.05
    )
    flat = RolloutBatch([[0.9], [-0.1]], [0.0, 0.0], dist)
    unchanged, flat_report = update(flat, CurriculumConfig(epsilon=0.05, v_lower=10.0))
    checks.append(
        ("degenerate-no-op", moved is False and unchanged is dist and flat_report.degenerate)
    )

    # omega = 0 at the target: the scale step is the identity
    at_target = ContextDistribution.at_target(target)
    theta_new, _, _ = ScaleBlock(
        at_target, make_stats(1, v_bar=10.0, psi_bar=np.array([0.3])), 0.0
    ).solve(0.05)
    checks.append(("omega-zero-identity", bool(np.array_equal(theta_new, at_target.theta))))

    # both constraints inactive near the target: exact jump to (mu_tilde, 1)
    near = ContextDistribution(mu=np.array([0.05]), theta=np.array([0.97]), target=target)
    stats_near = make_stats(
        1, v_bar=50.0, u_bar=np.array([0.2]), psi_bar=np.array([0.1]),
        omega=0.5 * (1.0 / near.theta - 1.0 / near.theta**2 - (target.mu_tilde - near.mu) ** 2 / near.theta**2),
    )
    mu_new, mu_sol = MeanBlock(near, stats_near, 0.0).solve(0.05)
    theta_jump, theta_sol, _ = ScaleBlock(near, stats_near, 0.0).solve(0.05)
    checks.append(
        (
            "both-inactive-jump",
            mu_sol.active_case == BOTH_INACTIVE
            and theta_sol.active_case == BOTH_INACTIVE
            and np.array_equal(mu_new, target.mu_tilde)
            and np.array_equal(theta_jump, np.ones(1)),
        )
    )

    # positivity backtracking keeps the floor and the direction
    low = ContextDistribution(mu=np.zeros(1), theta=np.array([2e-6]), target=target)
    _, theta_floor, _, _ = performance_step(low, make_stats(1, psi_bar=np.array([-1.0])), 0.2)
    checks.append(("theta-floor", theta_floor[0] == pytest.approx(THETA_MIN, rel=1e-12)))

    # infeasible performance constraint is reported, closed form and oracle
    infeasible_stats = make_stats(1, v_bar=-100.0, u_bar=np.array([1e-4]), psi_bar=np.array([1e-4]), omega=np.array([0.3]))
    try:
        MeanBlock(dist, infeasible_stats, 0.0).solve(0.01)
        checks.append(("mu-infeasible", False))
    except InfeasiblePerformanceConstraint:
        checks.append(("mu-infeasible", True))
    try:
        ScaleBlock(dist, infeasible_stats, 0.0).solve(0.01)
        checks.append(("theta-infeasible", False))
    except InfeasiblePerformanceConstraint:
        checks.append(("theta-infeasible", True))
    try:
        solve_numeric(
            LinearizedSubproblem(
                center=np.zeros(1),
                objective_gradient=np.ones(1),
                metric_diag=np.ones(1),
                radius_sq=0.01,
                performance=(np.ones(1), -10.0),
            )
        )
        checks.append(("oracle-infeasible", False))
    except InfeasibleSubproblem:
        checks.append(("oracle-infeasible", True))

    failed = [name for name, good in checks if not good]
    report("8 degenerate-cases", not failed, f"checks: {[n for n, _ in checks]}; failed: {failed}")
