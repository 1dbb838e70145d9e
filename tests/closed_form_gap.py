"""The closed-form update against the exact solver on recorded training
batches.

Trains ``point_mass_setup1`` under ``spgl`` (program seed 5 unless
``--seed`` says otherwise) and records the inputs of every ``--every``-th
curriculum update (10 by default).  For each recorded update it takes the
closed-form step that training took and solves the same batch with
:func:`spgl.oracle.solve_exact_sampled` in the mode of that step, with the
seed ``numerical_update`` would use, then prints one CSV row:

* ``iteration`` and ``kind`` (``performance`` or ``convergence``);
* ``f_old``, ``f_closed`` and ``f_exact``: the exact solver's objective --
  minus the importance-weighted batch value for a performance step, the KL
  to the target for a convergence step -- at the old distribution, after
  the closed-form step and after the exact solve;
* ``gain_ratio``: ``(f_old - f_closed) / (f_old - f_exact)``, above 1 where
  the closed form gets further on the exact solver's own problem;
* ``kl_closed`` and ``kl_exact``: the step KL of each step;
* ``meets_closed`` and ``meets_exact``: whether each step's sampled value
  meets ``v_lower`` with the solver's slack ``1e-9 max(1, |v_lower|)``.

A summary follows on ``#`` lines: per kind, the median gain ratio; the
closed-form convergence steps that miss the sampled constraint (the price
of linearizing it); and the updates where the exact objective is worse than
the closed form's although the closed-form step is feasible for the exact
problem (every performance step, and a convergence step that meets the
sampled constraint).  This is a script, not a pytest module:

    PYTHONPATH=src python tests/closed_form_gap.py [--seed 5] [--every 10]

The 600-iteration run and its 60 exact solves take about 5 s on one core of
a 2-core virtual machine.
"""

import argparse
import statistics

import spgl.harness
from spgl.config import load_config, preset_path
from spgl.gaussian import kl_params, kl_to_target_params, log_density_params, sampled_value
from spgl.harness import run_training
from spgl.oracle import solve_exact_sampled

PRESET = "point_mass_setup1"


def record_updates(config, seed, every):
    """Train and return ``(iteration, batch, new_dist, kind)`` of every
    ``every``-th update, the old distribution being the batch's
    ``source_distribution``; the wrapped update computes the same bits."""
    real_update = spgl.harness.update
    recorded = []
    iteration = 0

    def recording_update(batch, curriculum):
        nonlocal iteration
        new_dist, report = real_update(batch, curriculum)
        iteration += 1
        if iteration % every == 0 and report.kind in ("performance", "convergence"):
            recorded.append((iteration, batch, new_dist, report.kind))
        return new_dist, report

    spgl.harness.update = recording_update
    try:
        run_training(config, seed, curriculum_mode="spgl")
    finally:
        spgl.harness.update = real_update
    return recorded


def compare_update(batch, closed, kind, curriculum, seed):
    """``(f_old, f_closed, f_exact, kl_closed, kl_exact, meets_closed,
    meets_exact)`` of one recorded update, as the module docstring defines
    them, with the exact solve seeded by ``seed``."""
    dist = batch.source_distribution
    target = dist.target
    sigma = target.sigma_tilde_diag
    slack = 1e-9 * max(1.0, abs(curriculum.v_lower))
    log_p0 = log_density_params(batch.contexts, dist.mu, dist.theta * sigma)

    def value(d):
        return float(sampled_value(batch.contexts, batch.values, log_p0, d.mu, d.theta * sigma))

    def objective(d):
        if kind == "performance":
            return -value(d)
        return float(kl_to_target_params(d.mu, d.theta, target.mu_tilde, sigma))

    def step_kl(d):
        return float(kl_params(d.mu, d.theta, dist.mu, dist.theta, sigma))

    exact = solve_exact_sampled(batch, curriculum, kind, seed=seed).distribution
    steps = (closed, exact)
    return (
        objective(dist),
        *(objective(d) for d in steps),
        *(step_kl(d) for d in steps),
        *(not value(d) < curriculum.v_lower - slack for d in steps),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--every", type=int, default=10)
    args = parser.parse_args()

    config = load_config(preset_path(PRESET))
    print(
        "iteration,kind,f_old,f_closed,f_exact,gain_ratio,"
        "kl_closed,kl_exact,meets_closed,meets_exact"
    )
    rows = []
    for iteration, batch, closed, kind in record_updates(config, args.seed, args.every):
        f_old, f_closed, f_exact, kl_closed, kl_exact, meets_closed, meets_exact = compare_update(
            batch, closed, kind, config.curriculum, args.seed + iteration
        )
        gain_exact = f_old - f_exact
        ratio = (f_old - f_closed) / gain_exact if gain_exact else float("nan")
        rows.append((kind, ratio, f_closed, f_exact, meets_closed or kind == "performance"))
        print(
            f"{iteration},{kind},{f_old:.9g},{f_closed:.9g},{f_exact:.9g},{ratio:.4g},"
            f"{kl_closed:.6g},{kl_exact:.6g},{meets_closed},{meets_exact}",
            flush=True,
        )

    for kind in ("performance", "convergence"):
        ratios = [r for k, r, *_ in rows if k == kind and r == r]
        median = f"{statistics.median(ratios):.3f}" if ratios else "-"
        print(f"# {kind}: {sum(k == kind for k, *_ in rows)} steps, median gain ratio {median}")
    convergence = [feasible for k, _, _, _, feasible in rows if k == "convergence"]
    print(
        f"# closed-form convergence steps missing the sampled constraint: "
        f"{convergence.count(False)} of {len(convergence)}"
    )
    feasible = [(f_closed, f_exact) for _, _, f_closed, f_exact, ok in rows if ok]
    behind = sum(f_exact > f_closed for f_closed, f_exact in feasible)
    print(f"# exact objective worse than a feasible closed-form step: {behind} of {len(feasible)}")


if __name__ == "__main__":
    main()
