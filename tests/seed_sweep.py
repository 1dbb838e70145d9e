"""Held-out seed sweep of the point-mass presets.

Trains ``default`` and ``spgl`` on held-out program seeds 5-24 (criterion 5
uses 0-4) of ``point_mass_setup1`` (hidden context) and
``point_mass_setup2`` (visible context), all runs of one preset in
lock-step, and writes one CSV row per run:

* ``det_success``: deterministic evaluation success in percent, as
  :func:`spgl.harness.evaluate_run` reports it (mean action, the preset's
  ``eval_episodes`` target contexts);
* ``noisy_success``: success on the same target contexts with the policy's
  exploration noise, drawn by :func:`spgl.learner.collect_rollouts` as for
  the iteration after the last;
* ``train_success_last50``: mean training success over the last 50
  iterations;
* ``first_kl_below_0.1``: the first iteration whose KL to the target is
  below 0.1, empty if none;
* ``v_lower``: the performance threshold the run trained with, the
  preset's unless ``--v-lower`` overrides it for both presets.

Then it prints, per preset and mode, the median and quartiles of
``det_success`` and the number of seeds below 20 %.  Given two CSVs with
``--compare``, it trains nothing and prints both summaries and, per preset
and mode, the two-sided Fisher exact p-value of the counts of seeds below
20 % (stdlib ``math.comb``).  This is a script, not a pytest module:

    PYTHONPATH=src python tests/seed_sweep.py --out sweep.csv
    PYTHONPATH=src python tests/seed_sweep.py --v-lower=-1e9 --out ablation.csv
    PYTHONPATH=src python tests/seed_sweep.py --compare before.csv after.csv

(``--v-lower=X`` with ``=``, so that a negative X is not read as an
option.)  ``--compare`` also reads files without the ``v_lower`` column.

One preset's 40 runs train in about 42 s (``point_mass_setup1``) and 77 s
(``point_mass_setup2``) on one core of a 2-core virtual machine.
"""

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from spgl.config import load_config, preset_path
from spgl.gaussian import ContextDistribution, sample
from spgl.harness import evaluate_run, train_runs
from spgl.learner import collect_rollouts

PRESETS = ("point_mass_setup1", "point_mass_setup2")
MODES = ("default", "spgl")
SEEDS = tuple(range(5, 25))
LOW_SUCCESS = 20.0
KL_REACHED = 0.1
FIELDS = (
    "preset",
    "mode",
    "seed",
    "det_success",
    "noisy_success",
    "train_success_last50",
    "first_kl_below_0.1",
    "v_lower",
)


def noisy_success(config, policies, seeds):
    """Success in percent of each policy with exploration noise, on the
    target contexts :func:`evaluate_run` draws for its seed."""
    target_dist = ContextDistribution.at_target(config.target)
    contexts = np.stack(
        [
            sample(target_dist, np.random.default_rng([seed, 10_000]), config.eval_episodes)
            for seed in seeds
        ]
    )
    episodes = collect_rollouts(
        policies, config.make_environment(), contexts, list(seeds), config.iterations + 1
    )
    return [100.0 * float(np.mean(e.successes)) for e in episodes]


def sweep_preset(name, v_lower=None):
    config = load_config(preset_path(name))
    if v_lower is not None:
        curriculum = dataclasses.replace(config.curriculum, v_lower=v_lower)
        config = dataclasses.replace(config, curriculum=curriculum)
    runs = [(mode, seed) for mode in MODES for seed in SEEDS]
    results = train_runs(config, runs)
    policies = [r.policy for r in results]
    run_seeds = [seed for _, seed in runs]
    evals = evaluate_run(config, policies, run_seeds)
    noisy = noisy_success(config, policies, run_seeds)
    rows = []
    for (mode, seed), result, ev, noisy_pct in zip(runs, results, evals, noisy):
        last = [r.success_rate for r in result.records[-50:]]
        reached = [r.iteration for r in result.records if r.kl_to_target < KL_REACHED]
        rows.append(
            {
                "preset": name,
                "mode": mode,
                "seed": seed,
                "det_success": f"{ev.success_rate:.9g}",
                "noisy_success": f"{noisy_pct:.9g}",
                "train_success_last50": f"{float(np.mean(last)):.9g}",
                "first_kl_below_0.1": reached[0] if reached else "",
                "v_lower": f"{config.curriculum.v_lower:.9g}",
            }
        )
    return rows


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def groups(rows):
    """``det_success`` values per ``(preset, mode)``, in row order."""
    out = {}
    for row in rows:
        out.setdefault((row["preset"], row["mode"]), []).append(float(row["det_success"]))
    return out


def summary_lines(rows):
    used = sorted({row.get("v_lower") or "not recorded" for row in rows})
    lines = [f"v_lower: {', '.join(used)}"]
    for (preset, mode), det in groups(rows).items():
        q1, med, q3 = np.percentile(det, [25, 50, 75])
        low = sum(v < LOW_SUCCESS for v in det)
        lines.append(
            f"{preset} {mode:8s} det_success median {med:5.1f} % (quartiles {q1:.1f}, {q3:.1f}),"
            f" {low}/{len(det)} seeds below {LOW_SUCCESS:.0f} %"
        )
    return lines


def fisher_exact(a, b, c, d):
    """Two-sided Fisher exact p-value of the 2x2 table ``[[a, b], [c, d]]``:
    the total probability, under fixed margins, of tables no more likely
    than the observed one."""
    row, col, n = a + b, a + c, a + b + c + d

    def prob(x):
        return math.comb(col, x) * math.comb(n - col, row - x) / math.comb(n, row)

    observed = prob(a)
    support = range(max(0, row + col - n), min(row, col) + 1)
    return min(1.0, sum(p for p in map(prob, support) if p <= observed * (1 + 1e-9)))


def compare(before_path, after_path):
    before, after = read_rows(before_path), read_rows(after_path)
    print(f"before: {before_path}")
    print("\n".join(summary_lines(before)))
    print(f"after: {after_path}")
    print("\n".join(summary_lines(after)))
    after_groups = groups(after)
    for key, det_before in groups(before).items():
        det_after = after_groups[key]
        low_before = sum(v < LOW_SUCCESS for v in det_before)
        low_after = sum(v < LOW_SUCCESS for v in det_after)
        p = fisher_exact(
            low_before, len(det_before) - low_before, low_after, len(det_after) - low_after
        )
        print(
            f"{key[0]} {key[1]:8s} seeds below {LOW_SUCCESS:.0f} %: {low_before} -> {low_after},"
            f" Fisher exact p = {p:.3g}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="seed_sweep.csv", help="CSV to write")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument(
        "--v-lower", type=float, help="override [curriculum] v_lower of both presets"
    )
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    rows = []
    for name in PRESETS:
        rows += sweep_preset(name, args.v_lower)
        print(f"{name}: {len(rows)} runs done", file=sys.stderr)
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print("\n".join(summary_lines(rows)))


if __name__ == "__main__":
    main()
