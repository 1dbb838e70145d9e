"""Smoke tests of the scripts under ``tests/`` that no other test imports:
their comparison modes and the seed sweep's training path, so that a stale
script fails here and not when a change needs it."""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import seed_sweep
from spgl.harness import evaluate_run, run_training

TESTS = Path(__file__).parent
SWEEP_BASELINE = TESTS / "sweep" / "per_run_streams.csv"


def test_seed_sweep_compare_of_a_file_with_itself_shows_no_difference(capsys):
    seed_sweep.main(["--compare", str(SWEEP_BASELINE), str(SWEEP_BASELINE)])
    lines = capsys.readouterr().out.splitlines()
    pairs = [line for line in lines if " -> " in line]
    # one line per (preset, mode)
    assert len(pairs) == len(seed_sweep.PRESETS) * len(seed_sweep.MODES)
    for line in pairs:
        match = re.search(r": (\d+) -> (\d+), Fisher exact p = (\S+)$", line)
        assert match, line
        assert match[1] == match[2] and float(match[3]) == 1.0, line


def test_seed_sweep_trains_evaluates_and_writes_one_row_per_run(monkeypatch):
    # two seeds cut to three iterations: lock-step training, the batched
    # deterministic evaluation and the noisy rollouts of noisy_success
    load_config = seed_sweep.load_config
    short = lambda path: dataclasses.replace(load_config(path), iterations=3)
    monkeypatch.setattr(seed_sweep, "SEEDS", (5, 6))
    monkeypatch.setattr(seed_sweep, "load_config", short)
    preset = seed_sweep.PRESETS[1]
    rows = seed_sweep.sweep_preset(preset)
    assert [(row["mode"], row["seed"]) for row in rows] == [
        (mode, seed) for mode in seed_sweep.MODES for seed in (5, 6)
    ]
    config = short(seed_sweep.preset_path(preset))
    for row in rows:
        assert set(row) == set(seed_sweep.FIELDS) and row["preset"] == preset
        # each run's evaluation is that of the same run trained alone
        policy = run_training(config, row["seed"], row["mode"]).policy
        (alone,) = evaluate_run(config, [policy], [row["seed"]])
        assert row["det_success"] == f"{alone.success_rate:.9g}"
        episodes = float(row["noisy_success"]) * config.eval_episodes / 100.0
        assert episodes == round(episodes) and 0 <= episodes <= config.eval_episodes
        assert 0.0 <= float(row["train_success_last50"]) <= 100.0


def exact_csv(path, objectives):
    """A file of ``tests/exact_objectives.py``'s output format, one
    performance instance per objective."""
    lines = ["index,mode,d,eps,objective,converged,kl_step,cpu_s,value_calls,value_rows"]
    for i, objective in enumerate(objectives):
        lines.append(
            f"{i},performance,2,{(0.05).hex()},{objective.hex()},True,{(0.05).hex()},"
            f"0.010000,10,20"
        )
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_exact_objectives_compare_lists_moved_and_infeasible_instances(tmp_path):
    parent = exact_csv(tmp_path / "parent.csv", [-2.0, -1.0, -3.0])
    change = exact_csv(tmp_path / "change.csv", [-2.0, -0.5, float("inf")])
    out = subprocess.run(
        [sys.executable, str(TESTS / "exact_objectives.py"), "--compare", parent, change],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert "identical objective: 1 (performance 1, convergence 0)\n" in out
    assert "infeasible on both trees: 0\n" in out
    assert "moved: 1\n" in out
    # instance 1 got worse by half its objective
    assert "  1 performance 2 0.05 -1.0 -0.5 +0.5\n" in out
    assert "feasibility changed: 1 2 (-3.0 -> inf)\n" in out
    assert "converged changed: 0\n" in out
    assert "cpu_s total: parent 0.03, change 0.03, ratio 1.000\n" in out
    # no convergence instance, so no CPU ratio for that mode
    assert "cpu_s convergence: parent 0.00, change 0.00, ratio n/a\n" in out
