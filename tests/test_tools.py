"""Smoke tests of the comparison modes of the scripts under ``tests/`` that
no other test imports, so that a stale script fails here and not when a
change needs it."""

import re
import subprocess
import sys
from pathlib import Path

import seed_sweep

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
