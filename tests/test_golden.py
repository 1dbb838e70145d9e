"""Golden training CSVs: fixed (config, seed) runs whose bytes pin the
behaviour of the whole training loop, so a refactor can show that nothing
changed.  A change that is meant to alter these bytes says why and rewrites
the files in the same change:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from spgl.config import load_config, preset_path
from spgl.harness import records_to_csv, run_multi_seed, run_training, summary_to_csv, verify

# the digest script defines the variant once, for its digest and these goldens
from digest import selfpaced_variant

GOLDEN_DIR = Path(__file__).parent / "golden"

# The benchmark's synth_selfpaced workload trains this file (read only here).
BENCHMARK_CONFIG = Path(__file__).parents[1] / "perfbench" / "synth_selfpaced.ini"


def _preset(name, iterations=None):
    config = load_config(preset_path(name))
    if iterations is not None:
        config = dataclasses.replace(config, iterations=iterations)
    return config


def _with_k(config, k_contexts):
    curriculum = dataclasses.replace(config.curriculum, k_contexts=k_contexts)
    return dataclasses.replace(config, curriculum=curriculum)


def selfpaced_numerical():
    """The self-paced variant under the exact-solver baseline, cut short:
    the only golden that reaches the oracle's KLs and ray projection."""
    return dataclasses.replace(selfpaced_variant(), curriculum_mode="numerical", iterations=5)


GOLDEN_RUNS = {
    "point_mass_setup1_seed0_it40": lambda: _preset("point_mass_setup1", 40),
    "point_mass_setup2_seed0_it40": lambda: _preset("point_mass_setup2", 40),
    # K = 6 is a batch size at which BLAS rounds the per-step mean product
    # differently from the per-episode one; the presets train only at K = 64
    "point_mass_setup2_k6_seed0_it40": lambda: _with_k(_preset("point_mass_setup2", 40), 6),
    "synthetic_convergence_seed0": lambda: _preset("synthetic_convergence"),
    "synthetic_selfpaced_seed0": selfpaced_variant,
    "synthetic_selfpaced_numerical_seed0_it5": selfpaced_numerical,
}


# The summary golden pins the multi-seed comparison and the deterministic
# final evaluation, which no training CSV reaches.
SUMMARY_GOLDEN = "point_mass_setup1_summary_it10"

# The verify golden pins the oracle and finite-difference suites' report
# text (timing left out, it is not deterministic).
VERIFY_GOLDEN = "verify_seed0_n100"


def render_verify() -> str:
    return "\n".join(verify(0, 100, include_timing=False).format_lines()) + "\n"


def render(name: str) -> str:
    if name == SUMMARY_GOLDEN:
        summaries, _ = run_multi_seed(_preset("point_mass_setup1", 10), seeds=(0, 1))
        return summary_to_csv(summaries)
    config = GOLDEN_RUNS[name]()
    result = run_training(config, seed=0)
    return records_to_csv(result.records, config.target.d)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_training_csv_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert render(name).encode() == expected


def test_summary_csv_matches_golden():
    expected = (GOLDEN_DIR / f"{SUMMARY_GOLDEN}.csv").read_bytes()
    assert render(SUMMARY_GOLDEN).encode() == expected


def test_verify_report_matches_golden():
    expected = (GOLDEN_DIR / f"{VERIFY_GOLDEN}.txt").read_bytes()
    assert render_verify().encode() == expected


def test_selfpaced_variant_survives_near_colinear_scale_gradients():
    # program seed 413 once raised "no KKT case matched the scale subproblem"
    # when omega and psi_bar were nearly parallel in a convergence step
    config = selfpaced_variant()
    result = run_training(config, seed=413)
    assert len(result.records) == config.iterations
    assert all(r.kl_step <= config.curriculum.epsilon + 1e-12 for r in result.records)


def test_benchmark_config_is_the_selfpaced_variant():
    # a config change that the benchmark file no longer loads under, or that
    # moves it off the variant the goldens pin, fails here and not in a
    # benchmark run
    bench = load_config(BENCHMARK_CONFIG)
    variant = selfpaced_variant()
    assert (bench.environment, bench.curriculum_mode) == ("synthetic", "spgl")
    assert bench.curriculum == variant.curriculum
    assert bench.width == variant.width
    for field in ("mu_tilde", "sigma_tilde_diag"):
        assert np.array_equal(getattr(bench.target, field), getattr(variant.target, field))
    assert np.array_equal(bench.initial_mu, variant.initial_mu)
    assert np.array_equal(bench.initial_theta, variant.initial_theta)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden in sorted(GOLDEN_RUNS) + [SUMMARY_GOLDEN]:
        (GOLDEN_DIR / f"{golden}.csv").write_bytes(render(golden).encode())
        print(f"wrote {GOLDEN_DIR / golden}.csv")
    (GOLDEN_DIR / f"{VERIFY_GOLDEN}.txt").write_bytes(render_verify().encode())
    print(f"wrote {GOLDEN_DIR / VERIFY_GOLDEN}.txt")
