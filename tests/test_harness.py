"""Harness tests: config parsing and presets, training-loop contracts
(record counts, default-mode identities, byte-identical determinism,
lock-step runs equal to the same runs alone), evaluation statistics,
verification wiring and the CLI surface."""

import configparser
import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import spgl.cli
import spgl.harness
import spgl.verification
from digest import perturbed_closed_forms
from spgl.cli import EXIT_CONFIG, EXIT_WARNINGS, main
from spgl.config import RETIRED, ConfigError, available_presets, load_config, preset_path
from spgl.harness import (
    evaluate_run,
    records_to_csv,
    run_multi_seed,
    run_training,
    train_runs,
    verify,
    welch_p_value,
)
from spgl.envs import SyntheticEnv
from spgl.learner import init_policy
from spgl.update import CurriculumError, update
from spgl.verification import run_fd_suite, run_timing_suite


SYNTH_CONFIG = """
[experiment]
name = harness_test
environment = synthetic
curriculum = spgl
iterations = {iterations}
seed = 3

[environment]
width = 50.0

[target]
mu = 1.0, -0.8
sigma = 1.0, 1.0

[initial]
mu = 0.0, 0.0
theta = 0.5, 0.25

[curriculum]
epsilon = 0.05
v_lower = 1
k_contexts = 8

[evaluation]
episodes = 8
"""


@pytest.fixture
def synth_config(tmp_path):
    def build(iterations=20):
        path = tmp_path / "synth.ini"
        path.write_text(SYNTH_CONFIG.format(iterations=iterations))
        return load_config(path)

    return build


class TestConfig:
    def test_presets_ship_and_parse(self):
        names = available_presets()
        assert "point_mass_setup1.ini" in names
        assert "synthetic_convergence.ini" in names
        for name in ("point_mass_setup1", "point_mass_setup2", "synthetic_convergence"):
            load_config(preset_path(name))

    def test_presets_set_no_retired_key(self):
        for name in available_presets():
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read(preset_path(name), encoding="utf-8")
            assert not [key for key in RETIRED if parser.has_option(*key)], name

    def test_setup1_preset_parameters(self):
        config = load_config(preset_path("point_mass_setup1"))
        assert np.allclose(config.target.mu_tilde, [2.6, 0.7, 0.1])
        assert np.allclose(config.target.sigma_tilde_diag, [9e-4, 4e-4, 1e-4])
        assert np.allclose(config.initial_mu, [0, 4, 2])
        assert np.allclose(config.initial_theta, [4, 3.5, 1])
        assert config.curriculum.v_lower == 5.0
        assert not config.context_visible

    def test_setup2_is_visible_context(self):
        config = load_config(preset_path("point_mass_setup2"))
        assert config.context_visible
        assert np.allclose(config.target.mu_tilde, [2.5, 0.7, 0.1])

    def test_external_engine_environments_are_unknown(self, tmp_path):
        path = tmp_path / "lander.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        path.write_text(text.replace("environment = synthetic", "environment = lunar_lander"))
        with pytest.raises(ConfigError, match="unknown environment 'lunar_lander'"):
            load_config(path)

    @pytest.mark.parametrize(
        "environment, key",
        [
            ("synthetic", "widht"),
            ("synthetic", "horizon"),
            ("point_mass", "width"),
            # the synthetic environment has no observations to show
            ("synthetic", "context_visible"),
        ],
    )
    def test_unknown_environment_keys_rejected(self, tmp_path, environment, key):
        # a misspelt key used to be dropped silently, running width 50
        path = tmp_path / "typo.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        text = text.replace("environment = synthetic", f"environment = {environment}")
        path.write_text(text.replace("width = 50.0", f"{key} = 1.0"))
        with pytest.raises(ConfigError, match=rf"unknown \[environment\] key '{key}'"):
            load_config(path)

    def test_unknown_section_keys_rejected(self, tmp_path):
        # a misspelt k_contexts used to be dropped silently, running K = 64
        path = tmp_path / "typo.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        path.write_text(text.replace("k_contexts = 8", "k_context = 16"))
        with pytest.raises(ConfigError, match=r"unknown \[curriculum\] key 'k_context'"):
            load_config(path)

    def test_unknown_experiment_keys_rejected(self, tmp_path):
        # a misspelt iterations used to be dropped silently, running 200
        path = tmp_path / "typo.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        path.write_text(text.replace("iterations = 5", "iteration = 5"))
        with pytest.raises(ConfigError, match=r"unknown \[experiment\] key 'iteration'"):
            load_config(path)

    # one value of each retired key other than the one it loads at
    RETIRED_OTHER = {"runnable": "false", "update_period": "3", "gamma": "0.9", "learning_rate": "0.5"}

    @pytest.mark.parametrize("section, key", sorted(RETIRED))
    def test_retired_keys_load_at_their_value_only(self, tmp_path, section, key):
        # older files, the benchmark's among them, still set these keys
        path = tmp_path / "old.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        if f"[{section}]" not in text:
            text += f"\n[{section}]\n"

        def write(raw):
            path.write_text(text.replace(f"[{section}]", f"[{section}]\n{key} = {raw}"))

        write(str(RETIRED[section, key]).lower())
        assert load_config(path).iterations == 5
        write(self.RETIRED_OTHER[key])
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} is retired"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key",
        [("learnr", "learning_rate = 0.5"), ("evalution", "episodes = 3"), ("Curriculum", "")],
    )
    def test_unknown_sections_rejected(self, tmp_path, section, key):
        # a misspelt section used to be dropped whole, leaving its defaults
        path = tmp_path / "typo.ini"
        path.write_text(SYNTH_CONFIG.format(iterations=5) + f"\n[{section}]\n{key}\n")
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            load_config(path)

    @pytest.mark.parametrize("episodes", [0, -2])
    def test_evaluation_episodes_must_be_positive(self, tmp_path, episodes):
        path = tmp_path / "none.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        path.write_text(text.replace("episodes = 8", f"episodes = {episodes}"))
        with pytest.raises(ConfigError, match=r"\[evaluation\] episodes must be >= 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # each used to escape load_config as a bare ValueError, so
            # spgl train died in a traceback
            ("epsilon = 0.05", "epsilon = 0", r"\[curriculum\] epsilon must be positive"),
            ("k_contexts = 8", "k_contexts = 1", r"\[curriculum\] k_contexts must be >= 2"),
            # the scale floor is THETA_MIN, not a setting
            (
                "k_contexts = 8",
                "k_contexts = 8\ntheta_min = 1e-6",
                r"unknown \[curriculum\] key 'theta_min'",
            ),
            ("theta = 0.5, 0.25", "theta = 0.5, 1e-7", r"theta entries must be >= 1e-06"),
            ("sigma = 1.0, 1.0", "sigma = 1.0, -1.0", r"\[target\] sigma_tilde_diag entries"),
            ("[curriculum]", "[learner]\ngamma = 1.5\n[curriculum]", r"\[learner\] gamma is retired"),
            # non-finite or non-positive settings: a traceback from the
            # environment or the first update, or every update failed
            ("width = 50.0", "width = 0", r"\[environment\] width must be positive and finite"),
            ("width = 50.0", "width = nan", r"\[environment\] width must be positive and finite"),
            ("epsilon = 0.05", "epsilon = inf", r"\[curriculum\] epsilon must be positive and finite"),
            ("epsilon = 0.05", "epsilon = nan", r"\[curriculum\] epsilon must be positive and finite"),
            ("v_lower = 1", "v_lower = nan", r"\[curriculum\] v_lower must be finite"),
            (
                "[curriculum]",
                "[learner]\nlearning_rate = nan\n[curriculum]",
                r"\[learner\] learning_rate is retired",
            ),
            # malformed files and values
            ("mu = 1.0, -0.8", "mu = 1.0, east", r"could not parse vector 'target.mu'"),
            ("epsilon = 0.05\n", "", r"missing option \[curriculum\] epsilon"),
            ("k_contexts = 8", "k_contexts = eight", r"bad value for \[curriculum\] k_contexts"),
            (
                "k_contexts = 8",
                "k_contexts = 8\nthis line has no value",
                r"could not parse \S*bad\.ini",
            ),
            ("[initial]\nmu = 0.0, 0.0\ntheta = 0.5, 0.25\n", "", r"missing section \[initial\]"),
            ("curriculum = spgl", "curriculum = spdl", r"unknown curriculum mode 'spdl'"),
            ("iterations = 5", "iterations = 0", r"iterations must be >= 1"),
        ],
    )
    def test_rejected_values_are_config_errors(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bad.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["train", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err

    def test_evaluation_section_is_optional(self, tmp_path):
        path = tmp_path / "no_eval.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        assert "[evaluation]\nepisodes = 8\n" in text
        path.write_text(text.replace("[evaluation]\nepisodes = 8\n", ""))
        assert load_config(path).eval_episodes == 50

    def test_synthetic_width_is_read(self, tmp_path):
        path = tmp_path / "narrow.ini"
        path.write_text(SYNTH_CONFIG.format(iterations=5).replace("50.0", "1.5"))
        assert load_config(path).make_environment().width == 1.5

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_unreadable_files_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not a regular file"):
            load_config(tmp_path)
        path = tmp_path / "latin1.ini"
        text = SYNTH_CONFIG.format(iterations=5).replace("harness_test", "caf\xe9")
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)

    REMOVED_KEY_SECTIONS = {
        "standardize_values": "curriculum",
        "combined_step": "curriculum",
        "iterations_per_update": "learner",
    }

    @pytest.mark.parametrize("key", sorted(REMOVED_KEY_SECTIONS))
    def test_removed_curriculum_keys_rejected(self, tmp_path, key):
        # a deleted option is an unknown key like any misspelling
        section = self.REMOVED_KEY_SECTIONS[key]
        path = tmp_path / "old.ini"
        text = SYNTH_CONFIG.format(iterations=5)
        if f"[{section}]" not in text:
            text += f"\n[{section}]\n"
        path.write_text(text.replace(f"[{section}]", f"[{section}]\n{key} = 1"))
        with pytest.raises(ConfigError, match=rf"unknown \[{section}\] key '{key}'"):
            load_config(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[experiment]\nenvironment = synthetic\n"
            "[target]\nmu = 0, 0\nsigma = 1, 1\n"
            "[initial]\nmu = 0\ntheta = 1\n"
            "[curriculum]\nepsilon = 0.1\nv_lower = 1\n"
        )
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ConfigError, match="available"):
            preset_path("no_such_preset")


class TestRunTraining:
    def test_default_mode_kl_identically_zero(self, synth_config):
        config = synth_config(iterations=10)
        result = run_training(config, seed=1, curriculum_mode="default")
        assert all(r.kl_to_target == 0.0 for r in result.records)
        assert all(r.kl_step == 0.0 for r in result.records)
        assert all(r.step_kind == "default" for r in result.records)

    def test_spgl_mode_reduces_kl(self, synth_config):
        config = synth_config(iterations=60)
        result = run_training(config, seed=1)
        assert result.records[-1].kl_to_target < result.records[0].kl_to_target

    def test_csv_bytes_are_deterministic(self, synth_config):
        config = synth_config(iterations=15)
        a = run_training(config, seed=7)
        b = run_training(config, seed=7)
        csv_a = records_to_csv(a.records, config.target.d)
        csv_b = records_to_csv(b.records, config.target.d)
        assert csv_a.encode() == csv_b.encode()

    def test_numerical_mode_respects_trust_region_and_is_deterministic(self, synth_config):
        config = synth_config(iterations=5)
        eps = config.curriculum.epsilon
        a = run_training(config, seed=4, curriculum_mode="numerical")
        b = run_training(config, seed=4, curriculum_mode="numerical")
        assert len(a.records) == 5
        assert all(r.kl_step <= eps + 1e-9 for r in a.records)
        assert records_to_csv(a.records, 2).encode() == records_to_csv(b.records, 2).encode()

    def test_different_seeds_differ(self, synth_config):
        config = synth_config(iterations=15)
        a = run_training(config, seed=1)
        b = run_training(config, seed=2)
        assert records_to_csv(a.records, 2) != records_to_csv(b.records, 2)

    def test_failed_update_is_a_recorded_no_op(self, synth_config, monkeypatch):
        config = synth_config(iterations=6)
        clean = run_training(config, seed=1)
        real_update = spgl.harness.update
        seen = []

        def flaky_update(batch, curriculum):
            seen.append(batch.source_distribution)
            if len(seen) == 3:
                raise CurriculumError("no KKT case matched the scale subproblem")
            return real_update(batch, curriculum)

        monkeypatch.setattr(spgl.harness, "update", flaky_update)
        with pytest.warns(RuntimeWarning, match="iteration 3.*no KKT case matched"):
            result = run_training(config, seed=1)

        assert len(result.records) == config.iterations
        assert result.failed_updates == 1
        failed, before = result.records[2], result.records[1]
        assert (failed.step_kind, failed.active_case, failed.kl_step) == ("failed", "-", 0.0)
        assert np.array_equal(failed.mu, before.mu) and np.array_equal(failed.theta, before.theta)
        # the next update runs from the kept distribution
        assert len(seen) == config.iterations and seen[3] is seen[2]
        assert result.records[3].step_kind != "failed"
        assert records_to_csv(result.records[:2], 2) == records_to_csv(clean.records[:2], 2)

    def test_closed_form_gap_records_every_tenth_update(self):
        # tests/closed_form_gap.py wraps spgl.harness.update with a fake of
        # its signature, so a change of that signature must fail here too
        from closed_form_gap import PRESET, record_updates

        config = dataclasses.replace(load_config(preset_path(PRESET)), iterations=20)
        recorded = record_updates(config, 5, 10)
        assert [iteration for iteration, *_ in recorded] == [10, 20]
        records = run_training(config, 5, curriculum_mode="spgl").records
        for iteration, batch, new_dist, kind in recorded:
            assert kind in ("performance", "convergence")
            replayed, report = update(batch, config.curriculum)
            assert report.kind == kind
            for taken in (replayed, records[iteration - 1]):
                assert np.array_equal(taken.mu, new_dist.mu)
                assert np.array_equal(taken.theta, new_dist.theta)

    def test_run_at_huge_returns_completes(self, monkeypatch):
        # unscaled, returns of 1e300 overflow the update's squared
        # statistics; the curriculum does not depend on the return scale
        config = load_config(preset_path("synthetic_convergence"))
        shipped = train_runs(config, [("spgl", 0)])[0]
        monkeypatch.setattr(SyntheticEnv, "peak", 1e300)
        result = train_runs(config, [("spgl", 0)])[0]
        assert len(result.records) == config.iterations and result.failed_updates == 0
        for huge, unit in zip(result.records, shipped.records):
            assert huge.step_kind == unit.step_kind
            np.testing.assert_allclose(huge.mu, unit.mu, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(huge.theta, unit.theta, rtol=1e-9)

    def test_returns_near_the_largest_float_give_finite_means(self, monkeypatch):
        # the returns of a batch sum past the largest float: every record's
        # mean return and the evaluation's means and errors stay finite,
        # without an overflow warning
        config = load_config(preset_path("synthetic_convergence"))
        config = dataclasses.replace(config, iterations=5)
        monkeypatch.setattr(SyntheticEnv, "peak", 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train_runs(config, [("spgl", 0)])[0]
            (evaluation,) = evaluate_run(config, [result.policy], [0])
        assert all(math.isfinite(r.mean_return) for r in result.records)
        assert max(r.mean_return for r in result.records) > 1e307
        csv = records_to_csv(result.records, config.target.d)
        assert all(math.isfinite(float(row.split(",")[1])) for row in csv.splitlines()[1:])
        assert math.isfinite(evaluation.mean_return) and evaluation.mean_return > 1e307
        assert math.isfinite(evaluation.return_se)

    def test_unknown_curriculum_mode_rejected(self, synth_config):
        with pytest.raises(ConfigError, match="unknown curriculum mode"):
            run_training(synth_config(iterations=2), seed=1, curriculum_mode="spg")

    def test_csv_schema(self, synth_config):
        config = synth_config(iterations=4)
        result = run_training(config, seed=1)
        csv = records_to_csv(result.records, config.target.d)
        header = csv.splitlines()[0].split(",")
        assert header == [
            "iteration",
            "mean_return",
            "success_rate",
            "kl_to_target",
            "kl_step",
            "step_kind",
            "active_case",
            "mu_0",
            "mu_1",
            "theta_0",
            "theta_1",
        ]
        assert len(csv.splitlines()) == 1 + len(result.records)


class TestEvaluate:
    @staticmethod
    def point_mass(episodes):
        config = load_config(preset_path("point_mass_setup1"))
        return dataclasses.replace(config, eval_episodes=episodes)

    def test_single_episode_warns_zero_se(self):
        config = self.point_mass(1)
        env = config.make_environment()
        policy = init_policy(env.observation_dim, env.action_dim)
        with pytest.warns(RuntimeWarning, match="single-episode"):
            (result,) = evaluate_run(config, [policy], [0])
        assert result.return_se == 0.0 and result.success_se == 0.0

    def test_seeded_repeatability(self):
        config = self.point_mass(10)
        env = config.make_environment()
        policy = init_policy(env.observation_dim, env.action_dim)
        assert evaluate_run(config, [policy], [5]) == evaluate_run(config, [policy], [5])

    def test_success_rate_is_percentage(self, synth_config):
        config = dataclasses.replace(synth_config(iterations=5), eval_episodes=16)
        env = config.make_environment()
        policy = init_policy(env.observation_dim, env.action_dim)
        (result,) = evaluate_run(config, [policy], [1])
        assert result.success_rate == 100.0
        assert result.success_se == 0.0


# default and spgl runs on two seeds, stepped in lock-step
LOCKSTEP_RUNS = [("default", 0), ("spgl", 0), ("default", 1), ("spgl", 1)]


@pytest.fixture(scope="module")
def point_mass_short():
    config = load_config(preset_path("point_mass_setup1"))
    return dataclasses.replace(config, iterations=10)


@pytest.fixture(scope="module")
def runs_alone(point_mass_short):
    return {
        (mode, seed): run_training(point_mass_short, seed, curriculum_mode=mode)
        for mode, seed in LOCKSTEP_RUNS
    }


def run_bytes(config, result):
    """Everything a finished run hands on, as bytes."""
    return (
        records_to_csv(result.records, config.target.d).encode(),
        result.policy.weights.tobytes(),
        result.policy.log_action_noise.tobytes(),
        result.distribution.mu.tobytes(),
        result.distribution.theta.tobytes(),
        result.degenerate_updates,
        result.failed_updates,
    )


class TestLockStep:
    def test_each_run_equals_the_run_alone(self, point_mass_short, runs_alone):
        together = train_runs(point_mass_short, LOCKSTEP_RUNS)
        assert len(together) == len(LOCKSTEP_RUNS)
        for run, result in zip(LOCKSTEP_RUNS, together):
            alone = runs_alone[run]
            assert len(result.records) == point_mass_short.iterations
            assert run_bytes(point_mass_short, result) == run_bytes(point_mass_short, alone), run

    def test_batched_evaluation_equals_each_run_alone(self, point_mass_short, runs_alone):
        policies = [runs_alone[run].policy for run in LOCKSTEP_RUNS]
        seeds = [seed for _, seed in LOCKSTEP_RUNS]
        together = evaluate_run(point_mass_short, policies, seeds)
        for policy, seed, ev in zip(policies, seeds, together):
            (alone,) = evaluate_run(point_mass_short, [policy], [seed])
            assert ev == alone
        # a run's evaluation does not depend on its place in the batch
        assert evaluate_run(point_mass_short, policies[::-1], seeds[::-1]) == together[::-1]

    def test_failed_update_leaves_other_runs_unchanged(
        self, point_mass_short, runs_alone, monkeypatch
    ):
        real_update = spgl.harness.update
        calls = []

        def flaky_update(batch, curriculum):
            # the two spgl runs update in turn: call 5 is (spgl, 0) at iteration 3
            calls.append(batch)
            if len(calls) == 5:
                raise CurriculumError("no KKT case matched the scale subproblem")
            return real_update(batch, curriculum)

        monkeypatch.setattr(spgl.harness, "update", flaky_update)
        with pytest.warns(RuntimeWarning, match="iteration 3 of the spgl run with seed 0"):
            together = train_runs(point_mass_short, LOCKSTEP_RUNS)

        by_run = dict(zip(LOCKSTEP_RUNS, together))
        hit = by_run.pop(("spgl", 0))
        assert hit.failed_updates == 1 and hit.records[2].step_kind == "failed"
        alone = runs_alone[("spgl", 0)]
        assert records_to_csv(hit.records[:2], 3) == records_to_csv(alone.records[:2], 3)
        for run, result in by_run.items():
            assert run_bytes(point_mass_short, result) == run_bytes(
                point_mass_short, runs_alone[run]
            ), run

    def test_progress_sees_every_record_run_by_run(self, synth_config):
        config = synth_config(iterations=3)
        seen = []
        results = train_runs(config, [("spgl", 1), ("default", 2)], progress=seen.append)
        assert [r.iteration for r in seen] == [1, 1, 2, 2, 3, 3]
        assert seen[0::2] == list(results[0].records)
        assert seen[1::2] == list(results[1].records)

    def test_negative_seed_rejected(self, synth_config, tmp_path, capsys):
        with pytest.raises(ConfigError, match="non-negative integers, got -1"):
            train_runs(synth_config(iterations=2), [("spgl", -1)])
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        argv = ["train", "--config", str(config_path), "--seed", "-1", "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "curve.csv")]) == EXIT_CONFIG
        assert "non-negative integers" in capsys.readouterr().err

    def test_non_integer_seed_rejected(self, synth_config):
        with pytest.raises(ConfigError, match="non-negative integers, got 1.5"):
            train_runs(synth_config(iterations=2), [("default", 1.5)])

    def test_repeated_run_rejected(self, synth_config):
        # a repeated seed would train the same run twice and count it twice
        with pytest.raises(ConfigError, match="default run with seed 4 is requested more than once"):
            run_multi_seed(synth_config(iterations=2), [4, 4])

    def test_no_runs_rejected(self, synth_config, tmp_path):
        with pytest.raises(ConfigError, match="at least one run"):
            train_runs(synth_config(iterations=2), [])
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        out = tmp_path / "summary.csv"
        argv = ["train", "--config", str(config_path), "--seeds", ",", "--out", str(out)]
        assert main(argv + ["--quiet"]) == 1
        assert not out.exists()


class TestMultiSeed:
    def test_summary_has_p_value_against_spgl(self, synth_config):
        config = synth_config(iterations=10)
        summaries, records = run_multi_seed(config, seeds=[1, 2], modes=("default", "spgl"))
        by_mode = {s.curriculum: s for s in summaries}
        assert by_mode["spgl"].return_p_value is None
        assert by_mode["default"].return_p_value is not None
        assert 0.0 <= by_mode["default"].return_p_value <= 1.0
        assert ("spgl", 1) in records and ("default", 2) in records


class TestWelchPValue:
    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n1, n2 = rng.integers(2, 31, size=2)
            scale1, scale2 = 10.0 ** rng.uniform(-6.0, 6.0, size=2)
            shift = rng.choice([0.0, 1.0]) * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 7.0)
            a = rng.normal(0.0, scale1, n1)
            b = rng.normal(shift, scale2, n2)
            p = welch_p_value(a, b)
            reference = stats.ttest_ind(a, b, equal_var=False).pvalue
            assert 0.0 <= p <= 1.0
            if reference >= 1e-300:
                assert abs(p - reference) <= 1e-12 * reference, (a, b, p, reference)

    def test_near_one_matches_high_precision(self):
        # |t| from 1e-8 to 1, where forming 1 - x by subtraction costs up to
        # 3e-8 relative.  scipy is no reference here: at df = 1 its p-value
        # is off by up to 3e-10 relative.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        for _ in range(200):
            n1, n2 = rng.integers(2, 31, size=2)
            a = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 6.0), n1)
            b = rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 6.0), n2)
            a -= a.mean()
            b -= b.mean()
            b += np.sqrt(np.var(a, ddof=1) / n1 + np.var(b, ddof=1) / n2) * 10.0 ** rng.uniform(-8, 0)
            with mpmath.workdps(40):
                exact = [[mpmath.mpf(float(v)) for v in sample] for sample in (a, b)]
                means = [mpmath.fsum(s) / len(s) for s in exact]
                vns = [
                    mpmath.fsum((v - m) ** 2 for v in s) / (len(s) - 1) / len(s)
                    for s, m in zip(exact, means)
                ]
                df = (vns[0] + vns[1]) ** 2 / (vns[0] ** 2 / (n1 - 1) + vns[1] ** 2 / (n2 - 1))
                t2 = (means[0] - means[1]) ** 2 / (vns[0] + vns[1])
                reference = float(mpmath.betainc(df / 2, 0.5, 0, df / (df + t2), regularized=True))
            p = welch_p_value(a, b)
            assert abs(p - reference) <= 1e-12 * reference, (a, b, p, reference)

    def test_summary_golden_pair(self):
        # the final returns of tests/golden/point_mass_setup1_summary_it10.csv
        default = [0.36662163396827524, 0.422598098500737]
        spgl_returns = [0.2429643083690593, 0.2354674921239215]
        p = welch_p_value(default, spgl_returns)
        assert p == pytest.approx(0.10835104130899188, rel=1e-14)
        assert format(p, ".9g") == "0.108351041"

    def test_edge_cases(self):
        assert np.isnan(welch_p_value([2.0, 2.0, 2.0], [2.0, 2.0]))
        assert welch_p_value([1.0, 1.0], [2.0, 2.0, 2.0]) == 0.0
        assert np.isnan(welch_p_value([np.nan, 1.0], [2.0, 3.0]))
        assert welch_p_value([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 1.0
        assert welch_p_value([1e200, 1e200], [0.0, 1e-100]) == 0.0
        with pytest.raises(ValueError, match="at least two values"):
            welch_p_value([1.0], [2.0, 3.0])


class TestVerify:
    def test_healthy_suite_passes(self):
        report = verify(seed=0, instance_count=12, include_timing=False)
        assert report.passed
        assert report.oracle_max_param_error <= 1e-6
        assert report.fd_max_error <= 1e-4

    def test_perturbed_closed_forms_fail(self):
        # every closed form the oracle suite compares, moved by 1e-3
        # relative, fails against the oracle
        with perturbed_closed_forms(lambda x: x + 1e-3 * (1.0 + np.abs(x))):
            report = verify(seed=0, instance_count=6, include_timing=False)
        assert not report.passed
        labels = {f.split("[")[0] for f in report.failures}
        assert {"perf-mu", "perf-theta", "conv-mu", "conv-theta"} <= labels

    @pytest.mark.parametrize("block, label", [(0, "perf-mu["), (1, "perf-theta[")])
    def test_checks_the_shipped_performance_step(self, monkeypatch, block, label):
        real = spgl.verification.performance_step

        def perturbed(dist, stats, eps):
            out = list(real(dist, stats, eps))
            out[block] = out[block] + 1e-4 * (1.0 + np.abs(out[block]))
            return tuple(out)

        monkeypatch.setattr(spgl.verification, "performance_step", perturbed)
        report = verify(seed=0, instance_count=6, include_timing=False)
        assert not report.passed
        assert report.failures and all(f.startswith(label) for f in report.failures)

    @pytest.mark.parametrize("name", ["u_bar", "psi_bar", "omega"])
    def test_fd_suite_fails_on_a_wrong_statistic(self, monkeypatch, name):
        # this corrupts one statistic, which only its own finite
        # differences may catch
        real = spgl.verification.compute_stats

        def scaled(batch):
            stats = real(batch)
            return dataclasses.replace(stats, **{name: getattr(stats, name) * (1.0 + 1e-3)})

        monkeypatch.setattr(spgl.verification, "compute_stats", scaled)
        report = run_fd_suite(seed=1, instances=12)
        assert not report.passed
        assert all(f.startswith(f"fd-{name}[") for f in report.failures)


    def test_timing_takes_the_median_of_three_closed_form_calls(self, monkeypatch):
        # a closed-form update takes a fraction of a millisecond, so one
        # host stall must not decide the 10x bound: the first of each
        # update's three calls on its batch stalls for 50 ms, longer than
        # the exact solve, yet the report passes on the median of the three,
        # and the next update starts from the first call's result
        real = spgl.verification.update
        calls = []

        def stalled(batch, config):
            start = time.perf_counter()
            if len(calls) % 3 == 0:
                time.sleep(0.05)
            result = real(batch, config)
            calls.append((batch, result, time.perf_counter() - start))
            return result

        monkeypatch.setattr(spgl.verification, "update", stalled)
        report = run_timing_suite(10, updates=2)
        assert report.passed, report.failures
        assert len(calls) == 6
        assert calls[0][0] is calls[1][0] is calls[2][0]
        assert calls[3][0].source_distribution is calls[0][1][0]
        medians = [sorted(c[2] for c in calls[i : i + 3])[1] for i in (0, 3)]
        assert sum(medians) / 2 <= report.closed_form_seconds < 0.01


class TestCli:
    def test_train_and_eval_roundtrip(self, tmp_path, synth_config, capsys):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=10))
        out = tmp_path / "curve.csv"
        policy_path = tmp_path / "policy.npz"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--save-policy",
                str(policy_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert out.exists() and policy_path.exists()
        assert out.read_text().startswith("iteration,")

        code = main(
            ["eval", "--config", str(config_path), "--policy", str(policy_path), "--episodes", "4"]
        )
        assert code == 0
        assert "success" in capsys.readouterr().out

    def test_saved_policy_without_suffix_evaluates(self, tmp_path, capsys):
        # np.savez appends ".npz" to a file name, so eval found no file
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        policy_path = tmp_path / "mypolicy"
        argv = ["--config", str(config_path), "--quiet"]
        saved = ["--out", str(tmp_path / "c.csv"), "--save-policy", str(policy_path)]
        assert main(["train", *argv, *saved]) == 0
        assert policy_path.exists() and not policy_path.with_suffix(".npz").exists()
        assert main(["eval", *argv, "--policy", str(policy_path), "--episodes", "4"]) == 0
        assert "success" in capsys.readouterr().out

    def test_train_multi_seed_writes_summary(self, tmp_path):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=8))
        out = tmp_path / "summary.csv"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--seeds",
                "1,2",
                "--compare",
                "default,spgl",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("curriculum,")
        assert "spgl" in text and "default" in text

    def test_multi_seed_curves_equal_single_runs(self, tmp_path):
        # the per-run curves of a multi-seed comparison are the curves of
        # the same (curriculum, seed) trained alone, byte for byte
        config_path = tmp_path / "pm.ini"
        preset = preset_path("point_mass_setup1").read_text()
        config_path.write_text(
            preset.replace("iterations = 600", "iterations = 4").replace(
                "episodes = 50", "episodes = 4"
            )
        )
        out = tmp_path / "summary.csv"
        argv = ["train", "--config", str(config_path), "--quiet"]
        assert main(argv + ["--seeds", "0,1", "--compare", "default,spgl", "--out", str(out)]) == 0
        for mode in ("default", "spgl"):
            for seed in (0, 1):
                single = tmp_path / f"single_{mode}_{seed}.csv"
                run_argv = ["--seed", str(seed), "--curriculum", mode, "--out", str(single)]
                assert main(argv + run_argv) == 0
                curve = tmp_path / f"summary_{mode}_seed{seed}.csv"
                assert curve.read_bytes() == single.read_bytes()
                assert len(curve.read_text().splitlines()) == 1 + 4

    def test_warnings_as_errors_flags_failed_updates(self, tmp_path, monkeypatch, capsys):
        def failing_update(*args):
            raise CurriculumError("no KKT case matched the mean subproblem")

        monkeypatch.setattr(spgl.harness, "update", failing_update)
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=3))
        out = tmp_path / "curve.csv"
        argv = ["train", "--config", str(config_path), "--out", str(out), "--quiet"]
        with pytest.warns(RuntimeWarning, match="curriculum update failed"):
            assert main(argv) == 0
            assert main(argv + ["--warnings-as-errors"]) == EXIT_WARNINGS
        assert "3 failed" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 and all(",failed,-," in row for row in rows)

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.ini"), "--quiet"])
        assert code == 1

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "latin1.ini"
        text = SYNTH_CONFIG.format(iterations=2).replace("harness_test", "caf\xe9")
        config_path.write_bytes(text.encode("latin-1"))
        assert main(["train", "--config", str(config_path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "not UTF-8" in err

    def test_eval_policy_directory_is_a_file_error(self, tmp_path, capsys):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        argv = ["eval", "--config", str(config_path), "--policy", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "Traceback" not in err

    @staticmethod
    def forbid_training(monkeypatch):
        # an output path that cannot be written fails before any training
        def no_run(*args, **kwargs):
            raise AssertionError("trained before checking the output paths")

        monkeypatch.setattr(spgl.cli, "run_training", no_run)
        monkeypatch.setattr(spgl.cli, "run_multi_seed", no_run)

    def test_train_out_directory_is_a_file_error(self, tmp_path, capsys, monkeypatch):
        self.forbid_training(monkeypatch)
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        argv = ["train", "--config", str(config_path), "--out", str(tmp_path), "--quiet"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--out", "{tmp}/missing/c.csv"],
            ["--out", "{tmp}/c.csv", "--save-policy", "{tmp}"],
            ["--out", "{tmp}/c.csv", "--save-policy", "{tmp}/missing/p.npz"],
            ["--seeds", "0,1", "--out", "{tmp}"],
            ["--seeds", "0,1", "--out", "{tmp}/missing/s.csv"],
        ],
        ids=[
            "out-in-missing-dir",
            "policy-dir",
            "policy-in-missing-dir",
            "summary-dir",
            "summary-in-missing-dir",
        ],
    )
    def test_unwritable_output_fails_before_training(self, tmp_path, capsys, monkeypatch, flags):
        self.forbid_training(monkeypatch)
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main(["train", "--config", str(config_path), "--quiet", *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()

    def test_eval_negative_seed_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        policy_path = tmp_path / "policy.npz"
        argv = ["--config", str(config_path), "--quiet"]
        saved = ["--out", str(tmp_path / "c.csv"), "--save-policy", str(policy_path)]
        assert main(["train", *argv, *saved]) == 0
        code = main(["eval", *argv, "--policy", str(policy_path), "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "non-negative integers, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_eval_episodes_below_one_is_a_config_error(self, tmp_path, capsys, episodes):
        # --episodes 0 used to run the config's episode count, -2 to die in
        # a ValueError traceback
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=2))
        policy_path = tmp_path / "policy.npz"
        argv = ["--config", str(config_path), "--quiet"]
        saved = ["--out", str(tmp_path / "c.csv"), "--save-policy", str(policy_path)]
        assert main(["train", *argv, *saved]) == 0
        code = main(["eval", *argv, "--policy", str(policy_path), "--episodes", episodes])
        assert code == EXIT_CONFIG
        assert f"--episodes must be >= 1, got {episodes}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights, message",
        [
            # a synthetic-task policy has no actions; it used to die in a
            # NumPy matmul traceback on the point mass
            (np.zeros((0, 1)), "shape (0, 1), the environment needs (2, 15)"),
            (np.full((2, 15), np.nan), "policy parameters must be finite"),
        ],
    )
    def test_eval_unusable_policy_is_a_config_error(self, tmp_path, capsys, weights, message):
        policy_path = tmp_path / "policy.npz"
        np.savez(policy_path, weights=weights, log_action_noise=np.zeros(len(weights)))
        code = main(
            ["eval", "--config", "point_mass_setup1", "--policy", str(policy_path), "--episodes", "2"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: policy ") and message in err

    @pytest.mark.parametrize(
        "weights, log_noise",
        [
            # three noise entries for two actions used to evaluate silently
            (np.zeros((2, 15)), np.zeros(3)),
            (np.zeros(15), np.zeros(15)),
        ],
    )
    def test_eval_policy_of_mismatched_shapes_is_a_config_error(
        self, tmp_path, capsys, weights, log_noise
    ):
        policy_path = tmp_path / "policy.npz"
        np.savez(policy_path, weights=weights, log_action_noise=log_noise)
        code = main(
            ["eval", "--config", "point_mass_setup1", "--policy", str(policy_path), "--episodes", "2"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: policy {policy_path}: ")
        assert "need shape (A, F) and log_action_noise shape (A,)" in err

    @pytest.mark.parametrize(
        "name, save, message",
        [
            # these used to die in KeyError and TypeError tracebacks
            ("policy.npz", lambda p: np.savez(p, w=np.zeros((2, 15))), "no weights or log_action"),
            ("policy.npy", lambda p: np.save(p, np.zeros((2, 15))), "not an .npz archive"),
        ],
    )
    def test_eval_policy_without_its_arrays_is_a_config_error(
        self, tmp_path, capsys, name, save, message
    ):
        policy_path = tmp_path / name
        save(policy_path)
        code = main(
            ["eval", "--config", "point_mass_setup1", "--policy", str(policy_path), "--episodes", "2"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: policy {policy_path}: ") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each used to die in a traceback
            (["train", "--config", "synthetic_convergence", "--seeds", "0,x"], "--seeds must be"),
            (["verify", "--instances", "0"], "instance_count must be >= 1, got 0"),
            (["verify", "--timing-updates", "0"], "timing_updates must be >= 1, got 0"),
            (["verify", "--seed", "-1"], "non-negative integers, got -1"),
            # used to be ignored without --seeds
            (["train", "--config", "synthetic_convergence", "--compare", "spgl"], "--compare needs --seeds"),
        ],
    )
    def test_bad_arguments_are_config_errors(self, capsys, argv, message):
        assert main(argv + ["--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "0"], ["--curriculum", "spgl"], ["--save-policy", "p.npz"], ["--warnings-as-errors"]],
        ids=["seed", "curriculum", "save-policy", "warnings-as-errors"],
    )
    def test_single_run_flags_rejected_with_seeds(self, tmp_path, capsys, flags):
        # a multi-seed comparison used to ignore each of these silently, so
        # --warnings-as-errors exited 0 even after failed updates
        out = tmp_path / "summary.csv"
        argv = ["train", "--config", "synthetic_convergence", "--seeds", "0,1", "--out", str(out)]
        assert main(argv + flags + ["--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"{flags[0]} cannot be combined with --seeds" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify(0, instance_count=0),
            lambda: verify(0, timing_updates=0),
            lambda: verify(-1),
            lambda: run_timing_suite(0, updates=0),
        ],
        ids=["instances", "timing-updates", "seed", "timing-suite"],
    )
    def test_library_rejects_bad_verify_arguments(self, call):
        with pytest.raises(ValueError):
            call()

    def test_import_leaves_scipy_unloaded(self):
        # scipy.stats took about 1.1 s of every process's start-up
        env = {**os.environ, "PYTHONPATH": str(Path(spgl.__file__).parents[1])}
        code = (
            "import sys, spgl, spgl.cli, spgl.config, spgl.harness\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
        run = subprocess.run([sys.executable, "-m", "spgl.cli", "--help"], capture_output=True, env=env)
        assert run.returncode == 0, run.stderr

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--instances", "6", "--no-timing", "--quiet"]) == 0
        with perturbed_closed_forms(lambda x: x + 1e-3 * (1.0 + np.abs(x))):
            assert main(["verify", "--instances", "4", "--no-timing", "--quiet"]) == 2

    def test_verify_fails_on_nan(self, capsys):
        # a nan error fails its check and stays in the reported maximum
        with perturbed_closed_forms(lambda x: np.full_like(x, np.nan)):
            assert main(["verify", "--instances", "3", "--no-timing"]) == 2
        out = capsys.readouterr().out
        assert "max parameter error nan" in out
        assert "all verification suites passed" not in out

    def test_deterministic_csv_across_cli_runs(self, tmp_path):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=10))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["train", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
