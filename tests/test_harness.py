"""Harness tests: config parsing and presets, training-loop contracts
(record counts, default-mode identities, byte-identical determinism),
evaluation statistics, verification wiring and the CLI surface."""

import numpy as np
import pytest

from spgl.cli import main
from spgl.config import ConfigError, available_presets, load_config, preset_path
from spgl.harness import evaluate, records_to_csv, run_multi_seed, run_training, verify
from spgl.envs import PointMassEnv
from spgl.gaussian import TargetSpec
from spgl.learner import init_policy


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
update_period = {period}

[evaluation]
episodes = 8
"""


@pytest.fixture
def synth_config(tmp_path):
    def build(iterations=20, period=1):
        path = tmp_path / "synth.ini"
        path.write_text(SYNTH_CONFIG.format(iterations=iterations, period=period))
        return load_config(path)

    return build


class TestConfig:
    def test_presets_ship_and_parse(self):
        names = available_presets()
        assert "point_mass_setup1.ini" in names
        assert "synthetic_convergence.ini" in names
        for name in ("point_mass_setup1", "point_mass_setup2", "synthetic_convergence"):
            config = load_config(preset_path(name))
            assert config.runnable

    def test_setup1_preset_parameters(self):
        config = load_config(preset_path("point_mass_setup1"))
        assert np.allclose(config.target.mu_tilde, [2.6, 0.7, 0.1])
        assert np.allclose(config.target.sigma_tilde_diag, [9e-4, 4e-4, 1e-4])
        assert np.allclose(config.initial_mu, [0, 4, 2])
        assert np.allclose(config.initial_theta, [4, 3.5, 1])
        assert config.curriculum.v_lower == 5.0
        assert not config.learner.context_visible

    def test_setup2_is_visible_context(self):
        config = load_config(preset_path("point_mass_setup2"))
        assert config.learner.context_visible
        assert np.allclose(config.target.mu_tilde, [2.5, 0.7, 0.1])

    def test_unrunnable_presets_load_but_refuse_to_run(self):
        for name in ("lunar_lander", "ball_catching"):
            config = load_config(preset_path(name))
            assert not config.runnable
            with pytest.raises(ConfigError):
                run_training(config, seed=0)

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

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
    def test_record_count_matches_period(self, synth_config):
        config = synth_config(iterations=20, period=3)
        result = run_training(config, seed=1)
        assert len(result.records) == 20 // 3
        iterations = [r.iteration for r in result.records]
        assert iterations == sorted(iterations)

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
    def test_single_episode_warns_zero_se(self):
        env = PointMassEnv()
        policy = init_policy(env.observation_dim, env.action_dim)
        target = TargetSpec(mu_tilde=np.array([0.0, 4.0, 0.0]), sigma_tilde_diag=np.full(3, 1e-4))
        with pytest.warns(RuntimeWarning):
            result = evaluate(policy, target, env, 1, np.random.default_rng(0))
        assert result.return_se == 0.0 and result.success_se == 0.0

    def test_seeded_repeatability(self):
        env = PointMassEnv()
        policy = init_policy(env.observation_dim, env.action_dim)
        target = TargetSpec(mu_tilde=np.array([0.0, 4.0, 0.0]), sigma_tilde_diag=np.full(3, 1e-4))
        a = evaluate(policy, target, env, 10, np.random.default_rng(5))
        b = evaluate(policy, target, env, 10, np.random.default_rng(5))
        assert a == b

    def test_success_rate_is_percentage(self, synth_config):
        config = synth_config(iterations=5)
        env = config.make_environment()
        policy = init_policy(env.observation_dim, env.action_dim)
        result = evaluate(policy, config.target, env, 16, np.random.default_rng(1))
        assert result.success_rate == 100.0
        assert result.success_se == 0.0


class TestMultiSeed:
    def test_summary_has_p_value_against_spgl(self, synth_config):
        config = synth_config(iterations=10)
        summaries, records = run_multi_seed(config, seeds=[1, 2], modes=("default", "spgl"))
        by_mode = {s.curriculum: s for s in summaries}
        assert by_mode["spgl"].return_p_value is None
        assert by_mode["default"].return_p_value is not None
        assert 0.0 <= by_mode["default"].return_p_value <= 1.0
        assert ("spgl", 1) in records and ("default", 2) in records


class TestVerify:
    def test_healthy_suite_passes(self):
        report = verify(seed=0, instance_count=12, include_timing=False)
        assert report.passed
        assert report.oracle_max_param_error <= 1e-6
        assert report.fd_max_error <= 1e-4

    def test_perturbed_closed_forms_fail(self):
        report = verify(seed=0, instance_count=6, perturb=1e-3, include_timing=False)
        assert not report.passed


class TestCli:
    def test_train_and_eval_roundtrip(self, tmp_path, synth_config, capsys):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=10, period=1))
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

    def test_train_multi_seed_writes_summary(self, tmp_path):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=8, period=1))
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

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.ini"), "--quiet"])
        assert code == 1

    def test_unrunnable_preset_exit_code(self, capsys):
        code = main(["train", "--config", "lunar_lander", "--quiet"])
        assert code == 1
        assert "not runnable" in capsys.readouterr().err

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--instances", "6", "--no-timing", "--quiet"]) == 0
        assert (
            main(["verify", "--instances", "4", "--no-timing", "--perturb", "1e-3", "--quiet"])
            == 2
        )

    def test_deterministic_csv_across_cli_runs(self, tmp_path):
        config_path = tmp_path / "synth.ini"
        config_path.write_text(SYNTH_CONFIG.format(iterations=10, period=1))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["train", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
