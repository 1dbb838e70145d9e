"""Learner tests: batched rollout determinism and identities, the noise
stream and the summed score terms against a step-by-step reference loop,
the policy gradient against the per-episode formula over step histories and
finite differences, and a learning smoke test on easy point-mass contexts."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spgl.config import load_config, preset_path
from spgl.envs import PointMassEnv, SyntheticEnv
from spgl.harness import evaluate_run
from spgl.learner import (
    GRAD_CLIP,
    NOISE_MIN,
    GAMMA,
    LEARNING_RATE,
    Episodes,
    PolicyParameters,
    collect_rollouts,
    feature_dim,
    improve,
    init_policy,
    load_policy,
    policy_features,
    save_policy,
)


EASY = np.array([0.0, 4.0, 0.0])


def collect_one(policy, env, contexts, master_seed, iteration, **kwargs):
    """The episodes of one run collected alone."""
    contexts = np.asarray(contexts, dtype=float)[None]
    return collect_rollouts([policy], env, contexts, [master_seed], iteration, **kwargs)[0]


def make_policy(env, scale=0.0, seed=0):
    policy = init_policy(env.observation_dim, env.action_dim)
    if scale:
        rng = np.random.default_rng(seed)
        policy = type(policy)(
            weights=rng.normal(0.0, scale, policy.weights.shape),
            log_action_noise=policy.log_action_noise,
        )
    return policy


def documented_draws(seed, iteration, k, env):
    """The standard normals of a run's episodes as documented: one
    ``(K, T, A)`` draw from ``default_rng([seed, iteration, 1])``, row ``i``
    for episode ``i``."""
    shape = (k, env.horizon, env.action_dim)
    return np.random.default_rng([seed, iteration, 1]).standard_normal(shape)


@dataclasses.dataclass
class History:
    """One run stepped by :func:`reference_rollout`: per episode and step
    the features, mean and executed actions, score ``(a - m) / sigma^2``
    and whether the episode was alive; every history is zero where it was
    not."""

    values: np.ndarray
    successes: np.ndarray
    lengths: np.ndarray
    features: np.ndarray
    means: np.ndarray
    actions: np.ndarray
    score: np.ndarray
    alive: np.ndarray


def reference_rollout(policy, env, contexts, draws=None):
    """One run stepped alone with the standard normals ``draws`` (the mean
    action when ``None``), recording every step: the loop that
    :func:`collect_rollouts` must match, with a ``(K, F) @ (F, A)`` mean
    product per step and the score taken as the scaled noise over the
    variance."""
    contexts = np.asarray(contexts, dtype=float)
    k, horizon, action_dim = len(contexts), env.horizon, env.action_dim
    n_features = feature_dim(env.observation_dim)
    noise = None if draws is None else policy.action_noise * draws
    var = policy.action_noise**2
    features = np.zeros((k, horizon, n_features))
    means = np.zeros((k, horizon, action_dim))
    actions = np.zeros_like(means)
    score = np.zeros_like(means)
    alive = np.zeros((k, horizon), dtype=bool)
    values = np.zeros(k)
    lengths = np.zeros(k, dtype=int)
    successes = np.zeros(k, dtype=bool)
    live = np.ones(k, dtype=bool)
    state = env.reset(contexts)
    discount = 1.0
    feats = np.empty((k, n_features))
    for t in range(horizon):
        policy_features(env.observe(state), out=feats)
        mean = feats @ policy.weights.T
        action = mean if noise is None else mean + noise[:, t]
        alive[:, t] = live
        features[live, t], means[live, t], actions[live, t] = feats[live], mean[live], action[live]
        if noise is not None:
            score[live, t] = noise[live, t] / var
        state, rewards, terminated, success = env.step(state, action.T, t)
        values[live] += rewards[live] * discount
        lengths += live
        successes |= live & success
        live &= ~terminated
        if not live.any():
            break
        discount *= GAMMA
    return History(values, successes, lengths, features, means, actions, score, alive)


def summed(history):
    """The score terms of ``history`` added up step by step over live
    steps, as ``(K, A, F)``."""
    k, horizon, action_dim = history.score.shape
    sums = np.zeros((k, action_dim, history.features.shape[2]))
    for t in range(horizon):
        live = history.alive[:, t]
        sums[live] += history.score[live, t, :, None] * history.features[live, t, None, :]
    return sums


def episodes_of(history, contexts):
    """The :class:`Episodes` of a noisy ``history``."""
    return Episodes(
        contexts, history.values, history.successes, history.lengths, summed(history)
    )


def history_gradient(policy, history):
    """The policy gradient as one matrix product over the step histories,
    features, actions and means, zero past each episode's length."""
    advantages = history.values - float(np.mean(history.values))
    score = (history.actions - history.means) / policy.action_noise**2
    score *= advantages[:, None, None]
    n_features = history.features.shape[-1]
    grad = score.reshape(-1, score.shape[-1]).T @ history.features.reshape(-1, n_features)
    return grad / len(advantages)


def reference_improve(policy, history):
    """The policy-gradient step as one term per episode, added in episode
    order to a zero gradient: the definition :func:`improve` must match to
    rounding."""
    advantages = history.values - float(np.mean(history.values))
    var = policy.action_noise**2
    grad = np.zeros_like(policy.weights)
    for adv, feats, actions, means, n in zip(
        advantages, history.features, history.actions, history.means, history.lengths
    ):
        score = (actions[:n] - means[:n]) / var
        grad += adv * score.T @ feats[:n]
    grad /= len(advantages)
    if not np.all(np.isfinite(grad)):
        warnings.warn("non-finite policy gradient; step skipped", RuntimeWarning)
        return policy
    norm = float(np.linalg.norm(grad))
    if norm > GRAD_CLIP:
        grad *= GRAD_CLIP / norm
    return dataclasses.replace(policy, weights=policy.weights + LEARNING_RATE * grad)


def random_history(rng, lengths, policy, horizon=30, scale=1.0):
    """A history with random features and actions, zero past ``lengths``,
    whose mean actions are those of ``policy``, as if it had collected it."""
    lengths = np.asarray(lengths)
    k = len(lengths)
    action_dim, n_features = policy.weights.shape
    alive = np.arange(horizon) < lengths[:, None]
    features = rng.normal(0.0, 1.0, (k, horizon, n_features)) * alive[:, :, None]
    features[:, :, 0] = alive
    actions = rng.normal(0.0, 1.0, (k, horizon, action_dim)) * alive[:, :, None]
    means = features @ policy.weights.T
    return History(
        values=scale * rng.normal(0.0, 1.0, k),
        successes=np.zeros(k, dtype=bool),
        lengths=lengths,
        features=features,
        means=means,
        actions=actions,
        score=(actions - means) / policy.action_noise**2,
        alive=alive,
    )


EPISODE_FIELDS = [field.name for field in dataclasses.fields(Episodes)]


def assert_same_episodes(a, b):
    """Every field of two :class:`Episodes`, byte for byte."""
    for name in EPISODE_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_matches_reference(policy, env, contexts, seed, iteration, episodes):
    """``episodes`` are the reference loop's for the documented draws,
    byte for byte, sums included."""
    draws = documented_draws(seed, iteration, len(contexts), env)
    history = reference_rollout(policy, env, contexts, draws)
    assert_same_episodes(episodes, episodes_of(history, np.asarray(contexts, dtype=float)))
    return history


class TestRollout:
    def test_synthetic_value_is_exact(self):
        env = SyntheticEnv(difficulty_center=np.zeros(2), width=1.0)
        policy = make_policy(env)
        contexts = np.random.default_rng(0).normal(0.0, 1.5, (16, 2))
        episodes = collect_one(policy, env, contexts, 0, 0)
        for c, v, ok in zip(contexts, episodes.values, episodes.successes):
            assert v == env.peak * np.exp(-np.sum(c**2) / (2.0 * env.width**2))
            assert ok == (v >= env.success_threshold)
        assert np.array_equal(episodes.lengths, np.ones(16, dtype=int))
        assert episodes.score_features is None

    def test_two_step_return_is_discounted_by_gamma(self):
        # with a horizon of two the value is the first reward plus GAMMA
        # times the second, replayed from the reference loop's actions
        env = PointMassEnv()
        env.horizon = 2
        policy = make_policy(env, scale=0.1)
        contexts = np.array([EASY, [1.0, 2.0, 0.3]])
        episodes = collect_one(policy, env, contexts, 1, 0)
        history = assert_matches_reference(policy, env, contexts, 1, 0, episodes)
        assert np.array_equal(episodes.lengths, [2, 2])
        state, first, _, _ = env.step(env.reset(contexts), history.actions[:, 0].T, 0)
        _, second, _, _ = env.step(state, history.actions[:, 1].T, 1)
        assert np.array_equal(episodes.values, first + GAMMA * second)

    def test_seeded_repeatability(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.1)
        contexts = np.array([EASY, EASY])
        a = collect_one(policy, env, contexts, master_seed=7, iteration=0)
        b = collect_one(policy, env, contexts, master_seed=7, iteration=0)
        c = collect_one(policy, env, contexts, master_seed=8, iteration=0)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.score_features, b.score_features)
        # each row draws its own noise, and the seed changes it
        assert not np.array_equal(a.score_features[0], a.score_features[1])
        assert not np.array_equal(a.score_features, c.score_features)

    def test_collect_matches_prefix_batches(self):
        # row i of a K-batch equals row i of the batch of its first i + 1
        # contexts; feats @ W.T may round differently with K, never more
        env = PointMassEnv()
        policy = make_policy(env, scale=0.1)
        contexts = np.array([EASY, [1.0, 2.0, 0.3], [-1.0, 1.0, 0.1], [2.5, 0.7, 0.1]])
        full = collect_one(policy, env, contexts, master_seed=5, iteration=3)
        for i in range(len(contexts)):
            prefix = collect_one(policy, env, contexts[: i + 1], 5, 3)
            assert prefix.values[i] == pytest.approx(full.values[i], rel=1e-9)
            assert prefix.lengths[i] == full.lengths[i]
            assert prefix.successes[i] == full.successes[i]
            assert np.allclose(prefix.score_features[i], full.score_features[i], atol=1e-9)

    def test_run_blocks_match_runs_alone(self):
        # block r of an R-run call equals run r collected alone, bit for bit,
        # with a different policy, seed and context set per run; the second
        # seed list mixes one- and two-word seeds
        env = PointMassEnv()
        rng = np.random.default_rng(11)
        policies = [make_policy(env, scale=0.3, seed=s) for s in range(3)]
        contexts = np.stack(
            [rng.uniform([-3.0, 0.0, 0.0], [3.0, 3.0, 1.0], (6, 3)) for _ in range(3)]
        )
        contexts[1, :] = EASY
        # run 0 pushes hard toward a narrow gate at the far right: it crashes
        weights = policies[0].weights.copy()
        weights[1, 0] = -10.0
        policies[0] = type(policies[0])(weights, policies[0].log_action_noise)
        contexts[0, :, :2] = [3.5, 0.1]
        for seeds in ([4, 9, 4], [0, 2**40 + 3, 0]):
            together = collect_rollouts(policies, env, contexts, seeds, 2)
            assert len(together) == 3
            assert together[0].lengths.max() < env.horizon == together[1].lengths.max()
            for policy, ctx, seed, block in zip(policies, contexts, seeds, together):
                assert_same_episodes(block, collect_one(policy, env, ctx, seed, 2))

    @given(
        exit=st.sampled_from(["horizon", "staggered", "early"]),
        runs=st.integers(1, 4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        deterministic=st.booleans(),
        visible=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    @example(exit="horizon", runs=2, k=3, seed=0, deterministic=False, visible=False)
    @example(exit="staggered", runs=3, k=4, seed=1, deterministic=False, visible=True)
    @example(exit="early", runs=4, k=8, seed=2, deterministic=True, visible=False)
    def test_run_blocks_match_runs_alone_property(self, exit, runs, k, seed, deterministic, visible):
        # the three ways the loop ends: every row alive to the horizon, rows
        # finishing at different steps, every row done before the horizon;
        # seeds come from a pool of two, so runs share one noise draw
        assume(exit != "staggered" or runs * k > 1)
        env = PointMassEnv(context_visible=visible)
        rng = np.random.default_rng(seed)
        n_features = feature_dim(env.observation_dim)
        weights = rng.normal(0.0, 0.05, (runs, env.action_dim, n_features))
        log_noise = rng.uniform(-3.0, -1.0, (runs, env.action_dim))
        seeds = [int(s) for s in rng.choice(rng.integers(0, 2**40, 2), runs)]
        # wide gates around x = 0, and narrow gates far off it that crash
        wide = rng.uniform([-1.0, 2.5, 0.0], [1.0, 4.0, 0.5], (runs, k, 3))
        narrow = rng.uniform([2.5, 0.05, 0.0], [3.5, 0.2, 0.2], (runs, k, 3))
        narrow[..., 0] *= rng.choice([-1.0, 1.0], (runs, k))
        if exit == "horizon":
            # a policy that holds still never reaches the wall
            weights[:] = 0.0
            log_noise[:] = np.log(NOISE_MIN)
            contexts = np.where(rng.random((runs, k, 1)) < 0.5, wide, narrow)
        else:
            # push down hard: narrow gates crash, wide gates pass to the goal
            # or to the floor of the arena
            weights[:, 1, 0] -= 10.0
            contexts = narrow
            if exit == "staggered":
                contexts = np.where(rng.random((runs, k, 1)) < 0.5, wide, narrow)
                contexts[0, 0], contexts[-1, -1] = wide[0, 0], narrow[-1, -1]
        policies = [PolicyParameters(w, n) for w, n in zip(weights, log_noise)]

        together = collect_rollouts(policies, env, contexts, seeds, 4, deterministic)
        lengths = np.concatenate([block.lengths for block in together])
        if exit == "horizon":
            assert np.all(lengths == env.horizon)
        elif exit == "early":
            assert lengths.max() < env.horizon
        else:
            assert lengths.min() < lengths.max()
        for policy, ctx, seed_r, block in zip(policies, contexts, seeds, together):
            alone = collect_one(policy, env, ctx, seed_r, 4, deterministic=deterministic)
            assert_same_episodes(block, alone)
            if not deterministic:
                assert_matches_reference(policy, env, ctx, seed_r, 4, block)

    @pytest.mark.parametrize("preset", ["point_mass_setup1", "point_mass_setup2"])
    @pytest.mark.parametrize("runs", [1, 4, 10])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_sums_match_the_reference_loop(self, preset, runs, deterministic):
        # at the presets' K, every run of a lock-step call equals the
        # reference loop stepping that run alone, sums byte for byte, and
        # improve's gradient is the history formula's to rounding.  Run 0
        # steers home through wide gates, crashes into narrow gates off
        # centre and stalls to the horizon under heavy friction; the other
        # runs draw weights of any scale.  Deterministic rollouts sum
        # nothing and leave the policy unchanged
        config = load_config(preset_path(preset))
        env = config.make_environment()
        rng = np.random.default_rng([runs, deterministic])
        policies = [
            make_policy(env, scale=10.0 ** rng.uniform(-3.0, 1.0), seed=r) for r in range(runs)
        ]
        steering = rng.normal(0.0, 0.05, policies[0].weights.shape)
        steering[0, [1, 3]] += [-12.0, -15.0]
        steering[1, [0, 2, 4]] += [-9.0, -12.0, -15.0]
        policies[0] = PolicyParameters(steering, np.full(env.action_dim, -1.5))
        k = config.curriculum.k_contexts
        wide = rng.uniform([-1.0, 2.0, 0.0], [1.0, 6.0, 0.5], (runs, k, 3))
        narrow = rng.uniform([2.5, 0.05, 0.0], [3.8, 0.3, 0.2], (runs, k, 3))
        narrow[..., 0] *= rng.choice([-1.0, 1.0], (runs, k))
        sticky = rng.uniform([-1.0, 2.0, 20.0], [1.0, 6.0, 35.0], (runs, k, 3))
        contexts = np.choose(rng.integers(0, 3, (runs, k, 1)), [wide, narrow, sticky])
        seeds = [int(s) for s in rng.integers(0, 3, runs)]
        together = collect_rollouts(policies, env, contexts, seeds, 7, deterministic)
        first = together[0]
        assert np.any(first.successes)
        assert np.any((first.lengths < env.horizon) & ~first.successes)
        assert np.any((first.lengths == env.horizon) & ~first.successes)
        for policy, ctx, seed, episodes in zip(policies, contexts, seeds, together):
            if deterministic:
                history = reference_rollout(policy, env, ctx)
                assert episodes.score_features is None
                expected = Episodes(ctx, history.values, history.successes, history.lengths, None)
                assert_same_episodes(episodes, expected)
                assert improve(policy, episodes) is policy
                continue
            history = assert_matches_reference(policy, env, ctx, seed, 7, episodes)
            # improve reads the weights only to add its step, so from zero
            # weights it returns LEARNING_RATE times the clipped gradient
            zero = dataclasses.replace(policy, weights=np.zeros_like(policy.weights))
            step = improve(zero, episodes).weights
            grad = history_gradient(policy, history)
            norm = float(np.linalg.norm(grad))
            expected = LEARNING_RATE * grad * min(1.0, GRAD_CLIP / norm)
            assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("iteration", [0, 5, 10_000])
    def test_noise_is_the_documented_stream(self, iteration):
        # row i of run r is episode i of one (K, T, A) draw from
        # default_rng([seed_r, iteration, 1]), seeds of more than one 32-bit
        # word included: the sums are the reference loop's on those draws,
        # and not on the draws with episodes swapped
        env = PointMassEnv()
        seeds = [0, 7, 2**40 + 3]
        policy = make_policy(env, scale=0.1)
        contexts = np.array([EASY, [2.5, 0.1, 0.0], [-2.0, 0.2, 0.5], EASY])
        runs = collect_rollouts(
            [policy] * 3, env, np.stack([contexts] * 3), seeds, iteration
        )
        for seed, episodes in zip(seeds, runs):
            assert_matches_reference(policy, env, contexts, seed, iteration, episodes)
            swapped = documented_draws(seed, iteration, len(contexts), env)[[1, 0, 2, 3]]
            history = reference_rollout(policy, env, contexts, swapped)
            assert not np.array_equal(summed(history)[0], episodes.score_features[0])

    def test_runs_that_share_a_seed_share_one_draw(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.1)
        contexts = np.stack([np.array([EASY, [2.5, 0.1, 0.0]])] * 4)
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
            runs = collect_rollouts([policy] * 4, env, contexts, [4, 9, 4, 4], 3)
        assert [c.args[0] for c in rng.call_args_list] == [[4, 3, 1], [9, 3, 1]]
        assert_same_episodes(runs[0], runs[3])

    def test_noise_differs_from_the_evaluation_context_stream(self):
        # SeedSequence pads keys with zeros, so an untagged key [seed, 10_000]
        # would replay the stream the evaluation contexts are drawn from
        env = PointMassEnv()
        policy = make_policy(env)
        contexts = np.array([EASY, EASY])
        (episodes,) = collect_rollouts([policy], env, contexts[None], [3], 10_000)
        assert_matches_reference(policy, env, contexts, 3, 10_000, episodes)
        shape = (len(contexts), env.horizon, env.action_dim)
        context_draws = np.random.default_rng([3, 10_000]).standard_normal(shape)
        untagged = reference_rollout(policy, env, contexts, context_draws)
        assert not np.any(summed(untagged) == episodes.score_features)

    def test_policy_shape_is_checked(self):
        # a synthetic policy has no actions; the point mass needs (2, F)
        env = PointMassEnv()
        policy = init_policy(0, 0)
        with pytest.raises(ValueError, match=r"shape \(0, 1\), the environment needs \(2, 15\)"):
            collect_one(policy, env, np.array([EASY]), 0, 0)

    def test_stacked_shapes_are_checked(self):
        env = PointMassEnv()
        policy = make_policy(env)
        with pytest.raises(ValueError, match=r"\(R, K, d\)"):
            collect_rollouts([policy], env, np.array([EASY, EASY]), [0], 0)
        with pytest.raises(ValueError, match="R seeds"):
            collect_rollouts([policy], env, np.array([[EASY, EASY]]), [0, 1], 0)

    def test_collect_is_bit_reproducible(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.1)
        contexts = np.array([EASY, [1.0, 2.0, 0.3]])
        a = collect_one(policy, env, contexts, master_seed=9, iteration=1)
        b = collect_one(policy, env, contexts, master_seed=9, iteration=1)
        assert_same_episodes(a, b)

    def test_sums_stop_at_lengths(self):
        # rows that crash early add nothing after their last step, although
        # the loop keeps stepping them
        env = PointMassEnv()
        policy = make_policy(env, scale=0.3, seed=2)
        # a narrow, offset gate crashes some rows early
        contexts = np.array([EASY, [2.5, 0.1, 0.0], [-2.0, 0.2, 0.5], EASY])
        episodes = collect_one(policy, env, contexts, 3, 0)
        assert episodes.score_features.shape == (4, env.action_dim, 15)
        assert episodes.lengths.min() < env.horizon
        history = assert_matches_reference(policy, env, contexts, 3, 0, episodes)
        for alive, n in zip(history.alive, episodes.lengths):
            assert 1 <= n <= env.horizon
            assert np.array_equal(alive, np.arange(env.horizon) < n)

    def test_episode_bytes_do_not_grow_with_the_horizon(self):
        # nothing returned has a time axis: a policy that holds still runs
        # every episode to the horizon, T or 4T steps, in the same bytes
        sizes = []
        for horizon in (25, 100):
            env = PointMassEnv()
            env.horizon = horizon
            episodes = collect_one(make_policy(env), env, np.tile(EASY, (8, 1)), 0, 0)
            assert np.all(episodes.lengths == horizon)
            sizes.append(sum(getattr(episodes, name).nbytes for name in EPISODE_FIELDS))
        assert sizes[0] == sizes[1]

    def test_raw_contexts_are_kept(self):
        env = PointMassEnv()
        raw = np.array([[0.0, -1.0, -0.5], EASY])
        episodes = collect_one(make_policy(env), env, raw, 0, 0)
        assert np.array_equal(episodes.contexts, raw)

    def test_return_bounds(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.3)
        episodes = collect_one(policy, env, np.tile(EASY, (5, 1)), 0, 0)
        horizon = env.horizon
        upper = horizon * 1.0 + env.success_bonus
        lower = horizon * (-env.action_cost * 2 * env.action_limit**2) + env.crash_penalty
        assert np.all((lower <= episodes.values) & (episodes.values <= upper))


class TestImprove:
    CASES = ["equal", "distinct", "one_step", "mixed", "zero_advantages", "clipped"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_episode_reference(self, case):
        rng = np.random.default_rng(self.CASES.index(case))
        horizon = 30
        lengths = {
            "equal": np.full(16, horizon),
            "distinct": rng.permutation(np.arange(1, horizon + 1))[:20],
            "one_step": np.ones(12, dtype=int),
            "mixed": rng.integers(1, horizon + 1, 64),
            "zero_advantages": rng.integers(1, horizon + 1, 16),
            "clipped": rng.integers(1, horizon + 1, 16),
        }[case]
        for trial in range(50):
            scale = 100.0 if case == "clipped" else 1.0
            zero = init_policy(4, 2)
            policy = type(zero)(
                weights=rng.normal(0.0, 0.5, zero.weights.shape),
                log_action_noise=rng.normal(-0.5, 0.3, 2),
            )
            history = random_history(rng, lengths, policy, horizon, scale=scale)
            if case == "zero_advantages":
                history.values = np.full(len(lengths), -2.5)
            contexts = rng.normal(0.0, 1.0, (len(lengths), 3))
            new = improve(policy, episodes_of(history, contexts))
            ref = reference_improve(policy, history)
            assert np.allclose(new.weights, ref.weights, rtol=1e-12, atol=1e-12), trial
            if case == "clipped":
                step = np.linalg.norm(ref.weights - policy.weights) / LEARNING_RATE
                assert step == pytest.approx(GRAD_CLIP)
            if case == "zero_advantages":
                assert np.array_equal(new.weights, policy.weights)

    def test_matches_reference_on_collected_rollouts(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.3, seed=2)
        contexts = np.array([EASY, [2.5, 0.1, 0.0], [-2.0, 0.2, 0.5], EASY] * 4)
        for it in range(5):
            episodes = collect_one(policy, env, contexts, 3, it)
            history = assert_matches_reference(policy, env, contexts, 3, it, episodes)
            assert len(np.unique(episodes.lengths)) > 1
            new = improve(policy, episodes)
            ref = reference_improve(policy, history)
            assert np.allclose(new.weights, ref.weights, rtol=1e-12, atol=1e-12)
            policy = new

    def test_equal_returns_leave_parameters_unchanged(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.1)
        episodes = collect_one(policy, env, np.array([EASY, EASY]), 0, 0)
        # identical seeds per index differ, so force equal return estimates
        episodes = dataclasses.replace(episodes, values=np.ones(2))
        new_policy = improve(policy, episodes)
        assert np.allclose(new_policy.weights, policy.weights, atol=1e-12)

    def test_synthetic_env_leaves_parameters_unchanged(self):
        env = SyntheticEnv(difficulty_center=np.zeros(3), width=2.0)
        policy = make_policy(env)
        episodes = collect_one(
            policy, env, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0, 0
        )
        assert episodes.score_features is None
        assert improve(policy, episodes) is policy

    def test_gradient_matches_finite_differences(self):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.05)
        contexts = np.tile(EASY, (6, 1))
        episodes = collect_one(policy, env, contexts, 3, 0)
        history = assert_matches_reference(policy, env, contexts, 3, 0, episodes)
        baseline = float(np.mean(episodes.values))
        var = policy.action_noise**2

        def log_prob(weights, feats, actions):
            # reference Gaussian log density of the executed actions
            quad = np.sum((actions - feats @ weights.T) ** 2 / var, axis=-1)
            return -0.5 * quad - 0.5 * np.sum(np.log(2.0 * np.pi * var))

        def surrogate(weights):
            total = 0.0
            for value, feats, actions, n in zip(
                episodes.values, history.features, history.actions, episodes.lengths
            ):
                logp = log_prob(weights, feats[:n], actions[:n])
                total += (value - baseline) * float(np.sum(logp))
            return total / len(episodes.values)

        new_policy = improve(policy, episodes)
        step = new_policy.weights - policy.weights

        fd = np.zeros_like(policy.weights)
        h = 1e-6
        for i in range(fd.shape[0]):
            for j in range(fd.shape[1]):
                up = policy.weights.copy()
                down = policy.weights.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (surrogate(up) - surrogate(down)) / (2 * h)
        norm = np.linalg.norm(fd)
        if norm > 10.0:  # improve() clips at this global norm
            fd *= 10.0 / norm
        # the step is the clipped gradient times LEARNING_RATE
        assert np.linalg.norm(step / LEARNING_RATE - fd) <= 1e-3 * max(np.linalg.norm(fd), 1e-8)

    def test_learning_smoke_on_easy_contexts(self):
        # median over seeds of the mean return must grow by >= 10% after 50
        # policy-gradient steps on wide-gate contexts
        env = PointMassEnv()
        contexts = np.tile(EASY, (32, 1))
        gains = []
        for seed in range(5):
            policy = make_policy(env)
            first = last = None
            for it in range(50):
                episodes = collect_one(policy, env, contexts, seed, it)
                mean_return = float(np.mean(episodes.values))
                if first is None:
                    first = mean_return
                last = mean_return
                policy = improve(policy, episodes)
            gains.append(last / max(first, 1e-9))
        assert float(np.median(gains)) >= 1.10


class TestPolicyParameters:
    @pytest.mark.parametrize(
        "weights, log_noise",
        [
            # a noise vector longer than the action rows used to be accepted,
            # and a noisy rollout then died in a broadcast error
            (np.zeros((2, 15)), np.zeros(3)),
            (np.zeros((2, 15)), np.zeros(1)),
            (np.zeros((2, 15)), np.zeros((1, 2))),
            (np.zeros(15), np.zeros(1)),
            (np.zeros((1, 2, 15)), np.zeros(1)),
        ],
    )
    def test_shapes_are_checked(self, weights, log_noise):
        with pytest.raises(ValueError, match=r"need shape \(A, F\)"):
            PolicyParameters(weights, log_noise)

    def test_matching_shapes_are_accepted(self):
        for action_dim, n_features in [(2, 15), (0, 1)]:
            policy = PolicyParameters(np.zeros((action_dim, n_features)), np.zeros(action_dim))
            assert policy.action_noise.shape == (action_dim,)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        env = PointMassEnv()
        policy = make_policy(env, scale=0.2)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert np.array_equal(loaded.weights, policy.weights)
        assert np.array_equal(loaded.log_action_noise, policy.log_action_noise)

    def test_synthetic_policy_roundtrip_evaluates(self, tmp_path):
        # an analytic environment has no actions, so its policy is (0, 1)
        env = SyntheticEnv(difficulty_center=np.zeros(2), width=1.0)
        policy = make_policy(env)
        assert policy.weights.shape == (0, 1)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.weights.shape == (0, 1) and loaded.log_action_noise.shape == (0,)
        config = dataclasses.replace(
            load_config(preset_path("synthetic_convergence")), eval_episodes=8
        )
        (ev,) = evaluate_run(config, [loaded], [0])
        assert 0.0 < ev.mean_return <= env.peak
