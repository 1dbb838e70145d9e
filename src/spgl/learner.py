"""Minimal episodic policy-gradient learner.

A linear-Gaussian policy over polynomial features of the observation stands
in for a deep RL learner at desk scale: enough capacity for the point-mass
task, no extra dependencies, and fully deterministic given seeds.  One
likelihood-ratio gradient step of size :data:`LEARNING_RATE` with a
mean-return baseline is applied per batch; value estimates are plain Monte
Carlo returns discounted by :data:`GAMMA`.  Both are constants: every
experiment uses the same values, so neither is a setting.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Episodes",
    "PolicyParameters",
    "collect_rollouts",
    "feature_dim",
    "improve",
    "init_policy",
    "load_policy",
    "policy_features",
    "save_policy",
]

NOISE_MIN = 1e-3
# Exploration noise of a fresh policy, per action dimension; improve holds it fixed.
INITIAL_NOISE = 0.8
GRAD_CLIP = 10.0
# Discount of the Monte Carlo returns and the policy-gradient step size.
GAMMA = 0.99
LEARNING_RATE = 0.05


@dataclass(frozen=True)
class PolicyParameters:
    """Linear-Gaussian policy: action mean = weights @ features."""

    weights: np.ndarray
    log_action_noise: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        noise = np.maximum(np.asarray(self.log_action_noise, dtype=float), np.log(NOISE_MIN))
        if weights.ndim != 2 or noise.shape != weights.shape[:1]:
            raise ValueError(
                "policy weights need shape (A, F) and log_action_noise shape (A,), "
                f"got {weights.shape} and {noise.shape}"
            )
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(noise))):
            raise ValueError("policy parameters must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "log_action_noise", noise)

    @property
    def action_noise(self) -> np.ndarray:
        return np.exp(self.log_action_noise)


def feature_dim(observation_dim: int) -> int:
    """Number of polynomial features of degree <= 2."""
    return 1 + observation_dim + observation_dim * (observation_dim + 1) // 2


@functools.cache
def _upper_pairs(n: int):
    """Index pairs ``i <= j`` of the pairwise feature terms, built once per
    ``n`` and shared read-only."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def policy_features(observations: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Degree-<=2 polynomial features of ``(n, k)`` observations, one column
    per episode as ``observe`` returns them: constant, linear and pairwise
    terms, written into ``out`` of shape ``(k, F)``, which is returned."""
    obs = np.asarray(observations, dtype=float)
    n, k = obs.shape
    iu, ju = _upper_pairs(n)
    # built as contiguous rows of one (F, k) array, then transposed once
    columns = np.empty((out.shape[1], k))
    columns[0] = 1.0
    columns[1 : n + 1] = obs
    np.multiply(obs.take(iu, axis=0), obs.take(ju, axis=0), out=columns[n + 1 :])
    out[...] = columns.T
    return out


def init_policy(observation_dim: int, action_dim: int) -> PolicyParameters:
    """Zero-mean policy with isotropic exploration noise :data:`INITIAL_NOISE`."""
    return PolicyParameters(
        weights=np.zeros((action_dim, feature_dim(observation_dim))),
        log_action_noise=np.full(action_dim, np.log(INITIAL_NOISE)),
    )


def _rollout_noise(policies, master_seeds, iteration: int, k: int, horizon: int, action_dim: int):
    """Scaled exploration noise of every episode, laid out for the rollout
    loop: shape ``(T, A, R * K)``, so step ``t`` reads one contiguous
    ``(A, R * K)`` block.

    Run ``r`` draws ``standard_normal((K, T, A))`` from one generator,
    ``default_rng([master_seeds[r], iteration, 1])``; row ``i`` is episode
    ``i``, column ``r * K + i`` of the block.  Runs that share a seed share
    one draw, made once per call, which each scales by its own action
    noise.  The trailing ``1`` tags the noise streams: ``SeedSequence`` pads
    keys with zeros, so no noise key equals a context key such as
    ``[seed, 0]`` (training) or ``[seed, 10_000]`` (evaluation)."""
    noise = np.empty((horizon, action_dim, len(policies) * k))
    draws = {}
    for r, (policy, seed) in enumerate(zip(policies, master_seeds)):
        if seed not in draws:
            rng = np.random.default_rng([seed, iteration, 1])
            draws[seed] = rng.standard_normal((k, horizon, action_dim)).reshape(k, -1)
        # scale and transpose in one pass, as (T * A, K) rows
        np.multiply(
            draws[seed].T,
            np.tile(policy.action_noise, horizon)[:, None],
            out=noise.reshape(horizon * action_dim, len(policies) * k)[:, r * k : (r + 1) * k],
        )
    return noise


@dataclass(frozen=True)
class Episodes:
    """K episodes, one row each.

    Attributes:
        contexts: Raw context draws, shape ``(K, d)``; curriculum importance
            weights are defined against these, not the clamped ones.
        values: Discounted Monte Carlo returns, shape ``(K,)``.
        successes: Whether each episode ended in success, shape ``(K,)``.
        lengths: Steps taken per episode, shape ``(K,)``.
        features: Policy features per step, shape ``(K, T, F)``.
        actions: Executed actions per step, shape ``(K, T, A)``.
        means: The policy's mean actions per step, ``features @ weights.T``,
            shape ``(K, T, A)``; without noise (deterministic mode, or no
            action dimensions) the same memory as ``actions``.

    Histories are zero past ``lengths``.
    """

    contexts: np.ndarray
    values: np.ndarray
    successes: np.ndarray
    lengths: np.ndarray
    features: np.ndarray
    actions: np.ndarray
    means: np.ndarray


def collect_rollouts(
    policies,
    env,
    contexts: np.ndarray,
    master_seeds,
    iteration: int,
    deterministic: bool = False,
) -> list[Episodes]:
    """One episode per context for each of R runs, all ``R * K`` episodes
    stepped together until every one is done; returns one :class:`Episodes`
    per run.

    ``policies`` holds one policy per run, ``contexts`` has shape
    ``(R, K, d)`` and ``master_seeds`` one non-negative integer seed per run.
    Every policy's weights must have shape ``(A, F)`` for the environment's
    action dimension and feature count, else ``ValueError``.  Run ``r``
    draws the noise of all its episodes at once, ``(K, T, A)`` standard
    normals from ``default_rng([master_seeds[r], iteration, 1])``, row ``i``
    for episode ``i``; runs that share a seed share the draw, made once
    (see :func:`_rollout_noise`).  Each run's mean action is a
    ``(K, F) @ (F, A)`` matrix product as if the run were stepped alone, so
    a run's episodes do not depend on the other runs, the other rows of its
    batch or the execution order.  The executed action is the mean plus the
    scaled noise; both are kept, as ``actions`` and ``means``.  With
    ``deterministic`` the mean action is executed (evaluation mode), no
    noise is drawn and ``actions`` and ``means`` share one array.

    The environment sees one column-major batch: an ``(S, R * K)`` state,
    ``(n, R * K)`` observations and ``(A, R * K)`` actions, column
    ``r * K + i`` for episode ``i`` of run ``r``.  The histories are written
    in place each step, features as the rows the mean product reads, means
    as the rows it writes and actions as the rows whose transpose the
    environment steps.  Finished episodes keep being stepped, as columns
    never interact: their returns, lengths and successes are masked, their
    histories zeroed after the loop, so their states are never read.  While
    every episode is alive the masks are skipped.
    """
    contexts = np.asarray(contexts, dtype=float)
    if contexts.ndim != 3 or not len(policies) == len(master_seeds) == contexts.shape[0]:
        raise ValueError("collect_rollouts needs (R, K, d) contexts, R policies and R seeds")
    runs, k, d = contexts.shape
    rows = runs * k
    horizon = env.horizon
    action_dim = env.action_dim
    n_features = feature_dim(env.observation_dim)
    for policy in policies:
        if policy.weights.shape != (action_dim, n_features):
            raise ValueError(
                f"policy weights have shape {policy.weights.shape}, "
                f"the environment needs {(action_dim, n_features)}"
            )
    weights_t = np.stack([p.weights for p in policies]).transpose(0, 2, 1)
    noise = None
    if not deterministic and action_dim:
        noise = _rollout_noise(policies, master_seeds, iteration, k, horizon, action_dim)

    state = env.reset(contexts.reshape(rows, d))
    alive = np.ones(rows, dtype=bool)
    n_alive = rows
    values = np.zeros(rows)
    discount = 1.0
    lengths = np.zeros(rows, dtype=int)
    successes = np.zeros(rows, dtype=bool)
    feats_hist = np.zeros((runs, k, horizon, n_features))
    means_hist = np.zeros((runs, k, horizon, action_dim))
    actions_hist = means_hist if noise is None else np.zeros_like(means_hist)
    feats_rows = feats_hist.reshape(rows, horizon, n_features)
    means_rows = means_hist.reshape(rows, horizon, action_dim)
    actions_rows = actions_hist.reshape(rows, horizon, action_dim)

    # every row's histories are written at every step; the steps after a
    # row finished are zeroed once after the loop
    for t in range(horizon):
        policy_features(env.observe(state), out=feats_rows[:, t])
        np.matmul(feats_hist[:, :, t], weights_t, out=means_hist[:, :, t])
        actions = actions_rows[:, t].T
        if noise is not None:
            np.add(means_rows[:, t].T, noise[t], out=actions)
        state, rewards, terminated, success = env.step(state, actions, t)
        rewards *= discount
        if n_alive == rows:
            values += rewards
            lengths += 1
            successes |= success
        else:
            np.add(values, rewards, out=values, where=alive)
            lengths += alive
            successes |= alive & success
        alive &= ~terminated
        n_alive = np.count_nonzero(alive)
        if not n_alive:
            break
        discount *= GAMMA

    steps = lengths.max(initial=0)
    if np.any(lengths < steps):
        finished = np.arange(steps) >= lengths[:, None]
        feats_rows[:, :steps][finished] = 0.0
        means_rows[:, :steps][finished] = 0.0
        if noise is not None:
            actions_rows[:, :steps][finished] = 0.0

    def per_run(a):
        return a.reshape(runs, k)

    return [
        Episodes(*run)
        for run in zip(
            contexts,
            per_run(values),
            per_run(successes),
            per_run(lengths),
            feats_hist,
            actions_hist,
            means_hist,
        )
    ]


def improve(policy: PolicyParameters, episodes: Episodes) -> PolicyParameters:
    """One likelihood-ratio policy-gradient step with a mean-return baseline.

    ``episodes`` must have been collected with ``policy``: the score reads
    their recorded mean actions instead of recomputing
    ``features @ weights.T``.  At the point-mass presets' shapes the two
    are the same bits; at some other K, BLAS can round a row of the
    rollout's ``(K, F)`` product differently from the same row of a
    ``(T, F)`` product, so the step may differ from the recomputed one in
    the last bits.  Exploration noise is held fixed; only the mean weights
    move.  The gradient is one matrix product over every step of every
    episode: past an episode's length its features, actions and means are
    zero, so its score there is zero too.  Episodes without actions
    (analytic environments) leave the policy unchanged, and a non-finite
    gradient skips the step with a warning.
    """
    if episodes.actions.size == 0:
        return policy

    advantages = episodes.values - float(np.mean(episodes.values))
    var = policy.action_noise**2
    n_actions, n_features = policy.weights.shape
    feats = episodes.features
    score = episodes.actions - episodes.means
    # one column at a time: broadcasting over a last axis of length A runs
    # an A-long inner loop
    for j in range(n_actions):
        score[..., j] /= var[j]
    score *= advantages[:, None, None]
    grad = score.reshape(-1, n_actions).T @ feats.reshape(-1, n_features)
    grad /= len(advantages)
    if not np.all(np.isfinite(grad)):
        warnings.warn("non-finite policy gradient; step skipped", RuntimeWarning)
        return policy
    norm = float(np.linalg.norm(grad))
    if norm > GRAD_CLIP:
        grad *= GRAD_CLIP / norm
    return replace(policy, weights=policy.weights + LEARNING_RATE * grad)


def save_policy(policy: PolicyParameters, path) -> None:
    """Write ``policy`` as an ``.npz`` archive to exactly ``path``: given a
    name, ``np.savez`` would append ``.npz`` to one that lacks it."""
    with open(path, "wb") as file:
        np.savez(file, weights=policy.weights, log_action_noise=policy.log_action_noise)


def load_policy(path) -> PolicyParameters:
    """Read a policy written by :func:`save_policy`; a file that is not an
    ``.npz`` archive, or one without its ``weights`` or ``log_action_noise``,
    raises ``ValueError`` naming what is missing."""
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")
    with data:
        missing = [key for key in ("weights", "log_action_noise") if key not in data.files]
        if missing:
            raise ValueError(f"no {' or '.join(missing)} in the archive")
        return PolicyParameters(weights=data["weights"], log_action_noise=data["log_action_noise"])
