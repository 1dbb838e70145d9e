"""Minimal episodic policy-gradient learner.

A linear-Gaussian policy over polynomial features of the observation stands
in for a deep RL learner at desk scale: enough capacity for the point-mass
task, no extra dependencies, and fully deterministic given seeds.  One
likelihood-ratio gradient step with a mean-return baseline is applied per
batch; value estimates are plain discounted Monte Carlo returns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Episodes",
    "LearnerConfig",
    "PolicyParameters",
    "collect_rollouts",
    "feature_dim",
    "improve",
    "init_policy",
    "load_policy",
    "policy_features",
    "policy_log_prob",
    "save_policy",
]

NOISE_MIN = 1e-3
GRAD_CLIP = 10.0


@dataclass(frozen=True)
class LearnerConfig:
    """Learner hyper-parameters."""

    gamma: float = 0.99
    learning_rate: float = 0.05
    iterations_per_update: int = 1
    context_visible: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.iterations_per_update < 1:
            raise ValueError("iterations_per_update must be >= 1")


@dataclass(frozen=True)
class PolicyParameters:
    """Linear-Gaussian policy: action mean = weights @ features."""

    weights: np.ndarray
    log_action_noise: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        noise = np.maximum(np.asarray(self.log_action_noise, dtype=float), np.log(NOISE_MIN))
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


def policy_features(observations: np.ndarray) -> np.ndarray:
    """Degree-<=2 polynomial features of ``(k, n)`` observations: constant,
    linear and pairwise terms, shape ``(k, F)``."""
    obs = np.asarray(observations, dtype=float)
    k, n = obs.shape
    iu, ju = np.triu_indices(n)
    return np.concatenate([np.ones((k, 1)), obs, obs[:, iu] * obs[:, ju]], axis=1)


def init_policy(observation_dim: int, action_dim: int = 2, noise: float = 0.8) -> PolicyParameters:
    """Zero-mean policy with isotropic exploration noise."""
    return PolicyParameters(
        weights=np.zeros((action_dim, feature_dim(observation_dim))),
        log_action_noise=np.full(action_dim, np.log(noise)),
    )


def policy_log_prob(policy: PolicyParameters, features: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Per-step log densities of the executed actions."""
    mean = features @ policy.weights.T
    var = policy.action_noise**2
    quad = np.sum((actions - mean) ** 2 / var, axis=-1)
    return -0.5 * quad - 0.5 * np.sum(np.log(2.0 * np.pi * var))


def _rollout_rng(master_seed: int, iteration: int, index: int) -> np.random.Generator:
    """Per-episode generator, stable under any execution order."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(iteration), int(index)]))


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

    Histories are zero past ``lengths``.
    """

    contexts: np.ndarray
    values: np.ndarray
    successes: np.ndarray
    lengths: np.ndarray
    features: np.ndarray
    actions: np.ndarray


def collect_rollouts(
    policy,
    env,
    contexts: np.ndarray,
    config: LearnerConfig,
    master_seed: int,
    iteration: int,
    deterministic: bool = False,
) -> Episodes:
    """One episode per context, stepped together until every row is done.

    Per-episode noise comes from generators derived from
    ``(master_seed, iteration, index)``, so an episode does not depend on the
    other rows of the batch or on execution order.  With ``deterministic``
    the mean action is executed (evaluation mode).
    """
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    k = contexts.shape[0]
    horizon = env.horizon
    action_dim = env.action_dim
    # without actions there is no noise to draw, so no generators are built
    if deterministic or action_dim == 0:
        noise = np.zeros((k, horizon, action_dim))
        noise_std = np.zeros(action_dim)
    else:
        noise = np.stack(
            [
                _rollout_rng(master_seed, iteration, i).standard_normal((horizon, action_dim))
                for i in range(k)
            ]
        )
        noise_std = policy.action_noise

    state = env.reset(contexts)
    alive = np.ones(k, dtype=bool)
    values = np.zeros(k)
    discount = 1.0
    lengths = np.zeros(k, dtype=int)
    successes = np.zeros(k, dtype=bool)
    feats_hist = np.zeros((k, horizon, feature_dim(env.observation_dim)))
    actions_hist = np.zeros((k, horizon, action_dim))

    for t in range(horizon):
        if not np.any(alive):
            break
        feats = policy_features(env.observe(state))
        actions = feats @ policy.weights.T + noise_std * noise[:, t, :]
        new_state, rewards, terminated, success = env.step(state, actions, t)
        state = np.where(alive[:, None], new_state, state)
        values += np.where(alive, discount * rewards, 0.0)
        feats_hist[alive, t] = feats[alive]
        actions_hist[alive, t] = actions[alive]
        lengths += alive.astype(int)
        successes |= alive & success
        alive &= ~terminated
        discount *= config.gamma

    return Episodes(contexts, values, successes, lengths, feats_hist, actions_hist)


def improve(policy: PolicyParameters, episodes: Episodes, config: LearnerConfig) -> PolicyParameters:
    """One likelihood-ratio policy-gradient step with a mean-return baseline.

    Exploration noise is held fixed; only the mean weights move.  Episodes
    without actions (analytic environments) leave the policy unchanged, and
    a non-finite gradient skips the step with a warning.
    """
    if episodes.actions.size == 0:
        return policy

    advantages = episodes.values - float(np.mean(episodes.values))
    var = policy.action_noise**2

    new_policy = policy
    for _ in range(config.iterations_per_update):
        grad = np.zeros_like(new_policy.weights)
        for adv, feats, actions, n in zip(
            advantages, episodes.features, episodes.actions, episodes.lengths
        ):
            mean = feats[:n] @ new_policy.weights.T
            score = (actions[:n] - mean) / var
            grad += adv * score.T @ feats[:n]
        grad /= len(advantages)
        if not np.all(np.isfinite(grad)):
            warnings.warn("non-finite policy gradient; step skipped", RuntimeWarning)
            return new_policy
        norm = float(np.linalg.norm(grad))
        if norm > GRAD_CLIP:
            grad *= GRAD_CLIP / norm
        new_policy = replace(new_policy, weights=new_policy.weights + config.learning_rate * grad)
    return new_policy


def save_policy(policy: PolicyParameters, path) -> None:
    np.savez(path, weights=policy.weights, log_action_noise=policy.log_action_noise)


def load_policy(path) -> PolicyParameters:
    data = np.load(path)
    return PolicyParameters(weights=data["weights"], log_action_noise=data["log_action_noise"])
