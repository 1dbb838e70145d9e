"""Minimal episodic policy-gradient learner.

A linear-Gaussian policy over polynomial features of the observation stands
in for a deep RL learner at desk scale: enough capacity for the point-mass
task, no extra dependencies, and fully deterministic given seeds.  One
likelihood-ratio gradient step with a mean-return baseline is applied per
batch; value estimates are plain discounted Monte Carlo returns.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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
    "save_policy",
]

NOISE_MIN = 1e-3
GRAD_CLIP = 10.0


@dataclass(frozen=True)
class LearnerConfig:
    """Learner hyper-parameters."""

    gamma: float = 0.99
    learning_rate: float = 0.05
    context_visible: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


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


@functools.cache
def _upper_pairs(n: int):
    """Index pairs ``i <= j`` of the pairwise feature terms, built once per
    ``n`` and shared read-only."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def policy_features(observations: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Degree-<=2 polynomial features of ``(k, n)`` observations: constant,
    linear and pairwise terms, shape ``(k, F)``, written into ``out`` when
    given."""
    obs = np.asarray(observations, dtype=float)
    k, n = obs.shape
    iu, ju = _upper_pairs(n)
    if out is None:
        out = np.empty((k, feature_dim(n)))
    out[:, 0] = 1.0
    out[:, 1 : n + 1] = obs
    # pairs gathered as rows of the transpose: long inner loops for NumPy
    np.multiply(obs.T[iu], obs.T[ju], out=out[:, n + 1 :].T)
    return out


def init_policy(observation_dim: int, action_dim: int = 2, noise: float = 0.8) -> PolicyParameters:
    """Zero-mean policy with isotropic exploration noise."""
    return PolicyParameters(
        weights=np.zeros((action_dim, feature_dim(observation_dim))),
        log_action_noise=np.full(action_dim, np.log(noise)),
    )


def _seed_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, the words
    :class:`numpy.random.SeedSequence` derives its entropy from."""
    n = int(n)
    if n < 0:
        raise ValueError("rollout seeds must be non-negative")
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


# SeedSequence's hash constants (NumPy's ``bit_generator.pyx``): the pool of
# four 32-bit words is filled and mixed with the A hash and read out with the
# B hash; the multipliers run through fixed sequences, whatever the data
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int):
    """The ``(xor, multiply)`` constants of successive SeedSequence hashes."""
    while True:
        nxt = (init * mult) & 0xFFFFFFFF
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(words: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    words ^= words >> 16
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = _MIX_MULT_L * x - _MIX_MULT_R * y
    words ^= words >> 16
    return words


def _seed_states(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of every row of the
    ``(N, L)`` ``uint32`` array ``keys``, in one pass of ``uint32``
    arithmetic over the rows; shape ``(N, 4)``."""
    n, n_words = keys.shape
    hash_a = _hash_constants(_INIT_A, _MULT_A)
    pad = np.zeros(n, dtype=np.uint32)
    pool = [_hash(keys[:, i] if i < n_words else pad, hash_a) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], hash_a))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(keys[:, src], hash_a))
    hash_b = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hash(pool[i % _POOL_SIZE], hash_b)
    return state.view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Seeds :class:`~numpy.random.PCG64` with its four state words computed
    ahead by :func:`_seed_states`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _rollout_noise(policies, master_seeds, iteration: int, k: int, horizon: int, action_dim: int):
    """Scaled exploration noise of every episode, shape ``(R, K, T, A)``.

    Episode ``i`` of run ``r`` draws ``standard_normal((T, A))`` from the
    stream of ``default_rng(SeedSequence([master_seeds[r], iteration, i]))``.
    The seed states of all episodes whose keys have the same number of
    32-bit words are hashed in one :func:`_seed_states` pass; each episode
    then seeds its own ``PCG64`` from its state and draws its own rows."""
    runs = len(policies)
    prefixes = [_seed_words(seed) + _seed_words(iteration) for seed in master_seeds]
    states = np.empty((runs, k, 4), dtype=np.uint64)
    for width in set(map(len, prefixes)):
        members = [r for r, prefix in enumerate(prefixes) if len(prefix) == width]
        keys = np.empty((len(members), k, width + 1), dtype=np.uint32)
        keys[:, :, :-1] = np.array([prefixes[r] for r in members], dtype=np.uint32)[:, None]
        keys[:, :, -1] = np.arange(k)
        states[members] = _seed_states(keys.reshape(-1, width + 1)).reshape(-1, k, 4)
    noise = np.empty((runs, k, horizon, action_dim))
    for r in range(runs):
        for i in range(k):
            Generator(PCG64(_SeedState(states[r, i]))).standard_normal(out=noise[r, i])
    noise *= np.stack([p.action_noise for p in policies])[:, None, None, :]
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

    Histories are zero past ``lengths``.
    """

    contexts: np.ndarray
    values: np.ndarray
    successes: np.ndarray
    lengths: np.ndarray
    features: np.ndarray
    actions: np.ndarray


def collect_rollouts(
    policies,
    env,
    contexts: np.ndarray,
    config: LearnerConfig,
    master_seeds,
    iteration: int,
    deterministic: bool = False,
) -> list[Episodes]:
    """One episode per context for each of R runs, all ``R * K`` rows stepped
    together until every row is done; returns one :class:`Episodes` per run.

    ``policies`` holds one policy per run, ``contexts`` has shape
    ``(R, K, d)`` and ``master_seeds`` one non-negative integer seed per run.
    Every policy's weights must have shape ``(A, F)`` for the environment's
    action dimension and feature count, else ``ValueError``.  Episode ``i``
    of run ``r`` draws its noise from the stream of
    ``default_rng(SeedSequence([master_seeds[r], iteration, i]))``; the seed
    states of all episodes are hashed together (see :func:`_rollout_noise`),
    the draws stay one generator per episode.  Each run's action product is a
    ``(K, F) @ (F, A)`` matrix product as if the run were stepped alone, so a
    run's episodes do not depend on the other runs, the other rows of its
    batch or the execution order.  With ``deterministic`` the mean action is
    executed (evaluation mode) and no noise is drawn.
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
    values = np.zeros(rows)
    discount = 1.0
    lengths = np.zeros(rows, dtype=int)
    successes = np.zeros(rows, dtype=bool)
    feats = np.empty((rows, n_features))
    feats_hist = np.zeros((rows, horizon, n_features))
    actions_hist = np.zeros((rows, horizon, action_dim))

    # every row's histories are written at every step; the steps after a
    # row finished are zeroed once after the loop
    for t in range(horizon):
        if not alive.any():
            break
        policy_features(env.observe(state), out=feats)
        actions = np.matmul(feats.reshape(runs, k, n_features), weights_t)
        if noise is not None:
            actions += noise[:, :, t]
        actions = actions.reshape(rows, action_dim)
        new_state, rewards, terminated, success = env.step(state, actions, t)
        np.copyto(state, new_state, where=alive[:, None])
        np.add(values, discount * rewards, out=values, where=alive)
        feats_hist[:, t] = feats
        actions_hist[:, t] = actions
        lengths += alive
        successes |= alive & success
        alive &= ~terminated
        discount *= config.gamma

    steps = lengths.max(initial=0)
    if np.any(lengths < steps):
        finished = np.arange(steps) >= lengths[:, None]
        feats_hist[:, :steps][finished] = 0.0
        actions_hist[:, :steps][finished] = 0.0

    def per_run(a):
        return a.reshape(runs, k, *a.shape[1:])

    return [
        Episodes(*run)
        for run in zip(
            contexts,
            per_run(values),
            per_run(successes),
            per_run(lengths),
            per_run(feats_hist),
            per_run(actions_hist),
        )
    ]


def improve(policy: PolicyParameters, episodes: Episodes, config: LearnerConfig) -> PolicyParameters:
    """One likelihood-ratio policy-gradient step with a mean-return baseline.

    Exploration noise is held fixed; only the mean weights move.  The
    gradient has the bits of a loop over episodes that adds each episode's
    term to a zero array: episodes of equal length share one stacked matrix
    product, and the terms are summed in episode order.  Episodes without
    actions (analytic environments) leave the policy unchanged, and a
    non-finite gradient skips the step with a warning.
    """
    if episodes.actions.size == 0:
        return policy

    advantages = episodes.values - float(np.mean(episodes.values))
    var = policy.action_noise**2
    weights_t = policy.weights.T
    lengths = episodes.lengths

    # episode i adds adv_i * score_i.T @ feats_i[:n_i]; the episodes of one
    # length share one stacked matmul, which runs the same BLAS call on the
    # same slices as one call per episode
    terms = np.empty((len(lengths), *policy.weights.shape))
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        if rows[-1] - rows[0] == len(rows) - 1:  # consecutive: views, not copies
            rows = slice(rows[0], rows[-1] + 1)
        feats = episodes.features[rows, :n]
        score = (episodes.actions[rows, :n] - feats @ weights_t) / var
        terms[rows] = (advantages[rows, None, None] * score).transpose(0, 2, 1) @ feats
    # summed in episode order from zero, as a running ``grad += term``
    grad = np.add.reduce(terms, axis=0, initial=0.0)
    grad /= len(advantages)
    if not np.all(np.isfinite(grad)):
        warnings.warn("non-finite policy gradient; step skipped", RuntimeWarning)
        return policy
    norm = float(np.linalg.norm(grad))
    if norm > GRAD_CLIP:
        grad *= GRAD_CLIP / norm
    return replace(policy, weights=policy.weights + config.learning_rate * grad)


def save_policy(policy: PolicyParameters, path) -> None:
    np.savez(path, weights=policy.weights, log_action_noise=policy.log_action_noise)


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
