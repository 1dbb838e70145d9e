"""Gaussian context distributions with a scaled-covariance parameterization.

The sampling distribution over contexts is a multivariate normal whose
covariance is tied to a fixed target distribution: the target is
``N(mu_tilde, diag(sigma_tilde))`` and the sampling distribution is
``N(mu, diag(theta) * diag(sigma_tilde))``, i.e. ``theta`` scales the target
variances per dimension.  At ``mu == mu_tilde`` and ``theta == 1`` the two
distributions coincide.

All covariances here are diagonal, which keeps every density, importance
ratio and KL divergence in closed form as simple vector expressions.  Each
formula exists once, as an array-level function on raw parameters: the log
density (:func:`log_density_params`), the clamped importance-weighted batch
value (:func:`sampled_value`) and the two KLs (:func:`kl_params`, whose
scale part is :func:`kl_scale_terms`, and :func:`kl_to_target_params`).
The distribution-level KLs check the family and call them; the closed-form
update, its joint-KL backtrack, the exact solver in :mod:`spgl.oracle` and
the finite-difference suite in :mod:`spgl.verification` call them directly.
They reduce over the last axis with ``np.add.reduce``, the reduction that
``np.sum`` and the ndarray ``.sum()`` method both end in, without their
Python-level wrappers on the exact solver's hot path.  So each serves one
set of parameters or a stack of rows of them, and a row of the stack gets
the same bits as the one-row call: the exact solver projects and scores the
step halvings of one direction as blocks of rows.
Distributions are immutable after construction and safe to share across
threads; sampling takes an explicit seeded generator owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOG_RATIO_LIMIT",
    "THETA_MIN",
    "ContextDistribution",
    "TargetSpec",
    "kl_between",
    "kl_params",
    "kl_scale_terms",
    "kl_to_target",
    "kl_to_target_params",
    "log_density_params",
    "sample",
    "sampled_value",
]

# Scale floor for the covariance multipliers.  Values below this are rejected
# at construction so precision matrices stay finite and well conditioned.
THETA_MIN = 1e-6

# Importance ratios are clamped to [1e-30, 1e30] before use; with very
# narrow target variances the raw ratio overflows double precision.
LOG_RATIO_LIMIT = np.log(1e30)


def _as_readonly_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector with at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TargetSpec:
    """Target context distribution: mean and diagonal covariance.

    Attributes:
        mu_tilde: Target mean, shape ``(d,)``.
        sigma_tilde_diag: Target variances per dimension, shape ``(d,)``,
            strictly positive.
    """

    mu_tilde: np.ndarray
    sigma_tilde_diag: np.ndarray

    def __post_init__(self):
        mu = _as_readonly_vector(self.mu_tilde, "mu_tilde")
        sigma = _as_readonly_vector(self.sigma_tilde_diag, "sigma_tilde_diag")
        if sigma.shape != mu.shape:
            raise ValueError("mu_tilde and sigma_tilde_diag must have the same length")
        if np.any(sigma <= 0.0):
            raise ValueError("sigma_tilde_diag entries must be strictly positive")
        object.__setattr__(self, "mu_tilde", mu)
        object.__setattr__(self, "sigma_tilde_diag", sigma)

    @property
    def d(self) -> int:
        return self.mu_tilde.size


@dataclass(frozen=True)
class ContextDistribution:
    """Sampling distribution ``N(mu, diag(theta * sigma_tilde))``.

    ``theta`` is the per-dimension variance multiplier relative to the target
    covariance.  Entries must stay at or above :data:`THETA_MIN`.

    Attributes:
        mu: Mean, shape ``(d,)``.
        theta: Positive covariance scales, shape ``(d,)``.
        target: The target spec fixing the base variances.
    """

    mu: np.ndarray
    theta: np.ndarray
    target: TargetSpec

    def __post_init__(self):
        mu = _as_readonly_vector(self.mu, "mu")
        theta = _as_readonly_vector(self.theta, "theta")
        if mu.shape != (self.target.d,) or theta.shape != (self.target.d,):
            raise ValueError("mu and theta must match the target dimension")
        if (theta < THETA_MIN).any():
            raise ValueError(f"theta entries must be >= {THETA_MIN}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def at_target(cls, target: TargetSpec) -> "ContextDistribution":
        """The member of the family equal to the target distribution."""
        return cls(mu=target.mu_tilde, theta=np.ones(target.d), target=target)

    @property
    def d(self) -> int:
        return self.target.d

    def covariance_diag(self) -> np.ndarray:
        """Diagonal of the covariance matrix, ``theta * sigma_tilde``."""
        return self.theta * self.target.sigma_tilde_diag

    def with_params(self, mu=None, theta=None) -> "ContextDistribution":
        """Copy with updated parameters, sharing the target; the new
        parameters are validated (and copied) like the constructor's."""
        return ContextDistribution(
            self.mu if mu is None else mu, self.theta if theta is None else theta, self.target
        )


def sample(dist: ContextDistribution, rng: np.random.Generator, k: int) -> np.ndarray:
    """Draw ``k`` independent contexts, returned as a ``(k, d)`` array.

    Deterministic for a given generator state.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    std = np.sqrt(dist.covariance_diag())
    return dist.mu + rng.standard_normal((k, dist.d)) * std


def log_density_params(c: np.ndarray, mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Log density of ``N(mu, diag(var))`` at ``c``: a scalar for one context
    ``(d,)``, a ``(k,)`` array for a batch ``(k, d)``, and ``(n, k)`` for
    ``n`` parameter rows given as ``mu`` and ``var`` of shape ``(n, 1, d)``."""
    quad = np.add.reduce((c - mu) ** 2 / var, axis=-1)
    return -0.5 * quad - 0.5 * np.add.reduce(np.log(2.0 * np.pi * var), axis=-1)


def sampled_value(contexts, values, log_p0, mu, var) -> np.ndarray:
    """Importance-weighted mean of ``values`` under ``N(mu, diag(var))``,
    given the log-densities ``log_p0`` of the ``(k, d)`` contexts under the
    distribution that drew them: a scalar for parameters ``(d,)``, one value
    per row for rows ``(n, d)``.  Each ratio is clamped to ``[1e-30, 1e30]``
    through its log (:data:`LOG_RATIO_LIMIT`); ``np.minimum(np.maximum(...))``
    is the clamp of ``np.clip`` without its Python-level wrapper."""
    log_ratio = log_density_params(contexts, mu[..., None, :], var[..., None, :]) - log_p0
    ratio = np.exp(np.minimum(np.maximum(log_ratio, -LOG_RATIO_LIMIT), LOG_RATIO_LIMIT))
    return np.mean(values * ratio, axis=-1)


def kl_scale_terms(ratio) -> np.ndarray:
    """The scale part ``r - 1 - ln(r)`` of the step KL per coordinate, for
    the scale ratios ``r = theta1 / theta0``: :func:`kl_params` adds the
    mean part to it, and the closed-form update's joint-KL backtrack sums it
    alone along a ray in the scales."""
    return ratio - 1.0 - np.log(ratio)


def kl_params(mu1, theta1, mu0, theta0, sigma) -> np.ndarray:
    """``KL(N(mu1, theta1 sigma) || N(mu0, theta0 sigma))`` on raw arrays:
    ``0.5 * sum(r - 1 - ln(r) + (mu1 - mu0)^2 / (theta0 * sigma))`` with
    ``r = theta1 / theta0`` (:func:`kl_scale_terms`), summed over the last
    axis: a scalar for one set of parameters, one value per row for rows
    ``(n, d)``."""
    terms = kl_scale_terms(theta1 / theta0) + (mu1 - mu0) ** 2 / (theta0 * sigma)
    return 0.5 * np.add.reduce(terms, axis=-1)


def kl_to_target_params(mu, theta, mu_tilde, sigma) -> np.ndarray:
    """``KL(N(mu_tilde, sigma) || N(mu, theta sigma))`` on raw arrays:
    ``0.5 * sum((mu - mu_tilde)^2 / (theta * sigma) + 1/theta + ln(theta) - 1)``,
    summed over the last axis like :func:`kl_params`."""
    terms = (mu - mu_tilde) ** 2 / (theta * sigma) + 1.0 / theta + np.log(theta) - 1.0
    return 0.5 * np.add.reduce(terms, axis=-1)


def kl_to_target(dist: ContextDistribution) -> float:
    """KL divergence from the target to the sampling distribution
    (:func:`kl_to_target_params`).  Zero exactly when ``mu == mu_tilde`` and
    ``theta == 1``.
    """
    target = dist.target
    return float(
        kl_to_target_params(dist.mu, dist.theta, target.mu_tilde, target.sigma_tilde_diag)
    )


def kl_between(new_dist: ContextDistribution, old_dist: ContextDistribution) -> float:
    """KL divergence ``KL(new || old)`` between two members of the family."""
    sigma = old_dist.target.sigma_tilde_diag
    if not np.array_equal(new_dist.target.sigma_tilde_diag, sigma):
        raise ValueError("kl_between requires a common target spec")
    return float(kl_params(new_dist.mu, new_dist.theta, old_dist.mu, old_dist.theta, sigma))
