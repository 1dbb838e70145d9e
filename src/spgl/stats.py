"""Batch statistics that linearize the curriculum subproblems.

From a batch of per-context return estimates :func:`compute_stats` computes
the coefficients used by both closed-form update steps:

* ``u_bar``   -- value-weighted mean context offset; ``Sigma^-1 u_bar`` is the
  gradient of the importance-weighted value objective with respect to ``mu``.
* ``v_bar``   -- plain batch mean value (the performance-condition statistic).
* ``psi_bar`` -- gradient of the importance-weighted value objective with
  respect to the covariance scales ``theta``.
* ``omega``   -- gradient of the KL-to-target with respect to ``theta``.

The gradient definitions are normative: each is covered by a central
finite-difference test against the corresponding objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import ContextDistribution, TargetSpec

__all__ = [
    "CurriculumStats",
    "RolloutBatch",
    "compute_stats",
]


@dataclass(frozen=True)
class RolloutBatch:
    """K return estimates with their contexts, plus a snapshot of the
    distribution that drew the contexts.

    Attributes:
        contexts: Context draws, shape ``(K, d)``; fixed order.
        values: Return estimates, shape ``(K,)``; finite.
        source_distribution: The generating distribution.
    """

    contexts: np.ndarray
    values: np.ndarray
    source_distribution: ContextDistribution

    def __post_init__(self):
        contexts = np.asarray(self.contexts, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if contexts.ndim != 2 or contexts.shape[1] != self.source_distribution.d:
            raise ValueError("rollout context dimension mismatch")
        if contexts.shape[0] < 2:
            raise ValueError("a rollout batch needs at least two rollouts")
        if values.shape != contexts.shape[:1]:
            raise ValueError("a rollout batch needs one value per context")
        if not np.isfinite(values).all():
            raise ValueError("return estimates must be finite")
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CurriculumStats:
    """Linearization coefficients of the two curriculum subproblems."""

    u_bar: np.ndarray
    v_bar: float
    psi_bar: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("u_bar", "psi_bar", "omega"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


def _check_snapshot(batch: RolloutBatch, dist: ContextDistribution) -> None:
    src = batch.source_distribution
    if src is dist:  # frozen, with read-only arrays: nothing to compare
        return
    if not (
        np.array_equal(src.mu, dist.mu)
        and np.array_equal(src.theta, dist.theta)
        and np.array_equal(src.target.sigma_tilde_diag, dist.target.sigma_tilde_diag)
    ):
        raise ValueError(
            "batch was generated by a different distribution; importance "
            "weights are only valid against the generating parameters"
        )


def compute_stats(
    batch: RolloutBatch, dist: ContextDistribution, target: TargetSpec
) -> CurriculumStats:
    """All curriculum statistics for one update.

    ``u_bar``, ``v_bar`` and ``psi_bar`` come from the raw batch returns (the
    performance threshold is in raw return units); ``omega`` is the exact
    gradient of :func:`spgl.gaussian.kl_to_target` with respect to ``theta``.
    The batch summation order is fixed, so results are bit-reproducible.
    """
    _check_snapshot(batch, dist)
    if target.d != dist.d:
        raise ValueError("target dimension mismatch")
    contexts = batch.contexts
    values = batch.values
    theta = dist.theta
    sigma = dist.target.sigma_tilde_diag
    k = len(values)

    delta = contexts - dist.mu
    u_bar = np.add.reduce(values[:, None] * delta, axis=0) / k
    psi_terms = delta**2 / (theta**2 * sigma) - 1.0 / theta
    psi_bar = 0.5 * (np.add.reduce(values[:, None] * psi_terms, axis=0) / k)

    sigma_target = target.sigma_tilde_diag
    gap = target.mu_tilde - dist.mu
    omega = 0.5 * (1.0 / theta - 1.0 / theta**2 - gap**2 / (theta**2 * sigma_target))
    v_bar = float(np.add.reduce(values) / k)
    return CurriculumStats(u_bar=u_bar, v_bar=v_bar, psi_bar=psi_bar, omega=omega)
