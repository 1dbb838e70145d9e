"""Native contextual environments.

Two environments live here:

* :class:`PointMassEnv` -- a point mass steered by force commands from a fixed
  start toward a fixed goal, through a gate in a wall.  The context vector
  ``[gate_position, gate_width, friction]`` parameterizes the wall opening and
  the floor drag.  Crashing into the wall ends the episode; reaching the goal
  pays a bonus.
* :class:`SyntheticEnv` -- an analytic one-step environment whose episode
  return is a known function of the context alone.  It has no actions and no
  observations, which removes policy noise entirely and makes curriculum
  behaviour observable in isolation.

Both run ``K`` episodes at once, one row each, behind one batched protocol:

* ``reset(contexts) -> state``, an array of shape ``(K, S)``;
* ``observe(state) -> observations``, shape ``(K, n)``;
* ``step(state, actions, t) -> (state, rewards, terminated, success)``.

The context is part of the state, so a caller that stops finished rows masks
the whole state with a single ``np.where``.  Rows never interact: stepping a
batch equals stepping each row alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointMassEnv",
    "PointMassParams",
    "SyntheticEnv",
    "synthetic_value",
]


@dataclass(frozen=True)
class PointMassParams:
    """Physical constants of the point-mass task.

    The reward is ``exp(-distance_to_goal) - action_cost * |a|^2`` per step,
    plus a bonus on reaching the goal and a penalty on hitting the wall.
    """

    dt: float = 0.05
    horizon: int = 100
    arena_half_width: float = 4.0
    start: tuple = (0.0, 3.0)
    goal: tuple = (0.0, -3.0)
    action_limit: float = 10.0
    success_radius: float = 0.25
    success_bonus: float = 10.0
    crash_penalty: float = -1.0
    action_cost: float = 1e-3
    min_gate_width: float = 0.05


class PointMassEnv:
    """Point mass behind a gated wall; context = [gate x, gate width, friction].

    The wall sits at ``y = 0`` across the whole arena except the open gate
    interval.  Crossing the wall plane outside the gate terminates the episode
    with a penalty.  The start and goal are context-independent.  A state row
    is ``[x, y, vx, vy, *clamped context]``.
    """

    context_dim = 3
    action_dim = 2

    def __init__(self, params: PointMassParams | None = None, context_visible: bool = False):
        self.params = params or PointMassParams()
        self.context_visible = bool(context_visible)

    @property
    def observation_dim(self) -> int:
        return 4 + (self.context_dim if self.context_visible else 0)

    @property
    def horizon(self) -> int:
        return self.params.horizon

    def clamp_contexts(self, contexts: np.ndarray) -> np.ndarray:
        """Clamp raw context draws to physically meaningful values."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
        if contexts.shape[-1] != self.context_dim:
            raise ValueError("point-mass contexts have three dimensions")
        clamped = contexts.copy()
        clamped[:, 1] = np.maximum(clamped[:, 1], self.params.min_gate_width)
        clamped[:, 2] = np.maximum(clamped[:, 2], 0.0)
        return clamped

    def reset(self, contexts: np.ndarray) -> np.ndarray:
        """Start states: the fixed start at rest, then the clamped context."""
        contexts = self.clamp_contexts(contexts)
        kinematics = np.tile(np.array([*self.params.start, 0.0, 0.0]), (contexts.shape[0], 1))
        return np.concatenate([kinematics, contexts], axis=1)

    def observe(self, state: np.ndarray) -> np.ndarray:
        """Policy observations, normalized to O(1) ranges."""
        parts = [state[:, 0:2] / self.params.arena_half_width, state[:, 2:4] / 5.0]
        if self.context_visible:
            parts.append(state[:, 4:] / np.array([4.0, 4.0, 2.0]))
        return np.concatenate(parts, axis=1)

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        """One transition of every row; out-of-range actions are clipped."""
        p = self.params
        pos, vel, contexts = state[:, 0:2], state[:, 2:4], state[:, 4:]
        actions = np.clip(actions, -p.action_limit, p.action_limit)
        friction = contexts[:, 2:3]
        new_vel = vel + p.dt * (actions - friction * vel)
        new_pos = pos + p.dt * new_vel

        # wall crossing at y = 0, interpolated along the step segment
        y_old, y_new = pos[:, 1], new_pos[:, 1]
        crossed = (y_old > 0.0) != (y_new > 0.0)
        denom = np.where(crossed, y_old - y_new, 1.0)
        x_cross = pos[:, 0] + (new_pos[:, 0] - pos[:, 0]) * (y_old / denom)
        in_gate = np.abs(x_cross - contexts[:, 0]) <= 0.5 * contexts[:, 1]
        crash = crossed & ~in_gate

        # arena walls only stop motion, they do not end the episode
        limit = p.arena_half_width
        clipped = np.clip(new_pos, -limit, limit)
        new_vel = np.where(new_pos == clipped, new_vel, 0.0)
        new_pos = clipped
        new_pos[crash, 0] = x_cross[crash]
        new_pos[crash, 1] = 0.0
        new_vel[crash] = 0.0

        goal = np.array(p.goal)
        dist = np.sqrt(np.sum((new_pos - goal) ** 2, axis=1))
        success = (dist < p.success_radius) & ~crash
        reward = (
            np.exp(-dist)
            - p.action_cost * np.sum(actions**2, axis=1)
            + np.where(success, p.success_bonus, 0.0)
            + np.where(crash, p.crash_penalty, 0.0)
        )
        terminated = crash | success | (t + 1 >= p.horizon)
        return np.concatenate([new_pos, new_vel, contexts], axis=1), reward, terminated, success


def synthetic_value(context, difficulty_center, width: float, peak: float = 10.0) -> float:
    """Deterministic episode return of the synthetic environment:
    ``peak * exp(-|c - center|^2 / (2 width^2))``."""
    context = np.asarray(context, dtype=float)
    center = np.asarray(difficulty_center, dtype=float)
    if context.shape[-1] != center.shape[-1]:
        raise ValueError("context dimension mismatch")
    if width <= 0.0:
        raise ValueError("width must be positive")
    gap = np.sum((context - center) ** 2, axis=-1)
    return peak * np.exp(-gap / (2.0 * width**2))


class SyntheticEnv:
    """Analytic one-step environment: the episode return is a known bump
    function of the context, and there is nothing to act on or observe.  An
    episode counts as a success when its return reaches half the peak.  A
    state row is the context itself."""

    action_dim = 0
    observation_dim = 0
    horizon = 1

    def __init__(self, difficulty_center, width: float, peak: float = 10.0):
        self.difficulty_center = np.asarray(difficulty_center, dtype=float)
        if self.difficulty_center.ndim != 1:
            raise ValueError("difficulty_center must be a vector")
        if width <= 0.0:
            raise ValueError("width must be positive")
        self.width = float(width)
        self.peak = float(peak)

    @property
    def context_dim(self) -> int:
        return self.difficulty_center.size

    @property
    def success_threshold(self) -> float:
        return 0.5 * self.peak

    def reset(self, contexts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(contexts, dtype=float))

    def observe(self, state: np.ndarray) -> np.ndarray:
        return np.zeros((state.shape[0], 0))

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        values = synthetic_value(state, self.difficulty_center, self.width, self.peak)
        done = np.ones(state.shape[0], dtype=bool)
        return state, values, done, values >= self.success_threshold
