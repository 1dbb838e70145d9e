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

* ``reset(contexts) -> state``, a fresh array of shape ``(K, S)``;
* ``observe(state) -> observations``, shape ``(K, n)``;
* ``step(state, actions, t) -> (state, rewards, terminated, success)``.

``step`` returns a fresh state array and never writes to its ``state`` or
``actions`` arguments.  The context is part of the state, so a caller that
stops finished rows freezes the whole state with a single masked copy.  Rows
never interact: stepping a batch equals stepping each row alone, bit for bit.
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
        limit = self.params.arena_half_width
        scale = [limit, limit, 5.0, 5.0, 4.0, 4.0, 2.0]
        self._observation_scale = np.array(scale[: self.observation_dim])
        self._goal = np.array(self.params.goal)[:, None]

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
        return state[:, : self.observation_dim] / self._observation_scale

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        """One transition of every row; out-of-range actions are clipped."""
        p = self.params
        limit = p.arena_half_width
        actions = np.minimum(np.maximum(actions, -p.action_limit), p.action_limit)
        # ``old`` is the state transposed and ``kin`` holds the new x, y, vx
        # and vy as contiguous rows, so each NumPy call runs along columns
        old = state.T
        kin = np.empty((4, state.shape[0]))
        new_pos, new_vel = kin[0:2], kin[2:4]
        # new_vel = vel + dt * (actions - friction * vel); new_pos = pos + dt * new_vel
        np.multiply(old[6], old[2:4], out=new_vel)
        np.subtract(actions.T, new_vel, out=new_vel)
        new_vel *= p.dt
        new_vel += old[2:4]
        np.multiply(p.dt, new_vel, out=new_pos)
        new_pos += old[0:2]

        # wall crossing at y = 0, interpolated along the step segment
        x, y, new_x, new_y = old[0], old[1], kin[0], kin[1]
        crossed = ((y > 0.0) != (new_y > 0.0)).nonzero()[0]
        if crossed.size:
            x_old, y_old = x[crossed], y[crossed]
            x_cross = x_old + (new_x[crossed] - x_old) * (y_old / (y_old - new_y[crossed]))
            in_gate = np.abs(x_cross - old[4, crossed]) <= 0.5 * old[5, crossed]
            crash, x_crash = crossed[~in_gate], x_cross[~in_gate]
        else:
            crash = crossed  # no row crossed, so none crashed

        # arena walls only stop motion, they do not end the episode
        clipped = np.minimum(np.maximum(new_pos, -limit), limit)
        new_vel[new_pos != clipped] = 0.0
        new_pos[...] = clipped
        if crash.size:
            new_x[crash] = x_crash
            new_y[crash] = 0.0
            new_vel[:, crash] = 0.0

        gap = new_pos - self._goal
        gap *= gap
        dist = np.sqrt(gap[0] + gap[1])
        success = dist < p.success_radius
        actions *= actions
        reward = np.exp(-dist) - p.action_cost * (actions[:, 0] + actions[:, 1])
        terminated = success.copy() if t + 1 < p.horizon else np.ones_like(success)
        if crash.size:
            success[crash] = False
            reward[crash] += p.crash_penalty
            terminated[crash] = True
        reward[success] += p.success_bonus
        new_state = state.copy()
        new_state.T[0:4] = kin
        return new_state, reward, terminated, success


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
        return np.array(contexts, dtype=float, ndmin=2)

    def observe(self, state: np.ndarray) -> np.ndarray:
        return np.zeros((state.shape[0], 0))

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        values = synthetic_value(state, self.difficulty_center, self.width, self.peak)
        done = np.ones(state.shape[0], dtype=bool)
        return state.copy(), values, done, values >= self.success_threshold
