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

Each environment's constants (dynamics, rewards, horizon, the synthetic
peak) are class attributes.  The only per-instance settings are whether the
point mass shows its context to the policy (``context_visible``) and the
synthetic bump's centre and width.

Both run ``K`` episodes at once, one column each, behind one batched
protocol:

* ``reset(contexts) -> state``: ``contexts`` has shape ``(K, d)``, one row
  per episode, and ``state`` is a fresh array of shape ``(S, K)``;
* ``observe(state) -> observations``, shape ``(n, K)``;
* ``step(state, actions, t) -> (state, rewards, terminated, success)`` with
  ``actions`` of shape ``(A, K)`` and the other three of shape ``(K,)``.

State, observations and actions are column-major: component ``j`` of every
episode is the contiguous row ``j``, so each elementwise NumPy call of a
step runs along one contiguous row of ``K`` values.  ``step`` returns fresh
arrays, which the caller may modify, and never writes to its ``state`` or
``actions`` arguments.  The context is part of the state.  Episodes never
interact: stepping a batch equals stepping each column alone, bit for bit,
so a finished episode can keep being stepped without touching the others.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PointMassEnv",
    "SyntheticEnv",
]


class PointMassEnv:
    """Point mass behind a gated wall; context = [gate x, gate width, friction].

    The wall sits at ``y = 0`` across the whole arena except the open gate
    interval.  Crossing the wall plane outside the gate terminates the episode
    with a penalty.  The start and goal are context-independent.  A state
    column is ``[x, y, vx, vy, *clamped context]``.

    The physical constants are class attributes.  The reward is
    ``exp(-distance_to_goal) - action_cost * |a|^2`` per step, plus a bonus on
    reaching the goal and a penalty on hitting the wall.
    """

    context_dim = 3
    action_dim = 2
    dt = 0.05
    horizon = 100
    arena_half_width = 4.0
    start = (0.0, 3.0)
    goal = (0.0, -3.0)
    action_limit = 10.0
    success_radius = 0.25
    success_bonus = 10.0
    crash_penalty = -1.0
    action_cost = 1e-3
    min_gate_width = 0.05

    def __init__(self, context_visible: bool = False):
        self.context_visible = bool(context_visible)
        limit = self.arena_half_width
        scale = [limit, limit, 5.0, 5.0, 4.0, 4.0, 2.0]
        self._observation_scale = np.array(scale[: self.observation_dim])[:, None]
        self._goal = np.array(self.goal)[:, None]

    @property
    def observation_dim(self) -> int:
        return 4 + (self.context_dim if self.context_visible else 0)

    def reset(self, contexts: np.ndarray) -> np.ndarray:
        """Start states: the fixed start at rest, then the context clamped
        to physical values, the gate width to at least ``min_gate_width``
        and the friction to at least zero."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
        if contexts.shape[-1] != self.context_dim:
            raise ValueError("point-mass contexts have three dimensions")
        state = np.empty((4 + self.context_dim, contexts.shape[0]))
        state[0:4] = np.array([*self.start, 0.0, 0.0])[:, None]
        state[4:] = contexts.T
        np.maximum(state[5], self.min_gate_width, out=state[5])
        np.maximum(state[6], 0.0, out=state[6])
        return state

    def observe(self, state: np.ndarray) -> np.ndarray:
        """Policy observations, normalized to O(1) ranges."""
        return state[: self.observation_dim] / self._observation_scale

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        """One transition of every column; out-of-range actions are clipped."""
        limit = self.arena_half_width
        # rows 0-1 end as the gap to the goal and rows 2-3 hold the clipped
        # actions, so one squaring and one sum of row pairs give |gap|^2 and
        # |action|^2
        work = np.empty((4, state.shape[1]))
        clipped_actions = work[2:4]
        np.maximum(actions, -self.action_limit, out=clipped_actions)
        np.minimum(clipped_actions, self.action_limit, out=clipped_actions)
        new_state = state.copy()
        pos, vel = state[0:2], state[2:4]
        new_pos, new_vel = new_state[0:2], new_state[2:4]
        # new_vel = vel + dt * (actions - friction * vel); new_pos = pos + dt * new_vel
        np.multiply(state[6], vel, out=new_vel)
        np.subtract(clipped_actions, new_vel, out=new_vel)
        new_vel *= self.dt
        new_vel += vel
        np.multiply(self.dt, new_vel, out=new_pos)
        new_pos += pos

        # wall crossing at y = 0, interpolated along the step segment
        crossed = ((state[1] > 0.0) != (new_state[1] > 0.0)).nonzero()[0]
        if crossed.size:
            x_old, y_old, _, _, gate_x, gate_width, _ = state[:, crossed]
            x_new, y_new = new_pos[:, crossed]
            x_cross = x_old + (x_new - x_old) * (y_old / (y_old - y_new))
            outside = ~(np.abs(x_cross - gate_x) <= 0.5 * gate_width)
            crash, x_crash = crossed[outside], x_cross[outside]
        else:
            crash = crossed  # no column crossed, so none crashed

        # arena walls only stop motion, they do not end the episode; the
        # clip is skipped when every position is inside (nan is not)
        if np.count_nonzero(np.abs(new_pos) <= limit) < new_pos.size:
            clipped = np.minimum(np.maximum(new_pos, -limit), limit)
            new_vel[new_pos != clipped] = 0.0
            new_pos[...] = clipped
        if crash.size:
            new_state[0, crash] = x_crash
            new_state[1, crash] = 0.0
            new_vel[:, crash] = 0.0

        np.subtract(new_pos, self._goal, out=work[0:2])
        work *= work
        dist, cost = np.add(work[0::2], work[1::2])
        np.sqrt(dist, out=dist)
        success = dist < self.success_radius
        cost *= self.action_cost
        reward = np.negative(dist, out=work[0])
        np.exp(reward, out=reward)
        reward -= cost
        terminated = success.copy() if t + 1 < self.horizon else np.ones_like(success)
        if crash.size:
            success[crash] = False
            reward[crash] += self.crash_penalty
            terminated[crash] = True
        reward[success] += self.success_bonus
        return new_state, reward, terminated, success


class SyntheticEnv:
    """Analytic one-step environment: the episode return is the bump
    ``peak * exp(-|c - difficulty_center|^2 / (2 width^2))`` of the context
    ``c``, and there is nothing to act on or observe.  An episode counts as
    a success when its return reaches half the peak.  A state column is the
    context itself."""

    action_dim = 0
    observation_dim = 0
    horizon = 1
    peak = 10.0
    success_threshold = 0.5 * peak

    def __init__(self, difficulty_center, width: float):
        self.difficulty_center = np.asarray(difficulty_center, dtype=float)
        if self.difficulty_center.ndim != 1:
            raise ValueError("difficulty_center must be a vector")
        if not 0.0 < width < np.inf:
            raise ValueError("width must be positive and finite")
        self.width = float(width)

    @property
    def context_dim(self) -> int:
        return self.difficulty_center.size

    def reset(self, contexts: np.ndarray) -> np.ndarray:
        return np.array(contexts, dtype=float, ndmin=2).T.copy()

    def observe(self, state: np.ndarray) -> np.ndarray:
        return np.zeros((0, state.shape[1]))

    def step(self, state: np.ndarray, actions: np.ndarray, t: int):
        # one contiguous context row per episode, so each sum over the
        # context runs as it does for that context alone
        gap = np.sum((state.T.copy() - self.difficulty_center) ** 2, axis=-1)
        values = self.peak * np.exp(-gap / (2.0 * self.width**2))
        done = np.ones(state.shape[1], dtype=bool)
        return state.copy(), values, done, values >= self.success_threshold
