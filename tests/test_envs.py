"""Environment tests: dynamics identities, wall/gate/goal rules, clamping,
determinism, row independence of the batched protocol, the step against a
plain reference implementation, and the analytic synthetic values."""

import math

import numpy as np
import pytest

from spgl.envs import PointMassEnv, SyntheticEnv


@pytest.fixture
def env():
    return PointMassEnv()


EASY = np.array([0.0, 4.0, 0.0])
TARGETISH = np.array([2.5, 0.7, 0.1])


def state_of(position, velocity, context):
    """One point-mass state column ``[x, y, vx, vy, *context]``, as a batch of one."""
    return np.concatenate([position, velocity, context])[:, None].astype(float)


def step_one(env, position, velocity, action, context, t=0):
    """Step a single column; returns (position, velocity, reward, terminated, success)."""
    state, reward, terminated, success = env.step(
        state_of(position, velocity, context), np.asarray(action, dtype=float)[:, None], t
    )
    return state[0:2, 0], state[2:4, 0], reward[0], terminated[0], success[0]


def reference_step(p, state, actions, t):
    """The point-mass transition written plainly, with whole-array temporaries,
    from the constants of ``p``; ``PointMassEnv.step`` must reproduce it bit
    for bit."""
    pos, vel, contexts = state[0:2], state[2:4], state[4:]
    actions = np.clip(actions, -p.action_limit, p.action_limit)
    friction = contexts[2:3]
    new_vel = vel + p.dt * (actions - friction * vel)
    new_pos = pos + p.dt * new_vel

    y_old, y_new = pos[1], new_pos[1]
    crossed = (y_old > 0.0) != (y_new > 0.0)
    denom = np.where(crossed, y_old - y_new, 1.0)
    x_cross = pos[0] + (new_pos[0] - pos[0]) * (y_old / denom)
    in_gate = np.abs(x_cross - contexts[0]) <= 0.5 * contexts[1]
    crash = crossed & ~in_gate

    limit = p.arena_half_width
    clipped = np.clip(new_pos, -limit, limit)
    new_vel = np.where(new_pos == clipped, new_vel, 0.0)
    new_pos = clipped
    new_pos[0, crash] = x_cross[crash]
    new_pos[1, crash] = 0.0
    new_vel[:, crash] = 0.0

    goal = np.array(p.goal)[:, None]
    dist = np.sqrt(np.sum((new_pos - goal) ** 2, axis=0))
    success = (dist < p.success_radius) & ~crash
    reward = (
        np.exp(-dist)
        - p.action_cost * np.sum(actions**2, axis=0)
        + np.where(success, p.success_bonus, 0.0)
        + np.where(crash, p.crash_penalty, 0.0)
    )
    terminated = crash | success | (t + 1 >= p.horizon)
    return np.concatenate([new_pos, new_vel, contexts], axis=0), reward, terminated, success


def random_batch(env, rng):
    """A batch of 2-300 columns mixing free flight with columns started next to
    the wall, the goal and the arena edges, and actions beyond the limit."""
    k = int(rng.integers(2, 301))
    contexts = np.column_stack(
        [rng.uniform(-3, 3, k), rng.uniform(-0.5, 3, k), rng.uniform(-0.5, 1.5, k)]
    )
    state = env.reset(contexts)
    limit = env.arena_half_width
    kind = rng.integers(0, 4, k)
    pos = rng.uniform(-limit, limit, (k, 2))
    vel = rng.uniform(-5, 5, (k, 2))
    wall = kind == 1
    pos[wall, 1] = rng.uniform(-0.3, 0.3, wall.sum())
    vel[wall, 1] = rng.uniform(-8, 8, wall.sum())
    goal = kind == 2
    pos[goal] = np.array(env.goal) + rng.uniform(-0.4, 0.4, (goal.sum(), 2))
    vel[goal] = rng.uniform(-1, 1, (goal.sum(), 2))
    edge = kind == 3
    pos[edge] = rng.choice([-1.0, 1.0], (edge.sum(), 2)) * rng.uniform(3.8, limit, (edge.sum(), 2))
    vel[edge] = rng.uniform(-60, 60, (edge.sum(), 2))
    state[0:2], state[2:4] = pos.T, vel.T
    actions = rng.uniform(-2.5, 2.5, (k, 2)) * env.action_limit
    t = int(rng.choice([0, rng.integers(0, env.horizon), env.horizon - 1]))
    return state, actions.T, t


class TestReset:
    def test_fixed_start_state(self, env):
        state = env.reset(TARGETISH)
        assert state.shape == (7, 1)
        assert np.array_equal(state[0:2, 0], [0.0, 3.0])
        assert np.array_equal(state[2:4, 0], [0.0, 0.0])
        assert np.array_equal(state[4:, 0], TARGETISH)

    def test_start_is_context_independent(self, env):
        state = env.reset(np.array([EASY, TARGETISH]))
        assert np.array_equal(state[:4, 0], state[:4, 1])

    def test_negative_gate_width_clamped(self, env):
        contexts = np.array([0.0, -1.0, 0.5])
        assert env.reset(contexts)[5, 0] == 0.05
        assert contexts[1] == -1.0  # the state is clamped, not the argument

    def test_negative_friction_clamped(self, env):
        assert env.reset(np.array([0.0, 1.0, -2.0]))[6, 0] == 0.0


class TestStep:
    def test_zero_action_zero_friction_keeps_velocity(self, env):
        _, vel, _, _, _ = step_one(env, [0.0, 2.0], [0.5, -0.3], np.zeros(2), EASY)
        assert np.allclose(vel, [0.5, -0.3])

    def test_friction_decays_velocity(self, env):
        state = state_of([0.0, 2.0], [3.0, 0.0], [0.0, 4.0, 2.0])
        speeds = []
        for t in range(20):
            state, _, _, _ = env.step(state, np.zeros((2, 1)), t)
            speeds.append(float(np.linalg.norm(state[2:4, 0])))
        assert all(b <= a + 1e-12 for a, b in zip(speeds, speeds[1:]))

    def test_pass_through_gate_center(self, env):
        pos, _, _, terminated, _ = step_one(env, [1.0, 0.04], [0.0, -2.0], np.zeros(2), [1.0, 0.8, 0.0])
        assert pos[1] < 0.0
        assert not terminated

    def test_crash_outside_gate(self, env):
        pos, _, _, terminated, success = step_one(
            env, [0.0, 0.04], [0.0, -2.0], np.zeros(2), [2.5, 0.7, 0.0]
        )
        assert terminated
        assert not success
        assert pos[1] == 0.0

    def test_crash_from_below(self, env):
        _, _, _, terminated, success = step_one(
            env, [0.0, -0.04], [0.0, 2.0], np.zeros(2), [2.5, 0.7, 0.0]
        )
        assert terminated and not success

    def test_success_at_goal(self, env):
        _, _, reward, terminated, success = step_one(env, [0.0, -2.9], [0.0, -1.0], np.zeros(2), EASY)
        assert success and terminated
        assert reward > env.success_bonus * 0.9

    def test_horizon_termination(self, env):
        _, _, _, terminated, success = step_one(
            env, [0.0, 2.0], np.zeros(2), np.zeros(2), EASY, t=env.horizon - 1
        )
        assert terminated and not success

    def test_action_clamped_in_cost(self, env):
        _, _, big, _, _ = step_one(env, [0.0, 2.0], np.zeros(2), [1e6, 0.0], EASY)
        _, _, capped, _, _ = step_one(env, [0.0, 2.0], np.zeros(2), [env.action_limit, 0.0], EASY)
        assert big == pytest.approx(capped)

    def test_arena_bounds_hold(self, env):
        pos, vel, _, _, _ = step_one(env, [3.9, 2.0], [50.0, 0.0], [10.0, 0.0], EASY)
        assert pos[0] <= env.arena_half_width
        assert vel[0] == 0.0

    def test_step_keeps_the_context(self, env):
        state, _, _, _ = env.step(env.reset(TARGETISH), np.array([[3.0], [-4.0]]), 0)
        assert np.array_equal(state[4:, 0], TARGETISH)

    def test_deterministic_trajectories(self, env):
        actions = np.random.default_rng(0).uniform(-10, 10, size=(30, 1, 2))

        def run():
            state = env.reset(TARGETISH)
            log = []
            for t, a in enumerate(actions):
                state, reward, terminated, _ = env.step(state, a.T, t)
                log.append((state.copy(), reward.copy(), terminated.copy()))
                if terminated[0]:
                    break
            return log

        first, second = run(), run()
        assert len(first) == len(second)
        for (s1, r1, t1), (s2, r2, t2) in zip(first, second):
            assert np.array_equal(s1, s2) and np.array_equal(r1, r2) and np.array_equal(t1, t2)

    def test_rows_are_independent(self, env):
        # stepping K columns together equals stepping each column alone, bit for bit
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            contexts = np.column_stack(
                [rng.uniform(-2, 2, k), rng.uniform(-0.5, 3, k), rng.uniform(-0.5, 1, k)]
            )
            state = env.reset(contexts)
            state[0:2] = rng.uniform(-3, 3, (k, 2)).T
            state[1] = np.where(rng.random(k) < 0.5, rng.uniform(-0.1, 0.1, k), state[1])
            state[2:4] = rng.uniform(-5, 5, (k, 2)).T
            actions = rng.uniform(-15, 15, (k, 2)).T
            t = int(rng.integers(0, env.horizon))
            batch = env.step(state, actions, t)
            for i in range(k):
                alone = env.step(state[:, i : i + 1], actions[:, i : i + 1], t)
                for together, single in zip(batch, alone):
                    assert np.array_equal(together[..., i : i + 1], single)


    def test_matches_reference_step(self, env):
        rng = np.random.default_rng(3)
        limit = env.arena_half_width
        seen = dict(crash=0, gate_pass=0, clip_x=0, clip_y=0, success=0, last_step=0, big_action=0)
        for _ in range(300):
            state, actions, t = random_batch(env, rng)
            state_before, actions_before = state.copy(), actions.copy()
            got = env.step(state, actions, t)
            assert state.tobytes() == state_before.tobytes()
            assert actions.tobytes() == actions_before.tobytes()
            want = reference_step(env, state, actions, t)
            for name, a, b in zip(("state", "reward", "terminated", "success"), got, want):
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert np.array_equal(a, b), name

            new_state, _, terminated, success = want
            crash = terminated & ~success & (new_state[1] == 0.0)
            crossed = (state[1] > 0.0) != (new_state[1] > 0.0)
            seen["crash"] += crash.sum()
            seen["gate_pass"] += (crossed & ~crash).sum()
            seen["clip_x"] += (np.abs(new_state[0]) == limit).sum()
            seen["clip_y"] += (np.abs(new_state[1]) == limit).sum()
            seen["success"] += success.sum()
            seen["last_step"] += t == env.horizon - 1
            seen["big_action"] += (np.abs(actions) > env.action_limit).any()
        assert all(count > 0 for count in seen.values()), seen


def synthetic_values(center, width, contexts):
    """Returns of one synthetic step from ``(K, d)`` contexts."""
    env = SyntheticEnv(difficulty_center=center, width=width)
    contexts = np.atleast_2d(contexts)
    return env.step(env.reset(contexts), np.zeros((0, len(contexts))), 0)[1]


def bump(c, center, width):
    """The synthetic return of one context, written out."""
    return SyntheticEnv.peak * np.exp(-np.sum((c - center) ** 2) / (2.0 * width**2))


class TestSynthetic:
    def test_peak_value(self):
        assert synthetic_values([1.0, 2.0], 1.0, [1.0, 2.0]) == [10.0]

    def test_flat_limit(self):
        (value,) = synthetic_values(np.zeros(2), 1e6, [5.0, -5.0])
        assert value == pytest.approx(10.0, abs=1e-8)

    def test_unit_distance(self):
        (value,) = synthetic_values([0.0], 1.0, [1.0])
        assert value == pytest.approx(10.0 * math.exp(-0.5))

    def test_monotone_in_distance(self):
        env = SyntheticEnv(difficulty_center=np.zeros(2), width=1.5)
        distances = np.linspace(0.0, 4.0, 20)
        contexts = np.column_stack([distances, np.zeros(20)])
        _, values, _, _ = env.step(env.reset(contexts), np.zeros((0, 20)), 0)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_success_threshold(self):
        env = SyntheticEnv(difficulty_center=np.zeros(1), width=1.0)
        _, values, terminated, success = env.step(env.reset([[0.0], [3.0]]), np.zeros((0, 2)), 0)
        assert values[0] >= env.success_threshold > values[1]
        assert list(success) == [True, False]
        assert terminated.all()

    def test_one_step_protocol_without_actions_or_observations(self):
        env = SyntheticEnv(difficulty_center=np.zeros(3), width=2.0)
        state = env.reset(np.ones((4, 3)))
        assert env.horizon == 1 and env.action_dim == 0 and env.observation_dim == 0
        assert env.observe(state).shape == (0, 4)

    def test_batched_values_match_per_row_values(self):
        # from 8 dimensions on NumPy sums a contiguous row pairwise, so the
        # column-major state must still hand each episode its own row
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            env = SyntheticEnv(rng.normal(0.0, 2.0, d), width=float(rng.uniform(0.1, 5.0)))
            contexts = rng.normal(0.0, 3.0, (int(rng.integers(2, 65)), d))
            _, values, _, _ = env.step(env.reset(contexts), np.zeros((0, len(contexts))), 0)
            for c, v in zip(contexts, values):
                assert v == bump(c, env.difficulty_center, env.width)
