import numpy as np
import pytest

from griddistill import gridenv
from griddistill.gridenv import EnvConfig, GridSpec


def make_spec(walls, start, goal, hazards=(), config=None):
    """Hand-built map for targeted dynamics tests."""
    walls = np.asarray(walls, dtype=bool)
    config = config or EnvConfig(grid_n=walls.shape[0], wall_density=0.0, hazard_count=len(hazards))
    return GridSpec(
        seed=0, config=config, walls=walls, hazards=frozenset(hazards), goal=goal, start=start
    )


def bfs_path_exists(walls, start, goal):
    """Independent reachability oracle (plain DFS on a python set)."""
    n = walls.shape[0]
    stack, seen = [start], {start}
    while stack:
        r, c = stack.pop()
        if (r, c) == goal:
            return True
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < n and 0 <= nc < n and not walls[nr, nc] and (nr, nc) not in seen:
                seen.add((nr, nc))
                stack.append((nr, nc))
    return False


class TestConfig:
    def test_defaults(self):
        cfg = EnvConfig()
        assert cfg.grid_n == 6 and cfg.horizon == 40 and cfg.hazard_count == 2
        assert cfg.obs_dim == 144

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(grid_n=1)
        with pytest.raises(ValueError):
            EnvConfig(horizon=0)
        with pytest.raises(ValueError):
            EnvConfig(wall_density=1.0)


class TestGenerate:
    def test_degenerate_two_by_two(self):
        cfg = EnvConfig(grid_n=2, wall_density=0.0, hazard_count=0)
        for seed in (0, 1, 99):
            spec = gridenv.generate(cfg, seed)
            assert not spec.walls.any()
            assert spec.start != spec.goal

    def test_regeneration_identical(self):
        cfg = EnvConfig()
        a = gridenv.generate(cfg, 7)
        b = gridenv.generate(cfg, 7)
        assert a == b

    def test_distinct_seeds_differ(self):
        cfg = EnvConfig()
        specs = [gridenv.generate(cfg, s) for s in range(20)]
        assert len({(sp.start, sp.goal) for sp in specs}) > 1

    def test_default_seeds_all_reachable(self):
        cfg = EnvConfig()
        for seed in range(200):
            spec = gridenv.generate(cfg, seed)
            assert bfs_path_exists(spec.walls, spec.start, spec.goal), f"seed {seed}"
            assert spec.start != spec.goal
            assert not spec.walls[spec.start]
            assert not spec.walls[spec.goal]
            assert all(not spec.walls[h] for h in spec.hazards)
            assert spec.goal not in spec.hazards and spec.start not in spec.hazards

    def test_overdense_config_raises(self):
        with pytest.raises(gridenv.GenerationError):
            gridenv.generate(EnvConfig(grid_n=2, wall_density=0.0, hazard_count=10), 0)


class TestStep:
    def test_step_into_goal(self):
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(0, 1))
        state = gridenv.initial_state(spec)
        next_state, reward, done = gridenv.step(state, 3)  # RIGHT
        assert reward == 10.0 and done and next_state.terminated
        assert next_state.agent == (0, 1)

    def test_blocked_boundary_move(self):
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(1, 1))
        state = gridenv.initial_state(spec)
        next_state, reward, done = gridenv.step(state, 0)  # UP into boundary
        assert next_state.agent == (0, 0)
        assert reward == pytest.approx(-0.1)
        assert not done

    def test_blocked_wall_move(self):
        spec = make_spec([[0, 1], [0, 0]], start=(0, 0), goal=(1, 1))
        state = gridenv.initial_state(spec)
        next_state, reward, _ = gridenv.step(state, 3)  # RIGHT into wall
        assert next_state.agent == (0, 0)
        assert reward == pytest.approx(-0.1)

    def test_two_step_episode_return(self):
        spec = make_spec(np.zeros((3, 3)), start=(0, 0), goal=(0, 2))
        state = gridenv.initial_state(spec)
        total = 0.0
        for action in (3, 3):
            state, reward, done = gridenv.step(state, action)
            total += reward
        assert total == pytest.approx(9.9)
        assert done

    def test_hazard_penalty(self):
        spec = make_spec(np.zeros((3, 3)), start=(0, 0), goal=(2, 2), hazards=[(0, 1)])
        state = gridenv.initial_state(spec)
        _, reward, _ = gridenv.step(state, 3)  # RIGHT onto hazard
        assert reward == pytest.approx(-1.1)

    def test_horizon_terminates(self):
        cfg = EnvConfig(grid_n=2, wall_density=0.0, hazard_count=0, horizon=3)
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(1, 1), config=cfg)
        state = gridenv.initial_state(spec)
        for _ in range(3):
            state, _, done = gridenv.step(state, 4)  # STAY
        assert done and state.terminated and state.t == 3

    def test_step_terminated_state_raises(self):
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(0, 1))
        state = gridenv.initial_state(spec)
        state, _, _ = gridenv.step(state, 3)
        with pytest.raises(ValueError):
            gridenv.step(state, 0)

    def test_replay_reproduces_rewards_and_obs(self):
        spec = gridenv.generate(EnvConfig(), 11)
        actions = [0, 3, 3, 1, 2, 4, 1, 1, 3, 0]

        def roll():
            state = gridenv.initial_state(spec)
            out = []
            for a in actions:
                if state.terminated:
                    break
                obs = gridenv.observe(state)
                state, r, _ = gridenv.step(state, a)
                out.append((obs.tobytes(), r))
            return out

        assert roll() == roll()


class TestObserve:
    def test_shape_and_one_hot(self):
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(1, 1))
        obs = gridenv.observe(gridenv.initial_state(spec))
        assert obs.shape == (16,)
        assert set(np.unique(obs)) <= {0.0, 1.0}
        assert obs[:4].sum() == 1.0  # agent channel
        assert obs[4:8].sum() == 1.0  # goal channel

    def test_idempotent(self):
        spec = gridenv.generate(EnvConfig(), 3)
        state = gridenv.initial_state(spec)
        assert np.array_equal(gridenv.observe(state), gridenv.observe(state))

    def test_goal_channel_single_one_along_rollout(self):
        spec = gridenv.generate(EnvConfig(), 5)
        state = gridenv.initial_state(spec)
        n2 = spec.config.grid_n ** 2
        while not state.terminated:
            obs = gridenv.observe(state)
            assert obs[n2 : 2 * n2].sum() == 1.0
            state, _, _ = gridenv.step(state, 3)

    def test_channels_match_spec_fields(self):
        spec = gridenv.generate(EnvConfig(), 17)
        obs = gridenv.observe(gridenv.initial_state(spec))
        n = spec.config.grid_n
        n2 = n * n
        assert obs[spec.start[0] * n + spec.start[1]] == 1.0
        assert obs[n2 + spec.goal[0] * n + spec.goal[1]] == 1.0
        assert obs[2 * n2 : 3 * n2].sum() == spec.walls.sum()
        assert obs[3 * n2 :].sum() == len(spec.hazards)


class TestCellObservations:
    def test_rows_match_observe_on_every_cell(self):
        for seed in range(20):
            spec = gridenv.generate(EnvConfig(), seed)
            table = gridenv.cell_observations(spec)
            n = spec.config.grid_n
            assert table.shape == (n * n, spec.config.obs_dim)
            for r in range(n):
                for c in range(n):
                    state = gridenv.GridState(spec=spec, agent=(r, c), t=0, terminated=False)
                    assert np.array_equal(table[r * n + c], gridenv.observe(state))


class TestRunEpisode:
    def test_steps_chain_and_end_on_done(self):
        spec = gridenv.generate(EnvConfig(), 11)
        seen = []

        def choose(state):
            seen.append(state)
            return 3

        steps = gridenv.run_episode(spec, choose)
        assert [s[0] for s in steps] == seen
        assert steps[0][0] == gridenv.initial_state(spec)
        for (_, _, nxt, _, _), (state, _, _, _, _) in zip(steps, steps[1:]):
            assert nxt == state
        assert [s[4] for s in steps] == [False] * (len(steps) - 1) + [True]
        assert all(s[1] == 3 for s in steps)
