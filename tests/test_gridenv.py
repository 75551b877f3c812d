import numpy as np
import pytest

from griddistill import gridenv
from griddistill.gridenv import EnvConfig, GridSpec

from helpers import generate_reference, maps_reference, run_episode


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
        with pytest.raises(ValueError, match=r"^grid_n 6.0 is not an integer >= 2$"):
            EnvConfig(grid_n=6.0)
        with pytest.raises(ValueError, match=r"^hazard_count 1.5 is not an integer >= 0$"):
            EnvConfig(hazard_count=1.5)
        with pytest.raises(ValueError, match=r"^horizon True is not an integer >= 1$"):
            EnvConfig(horizon=True)
        with pytest.raises(ValueError, match=r"^wall_density '0.2' is not a finite number in \[0, 1\)$"):
            EnvConfig(wall_density="0.2")
        with pytest.raises(ValueError, match=r"^goal_reward nan is not a finite number$"):
            EnvConfig(goal_reward=float("nan"))


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
        maps = gridenv.generate_maps(EnvConfig(), range(200))
        for seed in range(200):
            spec = maps.spec(seed)
            assert bfs_path_exists(spec.walls, spec.start, spec.goal), f"seed {seed}"
            assert spec.start != spec.goal
            assert not spec.walls[spec.start]
            assert not spec.walls[spec.goal]
            assert all(not spec.walls[h] for h in spec.hazards)
            assert spec.goal not in spec.hazards and spec.start not in spec.hazards

    def test_overdense_config_raises(self):
        with pytest.raises(gridenv.GenerationError):
            gridenv.generate(EnvConfig(grid_n=2, wall_density=0.0, hazard_count=10), 0)


def assert_same_maps(maps, refs):
    """The block's tables equal the block stacked one reference spec at a
    time, byte for byte, and each of its maps is its reference spec."""
    assert len(maps.start) == len(refs) and maps.seeds == [ref.seed for ref in refs]
    for name, want in zip(("next", "reward", "goal", "start", "static"), maps_reference(refs)):
        got = getattr(maps, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    for m, ref in enumerate(refs):
        spec = maps.spec(m)
        assert spec == ref, ref.seed
        assert spec.next_cell.tobytes() == ref.next_cell.tobytes(), ref.seed
        assert spec.reward.tobytes() == ref.reward.tobytes(), ref.seed


class TestGenerateMaps:
    """generate_maps draws every map of a block in lane-wise rounds; the
    per-seed generation it replaced (tests/helpers.py) and the block of one
    are the references."""

    def test_matches_per_seed_generation_on_id_and_ood_seeds(self):
        cfg = EnvConfig()
        seeds = [*range(200), *range(10000, 10100)]
        refs, layouts = zip(*(generate_reference(cfg, seed) for seed in seeds))
        assert_same_maps(gridenv.generate_maps(cfg, seeds), refs)
        for seed, ref in zip(seeds, refs):
            spec = gridenv.generate(cfg, seed)
            assert spec == ref, seed
            assert spec.next_cell.tobytes() == ref.next_cell.tobytes(), seed
            assert spec.reward.tobytes() == ref.reward.tobytes(), seed
        # 17 of these seeds retry their layout, two of them twice
        assert sum(n > 1 for n in layouts) == 17 and max(layouts) == 3

    @pytest.mark.parametrize("count", range(1, 10))
    def test_block_sizes_across_the_lane_pass_threshold(self, count):
        # blocks of 1 to 9 maps (7 x 36 words once took the scalar path and
        # 8 x 36 a lane pass); every block ends on seed 34, which draws
        # three layouts
        cfg = EnvConfig()
        seeds = range(35 - count, 35)
        refs = [generate_reference(cfg, seed)[0] for seed in seeds]
        assert_same_maps(gridenv.generate_maps(cfg, seeds), refs)

    @pytest.mark.parametrize(
        "cfg",
        [
            # 3 of 9 cells or fewer free fail the 2 + 3 needed, so many
            # layouts draw no start, goal or hazards before their retry
            EnvConfig(grid_n=3, wall_density=0.5, hazard_count=3),
            EnvConfig(grid_n=8, wall_density=0.3, hazard_count=4),
            EnvConfig(grid_n=4, horizon=8),
        ],
    )
    def test_matches_per_seed_generation_on_other_configs(self, cfg):
        refs, layouts = zip(*(generate_reference(cfg, seed) for seed in range(60)))
        assert_same_maps(gridenv.generate_maps(cfg, range(60)), refs)
        assert max(layouts) > 1

    def test_overdense_block_names_the_seed(self):
        cfg = EnvConfig(grid_n=2, wall_density=0.0, hazard_count=10)
        with pytest.raises(gridenv.GenerationError, match="for seed 7 "):
            gridenv.generate_maps(cfg, range(7, 71))

    def test_empty_block(self):
        maps = gridenv.generate_maps(EnvConfig(), [])
        assert maps.seeds == [] and maps.start.shape == (0,)
        assert maps.next.shape == (0, gridenv.N_ACTIONS) and maps.static.shape == (0, 108)

    def test_block_of_one_spec_is_that_spec(self):
        spec = make_spec(
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]], start=(1, 1), goal=(2, 2), hazards=[(1, 2)]
        )
        maps = gridenv.Maps.of(spec)
        assert maps.spec(0) == spec
        block = (maps.next, maps.reward, maps.goal, maps.start, maps.static)
        for got, want in zip(block, maps_reference([spec])):
            assert got.tobytes() == want.tobytes()


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
        # the block's rows, all cells of all maps, and any cells picked
        maps = gridenv.generate_maps(EnvConfig(), range(20))
        table = maps.observations(0, 20)
        n = maps.config.grid_n
        assert table.shape == (20, n * n, maps.config.obs_dim)
        assert maps.observations(16, 24).tobytes() == table[16:].tobytes()  # clipped
        picked = np.array([5, 700, 0, 719, 5])
        assert maps.observe(picked).tobytes() == table.reshape(-1, 144)[picked].tobytes()
        for m in range(20):
            spec = maps.spec(m)
            for r in range(n):
                for c in range(n):
                    state = gridenv.GridState(spec=spec, agent=(r, c), t=0, terminated=False)
                    want = gridenv.observe(state)
                    assert table[m, r * n + c].tobytes() == want.tobytes()


class TestTables:
    """The map's tabulated MDP against step(), the reference semantics."""

    @staticmethod
    def assert_tables_match_step(spec):
        n = spec.config.grid_n
        for r in range(n):
            for c in range(n):
                if spec.walls[r, c]:
                    continue
                state = gridenv.GridState(spec=spec, agent=(r, c), t=0, terminated=False)
                for a in range(gridenv.N_ACTIONS):
                    nxt, reward, _ = gridenv.step(state, a)
                    assert spec.next_cell[a, r * n + c] == nxt.agent[0] * n + nxt.agent[1]
                    assert spec.reward[a, r * n + c] == reward

    def test_generated_id_and_ood_maps_match_step(self):
        maps = gridenv.generate_maps(EnvConfig(), [*range(200), *range(10000, 10100)])
        for m in range(len(maps.start)):
            self.assert_tables_match_step(maps.spec(m))

    def test_hand_map_boundary_wall_hazard_goal(self):
        spec = make_spec(
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]], start=(1, 1), goal=(2, 2), hazards=[(1, 2)]
        )
        self.assert_tables_match_step(spec)
        assert spec.next_cell[0, 0] == 0  # UP from (0, 0) into the boundary
        assert spec.next_cell[3, 0] == 0  # RIGHT from (0, 0) into the wall
        assert spec.reward[3, 4] == pytest.approx(-1.1)  # RIGHT onto the hazard
        assert spec.next_cell[1, 5] == 8 and spec.reward[1, 5] == 10.0  # DOWN onto the goal

    def test_tables_are_read_only(self):
        spec = gridenv.generate(EnvConfig(), 7)
        with pytest.raises(ValueError):
            spec.next_cell[0, 0] = 1
        with pytest.raises(ValueError):
            spec.reward[0, 0] = 0.0


class TestReachable:
    def test_matches_independent_search_on_id_and_ood_maps(self):
        cfg = EnvConfig()
        n = cfg.grid_n
        maps = gridenv.generate_maps(cfg, [*range(200), *range(10000, 10100)])
        for m in range(len(maps.start)):
            spec = maps.spec(m)
            mask = gridenv.reachable(spec, spec.start[0] * n + spec.start[1])
            for r in range(n):
                for c in range(n):
                    assert mask[r * n + c] == bfs_path_exists(spec.walls, spec.start, (r, c))

    def test_walled_off_corner(self):
        spec = make_spec([[0, 1, 0], [1, 0, 0], [0, 0, 0]], start=(1, 1), goal=(2, 2))
        assert gridenv.reachable(spec, 0).tolist() == [True] + [False] * 8
        assert np.flatnonzero(gridenv.reachable(spec, 4)).tolist() == [2, 4, 5, 6, 7, 8]


class TestRunEpisode:
    """The per-episode loop of tests/helpers.py, the reference the lockstep
    walk is held to."""

    def test_steps_chain_and_end_on_done(self):
        spec = gridenv.generate(EnvConfig(), 11)
        n = spec.config.grid_n
        seen = []

        def choose(cell):
            seen.append(cell)
            return 3

        steps = run_episode(spec, choose)
        assert [s[0] for s in steps] == seen
        assert steps[0][0] == spec.start[0] * n + spec.start[1]
        for (_, _, nxt, _, _), (cell, _, _, _, _) in zip(steps, steps[1:]):
            assert nxt == cell
        assert [s[4] for s in steps] == [False] * (len(steps) - 1) + [True]
        assert all(s[1] == 3 for s in steps)

    @pytest.mark.parametrize("action", [-1, gridenv.N_ACTIONS])
    def test_out_of_range_action_raises(self, action):
        spec = gridenv.generate(EnvConfig(), 11)
        with pytest.raises(ValueError, match="out of range"):
            run_episode(spec, lambda cell: action)


class TestWalk:
    """Maps.walk steps many episodes in lockstep; each lane's records are
    that episode's steps as the one-episode loop takes them."""

    @pytest.mark.parametrize("horizon", [40, 3])
    def test_lanes_equal_the_episode_loop(self, horizon):
        # lane k plays action k % 5 forever on map k % 7; the short horizon
        # ends most lanes at the horizon rather than on the goal
        config = EnvConfig(horizon=horizon)
        maps = gridenv.generate_maps(config, range(7))
        lanes = 35
        index = np.arange(lanes)
        offset = (index % 5) * len(maps.next)
        policy = np.repeat(np.arange(5), len(maps.next))  # row a * len(next) + g holds a
        records = list(maps.walk(maps.start[index % 7], offset, policy))
        assert len(records) <= horizon
        for k in range(lanes):
            got = [
                tuple(field[lane == k][0].item() for field in rest)
                for lane, *rest in records
                if (lane == k).any()
            ]
            base = (k % 7) * maps.cells
            want = run_episode(maps.spec(k % 7), lambda c, a=k % 5: a)
            assert got == [(s + base, a, s2 + base, r, d) for s, a, s2, r, d in want], k
        if horizon == 3:
            assert len(records) == 3 and len(records[-1][0]) > 0
