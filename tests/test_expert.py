import numpy as np
import pytest

from griddistill import expert, gridenv
from griddistill.checks import best_return_search
from griddistill.gridenv import EnvConfig
from griddistill.rng import derive_stream

from helpers import value_iteration_reference
from test_gridenv import make_spec


def corridor_spec(length, grid_n=3):
    """Straight corridor along row 0: start (0,0), goal (0, length)."""
    walls = np.zeros((grid_n, grid_n), dtype=bool)
    walls[1:, :] = True
    return make_spec(walls, start=(0, 0), goal=(0, length))


class TestValueIteration:
    def test_one_step_corridor(self):
        spec = corridor_spec(1, grid_n=2)
        table = expert.value_iteration(spec)
        start_cell = 0
        assert table.values[start_cell] == pytest.approx(10.0)
        assert table.greedy_action[start_cell] == 3  # RIGHT

    def test_two_step_corridor_value(self):
        spec = corridor_spec(2)
        table = expert.value_iteration(spec, gamma=0.99)
        assert table.values[0] == pytest.approx(-0.1 + 0.99 * 10.0)

    def test_goal_absorbing_zero(self):
        spec = corridor_spec(2)
        table = expert.value_iteration(spec)
        goal_cell = spec.goal[0] * spec.config.grid_n + spec.goal[1]
        assert table.values[goal_cell] == 0.0

    def test_bellman_residual_converged(self):
        spec = gridenv.generate(EnvConfig(), 13)
        table = expert.value_iteration(spec, tol=1e-8)
        assert table.residual <= 1e-8

    def test_invalid_args(self):
        spec = corridor_spec(1, grid_n=2)
        with pytest.raises(ValueError):
            expert.value_iteration(spec, gamma=1.0)
        with pytest.raises(ValueError):
            expert.value_iteration(spec, tol=0.0)

    def test_greedy_matches_exhaustive_search(self):
        config = EnvConfig(grid_n=4, horizon=8)
        rng = derive_stream(300, "vi-oracle")
        checked = 0
        while checked < 5:
            seed = rng.next_int(1 << 32)
            try:
                spec = gridenv.generate(config, seed)
            except gridenv.GenerationError:
                continue
            table = expert.value_iteration(spec)
            policy = expert.ExpertPolicy(table=table, epsilon=0.0)
            episode = expert.rollout(policy, spec, derive_stream(0, "t"))
            greedy_return = sum(s[3] for s in episode.steps)
            assert greedy_return == pytest.approx(best_return_search(spec, 8))
            checked += 1


class TestSolveMaps:
    """solve_maps sweeps a block of maps at once; the per-map sweep it
    replaced (tests/helpers.py) is the reference."""

    # at tol 0.5 and 0.05 maps freeze before their values settle, so a map
    # frozen a sweep early or late changes its bytes
    @pytest.mark.parametrize("gamma, tol", [(0.99, 1e-8), (0.99, 0.5), (0.9, 0.05)])
    def test_block_matches_per_map_sweep_on_id_and_ood_maps(self, gamma, tol):
        maps = gridenv.generate_maps(EnvConfig(), [*range(200), *range(10000, 10100)])
        values, greedy, residual = expert.solve_maps(maps, gamma, tol)
        specs = [maps.spec(m) for m in range(len(maps.start))]
        refs = [value_iteration_reference(spec, gamma, tol) for spec in specs]
        assert values.tobytes() == np.concatenate([r[0] for r in refs]).tobytes()
        assert greedy.tobytes() == np.concatenate([r[1] for r in refs]).tobytes()
        assert residual.tobytes() == np.array([r[2] for r in refs]).tobytes()
        assert len({r[3] for r in refs}) > 3  # the maps freeze at different sweeps
        for spec, (ref_values, ref_greedy, ref_residual, _) in list(zip(specs, refs))[:20]:
            table = expert.value_iteration(spec, gamma, tol)  # the block of one
            assert table.values.tobytes() == ref_values.tobytes()
            assert table.greedy_action.tobytes() == ref_greedy.tobytes()
            assert table.residual == ref_residual


def zero_start_value_iteration(spec, gamma=0.99, tol=1e-8):
    """The reference loop: every cell starts at 0, swept until the residual
    over every cell is <= tol. Returns (values, greedy_action)."""
    nxt, rew = spec.next_cell, spec.reward
    goal_idx = spec.goal[0] * spec.config.grid_n + spec.goal[1]
    values = np.zeros(nxt.shape[1])
    while True:
        new_values = (rew + gamma * values[nxt]).max(axis=0)
        new_values[goal_idx] = 0.0
        residual = np.abs(new_values - values).max()
        values = new_values
        if residual <= tol:
            return values, (rew + gamma * values[nxt]).argmax(axis=0)


def assert_matches_zero_start(spec, gamma=0.99, tol=1e-8):
    table = expert.value_iteration(spec, gamma=gamma, tol=tol)
    ref_values, ref_greedy = zero_start_value_iteration(spec, gamma, tol)
    n = spec.config.grid_n
    reach = gridenv.reachable(spec, spec.goal[0] * n + spec.goal[1])
    assert table.residual <= tol
    assert np.array_equal(table.greedy_action, ref_greedy)
    assert table.values[reach].tobytes() == ref_values[reach].tobytes()
    assert np.all(np.abs(table.values[~reach] - ref_values[~reach]) <= tol / (1 - gamma))
    return table


class TestStayForeverStart:
    """value_iteration starts each cell at its stay-forever value; the zero
    start it replaced is the reference."""

    @pytest.mark.parametrize(
        "config, seeds",
        [
            (EnvConfig(), [*range(200), *range(10000, 10100)]),
            (EnvConfig(grid_n=4, horizon=8), range(100)),
            (EnvConfig(grid_n=8, wall_density=0.3, hazard_count=4), range(100)),
        ],
        ids=["default-id-ood", "4x4", "8x8-dense"],
    )
    def test_matches_zero_start(self, config, seeds):
        maps = gridenv.generate_maps(config, seeds)
        for m in range(len(seeds)):
            assert_matches_zero_start(maps.spec(m))

    def test_walled_in_hazard_and_free_pocket(self):
        # (0, 0) is a hazard and (3, 3) a free cell, each walled off from
        # the goal at (1, 3): staying is all either can do
        walls = np.zeros((4, 4), dtype=bool)
        walls[0, 1] = walls[1, 0] = walls[2, 3] = walls[3, 2] = True
        spec = make_spec(walls, start=(1, 1), goal=(1, 3), hazards=[(0, 0)])
        table = assert_matches_zero_start(spec)
        assert table.values[0] == pytest.approx((-0.1 - 1.0) / (1 - 0.99))  # -110
        assert table.values[15] == pytest.approx(-0.1 / (1 - 0.99))  # -10
        assert table.greedy_action[0] == table.greedy_action[15] == 0  # all moves tie


class TestAct:
    def test_epsilon_zero_always_greedy(self):
        spec = corridor_spec(2)
        table = expert.value_iteration(spec)
        policy = expert.ExpertPolicy(table=table, epsilon=0.0)
        start = 0  # flat cell of the corridor's start (0, 0)
        rng = derive_stream(1, "act")
        assert all(expert.act(policy, start, rng) == 3 for _ in range(200))

    def test_epsilon_one_uniform_within_5_sigma(self):
        spec = corridor_spec(2)
        table = expert.value_iteration(spec)
        policy = expert.ExpertPolicy(table=table, epsilon=1.0)
        start = 0  # flat cell of the corridor's start (0, 0)
        rng = derive_stream(2, "act-uniform")
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[expert.act(policy, start, rng)] += 1
        sigma = (n * 0.2 * 0.8) ** 0.5
        assert np.all(np.abs(counts - n * 0.2) <= 5 * sigma)

    def test_epsilon_half_mixture(self):
        spec = corridor_spec(2)
        table = expert.value_iteration(spec)
        policy = expert.ExpertPolicy(table=table, epsilon=0.5)
        start = 0  # flat cell of the corridor's start (0, 0)
        greedy = int(table.greedy_action[start])
        rng = derive_stream(3, "act-mix")
        n = 100_000
        hits = sum(expert.act(policy, start, rng) == greedy for _ in range(n))
        sigma = (n * 0.6 * 0.4) ** 0.5
        assert abs(hits - 0.6 * n) <= 5 * sigma

    def test_invalid_epsilon(self):
        spec = corridor_spec(1, grid_n=2)
        table = expert.value_iteration(spec)
        with pytest.raises(ValueError):
            expert.ExpertPolicy(table=table, epsilon=1.5)


class TestCollect:
    def test_single_greedy_episode_matches_planner_replay(self):
        cfg = EnvConfig()
        episodes = expert.collect_rollouts(cfg, [0], 1, [0.0], root_seed=9)
        assert len(episodes) == 1
        ep = episodes[0]
        spec = gridenv.generate(cfg, 0)
        table = expert.value_iteration(spec)
        state = gridenv.initial_state(spec)
        n = cfg.grid_n
        for obs, action, _next_obs, _r, _d in ep.steps:
            cell = state.agent[0] * n + state.agent[1]
            assert action == table.greedy_action[cell]
            state, _, _ = gridenv.step(state, action)

    def test_noisy_collection_replays_through_step(self):
        # episodes walk the map's tables; step() and observe() are the
        # reference they must reproduce
        cfg = EnvConfig()
        episodes = expert.collect_rollouts(cfg, list(range(50)), 200, [0.3], root_seed=17)
        for ep in episodes:
            state = gridenv.initial_state(gridenv.generate(cfg, ep.seed))
            for obs, action, next_obs, reward, done in ep.steps:
                assert np.array_equal(obs, gridenv.observe(state))
                state, ref_reward, ref_done = gridenv.step(state, action)
                assert np.array_equal(next_obs, gridenv.observe(state))
                assert (reward, done) == (ref_reward, ref_done)
            assert state.terminated

    def test_round_robin_and_tagging(self):
        cfg = EnvConfig()
        seeds = list(range(200))
        episodes = expert.collect_rollouts(cfg, seeds, 100, [0.0, 0.1, 0.3], root_seed=1)
        assert len(episodes) == 100
        assert [ep.seed for ep in episodes] == seeds[:100]
        assert [ep.epsilon for ep in episodes] == [(0.0, 0.1, 0.3)[i % 3] for i in range(100)]

    def test_greedy_beats_noisy_mean(self):
        cfg = EnvConfig()
        seeds = list(range(10))
        greedy = expert.collect_rollouts(cfg, seeds, 100, [0.0], root_seed=5)
        noisy = expert.collect_rollouts(cfg, seeds, 100, [0.3], root_seed=6)

        def returns(eps):
            out = {}
            for ep in eps:
                out.setdefault(ep.seed, []).append(sum(s[3] for s in ep.steps))
            return out

        g, n = returns(greedy), returns(noisy)
        assert np.mean([r for rs in g.values() for r in rs]) >= np.mean(
            [r for rs in n.values() for r in rs]
        )
        for seed in seeds:
            # greedy is deterministic per seed; it should not lose to the
            # noisy average on its own map
            assert min(g[seed]) >= np.mean(n[seed]) - 1e-9

    def test_deterministic_collection(self):
        cfg = EnvConfig()
        a = expert.collect_rollouts(cfg, [0, 1], 6, [0.0, 0.3], root_seed=21)
        b = expert.collect_rollouts(cfg, [0, 1], 6, [0.0, 0.3], root_seed=21)
        for ea, eb in zip(a, b):
            assert ea.seed == eb.seed and ea.epsilon == eb.epsilon
            assert [s[1] for s in ea.steps] == [s[1] for s in eb.steps]
            assert [s[3] for s in ea.steps] == [s[3] for s in eb.steps]

    def test_empty_args_rejected(self):
        cfg = EnvConfig()
        with pytest.raises(ValueError):
            expert.collect_rollouts(cfg, [], 1, [0.0], root_seed=0)
        with pytest.raises(ValueError):
            expert.collect_rollouts(cfg, [0], 1, [], root_seed=0)


class TestGreedyDominance:
    def test_greedy_return_at_least_noisy_policy_mean(self):
        # Monte Carlo, 200 episodes, 2 sigma slack
        spec = gridenv.generate(EnvConfig(), 33)
        table = expert.value_iteration(spec)
        greedy_ep = expert.rollout(
            expert.ExpertPolicy(table=table, epsilon=0.0), spec, derive_stream(0, "g")
        )
        greedy_return = sum(s[3] for s in greedy_ep.steps)
        noisy = expert.ExpertPolicy(table=table, epsilon=0.2)
        returns = []
        for i in range(200):
            ep = expert.rollout(noisy, spec, derive_stream(i, "noisy"))
            returns.append(sum(s[3] for s in ep.steps))
        returns = np.array(returns)
        sem = returns.std() / np.sqrt(len(returns))
        assert greedy_return >= returns.mean() - 2 * sem
