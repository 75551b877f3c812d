import numpy as np
import pytest

from griddistill import datasets, expert, gridenv
from griddistill.checks import best_return_search, greedy_rollout_return
from griddistill.gridenv import EnvConfig
from griddistill.rng import derive_states, derive_stream

from helpers import (
    collect_rollouts,
    from_episodes,
    solve_maps_reference,
    value_iteration,
    value_iteration_reference,
)
from test_gridenv import make_spec


def corridor_spec(length, grid_n=3):
    """Straight corridor along row 0: start (0,0), goal (0, length)."""
    walls = np.zeros((grid_n, grid_n), dtype=bool)
    walls[1:, :] = True
    return make_spec(walls, start=(0, 0), goal=(0, length))


class TestValueIteration:
    def test_one_step_corridor(self):
        spec = corridor_spec(1, grid_n=2)
        table = value_iteration(spec)
        start_cell = 0
        assert table.values[start_cell] == pytest.approx(10.0)
        assert table.greedy_action[start_cell] == 3  # RIGHT

    def test_two_step_corridor_value(self):
        spec = corridor_spec(2)
        table = value_iteration(spec, gamma=0.99)
        assert table.values[0] == pytest.approx(-0.1 + 0.99 * 10.0)

    def test_goal_absorbing_zero(self):
        spec = corridor_spec(2)
        table = value_iteration(spec)
        goal_cell = spec.goal[0] * spec.config.grid_n + spec.goal[1]
        assert table.values[goal_cell] == 0.0

    def test_bellman_residual_converged(self):
        spec = gridenv.generate(EnvConfig(), 13)
        table = value_iteration(spec, tol=1e-8)
        assert table.residual <= 1e-8

    def test_invalid_args(self):
        spec = corridor_spec(1, grid_n=2)
        with pytest.raises(ValueError):
            value_iteration(spec, gamma=1.0)
        with pytest.raises(ValueError):
            value_iteration(spec, tol=0.0)

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
            assert greedy_rollout_return(spec) == pytest.approx(best_return_search(spec, 8))
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
            table = value_iteration(spec, gamma, tol)  # the block of one
            assert table.values.tobytes() == ref_values.tobytes()
            assert table.greedy_action.tobytes() == ref_greedy.tobytes()
            assert table.residual == ref_residual


    @pytest.mark.parametrize("gamma, tol", [(0.99, 1e-8), (0.9, 0.05)])
    @pytest.mark.parametrize(
        "config, seeds",
        [
            (EnvConfig(), range(200)),
            (EnvConfig(), range(10000, 10100)),
            (EnvConfig(grid_n=8, wall_density=0.3, hazard_count=4), range(100)),
        ],
        ids=["default-id", "default-ood", "8x8-dense"],
    )
    def test_live_map_sweeps_match_the_full_block_sweep(self, config, seeds, gamma, tol):
        maps = gridenv.generate_maps(config, seeds)
        got = expert.solve_maps(maps, gamma, tol)
        want = solve_maps_reference(maps, gamma, tol)
        for name, a, b in zip(("values", "greedy", "residual"), got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
    table = value_iteration(spec, gamma=gamma, tol=tol)
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


def first_actions(spec, epsilon, n, label):
    """The first actions of n epsilon-greedy lanes walked from the map's
    start, lane i drawing from stream (i, label)."""
    maps = gridenv.Maps.of(spec)
    greedy = expert.solve_maps(maps)[1]
    states = derive_states(range(n), label).T.copy()
    start = np.repeat(maps.start, n)
    records = maps.walk(start, np.zeros(n, dtype=np.int64), greedy, states, np.full(n, epsilon))
    _, _, action, _, _, _ = next(records)
    return action


class TestAct:
    """The walk's epsilon-greedy draw: one uniform per step, and one
    next_int(N_ACTIONS) below epsilon."""

    def test_epsilon_zero_always_greedy(self):
        spec = corridor_spec(2)
        assert first_actions(spec, 0.0, 200, "act").tolist() == [3] * 200  # RIGHT

    def test_epsilon_one_uniform_within_5_sigma(self):
        spec = corridor_spec(2)
        n = 100_000
        counts = np.bincount(first_actions(spec, 1.0, n, "act-uniform"), minlength=5)
        sigma = (n * 0.2 * 0.8) ** 0.5
        assert np.all(np.abs(counts - n * 0.2) <= 5 * sigma)

    def test_epsilon_half_mixture(self):
        spec = corridor_spec(2)
        n = 100_000
        hits = (first_actions(spec, 0.5, n, "act-mix") == 3).sum()  # the greedy RIGHT
        sigma = (n * 0.6 * 0.4) ** 0.5
        assert abs(hits - 0.6 * n) <= 5 * sigma

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be in"):
            expert.collect(EnvConfig(), [0], 1, [0.0, 1.5], root_seed=0)


def episodes_of(ds):
    """Each episode's rows of a dataset, in episode order."""
    return [np.flatnonzero(ds.episode_id == eid) for eid in np.unique(ds.episode_id)]


def cell_of(obs, n):
    """The flat cell of an observation's one-hot agent channel."""
    return int(np.flatnonzero(obs[: n * n])[0])


class TestCollect:
    def test_single_greedy_episode_matches_planner_replay(self):
        cfg = EnvConfig()
        ds = expert.collect(cfg, [0], 1, [0.0], root_seed=9)
        assert ds.episode_id.tolist() == [0] * len(ds)
        spec = gridenv.generate(cfg, 0)
        table = value_iteration(spec)
        state = gridenv.initial_state(spec)
        n = cfg.grid_n
        for action in ds.action.tolist():
            assert action == table.greedy_action[state.agent[0] * n + state.agent[1]]
            state, _, _ = gridenv.step(state, action)
        assert state.terminated

    def test_noisy_collection_replays_through_step(self):
        # episodes walk the maps' tables; step() and observe() are the
        # reference they must reproduce
        cfg = EnvConfig()
        ds = expert.collect(cfg, list(range(50)), 200, [0.3], root_seed=17)
        for rows in episodes_of(ds):
            state = gridenv.initial_state(gridenv.generate(cfg, ds.seed[rows[0]]))
            for row in rows:
                assert np.array_equal(ds.obs[row], gridenv.observe(state))
                state, ref_reward, ref_done = gridenv.step(state, int(ds.action[row]))
                assert np.array_equal(ds.next_obs[row], gridenv.observe(state))
                assert (ds.reward[row], ds.done[row]) == (ref_reward, ref_done)
            assert state.terminated

    def test_round_robin_and_tagging(self):
        cfg = EnvConfig()
        seeds = list(range(200))
        ds = expert.collect(cfg, seeds, 100, [0.0, 0.1, 0.3], root_seed=1)
        episodes = episodes_of(ds)
        assert len(episodes) == 100
        assert [ds.seed[rows[0]] for rows in episodes] == seeds[:100]
        # the epsilon-0 episodes (every third) act greedily on every step;
        # the noisy ones, together, do not
        off_greedy = [0, 0, 0]
        for i, rows in enumerate(episodes):
            greedy = value_iteration(gridenv.generate(cfg, seeds[i])).greedy_action
            cells = [cell_of(obs, cfg.grid_n) for obs in ds.obs[rows]]
            off_greedy[i % 3] += int((ds.action[rows] != greedy[cells]).sum())
        assert off_greedy[0] == 0 and off_greedy[1] > 0 and off_greedy[2] > off_greedy[1]

    def test_greedy_beats_noisy_mean(self):
        cfg = EnvConfig()
        seeds = list(range(10))
        greedy = returns_by_seed(expert.collect(cfg, seeds, 100, [0.0], root_seed=5))
        noisy = returns_by_seed(expert.collect(cfg, seeds, 100, [0.3], root_seed=6))
        assert np.mean([r for rs in greedy.values() for r in rs]) >= np.mean(
            [r for rs in noisy.values() for r in rs]
        )
        for seed in seeds:
            # greedy is deterministic per seed; it should not lose to the
            # noisy average on its own map
            assert min(greedy[seed]) >= np.mean(noisy[seed]) - 1e-9

    def test_deterministic_collection(self):
        cfg = EnvConfig()
        a = expert.collect(cfg, [0, 1], 6, [0.0, 0.3], root_seed=21)
        b = expert.collect(cfg, [0, 1], 6, [0.0, 0.3], root_seed=21)
        for name in datasets.COLUMNS:
            assert getattr(a, name).tolist() == getattr(b, name).tolist(), name

    def test_empty_args_rejected(self):
        cfg = EnvConfig()
        with pytest.raises(ValueError):
            expert.collect(cfg, [], 1, [0.0], root_seed=0)
        with pytest.raises(ValueError):
            expert.collect(cfg, [0], 1, [], root_seed=0)


def returns_by_seed(ds):
    """Each seed's episode returns g_0, in episode order."""
    out = {}
    for rows in episodes_of(ds):
        out.setdefault(ds.seed[rows[0]], []).append(ds.g_0[rows[0]])
    return out


class TestGreedyDominance:
    def test_greedy_return_at_least_noisy_policy_mean(self):
        # Monte Carlo, 200 episodes, 2 sigma slack
        cfg = EnvConfig()
        (greedy_return,) = returns_by_seed(expert.collect(cfg, [33], 1, [0.0], root_seed=0))[33]
        returns = np.array(returns_by_seed(expert.collect(cfg, [33], 200, [0.2], root_seed=1))[33])
        sem = returns.std() / np.sqrt(len(returns))
        assert greedy_return >= returns.mean() - 2 * sem


def assert_same_dataset(got, want, tmp_path):
    """Column bytes and saved bytes equal. The seed column holds Python
    ints (object dtype), so it is compared by value."""
    for name, dtype in datasets.COLUMNS.items():
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == dtype, name
        if dtype is object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name
    assert got.meta == want.meta
    files = []
    for tag, ds in (("got", got), ("want", want)):
        datasets.save(ds, str(tmp_path / f"{tag}.jsonl"))
        files.append([(tmp_path / f"{tag}{ext}").read_bytes() for ext in (".jsonl", ".meta.json")])
    assert files[0] == files[1]


class TestBlockCollect:
    """collect walks every episode as a lane of one lockstep walk; the
    per-episode rollouts it replaced (tests/helpers.py) are the reference,
    column for column and byte for byte."""

    @pytest.mark.parametrize(
        "config, seeds, episodes, epsilons, root_seed",
        [
            (EnvConfig(), list(range(40)), 30, [0.0], 3),
            (EnvConfig(), list(range(40)), 30, [0.3], 3),
            (EnvConfig(), list(range(40)), 30, [1.0], 3),
            (EnvConfig(), list(range(200)), 100, [0.0, 0.1, 0.3], 42),
            (EnvConfig(), list(range(30)), 30, [0.0, 0.3], 7),
            (EnvConfig(), [5, 3, 5, 8], 25, [0.3, 0.0, 1.0], 11),
            (EnvConfig(horizon=4), list(range(20)), 40, [0.0, 0.5], 1),
            (EnvConfig(grid_n=4, horizon=8), list(range(10)), 30, [0.2], 2**63 + 7),
            (EnvConfig(), [2**63 + 7, 0], 5, [0.3], 42),
            (EnvConfig(), list(range(5)), 0, [0.3], 42),
        ],
        ids=[
            "eps0-fewer-than-seeds",
            "eps0.3-fewer-than-seeds",
            "eps1-fewer-than-seeds",
            "default-seed42",
            "as-many-as-seeds",
            "more-than-seeds-one-repeated",
            "short-horizon",
            "4x4-root-2**63+7",
            "seed-2**63+7",
            "no-episodes",
        ],
    )
    def test_matches_per_episode_rollouts(
        self, config, seeds, episodes, epsilons, root_seed, tmp_path
    ):
        meta = {"root_seed": root_seed}
        got = expert.collect(config, seeds, episodes, epsilons, root_seed, meta=dict(meta))
        reference = collect_rollouts(config, seeds, episodes, epsilons, root_seed)
        assert_same_dataset(got, from_episodes(reference, dict(meta)), tmp_path)
        assert len(np.unique(got.episode_id)) == episodes
        if config.horizon == 4:
            # most episodes run out of steps rather than reach the goal
            timeouts = got.done & (got.t == 3) & (got.reward != config.goal_reward)
            assert timeouts.sum() > episodes // 2
