import numpy as np
import pytest

from griddistill import evaluate, gridenv, tinynet
from griddistill.evaluate import EvalConfig, EvalReport
from griddistill.gridenv import EnvConfig
from griddistill.rng import RngStream, derive_stream
from griddistill.tinynet import NetShape, PolicyParams

from helpers import ExpertPolicy, cell_observations, rollout, value_iteration
from test_gridenv import make_spec


def policy_always(action, in_dim):
    """Params whose argmax (and near-deterministic softmax) is `action`."""
    shape = NetShape(in_dim=in_dim, hidden=2, out_dim=5)
    theta = np.zeros(shape.param_count)
    params = PolicyParams(theta=theta, shape=shape)
    w1, b1, w2, b2 = tinynet.unpack(params)
    b2[action] = 10.0
    return params


def _sample_from(probs, rng):
    """Reference action sampling: the first action whose running sum of
    probabilities exceeds one uniform, else the last."""
    u = rng.next_uniform()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def walk_one_map(tables, spec, streams=None):
    """Lockstep returns on one map, one lane per (cells, N_ACTIONS) policy
    table in `tables`: argmax lanes without `streams`, else lane l samples
    its table from streams[l]."""
    maps = gridenv.Maps.of(spec)
    lanes = len(tables)
    offset = np.arange(lanes) * maps.cells
    if streams is None:
        policy, states = np.concatenate([t.argmax(axis=1) for t in tables]), None
    else:
        policy = np.concatenate([np.cumsum(t, axis=1) for t in tables])
        states = np.array([rng.state for rng in streams], dtype=np.uint64).T.copy()
    return evaluate._returns(maps, np.repeat(maps.start, lanes), offset, policy, states)


def student_return(params, spec, rng=None):
    """One episode of a student's policy table, walked as a single lane:
    argmax without a stream, sampled with one."""
    table = tinynet.forward(params, cell_observations(spec))
    (ret,) = walk_one_map([table], spec, None if rng is None else [rng])
    return ret


class TestRunPolicy:
    def test_one_step_goal(self):
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(0, 1))
        params = policy_always(3, in_dim=16)  # RIGHT
        ret = student_return(params, spec)
        assert ret == 10.0

    def test_zero_params_deterministic_up(self):
        # argmax of the uniform distribution breaks ties to index 0 (UP)
        spec = make_spec(np.zeros((3, 3)), start=(2, 0), goal=(0, 0))
        shape = NetShape(in_dim=36, hidden=2, out_dim=5)
        params = PolicyParams(theta=np.zeros(shape.param_count), shape=shape)
        a = student_return(params, spec)
        b = student_return(params, spec)
        assert a == b == pytest.approx(-0.1 + 10.0)  # two UP moves up the column

    def test_stochastic_uniform_matches_enumeration_expectation(self):
        cfg = EnvConfig(grid_n=3, wall_density=0.0, hazard_count=0, horizon=6)
        spec = make_spec(np.zeros((3, 3)), start=(0, 0), goal=(2, 2), config=cfg)
        shape = NetShape(in_dim=36, hidden=2, out_dim=5)
        params = PolicyParams(theta=np.zeros(shape.param_count), shape=shape)

        # exact expectation under the uniform policy by recursion over
        # (cell, t); deterministic transitions make this exhaustive
        def expected_return(cell, t):
            if t >= cfg.horizon:
                return 0.0
            total = 0.0
            for dr, dc in gridenv.ACTION_MOVES:
                nr, nc = cell[0] + dr, cell[1] + dc
                if not (0 <= nr < 3 and 0 <= nc < 3) or spec.walls[nr, nc]:
                    nr, nc = cell
                if (nr, nc) == spec.goal:
                    total += cfg.goal_reward
                else:
                    total += cfg.step_reward + expected_return((nr, nc), t + 1)
            return total / 5.0

        exact = expected_return(spec.start, 0)
        n = 10_000
        table = tinynet.forward(params, cell_observations(spec))
        # every episode one lane of a single lockstep walk
        returns = walk_one_map([table] * n, spec, [derive_stream(i, "mc") for i in range(n)])
        sem = returns.std() / np.sqrt(n)
        assert abs(returns.mean() - exact) <= 5 * sem

    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    def test_goal_at_step_one_beside_a_timeout(self, action_rule):
        # the RIGHT lanes reach the goal on their first step and leave the
        # walk; the lanes between them run on, on their own streams
        cfg = EnvConfig(grid_n=3, wall_density=0.0, hazard_count=0, horizon=7)
        spec = make_spec(np.zeros((3, 3)), start=(0, 0), goal=(0, 1), config=cfg)
        right, stay = (np.tile(np.eye(5)[a], (9, 1)) for a in (3, 4))
        if action_rule == "argmax":
            timeout = sum([cfg.step_reward] * cfg.horizon)
            assert list(walk_one_map([right, stay, right, stay], spec)) == [10.0, timeout] * 2
            return
        uniform = np.full((9, 5), 0.2)
        tables = [right, uniform, right, uniform]
        labels = ("a", "b", "c", "d")
        got = walk_one_map(tables, spec, [derive_stream(5, label) for label in labels])
        want = [step_loop_table_return(t, spec, derive_stream(5, l)) for t, l in zip(tables, labels)]
        assert list(got) == want
        assert got[0] == got[2] == 10.0
        assert got[1] != got[3]  # the two sampled lanes differ, so neither took the other's stream


    def test_uniform_on_a_cumulative_boundary_takes_the_next_action(self):
        # a stream whose first uniform is exactly 0.5, on rows whose running
        # sum reaches 0.5 at UP: `u < acc` fails there, so DOWN is taken
        mask = (1 << 64) - 1
        word = 1 << 63  # its top 53 bits make the uniform 0.5
        x = word * pow(9, -1, 1 << 64) & mask  # undo the scrambler
        x = (x >> 7 | x << 57) & mask
        state = (1, x * pow(5, -1, 1 << 64) & mask, 2, 3)
        assert RngStream(state, "edge").next_uniform() == 0.5
        spec = make_spec(np.zeros((2, 2)), start=(0, 0), goal=(1, 0))
        table = np.tile([0.5, 0.5, 0.0, 0.0, 0.0], (4, 1))
        got = walk_one_map([table], spec, [RngStream(state, "edge")])
        assert list(got) == [step_loop_table_return(table, spec, RngStream(state, "edge"))] == [10.0]


def step_loop_table_return(table, spec, rng):
    """Reference: gridenv.step from the start, sampling each visited cell's
    row of `table` by the running sum."""
    n = spec.config.grid_n
    state = gridenv.initial_state(spec)
    total = 0.0
    while not state.terminated:
        action = _sample_from(table[state.agent[0] * n + state.agent[1]], rng)
        state, reward, _done = gridenv.step(state, action)
        total += reward
    return total


def step_loop_return(params, spec, action_rule, rng):
    """Reference evaluation: one forward of observe(state) on every step."""
    state = gridenv.initial_state(spec)
    total = 0.0
    while not state.terminated:
        probs = tinynet.forward(params, gridenv.observe(state))
        if action_rule == "argmax":
            action = int(np.argmax(probs))
        else:
            action = _sample_from(probs, rng)
        state, reward, _done = gridenv.step(state, action)
        total += reward
    return total


def split_returns(cohorts, eval_cfg, root_seed, seeds, split="ID", env=None):
    return evaluate._split_returns(
        cohorts, env or EnvConfig(), eval_cfg, 0.99, root_seed, split, seeds
    )


class TestPolicyTableEquivalence:
    """The lockstep walk of a whole split against the per-step references
    it replaces, return for return. Batched and one-row forwards may differ
    in the last bits, so the comparison is on returns, not on
    probabilities."""

    SEEDS = range(200)

    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    def test_student_table_matches_step_loop(self, action_rule):
        env = EnvConfig()
        shape = NetShape(in_dim=env.obs_dim)
        students = [tinynet.init_params(shape, derive_stream(i, "eq:init")) for i in range(2)]
        eval_cfg = eval_config(self.SEEDS, range(10_000, 10_001), action_rule=action_rule)
        _, walked = split_returns({"m": (students, 1)}, eval_cfg, 3, self.SEEDS)
        assert walked.shape == (2, len(self.SEEDS))
        for m, seed in enumerate(self.SEEDS):
            spec = gridenv.generate(env, seed)
            for i, params in enumerate(students):
                rng = derive_stream(3, f"eval:ID:{i}:{seed}:0")
                assert walked[i, m] == step_loop_return(params, spec, action_rule, rng), (seed, i)
        assert len(set(walked.ravel())) > 5  # the maps exercise more than one outcome

    def test_planner_table_matches_greedy_rollout(self):
        env = EnvConfig()
        eval_cfg = eval_config(self.SEEDS, range(10_000, 10_001))
        planner, students = split_returns({}, eval_cfg, 0, self.SEEDS)
        assert students.shape == (0, len(self.SEEDS))
        for m, seed in enumerate(self.SEEDS):
            spec = gridenv.generate(env, seed)
            policy = ExpertPolicy(table=value_iteration(spec), epsilon=0.0)
            episode = rollout(policy, spec, derive_stream(seed, "eq:planner"))
            assert planner[m] == sum(s[3] for s in episode.steps)


class TestStudentTables:
    """Each student's tables come from one stacked forward per chunk of
    maps; one forward per map is the reference, byte for byte."""

    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    def test_chunks_match_per_map_forward(self, count, action_rule):
        env = EnvConfig()
        maps = gridenv.generate_maps(env, range(10_000, 10_000 + count))
        shape = NetShape(in_dim=env.obs_dim)
        students = [tinynet.init_params(shape, derive_stream(i, "chunks")) for i in range(2)]
        sampled = action_rule == "stochastic"
        got = evaluate._student_tables(students, maps, sampled)
        assert got.shape[:2] == (2, count)
        for params, tables in zip(students, got):
            for spec, table in zip(map(maps.spec, range(count)), tables):
                probs = tinynet.forward(params, cell_observations(spec))
                want = np.cumsum(probs, axis=1) if sampled else probs.argmax(axis=1)
                assert table.tobytes() == want.astype(table.dtype).tobytes(), spec.seed


def eval_config(id_seeds, ood_seeds, **kwargs):
    return EvalConfig(
        id_seed_start=id_seeds.start,
        id_seed_count=len(id_seeds),
        ood_seed_start=ood_seeds.start,
        ood_seed_count=len(ood_seeds),
        **kwargs,
    )


def cohort_reports(cohort, eval_cfg, root_seed=0):
    """The (ID, OOD) reports of one cohort, method "m" with dataset size 1."""
    reports = evaluate.evaluate_cohorts({"m": (cohort, 1)}, EnvConfig(), eval_cfg, 0.99, root_seed)
    return reports[2], reports[3]


def planner_reports(eval_cfg):
    return evaluate.evaluate_cohorts({}, EnvConfig(), eval_cfg, 0.99, 0)


class TestEvaluateCohort:
    def test_single_student_single_seed(self):
        env = EnvConfig()
        eval_cfg = eval_config(range(3, 4), range(10_000, 10_001))
        params = policy_always(4, in_dim=env.obs_dim)  # STAY forever
        rep_id, rep_ood = cohort_reports([params], eval_cfg)
        assert rep_id.n_episodes == 1 and rep_ood.n_episodes == 1
        assert rep_id.std_return == 0.0
        assert rep_id.mean_return == pytest.approx(-0.1 * env.horizon)

    def test_duplicated_cohort_same_stats(self):
        env = EnvConfig()
        eval_cfg = eval_config(range(3), range(10_000, 10_002))
        params = policy_always(0, in_dim=env.obs_dim)
        once_id, once_ood = cohort_reports([params], eval_cfg)
        twice_id, twice_ood = cohort_reports([params, params], eval_cfg)
        assert twice_id.mean_return == pytest.approx(once_id.mean_return)
        assert twice_id.std_return == pytest.approx(once_id.std_return)
        assert twice_id.n_episodes == 2 * once_id.n_episodes

    def test_pooled_std_invariant_to_student_order(self):
        env = EnvConfig()
        eval_cfg = eval_config(range(2), range(10_000, 10_001))
        pa = policy_always(0, in_dim=env.obs_dim)
        pb = policy_always(3, in_dim=env.obs_dim)
        fwd_id, _ = cohort_reports([pa, pb], eval_cfg)
        rev_id, _ = cohort_reports([pb, pa], eval_cfg)
        assert fwd_id.mean_return == pytest.approx(rev_id.mean_return)
        assert fwd_id.std_return == pytest.approx(rev_id.std_return)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            evaluate.evaluate_cohorts({"m": ([], 1)}, EnvConfig(), EvalConfig(), 0.99, 0)

    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    def test_cohorts_together_match_each_alone(self, action_rule):
        # one pass over the maps gives every cohort the reports (and, when
        # sampled, the streams) it gets evaluated on its own
        env = EnvConfig()
        eval_cfg = eval_config(
            range(4), range(10_000, 10_003), episodes_per_seed=2, action_rule=action_rule
        )
        shape = NetShape(in_dim=env.obs_dim)
        students = [tinynet.init_params(shape, derive_stream(i, "together")) for i in range(3)]
        cohorts = {"a": (students[:2], 7), "b": (students[2:], 9)}
        together = evaluate.evaluate_cohorts(cohorts, env, eval_cfg, 0.99, 11)
        assert [(r.method, r.split) for r in together] == [
            (m, s) for m in ("expert", "a", "b") for s in ("ID", "OOD")
        ]
        alone = planner_reports(eval_cfg)
        for method, cohort in cohorts.items():
            alone += evaluate.evaluate_cohorts({method: cohort}, env, eval_cfg, 0.99, 11)[2:]
        assert together == alone
        assert [r.dataset_size for r in together] == [0, 0, 7, 7, 9, 9]


    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    def test_three_episodes_per_seed_match_step_loop(self, action_rule):
        env = EnvConfig()
        seeds = range(20, 30)
        eval_cfg = eval_config(
            seeds, range(10_000, 10_001), episodes_per_seed=3, action_rule=action_rule
        )
        shape = NetShape(in_dim=env.obs_dim)
        students = [tinynet.init_params(shape, derive_stream(i, "three")) for i in range(2)]
        planner, walked = split_returns({"m": (students, 1)}, eval_cfg, 8, seeds, split="OOD")
        assert walked.shape == (2, 3 * len(seeds))
        greedy, _ = split_returns({}, eval_config(seeds, range(10_000, 10_001)), 8, seeds)
        assert list(planner) == list(np.repeat(greedy, 3))
        for m, seed in enumerate(seeds):
            spec = gridenv.generate(env, seed)
            for i, params in enumerate(students):
                for e in range(3):
                    rng = derive_stream(8, f"eval:OOD:{i}:{seed}:{e}")
                    want = step_loop_return(params, spec, action_rule, rng)
                    assert walked[i, 3 * m + e] == want, (seed, i, e)
        if action_rule == "stochastic":  # the episodes draw from distinct streams
            assert any(len(set(row)) > 1 for row in walked.reshape(-1, 3))

    def test_planner_only_split_under_stochastic_rule(self):
        # no student lanes: the sampled walk has nothing to step
        seeds = range(4)
        sampled = eval_config(
            seeds, range(10_000, 10_001), episodes_per_seed=2, action_rule="stochastic"
        )
        planner, students = split_returns({}, sampled, 0, seeds)
        assert students.shape == (0, 8)
        greedy, _ = split_returns({}, eval_config(seeds, range(10_000, 10_001)), 0, seeds)
        assert list(planner) == list(np.repeat(greedy, 2))

    @pytest.mark.parametrize("action_rule", ["argmax", "stochastic"])
    def test_student_returns_do_not_depend_on_walk_mates(self, action_rule):
        env = EnvConfig()
        seeds = range(6)
        eval_cfg = eval_config(
            seeds, range(10_000, 10_001), episodes_per_seed=2, action_rule=action_rule
        )
        shape = NetShape(in_dim=env.obs_dim)
        students = [tinynet.init_params(shape, derive_stream(i, "mates")) for i in range(4)]
        a, b, c = (students[:1], 1), (students[1:3], 1), (students[3:], 1)
        _, together = split_returns({"a": a, "b": b, "c": c}, eval_cfg, 2, seeds)
        _, b_alone = split_returns({"b": b}, eval_cfg, 2, seeds)
        _, c_first = split_returns({"c": c, "a": a}, eval_cfg, 2, seeds)
        assert np.array_equal(together[1:3], b_alone)
        assert np.array_equal(together[3], c_first[0])
        assert np.array_equal(together[0], c_first[1])


class TestEvaluateExpert:
    def test_expert_cohort_of_one_matches_direct_planner_returns(self):
        env = EnvConfig()
        seeds = range(5)
        eval_cfg = eval_config(seeds, range(10_000, 10_001))
        rep_id, _ = planner_reports(eval_cfg)
        direct = []
        for seed in seeds:
            spec = gridenv.generate(env, seed)
            table = value_iteration(spec)
            ep = rollout(
                ExpertPolicy(table=table, epsilon=0.0),
                spec,
                derive_stream(5, f"eval-expert:ID:{seed}:0"),
            )
            direct.append(sum(s[3] for s in ep.steps))
        assert rep_id.method == "expert"
        assert rep_id.mean_return == pytest.approx(np.mean(direct))
        assert rep_id.dataset_size == 0

    def test_planner_acts_greedily_under_stochastic_rule(self):
        greedy = eval_config(range(3), range(10_000, 10_001))
        sampled = eval_config(range(3), range(10_000, 10_001), action_rule="stochastic")
        assert planner_reports(greedy) == planner_reports(sampled)


class TestEvalConfig:
    def test_overlapping_seed_sets_rejected(self):
        with pytest.raises(ValueError):
            eval_config(range(1, 3), range(2, 4))

    def test_adjacent_seed_sets_accepted(self):
        cfg = eval_config(range(5, 8), range(0, 5))
        assert (cfg.id_seeds, cfg.ood_seeds) == (range(5, 8), range(0, 5))

    @pytest.mark.parametrize("counts", [(0, 1), (1, 0), (-2, 1)])
    def test_split_without_seeds_rejected(self, counts):
        name, value = ("id_seed_count", counts[0]) if counts[0] < 1 else ("ood_seed_count", counts[1])
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, not {value}$"):
            EvalConfig(id_seed_count=counts[0], ood_seed_count=counts[1])

    def test_bad_action_rule_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(action_rule="greedy")


def sample_reports():
    reports = []
    for method, size in (("expert", 0), ("bc10", 13), ("bc25", 51), ("bc40", 105), ("bc100", 574), ("synthetic", 150)):
        for split in ("ID", "OOD"):
            reports.append(
                EvalReport(
                    method=method,
                    split=split,
                    mean_return=1.25 if split == "ID" else 0.75,
                    std_return=2.0,
                    n_episodes=100,
                    dataset_size=size,
                    student_mean=1.2,
                    student_std=1.9,
                )
            )
    return reports


class TestEmitReport:
    def test_csv_row_count_and_round_trip(self, tmp_path):
        out = str(tmp_path)
        evaluate.emit_report(sample_reports(), out)
        lines = open(f"{out}/results.csv").read().splitlines()
        assert lines[0] == evaluate.CSV_HEADER
        assert len(lines) == 13  # header + 6 methods x 2 splits
        loaded = evaluate.read_csv(f"{out}/results.csv")
        evaluate.write_csv(loaded, f"{out}/again.csv")
        assert open(f"{out}/results.csv", "rb").read() == open(f"{out}/again.csv", "rb").read()

    def test_markdown_columns(self, tmp_path):
        out = str(tmp_path)
        evaluate.emit_report(sample_reports(), out)
        md = open(f"{out}/results.md").read()
        header = [l for l in md.splitlines() if l.startswith("| Environment")][0]
        assert header.count("|") == 8  # environment + 6 methods
        assert "## Dataset size" in md
        assert "150" in md

    def test_single_report(self, tmp_path):
        out = str(tmp_path)
        evaluate.emit_report(sample_reports()[:1], out)
        lines = open(f"{out}/results.csv").read().splitlines()
        assert len(lines) == 2
        row = evaluate.read_csv(f"{out}/results.csv")[0]
        assert row.method == "expert" and row.split == "ID"
        assert row.mean_return == 1.25

    def test_rows_sorted_by_split_then_method(self, tmp_path):
        out = str(tmp_path)
        evaluate.emit_report(sample_reports(), out)
        rows = evaluate.read_csv(f"{out}/results.csv")
        keys = [(r.split, r.method) for r in rows]
        assert keys == sorted(keys)
