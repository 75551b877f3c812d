import json
import math
import re

import numpy as np
import pytest

from griddistill import datasets, expert
from griddistill.datasets import SchemaError
from griddistill.expert import Episode
from griddistill.gridenv import EnvConfig
from griddistill.rng import derive_stream


def toy_steps(rewards, tag=0):
    obs = np.array([float(tag), 1.0])
    steps = []
    for i, r in enumerate(rewards):
        done = i == len(rewards) - 1
        steps.append((obs, i % 5, obs, float(r), done))
    return steps


def toy_dataset(episode_rewards, meta=None):
    episodes = [
        Episode(seed=eid, epsilon=0.0, steps=toy_steps(rewards, tag=eid))
        for eid, rewards in enumerate(episode_rewards)
    ]
    return datasets.from_episodes(episodes, meta=meta or {"root_seed": 0})


def empty_dataset():
    return datasets.from_episodes([], meta={})


def assert_same_columns(a, b):
    for name, dtype in datasets.COLUMNS.items():
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype == dtype, name
        assert col_a.shape == col_b.shape and col_a.tolist() == col_b.tolist(), name


def backward_returns(rewards):
    """The reference: returns accumulated from the last step back."""
    g = 0.0
    out = [0.0] * len(rewards)
    for i in range(len(rewards) - 1, -1, -1):
        g = rewards[i] + g
        out[i] = g
    return out


@pytest.fixture(scope="module")
def seed42_collection():
    """The default collection of `run-all --seed 42`."""
    episodes = expert.collect_rollouts(
        EnvConfig(), list(range(200)), 100, [0.0, 0.1, 0.3], root_seed=42
    )
    return episodes, datasets.from_episodes(episodes, meta={})


class TestComputeReturns:
    def test_simple_backward_sum(self):
        assert datasets.compute_returns([1.0, 2.0, 3.0]).tolist() == [6.0, 5.0, 3.0]
        ds = toy_dataset([[1.0, 2.0, 3.0]])
        assert ds.g_t.tolist() == [6.0, 5.0, 3.0]
        assert ds.g_0.tolist() == [6.0, 6.0, 6.0]

    def test_single_transition(self):
        ds = toy_dataset([[2.5]])
        assert ds.g_t.tolist() == [2.5] and ds.g_0.tolist() == [2.5]

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            datasets.compute_returns([])

    def test_g0_matches_forward_sum_on_collection(self):
        cfg = EnvConfig()
        episodes = expert.collect_rollouts(cfg, list(range(20)), 100, [0.0, 0.1, 0.3], root_seed=3)
        ds = datasets.from_episodes(episodes, meta={})
        for eid in ds.episode_ids():
            rows = ds.episode_id == eid
            forward = 0.0
            for reward in ds.reward[rows].tolist():
                forward += reward
            assert ds.g_0[rows][0] == pytest.approx(forward, abs=1e-12)

    def test_bit_equal_to_backward_loop_on_collection(self, seed42_collection):
        episodes, ds = seed42_collection
        g_t, g_0 = [], []
        for ep in episodes:
            g = backward_returns([step[3] for step in ep.steps])
            g_t += g
            g_0 += [g[0]] * len(g)
        assert ds.g_t.tobytes() == np.array(g_t).tobytes()
        assert ds.g_0.tobytes() == np.array(g_0).tobytes()

    def test_bit_equal_to_backward_loop_on_signed_zeros(self):
        for rewards in ([-0.0], [1.0, -0.0], [-0.0, -0.0], [0.1, 0.2, -0.3], [-1.0, 1.0, -0.0]):
            got = datasets.compute_returns(rewards)
            assert got.tobytes() == np.array(backward_returns(rewards)).tobytes(), rewards


class TestPercentileFilter:
    def test_top_ten_percent(self):
        ds = toy_dataset([[float(g)] for g in range(1, 11)])
        spec, out = datasets.percentile_filter(ds, 10.0)
        assert spec.kept_episodes == {9}  # the g_0 = 10 episode
        assert spec.threshold_b == 10.0
        assert len(out) == 1

    def test_hundred_percent_identity(self):
        ds = toy_dataset([[1.0, 2.0], [3.0], [0.5, 0.5]])
        _, out = datasets.percentile_filter(ds, 100.0)
        assert_same_columns(out, ds)

    def test_tie_break_lowest_episode_id(self):
        ds = toy_dataset([[5.0], [5.0], [5.0], [5.0]])
        spec, out = datasets.percentile_filter(ds, 25.0)
        assert spec.kept_episodes == {0}

    def test_kept_dominate_dropped(self):
        rng = derive_stream(77, "filter")
        ds = toy_dataset([[rng.next_uniform() * 10] for _ in range(30)])
        spec, out = datasets.percentile_filter(ds, 40.0)
        g0 = ds.episode_g0()
        kept_min = min(g0[e] for e in spec.kept_episodes)
        dropped = [g for e, g in g0.items() if e not in spec.kept_episodes]
        assert not dropped or kept_min >= max(dropped)

    def test_monotone_nesting(self):
        rng = derive_stream(78, "filter2")
        ds = toy_dataset([[rng.next_uniform() * 10] for _ in range(25)])
        kept = {}
        for x in (10, 25, 40, 100):
            spec, _ = datasets.percentile_filter(ds, x)
            kept[x] = spec.kept_episodes
        assert kept[10] <= kept[25] <= kept[40] <= kept[100]

    def test_bad_percentile_rejected(self):
        ds = toy_dataset([[1.0]])
        for x in (0.0, -5.0, 101.0):
            with pytest.raises(ValueError):
                datasets.percentile_filter(ds, x)


    def test_no_episodes_rejected(self):
        with pytest.raises(ValueError, match="no episodes"):
            datasets.percentile_filter(empty_dataset(), 40.0)

    @pytest.mark.parametrize("x", [1, 10, 25, 33.3, 40, 99, 100])
    def test_matches_sort_reference(self, seed42_collection, x):
        # a real collection (with many tied returns) and a tie-heavy toy set
        _, real = seed42_collection
        toy = toy_dataset([[float(g % 3)] for g in range(17)])
        for ds in (real, toy):
            g0 = {}
            for eid, g in zip(ds.episode_id.tolist(), ds.g_0.tolist()):
                g0[eid] = g
            ranked = sorted(g0.items(), key=lambda item: (-item[1], item[0]))
            kept = ranked[: math.ceil(x / 100.0 * len(ranked))]
            spec, out = datasets.percentile_filter(ds, x)
            assert spec.kept_episodes == {eid for eid, _ in kept}
            assert spec.threshold_b == kept[-1][1]
            rows = [i for i, eid in enumerate(ds.episode_id.tolist()) if eid in spec.kept_episodes]
            for name in datasets.COLUMNS:
                assert getattr(out, name).tolist() == getattr(ds, name)[rows].tolist(), name
            assert out.meta["episode_count"] == len(kept)


class TestSampleBatch:
    def test_single_row_dataset(self):
        ds = toy_dataset([[1.0]])
        xs, acts = datasets.sample_batch(ds, 4, derive_stream(0, "s"))
        assert xs.shape[0] == 4
        assert np.array_equal(xs[0], xs[1])
        assert list(acts) == [0, 0, 0, 0]

    def test_membership(self):
        ds = toy_dataset([[1.0, 2.0, 3.0], [4.0]])
        xs, acts = datasets.sample_batch(ds, 64, derive_stream(1, "s"))
        rows = {tuple(obs) for obs in ds.obs.tolist()}
        assert all(tuple(x) in rows for x in xs)

    def test_uniform_frequencies_within_5_sigma(self):
        # rows are distinguishable by the episode tag baked into obs[0]
        ds = toy_dataset([[float(i)] for i in range(10)])
        n = 100_000
        xs, _ = datasets.sample_batch(ds, n, derive_stream(2, "freq"))
        counts = np.bincount(xs[:, 0].astype(int), minlength=10)
        sigma = (n * 0.1 * 0.9) ** 0.5
        assert np.all(np.abs(counts - n * 0.1) <= 5 * sigma)

    def test_empty_and_bad_batch(self):
        ds = toy_dataset([[1.0]])
        with pytest.raises(ValueError):
            datasets.sample_batch(ds, 0, derive_stream(0, "s"))
        with pytest.raises(ValueError):
            datasets.sample_batch(empty_dataset(), 1, derive_stream(0, "s"))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset([[1.0, -0.1], [0.3]], meta={"root_seed": 5, "note": "x"})
        path = str(tmp_path / "ds.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert_same_columns(loaded, ds)
        assert loaded.meta == ds.meta

    def test_round_trip_awkward_floats(self, tmp_path):
        obs = np.array([0.1 + 0.2, 1e-17, -0.0])
        step = (obs, 4, obs, -0.30000000000000004, True)
        ds = datasets.from_episodes([Episode(seed=2**63 + 7, epsilon=0.0, steps=[step])], meta={})
        path = str(tmp_path / "f.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert loaded.reward[0] == -0.30000000000000004
        assert np.array_equal(loaded.obs[0], obs)
        assert loaded.seed[0] == 2**63 + 7

    def test_negative_zero_round_trips(self, tmp_path):
        obs = np.array([-0.0, 0.0])
        step = (obs, 0, -obs, -0.0, True)
        ds = datasets.from_episodes([Episode(seed=0, epsilon=0.0, steps=[step])], meta={})
        path = str(tmp_path / "z.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert np.signbit(loaded.reward[0])
        for key in ("obs", "next_obs", "reward", "g_t", "g_0"):
            assert np.array_equal(np.signbit(getattr(loaded, key)), np.signbit(getattr(ds, key)))

    def test_truncated_file_raises(self, tmp_path):
        ds = toy_dataset([[1.0, 2.0], [3.0]])
        path = str(tmp_path / "t.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaError):
            datasets.load(path)

    def test_missing_field_raises(self, tmp_path):
        ds = toy_dataset([[1.0]])
        path = str(tmp_path / "m.jsonl")
        datasets.save(ds, path)
        row = json.loads(open(path).readline())
        del row["g_0"]
        with open(path, "w") as fh:
            fh.write(json.dumps(row) + "\n")
        with pytest.raises(SchemaError):
            datasets.load(path)

    @pytest.mark.parametrize("bad_line", ['{"episode_id":0,"t":0,"seed":0,"obs":[1', "7"])
    def test_non_object_line_raises_with_line_number(self, tmp_path, bad_line):
        ds = toy_dataset([[1.0, 2.0]])
        path = str(tmp_path / "j.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write(lines[0] + "\n" + bad_line + "\n")
        with pytest.raises(SchemaError, match="^line 2: "):
            datasets.load(path)

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("action", -1, "action -1 is not an integer"),
            ("action", 2.7, "action 2.7 is not an integer"),
            ("action", 7, "action 7 is not an integer"),
            ("action", True, "action True is not an integer"),
            ("obs", [1.0], "obs is not a finite vector of length 2"),
            ("obs", [[1.0, 1.0]], "obs is not a finite vector of length 2"),
            ("next_obs", [1.0, 1.0, 1.0], "next_obs is not a finite vector of length 2"),
            ("next_obs", [float("nan"), 1.0], "next_obs is not a finite vector"),
            ("next_obs", "ab", "next_obs is not a finite vector"),
        ],
    )
    def test_bad_action_or_vector_raises_with_line_number(self, tmp_path, key, value, reason):
        ds = toy_dataset([[1.0, 2.0]])
        path = str(tmp_path / "v.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[1])
        row[key] = value
        with open(path, "w") as fh:
            fh.write(lines[0] + "\n" + json.dumps(row) + "\n")
        with pytest.raises(SchemaError, match=f"^line 2: {re.escape(reason)}"):
            datasets.load(path)

    @pytest.mark.parametrize(
        "row, key, value, reason",
        [
            (2, "done", "false", "done 'false' is not a bool"),
            (3, "done", 0, "done 0 is not a bool"),
            (3, "t", 1.9, "t 1.9 is not an integer"),
            (3, "t", "one", "t 'one' is not an integer"),
            (0, "episode_id", "0", "episode_id '0' is not an integer"),
            (2, "episode_id", True, "episode_id True is not an integer"),
            (2, "seed", 1.0, "seed 1.0 is not an integer"),
            (2, "reward", "3", "reward '3' is not a finite number"),
            (2, "g_t", float("inf"), "g_t inf is not a finite number"),
            (4, "g_0", None, "g_0 None is not a finite number"),
        ],
    )
    def test_scalar_of_wrong_json_type_raises_with_line_number(
        self, tmp_path, row, key, value, reason
    ):
        ds = toy_dataset([[1.0, 2.0], [3.0, 4.0, 5.0]])
        path = str(tmp_path / "s.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        bad = json.loads(lines[row])
        bad[key] = value
        lines[row] = json.dumps(bad)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"^line {row + 1}: {re.escape(reason)}$"):
            datasets.load(path)

    def test_nan_returns_of_a_whole_episode_raise(self, tmp_path):
        # NaN passes every 1e-9 consistency comparison, so it must be
        # caught as a value
        ds = toy_dataset([[1.0, 2.0], [3.0, 4.0, 5.0]])
        path = str(tmp_path / "n.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        for i in (2, 3, 4):
            bad = json.loads(lines[i])
            bad.update(reward=float("nan"), g_t=float("nan"), g_0=float("nan"))
            lines[i] = json.dumps(bad)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="^line 3: reward nan is not a finite number$"):
            datasets.load(path)

    def test_first_row_sets_the_observation_length(self, tmp_path):
        ds = toy_dataset([[1.0, 2.0]])
        path = str(tmp_path / "w.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[0])
        row["obs"] = row["next_obs"] = [1.0]
        with open(path, "w") as fh:
            fh.write(json.dumps(row) + "\n" + lines[1] + "\n")
        with pytest.raises(SchemaError, match="^line 2: obs is not a finite vector of length 1"):
            datasets.load(path)

    def test_broken_g_consistency_raises(self, tmp_path):
        ds = toy_dataset([[1.0, 2.0]])
        path = str(tmp_path / "g.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        row = json.loads(lines[0])
        row["g_t"] = 99.0
        with open(path, "w") as fh:
            fh.write(json.dumps(row) + "\n")
            fh.write(lines[1] + "\n")
        with pytest.raises(SchemaError):
            datasets.load(path)

    def test_missing_meta_raises(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as fh:
            fh.write("")
        with pytest.raises(SchemaError):
            datasets.load(path)

    @pytest.mark.parametrize(
        "sidecar, reason", [('{"rows": 0', "malformed JSON"), ("7", "not a JSON object")]
    )
    def test_bad_meta_sidecar_raises_naming_it(self, tmp_path, sidecar, reason):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as fh:
            fh.write("")
        meta_path = str(tmp_path / "x.meta.json")
        with open(meta_path, "w") as fh:
            fh.write(sidecar)
        with pytest.raises(SchemaError, match=f"^{re.escape(meta_path)}: {reason}"):
            datasets.load(path)

    def test_meta_row_count_matches_lines(self, tmp_path):
        cfg = EnvConfig()
        episodes = expert.collect_rollouts(cfg, list(range(5)), 20, [0.0, 0.3], root_seed=8)
        ds = datasets.from_episodes(episodes, meta={"root_seed": 8})
        path = str(tmp_path / "c.jsonl")
        datasets.save(ds, path)
        meta = json.load(open(str(tmp_path / "c.meta.json")))
        n_lines = sum(1 for _ in open(path))
        assert meta["rows"] == n_lines == len(ds)

    def test_save_bytes_deterministic(self, tmp_path):
        ds = toy_dataset([[1.0, -0.25], [0.125]])
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        datasets.save(ds, p1)
        datasets.save(ds, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_interleaved_episodes_raise_naming_the_episode(self, tmp_path):
        ds = toy_dataset([[1.0, 2.0], [3.0, 4.0]])
        path = str(tmp_path / "i.jsonl")
        datasets.save(ds, path)
        ep0_t0, ep0_t1, ep1_t0, ep1_t1 = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([ep0_t0, ep1_t0, ep0_t1, ep1_t1]) + "\n")
        with pytest.raises(SchemaError, match="^episode 0: rows are not one contiguous run$"):
            datasets.load(path)

    @pytest.mark.parametrize(
        "row, key, value, message",
        [
            (3, "t", 0, "episode 1: transitions not contiguous/t-ordered"),
            (4, "done", False, "episode 1 does not end with done=true"),
            (2, "g_t", 99.0, "episode 1, t=0: g_t != reward + g_(t+1)"),
            (3, "reward", 0.5, "episode 1, t=1: g_t != reward + g_(t+1)"),
            (4, "g_0", 7.0, "episode 1: g_0 mismatch"),
        ],
    )
    def test_return_consistency_messages(self, tmp_path, row, key, value, message):
        ds = toy_dataset([[1.0, 2.0], [3.0, 4.0, 5.0]])
        path = str(tmp_path / "r.jsonl")
        datasets.save(ds, path)
        lines = open(path).read().splitlines()
        bad = json.loads(lines[row])
        bad[key] = value
        lines[row] = json.dumps(bad)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            datasets.load(path)

    def test_validation_matches_per_episode_reference(self, tmp_path):
        # random single-field corruptions of a real collection: load raises
        # exactly what the per-episode loop below raises, or nothing when it
        # raises nothing
        episodes = expert.collect_rollouts(EnvConfig(), list(range(6)), 12, [0.0, 0.3], root_seed=9)
        path = str(tmp_path / "c.jsonl")
        datasets.save(datasets.from_episodes(episodes, meta={}), path)
        clean = [json.loads(line) for line in open(path)]
        rng = derive_stream(10, "corrupt")
        for case in range(200):
            rows = [dict(r) for r in clean]
            for _ in range(1 + rng.next_int(2)):
                i = rng.next_int(len(rows))
                key = ("t", "done", "reward", "g_t", "g_0")[rng.next_int(5)]
                if key == "t":
                    rows[i]["t"] += 1 + rng.next_int(2)
                elif key == "done":
                    rows[i]["done"] = not rows[i]["done"]
                else:
                    rows[i][key] += (rng.next_int(3) - 1) * 10.0 ** -rng.next_int(12)
            with open(path, "w") as fh:
                fh.write("".join(json.dumps(r) + "\n" for r in rows))
            try:
                reference_validate(rows)
                expected = None
            except SchemaError as exc:
                expected = str(exc)
            try:
                datasets.load(path)
                got = None
            except SchemaError as exc:
                got = str(exc)
            assert got == expected, case


def reference_validate(rows):
    """The per-episode loop load's validation replaces."""
    by_episode = {}
    for r in rows:
        by_episode.setdefault(r["episode_id"], []).append(r)
    for eid, ep in by_episode.items():
        if any(ep[i]["t"] != i for i in range(len(ep))):
            raise SchemaError(f"episode {eid}: transitions not contiguous/t-ordered")
        if not ep[-1]["done"]:
            raise SchemaError(f"episode {eid} does not end with done=true")
        g_next = 0.0
        for r in reversed(ep):
            if abs(r["g_t"] - (r["reward"] + g_next)) > 1e-9:
                raise SchemaError(f"episode {eid}, t={r['t']}: g_t != reward + g_(t+1)")
            g_next = r["g_t"]
        if any(abs(r["g_0"] - ep[0]["g_t"]) > 1e-9 for r in ep):
            raise SchemaError(f"episode {eid}: g_0 mismatch")
