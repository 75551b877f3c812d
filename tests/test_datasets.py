import json
import re

import numpy as np
import pytest

from griddistill import datasets, expert
from griddistill.datasets import OfflineDataset, SchemaError, Transition
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
    transitions = []
    for eid, rewards in enumerate(episode_rewards):
        transitions.extend(
            datasets.compute_returns(toy_steps(rewards, tag=eid), episode_id=eid, seed=eid)
        )
    return OfflineDataset(transitions=transitions, meta=meta or {"root_seed": 0})


class TestComputeReturns:
    def test_simple_backward_sum(self):
        rows = datasets.compute_returns(toy_steps([1.0, 2.0, 3.0]), episode_id=0, seed=0)
        assert [r.g_t for r in rows] == [6.0, 5.0, 3.0]
        assert all(r.g_0 == 6.0 for r in rows)

    def test_single_transition(self):
        rows = datasets.compute_returns(toy_steps([2.5]), episode_id=0, seed=0)
        assert rows[0].g_t == 2.5 and rows[0].g_0 == 2.5

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            datasets.compute_returns([], episode_id=0, seed=0)

    def test_g0_matches_forward_sum_on_collection(self):
        cfg = EnvConfig()
        episodes = expert.collect_rollouts(cfg, list(range(20)), 100, [0.0, 0.1, 0.3], root_seed=3)
        ds = datasets.from_episodes(episodes, meta={})
        by_episode = {}
        for tr in ds.transitions:
            by_episode.setdefault(tr.episode_id, []).append(tr)
        for eid, rows in by_episode.items():
            forward = 0.0
            for tr in rows:
                forward += tr.reward
            assert rows[0].g_0 == pytest.approx(forward, abs=1e-12)


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
        assert out.transitions == ds.transitions

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
            datasets.percentile_filter(OfflineDataset(transitions=[], meta={}), 40.0)


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
        rows = {tuple(tr.obs) for tr in ds.transitions}
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
            datasets.sample_batch(OfflineDataset(transitions=[], meta={}), 1, derive_stream(0, "s"))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset([[1.0, -0.1], [0.3]], meta={"root_seed": 5, "note": "x"})
        path = str(tmp_path / "ds.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert loaded == ds

    def test_round_trip_awkward_floats(self, tmp_path):
        obs = np.array([0.1 + 0.2, 1e-17, -0.0])
        tr = Transition(
            episode_id=0, t=0, seed=2**63 + 7, obs=obs, action=4, next_obs=obs,
            reward=-0.30000000000000004, done=True, g_t=-0.30000000000000004,
            g_0=-0.30000000000000004,
        )
        ds = OfflineDataset(transitions=[tr], meta={})
        path = str(tmp_path / "f.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert loaded.transitions[0].reward == tr.reward
        assert np.array_equal(loaded.transitions[0].obs, obs)
        assert loaded.transitions[0].seed == tr.seed

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
