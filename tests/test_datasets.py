import json
import math
import os
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

import griddistill
from griddistill import cli, datasets, distill, expert, helper, tinynet, trainer
from griddistill.datasets import SchemaError
from griddistill.gridenv import EnvConfig
from griddistill.rng import derive_stream
from helpers import Episode, episode_g0, episode_ids, from_episodes


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
    return from_episodes(episodes, meta=meta or {"root_seed": 0})


def empty_dataset():
    return from_episodes([], meta={})


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
    return expert.collect(EnvConfig(), list(range(200)), 100, [0.0, 0.1, 0.3], root_seed=42)


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
        ds = expert.collect(cfg, list(range(20)), 100, [0.0, 0.1, 0.3], root_seed=3)
        for eid in episode_ids(ds):
            rows = ds.episode_id == eid
            forward = 0.0
            for reward in ds.reward[rows].tolist():
                forward += reward
            assert ds.g_0[rows][0] == pytest.approx(forward, abs=1e-12)

    def test_bit_equal_to_backward_loop_on_collection(self, seed42_collection):
        ds = seed42_collection
        g_t, g_0 = [], []
        for eid in episode_ids(ds):
            g = backward_returns(ds.reward[ds.episode_id == eid].tolist())
            g_t += g
            g_0 += [g[0]] * len(g)
        assert ds.g_t.tobytes() == np.array(g_t).tobytes()
        assert ds.g_0.tobytes() == np.array(g_0).tobytes()

    SIGNED_ZEROS = ([-0.0], [1.0, -0.0], [-0.0, -0.0], [0.1, 0.2, -0.3], [-1.0, 1.0, -0.0])

    def test_bit_equal_to_backward_loop_on_signed_zeros(self):
        for rewards in self.SIGNED_ZEROS:
            got = datasets.compute_returns(rewards)
            assert got.tobytes() == np.array(backward_returns(rewards)).tobytes(), rewards

    def test_episodes_back_to_back_equal_each_alone(self):
        # one pass over episodes of different lengths, each summed alone
        rng = derive_stream(4, "returns")
        episodes = [*self.SIGNED_ZEROS, [2.5], [(rng.next_uniform() - 0.5) * 10 for _ in range(40)]]
        got = datasets.compute_returns(sum(episodes, []), [len(e) for e in episodes])
        want = [g for rewards in episodes for g in backward_returns(rewards)]
        assert got.tobytes() == np.array(want).tobytes()
        with pytest.raises(ValueError):
            datasets.compute_returns([1.0, 2.0], [2, 0])


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
        g0 = episode_g0(ds)
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
        real = seed42_collection
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


def reference_fmt_array(values):
    """The reference for `_fmt_array`: one `format` call per float, with
    -0 written -0.0."""
    tokens = [format(float(x), ".17g") for x in values]
    return "[" + ",".join("-0.0" if text == "-0" else text for text in tokens) + "]"


def random_finite_floats(n, label):
    """Finite float64s from uniformly random bit patterns (about 1 in 2048
    patterns is inf or nan and is dropped)."""
    values = derive_stream(13, label).next_u64_array(n + n // 100).view(np.float64)
    return values[np.isfinite(values)][:n]


def assert_exact_text(values):
    values = np.asarray(values, dtype=np.float64)
    text = datasets._fmt_array(values)
    assert text == reference_fmt_array(values)
    tokens = text[1:-1].split(",") if len(values) else []
    back = np.array([float(token) for token in tokens], dtype=np.float64)
    assert back.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    return text


class TestFmtArray:
    def test_random_bit_patterns_match_per_element_reference(self):
        values = random_finite_floats(10_000, "fmt")
        assert len(values) == 10_000
        assert_exact_text(values)

    def test_random_lengths_with_signed_zeros_match_reference(self):
        values = random_finite_floats(4_000, "fmt-zeros")
        rng = derive_stream(14, "fmt-zeros")
        # about one value in four becomes +0.0 or -0.0
        zeros = rng.next_int_array(8, len(values))
        values[zeros == 0] = 0.0
        values[zeros == 1] = -0.0
        start = 0
        while start < len(values):
            stop = start + rng.next_int(40)  # lengths 0..39
            assert_exact_text(values[start:stop])
            start = stop

    @pytest.mark.parametrize(
        "values, text",
        [
            ([-0.0, 1.0, 0.0], "[-0.0,1,0]"),
            ([0.0, -0.0, 0.0], "[0,-0.0,0]"),
            ([0.0, 2.5, -0.0], "[0,2.5,-0.0]"),
            ([-0.0], "[-0.0]"),
            ([-0.0, -0.0], "[-0.0,-0.0]"),
            ([0.0], "[0]"),
            ([5e-324, -5e-324], "[4.9406564584124654e-324,-4.9406564584124654e-324]"),
            ([2.2250738585072009e-308], "[2.2250738585072009e-308]"),
            ([1e-5, -1e-5], "[1.0000000000000001e-05,-1.0000000000000001e-05]"),
            ([1e16, -1e16], "[10000000000000000,-10000000000000000]"),
            ([1e17, -1e17], "[1e+17,-1e+17]"),
            ([1.0, -3.0, 10.0, -10.0, 100.0], "[1,-3,10,-10,100]"),
            ([-0.0, -1e-100, -0.0, 1e300], "[-0.0,-1e-100,-0.0,1.0000000000000001e+300]"),
            ([0.1], "[0.10000000000000001]"),
            ([], "[]"),
        ],
    )
    def test_edge_cases(self, values, text):
        assert assert_exact_text(values) == text

    def test_not_one_dimensional_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            datasets._fmt_array(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="1-D"):
            datasets._fmt_array(np.float64(1.0))


class TestFmtRows:
    """save writes a matrix of exact 0.0/1.0 entries through one byte
    table; `_fmt_array` per row is the reference, and every other matrix
    keeps it."""

    def one_hot(self):
        rng = derive_stream(15, "fmt-rows")
        matrix = np.zeros((50, 144))
        matrix[np.arange(50), rng.next_int_array(144, 50)] = 1.0
        matrix[:, 36:] = rng.next_int_array(2, 50 * 108).reshape(50, 108)
        return matrix

    def one_negative_zero(self):
        matrix = self.one_hot()
        matrix[3, 40] = -0.0
        return matrix

    @pytest.mark.parametrize(
        "case", ["one-hot", "one-negative-zero", "non-binary", "no-rows", "no-columns"]
    )
    def test_equals_per_row_fmt_array(self, case):
        matrix = {
            "one-hot": self.one_hot,
            "one-negative-zero": self.one_negative_zero,
            "non-binary": lambda: self.one_hot() * 2.0 - 0.5,
            "no-rows": lambda: np.zeros((0, 144)),
            "no-columns": lambda: np.zeros((3, 0)),
        }[case]()
        got = datasets._fmt_rows(matrix)
        assert got == [datasets._fmt_array(row) for row in matrix]
        if case == "one-negative-zero":
            assert ["-0.0" in row for row in got] == [i == 3 for i in range(50)]

    def test_one_hot_rows_are_digits_and_commas(self):
        matrix = self.one_hot()
        assert datasets._fmt_rows(matrix)[0] == "[" + ",".join(
            "1" if v else "0" for v in matrix[0]
        ) + "]"
        assert datasets._fmt_rows(matrix[:, ::3]) == [
            datasets._fmt_array(row) for row in matrix[:, ::3]
        ]  # a strided view


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
        ds = from_episodes([Episode(seed=2**63 + 7, epsilon=0.0, steps=[step])], meta={})
        path = str(tmp_path / "f.jsonl")
        datasets.save(ds, path)
        loaded = datasets.load(path)
        assert loaded.reward[0] == -0.30000000000000004
        assert np.array_equal(loaded.obs[0], obs)
        assert loaded.seed[0] == 2**63 + 7

    def test_negative_zero_round_trips(self, tmp_path):
        obs = np.array([-0.0, 0.0])
        step = (obs, 0, -obs, -0.0, True)
        ds = from_episodes([Episode(seed=0, epsilon=0.0, steps=[step])], meta={})
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

    @pytest.mark.parametrize(
        "bad_rows",
        [float, str, lambda n: True, lambda n: -1],
        ids=["float", "str", "bool", "negative"],
    )
    def test_row_count_not_an_integer_raises_naming_the_sidecar(self, tmp_path, bad_rows):
        # the float and str forms carry the true row count, which the
        # row-count comparison alone let through or misreported
        ds = toy_dataset([[1.0, 2.0], [3.0]])
        path = str(tmp_path / "x.jsonl")
        datasets.save(ds, path)
        meta_path = str(tmp_path / "x.meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["rows"] = bad_rows(len(ds))
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        if type(meta["rows"]) is int:
            reason = re.escape(f"rows must be >= 0, not {meta['rows']}")
        else:
            reason = re.escape(f"rows {meta['rows']!r} is not an integer >= 0")
        with pytest.raises(SchemaError, match=f"^{re.escape(meta_path)}: {reason}$"):
            datasets.load(path)

    def test_meta_row_count_matches_lines(self, tmp_path):
        cfg = EnvConfig()
        ds = expert.collect(cfg, list(range(5)), 20, [0.0, 0.3], root_seed=8, meta={"root_seed": 8})
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

    def test_lines_equal_per_row_formatting_across_blocks(self, tmp_path):
        # 80 rows: save formats 32 at a time, and the one-hot observation
        # blocks take the byte table while the block holding 0.5 does not
        rng = derive_stream(16, "save-blocks")
        obs = np.zeros((80, 8))
        obs[np.arange(80), rng.next_int_array(8, 80)] = 1.0
        obs[50, 3] = 0.5
        steps = [
            (obs[i], i % 5, obs[(i + 1) % 80], rng.next_uniform() - 0.5, i % 10 == 9)
            for i in range(80)
        ]
        episodes = [
            Episode(seed=2**63 + k, epsilon=0.0, steps=steps[k * 10 : k * 10 + 10])
            for k in range(8)
        ]
        ds = from_episodes(episodes, meta={})
        path = tmp_path / "blocks.jsonl"
        datasets.save(ds, str(path))
        want = [
            f'{{"episode_id":{e},"t":{t},"seed":{seed},"obs":{reference_fmt_array(o)},'
            f'"action":{a},"next_obs":{reference_fmt_array(n)},'
            f'"reward":{reference_fmt_array([r])[1:-1]},"done":{"true" if d else "false"},'
            f'"g_t":{reference_fmt_array([g])[1:-1]},"g_0":{reference_fmt_array([g0])[1:-1]}}}'
            for e, t, seed, o, a, n, r, d, g, g0 in zip(*(getattr(ds, c) for c in datasets.COLUMNS))
        ]
        assert len(ds) == 80 and path.read_text().splitlines() == want

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
        path = str(tmp_path / "c.jsonl")
        datasets.save(expert.collect(EnvConfig(), list(range(6)), 12, [0.0, 0.3], 9), path)
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


@pytest.fixture()
def parses(monkeypatch):
    """The body parses `load` starts from here on, from an empty memo,
    failed ones included; each entry is the body it parses."""
    monkeypatch.setattr(datasets, "_memo", {})
    parse, calls = datasets._parse_rows, []

    def counting(body, *args):
        calls.append(body)
        return parse(body, *args)

    monkeypatch.setattr(datasets, "_parse_rows", counting)
    return calls


@pytest.fixture()
def json_parses(monkeypatch):
    """The paths `parse_json` decodes from here on, from an empty memo,
    failed decodes included: every parse of a checkpoint, a synthetic set,
    a dataset sidecar or a cohort's meta.json."""
    monkeypatch.setattr(datasets, "_memo", {})
    parse, calls = datasets.parse_json, []

    def counting(path, data):
        calls.append(path)
        return parse(path, data)

    monkeypatch.setattr(datasets, "parse_json", counting)
    return calls


def assert_same_bytes(a, b):
    """Equal columns byte for byte (the object column `seed` by value),
    with the dtypes of COLUMNS, and equal meta."""
    for name, dtype in datasets.COLUMNS.items():
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype == dtype and col_a.shape == col_b.shape, name
        if dtype is object:
            assert col_a.tolist() == col_b.tolist(), name
        else:
            assert col_a.tobytes() == col_b.tobytes(), name
    assert a.meta == b.meta


def rewrite(path, old, new):
    """Replace the one occurrence of `old` in a file with `new`."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.count(old) == 1
    with open(path, "wb") as fh:
        fh.write(data.replace(old, new))


class TestLoadMemo:
    @pytest.fixture()
    def saved(self, tmp_path):
        ds = expert.collect(EnvConfig(), list(range(4)), 8, [0.0, 0.3], 6, meta={"root_seed": 6})
        path = str(tmp_path / "offline.jsonl")
        datasets.save(ds, path)
        return path

    def test_repeated_load_equals_a_fresh_parse(self, saved, parses, monkeypatch):
        first = datasets.load(saved)
        again = datasets.load(saved)
        assert len(parses) == 1 and again is not first
        monkeypatch.setattr(datasets, "_memo", {})
        fresh = datasets.load(saved)
        assert len(parses) == 2
        assert_same_bytes(again, fresh)
        assert_same_bytes(first, fresh)
        assert fresh.meta == {"root_seed": 6}

    def test_one_byte_change_to_the_body_is_picked_up(self, saved, parses):
        before = datasets.load(saved)
        assert before.seed[0] == 0
        rewrite(saved, b'{"episode_id":0,"t":0,"seed":0,', b'{"episode_id":0,"t":0,"seed":7,')
        after = datasets.load(saved)
        assert len(parses) == 2
        assert after.seed.tolist() == [7] + before.seed.tolist()[1:]

    def test_one_byte_change_to_the_sidecar_alone_is_picked_up(self, saved, parses):
        meta_path = datasets._meta_path(saved)
        n = len(datasets.load(saved))
        rewrite(meta_path, b'"root_seed": 6', b'"root_seed": 5')
        assert datasets.load(saved).meta == {"root_seed": 5}
        assert len(parses) == 2
        # a row count one less on an unchanged body is checked again
        rewrite(meta_path, f'"rows": {n}'.encode(), f'"rows": {n - 1}'.encode())
        with pytest.raises(SchemaError, match=f"meta says {n - 1}, file has {n}$"):
            datasets.load(saved)

    def test_columns_are_read_only_on_the_first_load_and_a_repeat(self, saved, parses):
        for _ in range(2):  # each load checked before the next one is made
            ds = datasets.load(saved)
            for name in datasets.COLUMNS:
                col = getattr(ds, name)
                with pytest.raises(ValueError, match="read-only"):
                    col[:1] = col[:1]
        assert len(parses) == 1

    def test_each_load_has_its_own_meta(self, saved, parses):
        first = datasets.load(saved)
        first.meta["root_seed"] = 99
        first.meta["note"] = "x"
        again = datasets.load(saved)
        assert again.meta == {"root_seed": 6}
        again.meta.clear()
        assert datasets.load(saved).meta == {"root_seed": 6}
        assert len(parses) == 1

    def test_a_failed_load_between_two_good_loads_keeps_nothing(self, saved, parses, tmp_path):
        good = datasets.load(saved)
        # return consistency is the last check, after every row parsed
        bad = str(tmp_path / "bad.jsonl")
        datasets.save(good, bad)
        rewrite(bad, b'{"episode_id":0,"t":1,', b'{"episode_id":0,"t":5,')
        for _ in range(2):
            with pytest.raises(SchemaError, match="transitions not contiguous/t-ordered"):
                datasets.load(bad)
        again = datasets.load(saved)
        assert len(parses) == 3  # the good file, then the bad one twice
        assert_same_bytes(again, good)

    @pytest.mark.usefixtures("own_helper")
    def test_in_process_run_all_parses_the_offline_dataset_once(
        self, tmp_path, parses, json_parses, monkeypatch
    ):
        # on the helper path, which trains half of each cohort, then inline
        config = os.path.join(os.path.dirname(__file__), "data", "smoke.config.json")
        for fits in (True, False):
            if helper._helper is not None:
                helper._helper.close()
            monkeypatch.setattr(helper, "fits", lambda: fits)
            monkeypatch.setattr(datasets, "_memo", {})
            parses.clear()
            json_parses.clear()
            out = tmp_path / f"out-{fits}"
            assert cli.main(["--config", config, "--out", str(out), "run-all"]) == 0
            assert (helper._helper is not None and not helper._helper.closed) is fits
            assert parses == [(out / "offline.jsonl").read_bytes()]
            # no checkpoint and no synthetic set it wrote itself: only the
            # config file, the dataset's sidecar, read on every load, and
            # each cohort's meta.json, which eval reads once and nothing
            # memoizes
            cohorts = ["bc40", "bc100", "synthetic"]
            metas = [str(out / "checkpoints" / method / "meta.json") for method in cohorts]
            assert set(json_parses) == {config, str(out / "offline.meta.json"), *metas}
            assert sorted(json_parses.count(path) for path in metas) == [1, 1, 1]


def make_checkpoint():
    shape = tinynet.NetShape(in_dim=6, hidden=4, out_dim=5)
    return tinynet.init_params(shape, derive_stream(77, "m"))


def make_synthetic():
    ds = expert.collect(EnvConfig(), list(range(4)), 8, [0.0, 0.3], 6, meta={"root_seed": 6})
    syn = distill.init_synthetic(ds, 9, False, derive_stream(15, "m"), learn_labels=True)
    syn.provenance = {"source": "6", "epochs": 0, "final_loss": None, "root_seed": 6}
    return syn


class Artifact(NamedTuple):
    make: Callable
    save: Callable
    load: Callable
    arrays: Callable  # the artifact's arrays by name, its first the file's first array
    rest: Callable  # the part that is not an array


ARTIFACTS = {
    "checkpoint": Artifact(
        make_checkpoint,
        tinynet.save_checkpoint,
        tinynet.load_checkpoint,
        lambda params: {"theta": params.theta},
        lambda params: params.shape,
    ),
    "synthetic": Artifact(
        make_synthetic,
        distill.save_synthetic,
        distill.load_synthetic,
        lambda syn: {"xs": syn.xs, "labels": syn.labels, "label_logits": syn.label_logits},
        lambda syn: syn.provenance,
    ),
}


def assert_same_artifact(kind, a, b):
    """Equal arrays byte for byte, with equal dtypes and shapes, and an
    equal shape or provenance."""
    arrays_a, arrays_b = ARTIFACTS[kind].arrays(a), ARTIFACTS[kind].arrays(b)
    for name, x in arrays_a.items():
        y = arrays_b[name]
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert ARTIFACTS[kind].rest(a) == ARTIFACTS[kind].rest(b)


@pytest.mark.parametrize("kind", ARTIFACTS)
class TestSaveHandsItsValueToTheNextLoad:
    """`tinynet.save_checkpoint` and `distill.save_synthetic` prime the memo
    with what they wrote; a fresh parse of the file is the reference."""

    @pytest.fixture()
    def saved(self, kind, tmp_path):
        path = str(tmp_path / f"{kind}.json")
        obj = ARTIFACTS[kind].make()
        ARTIFACTS[kind].save(obj, path)
        return obj, path

    def fresh(self, kind, path, monkeypatch):
        monkeypatch.setattr(datasets, "_memo", {})
        return ARTIFACTS[kind].load(path)

    def test_a_load_after_a_save_does_not_parse_and_equals_a_fresh_parse(
        self, kind, json_parses, saved, monkeypatch
    ):
        obj, path = saved
        handed = ARTIFACTS[kind].load(path)
        assert json_parses == []
        fresh = self.fresh(kind, path, monkeypatch)
        assert json_parses == [path]
        assert_same_artifact(kind, handed, fresh)
        assert_same_artifact(kind, handed, obj)

    @pytest.mark.parametrize("cut", ["one byte", "truncation"])
    def test_a_file_changed_after_the_save_is_parsed(self, kind, cut, json_parses, saved):
        obj, path = saved
        artifact = ARTIFACTS[kind]
        with open(path, "rb") as fh:
            data = fh.read()
        if cut == "truncation":
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
            with pytest.raises(SchemaError, match=f"^{re.escape(path)}: malformed JSON"):
                artifact.load(path)
        else:
            # the first digit of the file's first array entry, one up
            at = data.index(b"[") + re.search(rb"\d", data[data.index(b"[") :]).start()
            with open(path, "wb") as fh:
                fh.write(data[:at] + b"%d" % ((data[at] - ord("0") + 1) % 10) + data[at + 1 :])
            name, before = next(iter(artifact.arrays(obj).items()))
            changed = artifact.arrays(artifact.load(path))[name].ravel() != before.ravel()
            assert changed.tolist() == [True] + [False] * (changed.size - 1)
        assert json_parses == [path]

    def test_a_non_finite_value_saved_still_fails_at_load(self, kind, json_parses, tmp_path):
        artifact = ARTIFACTS[kind]
        obj = artifact.make()
        next(iter(artifact.arrays(obj).values())).ravel()[0] = np.nan  # past the constructor
        path = str(tmp_path / f"{kind}.json")
        artifact.save(obj, path)
        for _ in range(2):
            with pytest.raises(SchemaError, match=f"^{re.escape(path)}: "):
                artifact.load(path)
        assert json_parses == [path, path]
        assert path not in datasets._memo

    def test_mutating_the_saved_object_does_not_change_the_load(
        self, kind, json_parses, saved, monkeypatch
    ):
        obj, path = saved
        artifact = ARTIFACTS[kind]
        kept = artifact.load(path)
        for array in artifact.arrays(obj).values():
            array.ravel()[:2] = array.ravel()[1::-1] + 1
        if kind == "synthetic":
            obj.provenance["epochs"] = 99
        handed = artifact.load(path)
        assert json_parses == []
        fresh = self.fresh(kind, path, monkeypatch)
        assert_same_artifact(kind, handed, fresh)
        assert_same_artifact(kind, kept, fresh)
        for name, array in artifact.arrays(obj).items():
            assert array.tobytes() != artifact.arrays(fresh)[name].tobytes(), name

    def test_arrays_are_read_only_hit_or_miss(self, kind, json_parses, saved, monkeypatch):
        _, path = saved
        artifact = ARTIFACTS[kind]
        returns = [artifact.load(path), self.fresh(kind, path, monkeypatch), artifact.load(path)]
        assert json_parses == [path]  # a hit on the save, a miss, a hit on the parse
        for loaded in returns:
            for array in artifact.arrays(loaded).values():
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = array[:1]

    def test_a_failed_load_keeps_nothing(self, kind, json_parses, saved):
        _, path = saved
        bad = path + ".bad.json"
        with open(path, "rb") as fh:
            data = fh.read()
        with open(bad, "wb") as fh:
            fh.write(data.replace(b"[", b"{", 1))
        for _ in range(2):
            with pytest.raises(SchemaError, match=f"^{re.escape(bad)}: "):
                ARTIFACTS[kind].load(bad)
        assert json_parses == [bad, bad]
        assert bad not in datasets._memo


class TestCheckpointHandOver:
    """A theta nothing can write is memoized as itself; any other is copied."""

    def test_a_trained_students_theta_is_handed_over_as_it_is(self, json_parses, tmp_path):
        shape = tinynet.NetShape(in_dim=6, hidden=4, out_dim=5)
        rows = np.eye(6)
        cfg = trainer.TrainConfig(steps=3, batch=4)
        cohort = trainer.train_cohort(rows, np.arange(6) % 5, cfg, shape, 2, 5)
        path = str(tmp_path / "student_1.json")
        tinynet.save_checkpoint(cohort[1], path)
        assert tinynet.load_checkpoint(path).theta is cohort[1].theta
        assert json_parses == []
        with pytest.raises(ValueError):
            cohort[1].theta.flags.writeable = True

    def test_a_read_only_view_of_a_writable_array_is_copied(self, json_parses, tmp_path):
        params = make_checkpoint()
        owner = params.theta.copy()
        view = owner[:]
        view.flags.writeable = False
        path = str(tmp_path / "student.json")
        tinynet.save_checkpoint(tinynet.PolicyParams(theta=view, shape=params.shape), path)
        owner += 1.0
        loaded = tinynet.load_checkpoint(path)
        assert json_parses == []
        assert loaded.theta.tobytes() == params.theta.tobytes()


class TestSyntheticLoads:
    def test_each_load_is_its_own_set_with_its_own_provenance(self, json_parses, tmp_path):
        path = str(tmp_path / "synthetic.json")
        distill.save_synthetic(make_synthetic(), path)
        first = distill.load_synthetic(path)
        first.provenance["epochs"] = 99
        first.label_logits = None
        again = distill.load_synthetic(path)
        assert again is not first and again.xs is first.xs  # the arrays are shared
        assert again.provenance == make_synthetic().provenance
        assert again.label_logits is not None
        assert json_parses == []


def test_importing_the_package_loads_no_hashlib(tmp_path):
    # the memo keys on the built-in hash(), not on a digest
    src = os.path.dirname(os.path.dirname(griddistill.__file__))
    code = (
        "import sys, griddistill\n"
        "from griddistill import tinynet\n"
        "from griddistill.rng import derive_stream\n"
        "params = tinynet.init_params(tinynet.NetShape(2, 2, 2), derive_stream(1, 'h'))\n"
        "tinynet.save_checkpoint(params, sys.argv[1])\n"
        "tinynet.load_checkpoint(sys.argv[1])\n"
        "print(sorted({'_hashlib', 'hashlib'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestWriteAtomic:
    def test_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with datasets.write_atomic(str(path)) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"  # readers see the old file until the swap
        assert path.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    @pytest.mark.parametrize("existed", [True, False])
    def test_a_failed_write_leaves_the_target_as_it_was(self, tmp_path, existed):
        path = tmp_path / "out.txt"
        if existed:
            path.write_text("old\n")
        with pytest.raises(RuntimeError, match="boom"):
            with datasets.write_atomic(str(path)) as fh:
                fh.write("half")
                raise RuntimeError("boom")
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.txt"] if existed else [])
        if existed:
            assert path.read_text() == "old\n"
