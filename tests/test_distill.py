import errno
import json
import os
import pathlib
import re
import signal

import numpy as np
import pytest

from griddistill import checks, cli, datasets, expert, helper, tinynet
from griddistill import distill as dst
from griddistill.gridenv import EnvConfig
from griddistill.optim import SgdMomentum
from griddistill.rng import derive_stream
from griddistill.tinynet import NetShape

from helpers import Episode, from_episodes, matching_loss
from test_datasets import toy_dataset


@pytest.fixture(scope="module")
def small_collection():
    cfg = EnvConfig()
    return expert.collect(cfg, list(range(20)), 40, [0.0, 0.1, 0.3], 17, meta={"root_seed": 17})


def constant_dataset(n_rows=8, in_dim=6):
    """Every transition is the same (obs, action) pair."""
    obs = np.zeros(in_dim)
    obs[1] = 1.0
    episodes = [Episode(seed=0, epsilon=0.0, steps=[(obs, 2, obs, 1.0, True)])] * n_rows
    return from_episodes(episodes, meta={})


class TestInitSynthetic:
    def test_full_draw_is_permutation(self, small_collection):
        ds = small_collection
        syn = dst.init_synthetic(ds, len(ds), False, derive_stream(0, "init"))
        src = sorted(map(tuple, np.column_stack([ds.obs, ds.action])))
        got = sorted(map(tuple, np.column_stack([syn.xs, syn.labels])))
        assert got == src

    def test_oversample_with_replacement(self):
        ds = toy_dataset([[1.0], [2.0]])
        syn = dst.init_synthetic(ds, 10, False, derive_stream(1, "init"))
        assert len(syn) == 10

    def test_balanced_counts_within_one(self, small_collection):
        ds = small_collection
        counts = np.bincount(ds.action, minlength=5)
        m = 5 * int(counts.min())
        if m == 0:
            pytest.skip("collection lacks some action entirely")
        syn = dst.init_synthetic(ds, m, True, derive_stream(2, "init"))
        got = np.bincount(syn.labels, minlength=5)
        assert np.all(np.abs(got - m / 5) <= 1)

    def test_balanced_fallback_when_class_missing(self):
        # all rows share action 0; balanced must still return m rows
        ds = toy_dataset([[1.0], [2.0], [3.0]])
        syn = dst.init_synthetic(ds, 10, True, derive_stream(3, "init"))
        assert len(syn) == 10

    def test_initial_rows_are_real_observations(self, small_collection):
        syn = dst.init_synthetic(small_collection, 150, False, derive_stream(4, "init"))
        assert len(syn) == 150
        assert set(np.unique(syn.xs)) <= {0.0, 1.0}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            dst.init_synthetic(from_episodes([], {}), 5, False, derive_stream(0, "i"))

    def test_learn_labels_initial_logits(self):
        ds = toy_dataset([[1.0], [2.0]])
        syn = dst.init_synthetic(ds, 4, False, derive_stream(5, "init"), learn_labels=True)
        assert syn.label_logits.shape == (4, 5)
        soft = syn.training_labels()
        assert np.allclose(soft.sum(axis=1), 1.0)
        assert np.all(soft.argmax(axis=1) == syn.labels)


class TestMatchingLoss:
    def test_zero_when_identical(self, small_collection):
        shape = NetShape(in_dim=144)
        rng = derive_stream(6, "ml")
        params = tinynet.init_params(shape, rng)
        syn = dst.init_synthetic(small_collection, 20, False, rng)
        loss = matching_loss(params, syn.xs, syn.labels, syn)
        assert loss == 0.0

    def test_nonnegative(self, small_collection):
        shape = NetShape(in_dim=144)
        rng = derive_stream(7, "ml2")
        params = tinynet.init_params(shape, rng)
        syn = dst.init_synthetic(small_collection, 20, False, rng)
        xs, acts = datasets.sample_batch(small_collection, 32, rng)
        assert matching_loss(params, xs, acts, syn) >= 0.0

    def test_composes_validated_gradients(self):
        # tiny instance: value equals the squared distance of the two
        # bc_grad vectors computed independently here
        shape = NetShape(in_dim=4, hidden=3, out_dim=5)
        rng = derive_stream(8, "ml3")
        params = tinynet.init_params(shape, rng)
        real_xs = np.array([[checks._gauss(rng) for _ in range(4)] for _ in range(6)])
        real_labels = np.array([rng.next_int(5) for _ in range(6)], dtype=np.int64)
        syn = dst.SyntheticDataset(
            xs=np.array([[checks._gauss(rng) for _ in range(4)] for _ in range(3)]),
            labels=np.array([0, 2, 4], dtype=np.int64),
        )
        got = matching_loss(params, real_xs, real_labels, syn)
        g_r = tinynet.bc_grad(params, real_xs, real_labels, np.ones(6))
        g_s = tinynet.bc_grad(params, syn.xs, syn.labels, np.ones(3))
        assert got == pytest.approx(float(np.sum((g_r - g_s) ** 2)), rel=1e-12)


class TestDistill:
    def test_zero_epochs_returns_init(self, small_collection):
        cfg = dst.DistillConfig(epochs=0, synthetic_size=12)
        shape = NetShape(in_dim=144)
        syn, history = dst.distill(small_collection, cfg, shape, derive_stream(9, "d"))
        ref = dst.init_synthetic(small_collection, 12, False, derive_stream(9, "d"))
        assert history == []
        assert np.array_equal(syn.xs, ref.xs)
        assert np.array_equal(syn.labels, ref.labels)

    def test_constant_dataset_stationary(self):
        # real_batch=1 makes the real and synthetic gradient computations
        # bitwise identical, so the distance sits exactly at its minimum
        ds = constant_dataset()
        cfg = dst.DistillConfig(epochs=5, synthetic_size=1, real_batch=1, inits_per_epoch=2)
        shape = NetShape(in_dim=6, hidden=3, out_dim=5)
        init = dst.init_synthetic(ds, 1, False, derive_stream(10, "d"))
        syn, history = dst.distill(ds, cfg, shape, derive_stream(10, "d"))
        assert all(loss == 0.0 for loss in history)
        assert np.array_equal(syn.xs, init.xs)

    def test_zero_lr_keeps_init_bit_for_bit(self, small_collection):
        # a config rejects lr 0 when it loads; the loop itself must still
        # leave the init untouched under a zero step
        cfg = dst.DistillConfig(epochs=3, synthetic_size=10)
        cfg.lr = 0.0
        shape = NetShape(in_dim=144)
        syn, history = dst.distill(small_collection, cfg, shape, derive_stream(11, "d"))
        ref = dst.init_synthetic(small_collection, 10, False, derive_stream(11, "d"))
        assert np.array_equal(syn.xs, ref.xs)
        assert len(history) == 3

    def test_losses_nonnegative_and_history_length(self, small_collection):
        cfg = dst.DistillConfig(epochs=4, synthetic_size=10)
        shape = NetShape(in_dim=144)
        _, history = dst.distill(small_collection, cfg, shape, derive_stream(12, "d"))
        assert len(history) == 4
        assert all(loss >= 0.0 for loss in history)

    def test_determinism(self, small_collection):
        cfg = dst.DistillConfig(epochs=3, synthetic_size=8)
        shape = NetShape(in_dim=144)
        a, ha = dst.distill(small_collection, cfg, shape, derive_stream(13, "d"))
        b, hb = dst.distill(small_collection, cfg, shape, derive_stream(13, "d"))
        assert np.array_equal(a.xs, b.xs)
        assert ha == hb

    def test_learn_labels_updates_logits(self, small_collection):
        cfg = dst.DistillConfig(epochs=3, synthetic_size=8, learn_labels=True)
        shape = NetShape(in_dim=144)
        syn, _ = dst.distill(small_collection, cfg, shape, derive_stream(14, "d"))
        init = dst.init_synthetic(
            small_collection, 8, False, derive_stream(14, "d"), learn_labels=True
        )
        assert not np.array_equal(syn.label_logits, init.label_logits)

    def test_single_theta_one_step_decreases_loss(self, small_collection):
        # fixed theta, full-dataset real gradient, lr 1e-4: one step must
        # strictly reduce the matching distance (5 random instances)
        ds = small_collection
        shape = NetShape(in_dim=144)
        full_xs = ds.obs
        full_acts = ds.action
        ones = np.ones(len(ds))
        for case in range(5):
            rng = derive_stream(100 + case, "sanity")
            theta = tinynet.init_params(shape, rng)
            g_real = tinynet.bc_grad(theta, full_xs, full_acts, ones)
            syn = dst.init_synthetic(ds, 10, False, rng)
            res = tinynet.matching_grad_wrt_examples(theta, g_real, syn.xs, syn.labels)
            before = res.loss
            opt = SgdMomentum(dim=syn.xs.size, lr=1e-4, momentum=0.0)
            flat = opt.step(syn.xs.ravel(), res.grad_x.ravel())
            after = tinynet.matching_grad_wrt_examples(
                theta, g_real, flat.reshape(10, 144), syn.labels
            ).loss
            assert after < before


def distilled(ds, cfg, shape, seed):
    """distill's outputs, as bytes and the exact loss history."""
    syn, history = dst.distill(ds, cfg, shape, derive_stream(seed, "d"))
    logits = None if syn.label_logits is None else syn.label_logits.tobytes()
    return syn.xs.tobytes(), syn.labels.tobytes(), logits, history


def no_fork():
    raise AssertionError("forked a process")


def failing_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


SMOKE_CONFIG = pathlib.Path(__file__).parent / "data" / "smoke.config.json"

HELPER_CASES = {
    "hard labels": (dst.DistillConfig(epochs=4, synthetic_size=12), NetShape(in_dim=144)),
    "learned labels, balanced init": (
        dst.DistillConfig(epochs=4, synthetic_size=10, learn_labels=True, balanced_init=True),
        NetShape(in_dim=144),
    ),
    "one init per epoch": (
        dst.DistillConfig(epochs=5, inits_per_epoch=1, synthetic_size=8),
        NetShape(in_dim=144),
    ),
    "another shape": (dst.DistillConfig(epochs=3, synthetic_size=6), NetShape(in_dim=144, hidden=7)),
}


class TestHelper:
    """The helper process gives the inline loop's bytes, and is forked
    once, reused, replaced after a failure and reaped."""

    @pytest.fixture(scope="class")
    def expected(self, small_collection):
        mp = pytest.MonkeyPatch()
        mp.setattr(helper, "fits", lambda: False)
        try:
            return {
                name: distilled(small_collection, cfg, shape, 20)
                for name, (cfg, shape) in HELPER_CASES.items()
            }
        finally:
            mp.undo()

    @pytest.mark.parametrize(
        "cpus, env, fits",
        [
            (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
            (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
            (2, {}, False),  # OpenBLAS runs one thread per CPU
            (3, {"OPENBLAS_NUM_THREADS": "2"}, False),
            (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True),
            (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
            (2, {"OMP_NUM_THREADS": "1"}, True),
            (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
            (2, {"OPENBLAS_NUM_THREADS": "x"}, False),
        ],
    )
    def test_a_helper_fits_with_two_cpus_per_blas_thread(self, monkeypatch, cpus, env, fits):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert helper.fits() is fits

    @pytest.mark.usefixtures("own_helper")
    def test_every_case_on_one_helper_gives_the_inline_bytes(self, small_collection, expected):
        pids = set()
        for name, (cfg, shape) in HELPER_CASES.items():
            assert distilled(small_collection, cfg, shape, 20) == expected[name], name
            pids.add(helper._helper.pid)
        assert len(pids) == 1

    @pytest.mark.usefixtures("inline")
    def test_inline_path_forks_nothing(self, small_collection, expected, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        cfg, shape = HELPER_CASES["hard labels"]
        assert distilled(small_collection, cfg, shape, 20) == expected["hard labels"]

    @pytest.mark.usefixtures("own_helper")
    def test_zero_epochs_forks_nothing(self, small_collection, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        syn, history = dst.distill(
            small_collection, dst.DistillConfig(epochs=0, synthetic_size=5),
            NetShape(in_dim=144), derive_stream(21, "d"),
        )
        assert history == [] and len(syn) == 5
        assert helper._helper is None

    @pytest.mark.usefixtures("own_helper")
    def test_a_killed_helper_raises_and_the_next_call_forks_afresh(
        self, small_collection, expected, monkeypatch
    ):
        cfg, shape = HELPER_CASES["hard labels"]
        distilled(small_collection, cfg, shape, 20)
        killed, bc_grad = helper._helper.pid, tinynet.bc_grad

        def killing_the_helper(*args):
            os.kill(killed, signal.SIGKILL)
            return bc_grad(*args)

        # this process draws the real gradients, so the helper dies mid-task
        monkeypatch.setattr(tinynet, "bc_grad", killing_the_helper)
        with pytest.raises(RuntimeError, match=rf"process {killed} ended with exit status -9 "):
            distilled(small_collection, cfg, shape, 20)
        assert helper._helper.closed
        monkeypatch.setattr(tinynet, "bc_grad", bc_grad)
        assert distilled(small_collection, cfg, shape, 20) == expected["hard labels"]
        assert helper._helper.pid != killed

    @pytest.mark.usefixtures("own_helper")
    def test_a_helper_ended_while_idle_leaves_the_call_inline(self, small_collection, expected):
        cfg, shape = HELPER_CASES["hard labels"]
        worker = helper.shared()
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        assert distilled(small_collection, cfg, shape, 20) == expected["hard labels"]
        assert worker.closed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert distilled(small_collection, cfg, shape, 20) == expected["hard labels"]
        assert helper._helper.pid != worker.pid

    @pytest.mark.usefixtures("own_helper")
    def test_a_failed_fork_leaves_the_call_inline(self, small_collection, expected, monkeypatch):
        monkeypatch.setattr(os, "fork", failing_fork)
        cfg, shape = HELPER_CASES["hard labels"]
        assert distilled(small_collection, cfg, shape, 20) == expected["hard labels"]
        assert helper._helper is None

    @pytest.mark.usefixtures("own_helper")
    def test_a_failure_in_the_helper_is_raised_as_its_own(self, small_collection, monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("matching gradient failed")

        # patched before the helper is forked, so the helper runs it
        monkeypatch.setattr(tinynet, "matching_grad_wrt_examples", broken)
        cfg, shape = HELPER_CASES["hard labels"]
        with pytest.raises(FloatingPointError, match="^matching gradient failed$"):
            distilled(small_collection, cfg, shape, 20)
        assert helper._helper.closed

    def test_a_failed_distill_command_writes_nothing(self, tmp_path, monkeypatch, own_helper):
        out = tmp_path / "out"
        args = ["--config", str(SMOKE_CONFIG), "--out", str(out)]
        cli.main([*args, "collect"])
        before = sorted(os.listdir(out))

        def broken(*args, **kwargs):
            raise FloatingPointError("matching gradient failed")

        monkeypatch.setattr(tinynet, "matching_grad_wrt_examples", broken)
        with pytest.raises(FloatingPointError):
            cli.main([*args, "distill"])
        assert sorted(os.listdir(out)) == before

    @pytest.mark.usefixtures("own_helper")
    def test_a_forked_child_does_not_inherit_the_helper(self, small_collection):
        cfg, shape = HELPER_CASES["one init per epoch"]
        distilled(small_collection, cfg, shape, 20)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if helper._helper is None else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert not helper._helper.closed

    @pytest.mark.usefixtures("own_helper")
    def test_after_close_no_child_is_left(self, small_collection):
        cfg, shape = HELPER_CASES["one init per epoch"]
        distilled(small_collection, cfg, shape, 20)
        helper._helper.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("unmemoized")
class TestSyntheticFile:
    def test_round_trip(self, small_collection, tmp_path):
        syn = dst.init_synthetic(small_collection, 9, False, derive_stream(15, "f"))
        syn.provenance = {"root_seed": 17, "epochs": 0}
        path = str(tmp_path / "syn.json")
        dst.save_synthetic(syn, path)
        loaded = dst.load_synthetic(path)
        assert np.array_equal(loaded.xs, syn.xs)
        assert np.array_equal(loaded.labels, syn.labels)
        assert loaded.label_logits is None
        assert loaded.provenance == syn.provenance

    def test_round_trip_with_logits(self, small_collection, tmp_path):
        syn = dst.init_synthetic(
            small_collection, 5, False, derive_stream(16, "f"), learn_labels=True
        )
        path = str(tmp_path / "syn2.json")
        dst.save_synthetic(syn, path)
        loaded = dst.load_synthetic(path)
        assert np.array_equal(loaded.label_logits, syn.label_logits)

    def test_negative_zero_round_trips(self, small_collection, tmp_path):
        syn = dst.init_synthetic(
            small_collection, 4, False, derive_stream(18, "f"), learn_labels=True
        )
        syn.xs[0, :2] = [-0.0, 0.0]
        syn.label_logits[1, :2] = [0.0, -0.0]
        path = str(tmp_path / "syn0.json")
        dst.save_synthetic(syn, path)
        loaded = dst.load_synthetic(path)
        assert np.signbit(loaded.xs[0, 0]) and np.signbit(loaded.label_logits[1, 1])
        assert np.array_equal(np.signbit(loaded.xs), np.signbit(syn.xs))
        assert np.array_equal(np.signbit(loaded.label_logits), np.signbit(syn.label_logits))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.pop("xs"),
            lambda o: o.pop("labels"),
            lambda o: o.__setitem__("xs", o["xs"][0]),  # 1-D
            lambda o: o.__setitem__("xs", [[1e999] + row[1:] for row in o["xs"]]),
            lambda o: o.__setitem__("xs", [o["xs"][0], o["xs"][1][:-1]] + o["xs"][2:]),
            lambda o: o.__setitem__("labels", o["labels"][:-3]),
            lambda o: o.__setitem__("labels", o["labels"] + [0, 0, 0]),
            lambda o: o.__setitem__("labels", [5] + o["labels"][1:]),
            lambda o: o.__setitem__("labels", [-1] + o["labels"][1:]),
            lambda o: o.__setitem__("labels", [0.5] + o["labels"][1:]),
            lambda o: o.__setitem__("label_logits", [[0.0] * 5] * (len(o["xs"]) - 1)),
            lambda o: o.__setitem__("label_logits", [[0.0] * 4] * len(o["xs"])),
        ],
    )
    def test_malformed_file_raises_schema_error(self, small_collection, tmp_path, edit):
        syn = dst.init_synthetic(small_collection, 9, False, derive_stream(18, "f"))
        path = str(tmp_path / "syn.json")
        dst.save_synthetic(syn, path)
        obj = json.load(open(path))
        edit(obj)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(datasets.SchemaError):
            dst.load_synthetic(path)

    def test_truncated_file_raises_schema_error(self, small_collection, tmp_path):
        syn = dst.init_synthetic(small_collection, 9, False, derive_stream(19, "f"))
        path = str(tmp_path / "syn.json")
        dst.save_synthetic(syn, path)
        body = open(path).read()
        with open(path, "w") as fh:
            fh.write(body[: len(body) // 2])
        with pytest.raises(datasets.SchemaError, match=rf"^{re.escape(path)}: malformed JSON \("):
            dst.load_synthetic(path)

    def test_bytes_deterministic(self, small_collection, tmp_path):
        syn = dst.init_synthetic(small_collection, 7, False, derive_stream(17, "f"))
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        dst.save_synthetic(syn, p1)
        dst.save_synthetic(syn, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
