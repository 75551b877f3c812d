import numpy as np
import pytest

from griddistill import datasets, expert, helper, tinynet, trainer
from griddistill.checks import _bc_loss
from griddistill import distill as dst
from griddistill.gridenv import EnvConfig
from griddistill.optim import Adam
from griddistill.rng import derive_stream
from griddistill.tinynet import NetShape

from helpers import train_student
from test_distill import constant_dataset


@pytest.fixture(scope="module")
def tiny_collection():
    cfg = EnvConfig()
    return expert.collect(cfg, list(range(8)), 16, [0.0, 0.3], 23, meta={"root_seed": 23})


def columns(ds):
    return ds.obs, ds.action


def reference_student(rows, targets, cfg, shape, rng):
    """One student trained alone, by the per-student loop the block
    replaced: init, one draw of the whole index schedule, then per step
    bc_grad on every row weighted by its count in the drawn batch (n <
    batch) or on the gathered batch, and an Adam step."""
    n = len(rows)
    theta = tinynet.init_params(shape, rng).theta
    schedule = rng.next_int_array(n, cfg.steps * cfg.batch).reshape(cfg.steps, cfg.batch)
    opt = Adam(shape=shape.param_count, lr=cfg.lr)
    for idx in schedule:
        current = tinynet.PolicyParams(theta=theta, shape=shape)
        if n < cfg.batch:
            grad = tinynet.bc_grad(current, rows, targets, np.bincount(idx, minlength=n))
        else:
            grad = tinynet.bc_grad(current, rows[idx], targets[idx], np.ones(cfg.batch))
        theta = opt.step(theta, grad)
    return theta


def random_source(n, soft):
    """n sparse 0/1 rows of width 144 with hard or soft labels."""
    rng = derive_stream(n, "source")
    rows = (rng.next_uniform_array(n * 144).reshape(n, 144) < 0.1).astype(np.float64)
    if not soft:
        return rows, rng.next_int_array(5, n)
    w = rng.next_uniform_array(n * 5).reshape(n, 5) + 0.01
    return rows, w / w.sum(axis=1, keepdims=True)


def assert_cohort_matches_reference(rows, targets, cfg, n_students, root_seed):
    shape = NetShape(in_dim=144)
    cohort = trainer.train_cohort(rows, targets, cfg, shape, n_students, root_seed)
    assert len(cohort) == n_students
    for i, params in enumerate(cohort):
        rng = derive_stream(root_seed, f"student:{i}")
        ref = reference_student(rows, targets, cfg, shape, rng)
        assert params.theta.tobytes() == ref.tobytes(), i


class TestBlockMatchesStudentsAlone:
    @pytest.mark.parametrize("n_students", [1, 3, 10])
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("batch", [64, 16], ids=["counted", "gathered"])
    def test_each_student_equals_the_per_student_loop(self, batch, soft, n_students):
        # 40 rows: count-weighted below batch 64, gathered at batch 16
        rows, targets = random_source(40, soft)
        cfg = trainer.TrainConfig(steps=12, batch=batch)
        assert_cohort_matches_reference(rows, targets, cfg, n_students, root_seed=n_students)

    @pytest.mark.parametrize("batch", [64, 16], ids=["counted", "gathered"])
    def test_zero_steps_is_each_students_init(self, batch):
        rows, targets = random_source(40, False)
        cfg = trainer.TrainConfig(steps=0, batch=batch)
        assert_cohort_matches_reference(rows, targets, cfg, 3, root_seed=5)

    def test_schedule_spanning_two_draw_blocks(self, monkeypatch):
        # 4 students at batch 256 draw 128 steps at a time: 130 steps take
        # two draws, and each student must still read its stream as alone;
        # the whole cohort trains in this process, as one block
        monkeypatch.setattr(helper, "fits", lambda: False)
        rows, targets = random_source(300, False)
        draws = []
        next_int_arrays = trainer.next_int_arrays

        def counting_draw(streams, n, k):
            draws.append(([stream.label for stream in streams], k))
            return next_int_arrays(streams, n, k)

        monkeypatch.setattr(trainer, "next_int_arrays", counting_draw)
        cfg = trainer.TrainConfig(steps=130, batch=256)
        shape = NetShape(in_dim=144)
        cohort = trainer.train_cohort(rows, targets, cfg, shape, 4, root_seed=13)
        labels = [f"student:{i}" for i in range(4)]
        assert draws == [(labels, 128 * 256), (labels, 2 * 256)]
        monkeypatch.undo()
        for i, params in enumerate(cohort):
            rng = derive_stream(13, f"student:{i}")
            ref = reference_student(rows, targets, cfg, shape, rng)
            assert params.theta.tobytes() == ref.tobytes(), i


class TestTrainStudent:
    def test_zero_steps_returns_init(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=0, batch=4)
        params = train_student(*columns(tiny_collection), cfg, shape, derive_stream(1, "s"))
        ref = tinynet.init_params(shape, derive_stream(1, "s"))
        assert np.array_equal(params.theta, ref.theta)

    def test_params_match_reference_loop(self, tiny_collection):
        # one reference on each side of the size rule (88 rows)
        shape = NetShape(in_dim=144)
        rows, targets = columns(tiny_collection)
        # n >= batch: the gathered batch, sampled through the dataset
        cfg = trainer.TrainConfig(steps=3, batch=8)
        params = train_student(rows, targets, cfg, shape, derive_stream(6, "s"))
        rng = derive_stream(6, "s")
        theta = tinynet.init_params(shape, rng).theta
        opt = Adam(shape=shape.param_count, lr=cfg.lr)
        ones = np.ones(cfg.batch)
        for _ in range(cfg.steps):
            xs, labels = datasets.sample_batch(tiny_collection, cfg.batch, rng)
            current = tinynet.PolicyParams(theta=theta, shape=shape)
            theta = opt.step(theta, tinynet.bc_grad(current, xs, labels, ones))
        assert params.theta.tobytes() == theta.tobytes()
        # n < batch: every row, weighted by its count in the drawn batch.
        # Until the size rule, this case gathered the batch as above; the
        # two differ only by rounding (test_count_weights_match_gathered_batch).
        cfg = trainer.TrainConfig(steps=3, batch=256)
        params = train_student(rows, targets, cfg, shape, derive_stream(6, "s"))
        rng = derive_stream(6, "s")
        theta = tinynet.init_params(shape, rng).theta
        opt = Adam(shape=shape.param_count, lr=cfg.lr)
        for _ in range(cfg.steps):
            counts = np.bincount(rng.next_int_array(len(rows), cfg.batch), minlength=len(rows))
            current = tinynet.PolicyParams(theta=theta, shape=shape)
            theta = opt.step(theta, tinynet.bc_grad(current, rows, targets, counts))
        assert params.theta.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("n", [1, 11, 103, 255])
    def test_count_weights_match_gathered_batch(self, n):
        shape = NetShape(in_dim=144)
        rng = derive_stream(n, "grad")
        params = tinynet.init_params(shape, rng)
        rows = rng.next_uniform_array(n * 144).reshape(n, 144)
        targets = rng.next_int_array(5, n)
        idx = rng.next_int_array(n, 256)
        gathered = tinynet.bc_grad(params, rows[idx], targets[idx], np.ones(256))
        counted = tinynet.bc_grad(params, rows, targets, np.bincount(idx, minlength=n))
        assert np.max(np.abs(counted - gathered)) <= 1e-12 * np.max(np.abs(gathered))

    @pytest.mark.parametrize("n", [15, 16, 17])
    def test_cohorts_around_the_batch_size_match_reference(self, tiny_collection, n):
        shape = NetShape(in_dim=144)
        rows, targets = tiny_collection.obs[:n], tiny_collection.action[:n]
        cfg = trainer.TrainConfig(steps=20, batch=16)
        cohort = trainer.train_cohort(rows, targets, cfg, shape, 3, root_seed=31)
        for i, params in enumerate(cohort):
            ref = reference_student(rows, targets, cfg, shape, derive_stream(31, f"student:{i}"))
            assert params.theta.tobytes() == ref.tobytes(), i

    @pytest.mark.parametrize("batch", [3, 16])
    def test_soft_labels_match_reference(self, tiny_collection, batch):
        # 10 soft-labelled rows: gathered at batch 3, count-weighted at 16
        syn = dst.init_synthetic(
            tiny_collection, 10, False, derive_stream(4, "s"), learn_labels=True
        )
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=20, batch=batch)
        labels = syn.training_labels()
        params = train_student(syn.xs, labels, cfg, shape, derive_stream(5, "s"))
        ref = reference_student(syn.xs, labels, cfg, shape, derive_stream(5, "s"))
        assert params.theta.tobytes() == ref.tobytes()

    def test_no_per_step_checks_or_draws(self, tiny_collection, monkeypatch):
        built, draws = [], []
        post_init = tinynet.PolicyParams.__post_init__
        next_int_arrays = trainer.next_int_arrays

        def counting_post_init(params):
            built.append(1)
            post_init(params)

        def counting_draw(streams, n, k):
            draws.append(k)
            return next_int_arrays(streams, n, k)

        def no_prepare(*args):
            raise AssertionError("_prepare_batch called in the training loop")

        monkeypatch.setattr(tinynet.PolicyParams, "__post_init__", counting_post_init)
        monkeypatch.setattr(trainer, "next_int_arrays", counting_draw)
        monkeypatch.setattr(tinynet, "_prepare_batch", no_prepare)
        for batch in (8, 256):
            built.clear()
            draws.clear()
            cfg = trainer.TrainConfig(steps=30, batch=batch)
            train_student(
                *columns(tiny_collection), cfg, NetShape(in_dim=144), derive_stream(8, "s")
            )
            assert len(built) == 2, batch  # the init and the result
            assert draws == [30 * batch]

    def test_diverged_student_raises_at_the_end(self, tiny_collection):
        cfg = trainer.TrainConfig(steps=5, batch=8, lr=1e308)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            train_student(
                *columns(tiny_collection), cfg, NetShape(in_dim=144), derive_stream(8, "s")
            )

    def test_rows_of_another_width_rejected(self, tiny_collection):
        rows, targets = columns(tiny_collection)
        with pytest.raises(ValueError, match=r"expected \(n, 144\)"):
            train_student(
                rows[:, :100], targets, trainer.TrainConfig(), NetShape(in_dim=144),
                derive_stream(0, "s"),
            )

    def test_one_repeated_example_reaches_low_loss(self):
        ds = constant_dataset(n_rows=1)
        shape = NetShape(in_dim=6, hidden=8, out_dim=5)
        cfg = trainer.TrainConfig(steps=1000, batch=4, lr=5e-3)
        params = train_student(*columns(ds), cfg, shape, derive_stream(2, "s"))
        xs = ds.obs[:1]
        labels = ds.action[:1]
        final = _bc_loss(params, xs, labels, np.ones(1))
        assert final <= 0.01

    def test_same_seed_identical_params(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=20, batch=8)
        a = train_student(*columns(tiny_collection), cfg, shape, derive_stream(3, "s"))
        b = train_student(*columns(tiny_collection), cfg, shape, derive_stream(3, "s"))
        assert np.array_equal(a.theta, b.theta)

    def test_synthetic_source_with_soft_labels(self, tiny_collection):
        syn = dst.init_synthetic(
            tiny_collection, 10, False, derive_stream(4, "s"), learn_labels=True
        )
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=5, batch=3)
        params = train_student(
            syn.xs, syn.training_labels(), cfg, shape, derive_stream(5, "s")
        )
        assert np.all(np.isfinite(params.theta))

    def test_empty_source_rejected(self):
        shape = NetShape(in_dim=4)
        with pytest.raises(ValueError, match="empty"):
            train_student(
                np.zeros((0, 4)),
                np.zeros(0, dtype=np.int64),
                trainer.TrainConfig(),
                shape,
                derive_stream(0, "s"),
            )

    def test_targets_must_pair_with_rows(self, tiny_collection):
        rows, targets = columns(tiny_collection)
        with pytest.raises(ValueError, match="differ in length"):
            train_student(
                rows, targets[1:], trainer.TrainConfig(), NetShape(in_dim=144),
                derive_stream(0, "s"),
            )

    def test_no_nan_parameters(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=50, batch=16)
        params = train_student(*columns(tiny_collection), cfg, shape, derive_stream(6, "s"))
        assert np.all(np.isfinite(params.theta))


class TestTrainCohort:
    def test_each_student_equals_direct_call(self, tiny_collection):
        shape = NetShape(in_dim=144)
        # batch 256 draws its indices in whole table blocks
        for batch in (8, 256):
            cfg = trainer.TrainConfig(steps=10, batch=batch)
            cohort = trainer.train_cohort(*columns(tiny_collection), cfg, shape, 4, root_seed=99)
            assert len(cohort) == 4
            for i, params in enumerate(cohort):
                direct = train_student(
                    *columns(tiny_collection), cfg, shape, derive_stream(99, f"student:{i}")
                )
                assert params.theta.tobytes() == direct.theta.tobytes(), (batch, i)

    def test_ten_distinct_initializations(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=0, batch=8)
        cohort = trainer.train_cohort(*columns(tiny_collection), cfg, shape, 10, root_seed=7)
        thetas = [params.theta for params in cohort]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(thetas[i], thetas[j])

    def test_default_configs_match_protocol(self):
        assert trainer.TrainConfig.for_real() == trainer.TrainConfig(steps=1000, batch=256, lr=5e-3)
        assert trainer.TrainConfig.for_synthetic() == trainer.TrainConfig(steps=100, batch=15, lr=5e-3)
