import numpy as np
import pytest

from griddistill import datasets, expert, tinynet, trainer
from griddistill import distill as dst
from griddistill.gridenv import EnvConfig
from griddistill.optim import Adam
from griddistill.rng import derive_stream
from griddistill.tinynet import NetShape

from test_distill import constant_dataset


@pytest.fixture(scope="module")
def tiny_collection():
    cfg = EnvConfig()
    episodes = expert.collect_rollouts(cfg, list(range(8)), 16, [0.0, 0.3], root_seed=23)
    return datasets.from_episodes(episodes, meta={"root_seed": 23})


def columns(ds):
    return ds.obs, ds.action


class TestTrainStudent:
    def test_zero_steps_returns_init(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=0, batch=4)
        params = trainer.train_student(*columns(tiny_collection), cfg, shape, derive_stream(1, "s"))
        ref = tinynet.init_params(shape, derive_stream(1, "s"))
        assert np.array_equal(params.theta, ref.theta)

    def test_params_match_reference_loop(self, tiny_collection):
        # the reference samples through the dataset, not through the arrays
        shape = NetShape(in_dim=144)
        for batch in (8, 256):
            cfg = trainer.TrainConfig(steps=3, batch=batch)
            params = trainer.train_student(
                *columns(tiny_collection), cfg, shape, derive_stream(6, "s")
            )
            rng = derive_stream(6, "s")
            theta = tinynet.init_params(shape, rng).theta
            opt = Adam(dim=shape.param_count, lr=cfg.lr)
            ones = np.ones(cfg.batch)
            for _ in range(cfg.steps):
                xs, labels = datasets.sample_batch(tiny_collection, cfg.batch, rng)
                current = tinynet.PolicyParams(theta=theta, shape=shape)
                theta = opt.step(theta, tinynet.bc_grad(current, xs, labels, ones))
            assert params.theta.tobytes() == theta.tobytes(), batch

    def test_one_repeated_example_reaches_low_loss(self):
        ds = constant_dataset(n_rows=1)
        shape = NetShape(in_dim=6, hidden=8, out_dim=5)
        cfg = trainer.TrainConfig(steps=1000, batch=4, lr=5e-3)
        params = trainer.train_student(*columns(ds), cfg, shape, derive_stream(2, "s"))
        xs = ds.obs[:1]
        labels = ds.action[:1]
        final = tinynet.bc_loss(params, xs, labels, np.ones(1))
        assert final <= 0.01

    def test_same_seed_identical_params(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=20, batch=8)
        a = trainer.train_student(*columns(tiny_collection), cfg, shape, derive_stream(3, "s"))
        b = trainer.train_student(*columns(tiny_collection), cfg, shape, derive_stream(3, "s"))
        assert np.array_equal(a.theta, b.theta)

    def test_synthetic_source_with_soft_labels(self, tiny_collection):
        syn = dst.init_synthetic(
            tiny_collection, 10, False, derive_stream(4, "s"), learn_labels=True
        )
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=5, batch=3)
        params = trainer.train_student(
            syn.xs, syn.training_labels(), cfg, shape, derive_stream(5, "s")
        )
        assert np.all(np.isfinite(params.theta))

    def test_empty_source_rejected(self):
        shape = NetShape(in_dim=4)
        with pytest.raises(ValueError, match="empty"):
            trainer.train_student(
                np.zeros((0, 4)),
                np.zeros(0, dtype=np.int64),
                trainer.TrainConfig(),
                shape,
                derive_stream(0, "s"),
            )

    def test_targets_must_pair_with_rows(self, tiny_collection):
        rows, targets = columns(tiny_collection)
        with pytest.raises(ValueError, match="differ in length"):
            trainer.train_student(
                rows, targets[1:], trainer.TrainConfig(), NetShape(in_dim=144),
                derive_stream(0, "s"),
            )

    def test_no_nan_parameters(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=50, batch=16)
        params = trainer.train_student(*columns(tiny_collection), cfg, shape, derive_stream(6, "s"))
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
                direct = trainer.train_student(
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
