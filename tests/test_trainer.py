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


class TestTrainStudent:
    def test_zero_steps_returns_init(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=0, batch=4)
        run = trainer.train_student(tiny_collection, cfg, shape, derive_stream(1, "s"))
        ref = tinynet.init_params(shape, derive_stream(1, "s"))
        assert np.array_equal(run.params.theta, ref.theta)
        assert np.isnan(run.final_train_loss)

    def test_final_loss_is_last_batch_pre_update_loss(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=3, batch=8)
        run = trainer.train_student(tiny_collection, cfg, shape, derive_stream(6, "s"))
        rng = derive_stream(6, "s")
        theta = tinynet.init_params(shape, rng).theta
        opt = Adam(dim=shape.param_count, lr=cfg.lr)
        ones = np.ones(cfg.batch)
        for _ in range(cfg.steps):
            xs, labels = datasets.sample_batch(tiny_collection, cfg.batch, rng)
            current = tinynet.PolicyParams(theta=theta, shape=shape)
            loss = tinynet.bc_loss(current, xs, labels, ones)
            theta = opt.step(theta, tinynet.bc_grad(current, xs, labels, ones))
        assert run.final_train_loss == loss
        assert np.array_equal(run.params.theta, theta)

    def test_one_repeated_example_reaches_low_loss(self):
        ds = constant_dataset(n_rows=1)
        shape = NetShape(in_dim=6, hidden=8, out_dim=5)
        cfg = trainer.TrainConfig(steps=1000, batch=4, lr=5e-3)
        run = trainer.train_student(ds, cfg, shape, derive_stream(2, "s"))
        xs = ds.obs_matrix()[:1]
        labels = ds.action_vector()[:1]
        final = tinynet.bc_loss(run.params, xs, labels, np.ones(1))
        assert final <= 0.01

    def test_same_seed_identical_params(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=20, batch=8)
        a = trainer.train_student(tiny_collection, cfg, shape, derive_stream(3, "s"))
        b = trainer.train_student(tiny_collection, cfg, shape, derive_stream(3, "s"))
        assert np.array_equal(a.params.theta, b.params.theta)
        assert a.final_train_loss == b.final_train_loss

    def test_synthetic_source_with_soft_labels(self, tiny_collection):
        syn = dst.init_synthetic(
            tiny_collection, 10, False, derive_stream(4, "s"), learn_labels=True
        )
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=5, batch=3)
        run = trainer.train_student(syn, cfg, shape, derive_stream(5, "s"))
        assert np.all(np.isfinite(run.params.theta))

    def test_empty_source_rejected(self):
        shape = NetShape(in_dim=4)
        with pytest.raises(ValueError):
            trainer.train_student(
                datasets.OfflineDataset(transitions=[], meta={}),
                trainer.TrainConfig(),
                shape,
                derive_stream(0, "s"),
            )

    def test_no_nan_parameters(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=50, batch=16)
        run = trainer.train_student(tiny_collection, cfg, shape, derive_stream(6, "s"))
        assert np.all(np.isfinite(run.params.theta))


class TestTrainCohort:
    def test_single_student_equals_direct_call(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=10, batch=8)
        cohort = trainer.train_cohort(tiny_collection, cfg, shape, 1, root_seed=99)
        direct = trainer.train_student(
            tiny_collection, cfg, shape, derive_stream(99, "student:0"), student_index=0
        )
        assert np.array_equal(cohort[0].params.theta, direct.params.theta)

    def test_ten_distinct_initializations(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=0, batch=8)
        cohort = trainer.train_cohort(tiny_collection, cfg, shape, 10, root_seed=7)
        thetas = [run.params.theta for run in cohort]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(thetas[i], thetas[j])

    def test_parallel_matches_serial(self, tiny_collection):
        shape = NetShape(in_dim=144)
        cfg = trainer.TrainConfig(steps=10, batch=8)
        serial = trainer.train_cohort(tiny_collection, cfg, shape, 4, root_seed=11, jobs=1)
        parallel = trainer.train_cohort(tiny_collection, cfg, shape, 4, root_seed=11, jobs=4)
        assert [r.student_index for r in parallel] == [0, 1, 2, 3]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.params.theta, b.params.theta)

    def test_default_configs_match_protocol(self):
        assert trainer.TrainConfig.for_real() == trainer.TrainConfig(steps=1000, batch=256, lr=5e-3)
        assert trainer.TrainConfig.for_synthetic() == trainer.TrainConfig(steps=100, batch=15, lr=5e-3)
