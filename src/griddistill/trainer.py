"""Behavioral-cloning student training on real, filtered, or synthetic
data, plus the 10-student replication protocol.

Students on real data run 1000 Adam steps at batch 256; students on the
synthetic set run 100 steps at batch 15 (both lr 5e-3). Batches are drawn
uniformly with replacement from whichever source is given. Soft synthetic
labels feed the cross-entropy directly, no argmax hardening.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tinynet
from .distill import SyntheticDataset
from .optim import Adam
from .rng import RngStream, derive_stream


@dataclass
class TrainConfig:
    steps: int = 1000
    batch: int = 256
    lr: float = 5e-3

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    @classmethod
    def for_real(cls):
        return cls(steps=1000, batch=256, lr=5e-3)

    @classmethod
    def for_synthetic(cls):
        return cls(steps=100, batch=15, lr=5e-3)


@dataclass
class StudentRun:
    student_index: int
    params: tinynet.PolicyParams
    final_train_loss: float
    config: TrainConfig


def train_student(
    source,
    cfg: TrainConfig,
    shape: tinynet.NetShape,
    rng: RngStream,
    student_index: int = 0,
) -> StudentRun:
    """One student: fresh init, then cfg.steps of sample / bc_grad /
    adam_step. final_train_loss is the last batch's pre-update loss."""
    if len(source) == 0:
        raise ValueError("training source is empty")
    if isinstance(source, SyntheticDataset):
        rows, targets = source.xs, source.training_labels()
    else:
        rows, targets = source.obs_matrix(), source.action_vector()
    params = tinynet.init_params(shape, rng)
    opt = Adam(dim=shape.param_count, lr=cfg.lr)
    theta = params.theta
    ones = np.ones(cfg.batch)
    for _ in range(cfg.steps):
        idx = rng.next_int_array(len(rows), cfg.batch)
        xs, labels = rows[idx], targets[idx]
        current = tinynet.PolicyParams(theta=theta, shape=shape)
        grad = tinynet.bc_grad(current, xs, labels, ones)
        theta = opt.step(theta, grad)
    last_loss = tinynet.bc_loss(current, xs, labels, ones) if cfg.steps else float("nan")
    return StudentRun(
        student_index=student_index,
        params=tinynet.PolicyParams(theta=theta, shape=shape),
        final_train_loss=last_loss,
        config=cfg,
    )


def train_cohort(
    source,
    cfg: TrainConfig,
    shape: tinynet.NetShape,
    n_students: int,
    root_seed: int,
    jobs: int = 1,
) -> list:
    """Independent students, each on its own derived stream `student:i`.
    Output order is by student index regardless of scheduling."""
    if n_students < 1:
        raise ValueError("n_students must be >= 1")

    def one(i: int) -> StudentRun:
        return train_student(
            source, cfg, shape, derive_stream(root_seed, f"student:{i}"), student_index=i
        )

    if jobs <= 1 or n_students == 1:
        return [one(i) for i in range(n_students)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, range(n_students)))
