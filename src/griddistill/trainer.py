"""Behavioral-cloning student training on real, filtered, or synthetic
data, plus the 10-student replication protocol.

Students on real data run 1000 Adam steps at batch 256; students on the
synthetic set run 100 steps at batch 15 (both lr 5e-3). Batches are drawn
uniformly with replacement from the given (rows, targets) pairs: real
observations and actions, or synthetic rows and their training labels.
Soft synthetic labels feed the cross-entropy directly, no argmax hardening.
"""

from dataclasses import dataclass

import numpy as np

from . import tinynet
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


def train_student(
    rows: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    shape: tinynet.NetShape,
    rng: RngStream,
) -> tinynet.PolicyParams:
    """One student: fresh init, then cfg.steps of sample / bc_grad /
    adam_step. targets[i] is row i's action, or its label distribution."""
    if len(rows) == 0:
        raise ValueError("training source is empty")
    if len(targets) != len(rows):
        raise ValueError("rows and targets differ in length")
    params = tinynet.init_params(shape, rng)
    opt = Adam(dim=shape.param_count, lr=cfg.lr)
    theta = params.theta
    ones = np.ones(cfg.batch)
    for _ in range(cfg.steps):
        idx = rng.next_int_array(len(rows), cfg.batch)
        current = tinynet.PolicyParams(theta=theta, shape=shape)
        theta = opt.step(theta, tinynet.bc_grad(current, rows[idx], targets[idx], ones))
    return tinynet.PolicyParams(theta=theta, shape=shape)


def train_cohort(
    rows: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    shape: tinynet.NetShape,
    n_students: int,
    root_seed: int,
) -> list:
    """Independent students in index order, student i on its own derived
    stream `student:i`."""
    if n_students < 1:
        raise ValueError("n_students must be >= 1")
    return [
        train_student(rows, targets, cfg, shape, derive_stream(root_seed, f"student:{i}"))
        for i in range(n_students)
    ]
