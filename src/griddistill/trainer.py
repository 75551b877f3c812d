"""Behavioral-cloning student training on real, filtered, or synthetic
data, plus the 10-student replication protocol.

Students on real data run 1000 Adam steps at batch 256; students on the
synthetic set run 100 steps at batch 15 (both lr 5e-3). Batches are drawn
uniformly with replacement from the given (rows, targets) pairs: real
observations and actions, or synthetic rows and their training labels.
Soft synthetic labels feed the cross-entropy directly, no argmax hardening.

A set smaller than the batch (n < batch) is not gathered: each step takes
the gradient over all n rows, row i weighted by the number of times the
batch drew it. That is the same objective as the gathered batch, summed
in another order, so the student differs from a gathered-batch one only
by rounding (<= 1e-13 of max |theta| after 1000 steps at seed 42).
"""

import math
import numbers
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
        for name in ("steps", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} {value!r} is not an integer")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not (
            math.isfinite(lr) and lr > 0
        ):
            raise ValueError(f"lr {lr!r} is not a finite number > 0")

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
    """One student: fresh init, then cfg.steps of sample / gradient / Adam
    step. targets[i] is row i's action, or its label distribution.

    Inputs are checked once, here; the loop calls the unchecked gradient
    kernel that `tinynet.bc_grad` wraps. The index schedule of every step
    is one draw, the same words as one batch-sized draw per step."""
    rows = np.asarray(rows, dtype=np.float64)
    n = len(rows)
    if n == 0:
        raise ValueError("training source is empty")
    if len(targets) != n:
        raise ValueError("rows and targets differ in length")
    if rows.ndim != 2 or rows.shape[1] != shape.in_dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (n, {shape.in_dim})")
    labels = tinynet._as_label_matrix(targets, shape.out_dim)
    theta = tinynet.init_params(shape, rng).theta
    schedule = rng.next_int_array(n, cfg.steps * cfg.batch).reshape(cfg.steps, cfg.batch)
    opt = Adam(dim=shape.param_count, lr=cfg.lr)
    uniform = np.full(cfg.batch, 1.0 / cfg.batch)
    for idx in schedule:
        if n < cfg.batch:
            grad = tinynet._grad_kernel(
                theta, shape, rows, labels, np.bincount(idx, minlength=n) / cfg.batch
            )
        else:
            grad = tinynet._grad_kernel(theta, shape, rows[idx], labels[idx], uniform)
        theta = opt.step(theta, grad)
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
