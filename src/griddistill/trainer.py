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

A cohort trains as one block: its S students are the rows of one (S, P)
parameter array, and each step makes one stacked gradient-kernel call and
one stacked Adam update for all of them. Student i still reads only its
own stream, in the order a lone student reads it, and every stacked
product is the same BLAS call per row as on that row alone, so each
student's bytes equal those of `train_student` on its stream.

So a cohort can also be split: when a helper process fits beside this one
(`helper.fits`) and there are at least two students, the helper trains
students S//2 .. S-1 as one block while this process trains students
0 .. S//2-1; the two halves join into one (S, P) block with the bytes the
whole cohort gets inline. Otherwise, or when no helper takes the task
(`helper.start`), the whole cohort trains here.
"""

from dataclasses import dataclass

import numpy as np

from . import fields, helper, tinynet
from .optim import Adam
from .rng import RngStream, derive_stream, next_int_arrays

# Index words per schedule draw, for the whole cohort (1 MiB). One draw
# steps every student's lanes together, so its fixed cost of 512 vector
# steps is paid once for all of them; a 10-student cohort at batch 256 draws
# 51 steps at a time. On 2 cores, twice this block drew a full-size 1000-step
# schedule in 134 ms instead of 161 ms, but raised the peak RSS of a
# full-size bc100 training process from 41.4 to 44.4 MB.
_DRAW_WORDS = 131_072


@dataclass
class TrainConfig:
    steps: int = 1000
    batch: int = 256
    lr: float = 5e-3

    def __post_init__(self):
        fields.integer("steps", self.steps, 0)
        fields.integer("batch", self.batch, 1)
        fields.real("lr", self.lr, 0, low_open=True)

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
    step. targets[i] is row i's action, or its label distribution. The
    one-stream case of `_train_block`."""
    return _students(_train_block(rows, targets, cfg, shape, [rng]), shape)[0]


def train_cohort(
    rows: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    shape: tinynet.NetShape,
    n_students: int,
    root_seed: int,
) -> list:
    """Independent students in index order, student i on its own derived
    stream `student:i`, trained together as one block, or as two halves
    on two processes (see the module docstring)."""
    if n_students < 1:
        raise ValueError("n_students must be >= 1")
    streams = [derive_stream(root_seed, f"student:{i}") for i in range(n_students)]
    half = n_students // 2
    worker = None
    if half and helper.fits():
        worker = helper.start(_train_block, (rows, targets, cfg, shape, streams[half:]))
    if worker is None:
        return _students(_train_block(rows, targets, cfg, shape, streams), shape)
    try:
        theta = _train_block(rows, targets, cfg, shape, streams[:half])
    except BaseException:
        worker.close()
        raise
    return _students(np.concatenate([theta, worker.result()]), shape)


def _students(theta, shape) -> list:
    """The rows of a trained block as students, read-only: a saved row is
    memoized as itself, not a copy."""
    theta.flags.writeable = False
    return [tinynet.PolicyParams(theta=row, shape=shape) for row in theta]


def _train_block(rows, targets, cfg, shape, streams) -> np.ndarray:
    """Student i on streams[i], all stepped as one (S, P) block, returned.
    Each stream gives init weights, then the index schedule, drawn for all
    students at once, at most `_DRAW_WORDS` words per draw (consecutive
    draws give the same indices as one). Inputs are checked once, here;
    the loop calls the unchecked kernel that `tinynet.bc_grad` wraps."""
    rows = np.asarray(rows, dtype=np.float64)
    n = len(rows)
    if n == 0:
        raise ValueError("training source is empty")
    if len(targets) != n:
        raise ValueError("rows and targets differ in length")
    if rows.ndim != 2 or rows.shape[1] != shape.in_dim:
        raise ValueError(f"rows have shape {rows.shape}, expected (n, {shape.in_dim})")
    labels = tinynet._as_label_matrix(targets, shape.out_dim)
    theta = np.stack([tinynet.init_params(shape, rng).theta for rng in streams])
    opt = Adam(shape=theta.shape, lr=cfg.lr)
    students, batch = len(streams), cfg.batch
    uniform = np.full(batch, 1.0 / batch)
    offsets = np.arange(students)[:, None] * n  # student i counts into bins i*n..i*n+n-1
    block = max(1, _DRAW_WORDS // (students * batch))  # steps per schedule draw
    for start in range(0, cfg.steps, block):
        steps = min(block, cfg.steps - start)
        schedule = next_int_arrays(streams, n, steps * batch).reshape(students, steps, batch)
        for step in range(steps):
            idx = schedule[:, step]  # (S, batch)
            if n < batch:
                counts = np.bincount((idx + offsets).ravel(), minlength=students * n)
                grad = tinynet._grad_kernel(
                    theta, shape, rows, labels, counts.reshape(students, n) / batch
                )
            else:
                grad = tinynet._grad_kernel(theta, shape, rows[idx], labels[idx], uniform)
            theta = opt.step(theta, grad)
    return theta
