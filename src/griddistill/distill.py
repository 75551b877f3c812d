"""Learn a small synthetic dataset whose cloning-loss gradients mimic the
real offline data's, in expectation over fresh network initializations.

Each epoch draws K fresh parameter vectors and one real minibatch per
draw, averages the gradient of the squared gradient-matching distance over
the K draws, and takes one momentum-SGD step on the synthetic inputs (and,
optionally, on per-row label logits). Synthetic inputs are unconstrained
reals; they start as copies of real observations but are free to leave the
one-hot manifold.
"""

import copy
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import datasets, fields, tinynet
from .gridenv import N_ACTIONS
from .optim import SgdMomentum
from .rng import LaneCursor, RngStream

LABEL_LOGIT_SCALE = 3.0  # initial logits: one-hot * scale, softmax ~0.83 on the action


@dataclass
class DistillConfig:
    epochs: int = 1000
    inits_per_epoch: int = 4
    real_batch: int = 256
    lr: float = 0.1
    momentum: float = 0.5
    synthetic_size: int = 150
    learn_labels: bool = False
    balanced_init: bool = False

    def __post_init__(self):
        fields.integer("epochs", self.epochs, 0)
        fields.integer("inits_per_epoch", self.inits_per_epoch, 1)
        fields.integer("real_batch", self.real_batch, 1)
        fields.integer("synthetic_size", self.synthetic_size, 1)
        fields.boolean("learn_labels", self.learn_labels)
        fields.boolean("balanced_init", self.balanced_init)
        fields.real("lr", self.lr, 0, low_open=True)
        fields.real("momentum", self.momentum, 0, 1)


@dataclass
class SyntheticDataset:
    """The learnable object: a row matrix of observations plus one label
    per row (hard action, or a logit vector when labels are learned)."""

    xs: np.ndarray  # (m, in_dim) float64
    labels: np.ndarray  # (m,) int64 hard actions sampled at init
    label_logits: np.ndarray | None = None  # (m, out_dim) when learning labels
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return self.xs.shape[0]

    def training_labels(self):
        """What a student trains against: soft distributions when logits
        are present, else the hard actions."""
        if self.label_logits is not None:
            z = self.label_logits - self.label_logits.max(axis=1, keepdims=True)
            ez = np.exp(z)
            return ez / ez.sum(axis=1, keepdims=True)
        return self.labels


def init_synthetic(
    ds: datasets.OfflineDataset,
    m: int,
    balanced: bool,
    rng: RngStream,
    learn_labels: bool = False,
) -> SyntheticDataset:
    """Seed the synthetic set with m real (obs, action) rows.

    Unbalanced: uniform without replacement (with replacement once m
    exceeds the dataset). Balanced: spread m as evenly as possible over the
    action classes and draw within each class, topping up from the whole
    dataset when a class is under-represented.
    """
    if len(ds) == 0:
        raise ValueError("cannot initialize from an empty dataset")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(ds)
    if balanced:
        base, extra = divmod(m, N_ACTIONS)
        parts = []
        for a in range(N_ACTIONS):
            quota = base + (1 if a < extra else 0)
            pool = np.flatnonzero(ds.action == a)
            if len(pool) >= quota:
                parts.append(pool[rng.shuffle(len(pool))[:quota]])
            else:
                parts += [pool, rng.next_int_array(n, quota - len(pool))]
        idx = np.concatenate(parts)
    elif m <= n:
        idx = np.asarray(rng.shuffle(n)[:m], dtype=np.int64)
    else:
        idx = rng.next_int_array(n, m)
    labels = ds.action[idx]
    logits = None
    if learn_labels:
        logits = np.zeros((m, N_ACTIONS))
        logits[np.arange(m), labels] = LABEL_LOGIT_SCALE
    return SyntheticDataset(
        xs=ds.obs[idx],
        labels=labels,
        label_logits=logits,
    )


def distill(
    ds: datasets.OfflineDataset,
    cfg: DistillConfig,
    shape: tinynet.NetShape,
    rng: RngStream,
) -> tuple[SyntheticDataset, list]:
    """Full distillation run; returns the trained set and the per-epoch
    mean matching loss (measured before each update).

    The loop's draws (init weights, real minibatch indices) go through a
    read-ahead `LaneCursor` on `rng`: the same words in the same order, but
    `rng` ends up to one refill past the last word used, so nothing may
    read it after this call."""
    syn = init_synthetic(ds, cfg.synthetic_size, cfg.balanced_init, rng, cfg.learn_labels)
    draws = LaneCursor(rng)
    m = len(syn)
    in_dim = shape.in_dim
    n_x = m * in_dim
    flat = syn.xs.ravel().copy()
    if cfg.learn_labels:
        flat = np.concatenate([flat, syn.label_logits.ravel()])
    opt = SgdMomentum(dim=flat.shape[0], lr=cfg.lr, momentum=cfg.momentum)
    history = []
    ones = np.ones(cfg.real_batch)
    for _epoch in range(cfg.epochs):
        grad_acc = np.zeros_like(flat)
        loss_acc = 0.0
        xs_view = flat[:n_x].reshape(m, in_dim)
        labels = flat[n_x:].reshape(m, N_ACTIONS) if cfg.learn_labels else syn.labels
        for _k in range(cfg.inits_per_epoch):
            theta = tinynet.init_params(shape, draws)
            real_xs, real_actions = datasets.sample_batch(ds, cfg.real_batch, draws)
            g_real = tinynet.bc_grad(theta, real_xs, real_actions, ones)
            res = tinynet.matching_grad_wrt_examples(
                theta, g_real, xs_view, labels, learn_labels=cfg.learn_labels
            )
            g = res.grad_x.ravel()
            if cfg.learn_labels:
                g = np.concatenate([g, res.grad_label_logits.ravel()])
            grad_acc += g
            loss_acc += res.loss
        flat = opt.step(flat, grad_acc / cfg.inits_per_epoch)
        history.append(loss_acc / cfg.inits_per_epoch)
    syn.xs = flat[:n_x].reshape(m, in_dim).copy()
    if cfg.learn_labels:
        syn.label_logits = flat[n_x:].reshape(m, N_ACTIONS).copy()
    syn.provenance = {
        "source": str(ds.meta.get("root_seed", "")),
        "epochs": cfg.epochs,
        "final_loss": history[-1] if history else None,
    }
    return syn, history


def save_synthetic(syn: SyntheticDataset, path: str) -> None:
    """JSON file {xs, labels, label_logits?, provenance} with exact decimal
    floats, byte-stable across runs. The memo is primed with a read-only
    copy of what was written (`datasets.prime`), so the next load of the
    file skips the parse."""
    # what the written JSON decodes to, for `prime`
    obj = {"xs": list(syn.xs), "labels": [int(a) for a in syn.labels]}
    rows = ",".join(datasets._fmt_array(row) for row in obj["xs"])
    labels = ",".join(map(str, obj["labels"]))
    parts = [f'"xs":[{rows}]', f'"labels":[{labels}]']
    if syn.label_logits is not None:
        obj["label_logits"] = list(syn.label_logits)
        lrows = ",".join(datasets._fmt_array(row) for row in obj["label_logits"])
        parts.append(f'"label_logits":[{lrows}]')
    prov = json.dumps(syn.provenance, sort_keys=True, separators=(",", ":"))
    obj["provenance"] = json.loads(prov)
    parts.append(f'"provenance":{prov}')
    text = "{" + ",".join(parts) + "}\n"
    with datasets.write_atomic(path) as fh:
        fh.write(text)
    datasets.prime(path, text, lambda: _synthetic(path, obj))


def _as_array(obj: dict, key: str, dtype, path: str) -> np.ndarray:
    try:
        return np.asarray(obj[key], dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise datasets.SchemaError(f"{path}: {key} is not a rectangular numeric array") from exc


def _synthetic(path: str, obj) -> SyntheticDataset:
    """The synthetic set in `obj`, a decoded synthetic file, validated,
    with read-only arrays of its own; SchemaError as in `load_synthetic`."""
    if not isinstance(obj, dict) or not {"xs", "labels"} <= obj.keys():
        raise datasets.SchemaError(f"{path}: expected an object with xs and labels")
    xs = _as_array(obj, "xs", np.float64, path)
    if xs.ndim != 2 or not np.isfinite(xs).all():
        raise datasets.SchemaError(f"{path}: xs must be a finite 2-D matrix")
    labels = _as_array(obj, "labels", None, path)
    if (
        labels.shape != (len(xs),)
        or labels.dtype.kind not in "iu"
        or not np.all((labels >= 0) & (labels < N_ACTIONS))
    ):
        raise datasets.SchemaError(f"{path}: labels must hold one action in [0, 5) per row")
    logits = obj.get("label_logits")
    if logits is not None:
        logits = _as_array(obj, "label_logits", np.float64, path)
        if logits.shape != (len(xs), N_ACTIONS) or not np.isfinite(logits).all():
            raise datasets.SchemaError(f"{path}: label_logits must be a finite (rows, 5) matrix")
    syn = SyntheticDataset(
        xs=xs,
        labels=labels.astype(np.int64),
        label_logits=logits,
        provenance=obj.get("provenance", {}),
    )
    for array in (syn.xs, syn.labels, syn.label_logits):
        if array is not None:
            array.flags.writeable = False
    return syn


def load_synthetic(path: str) -> SyntheticDataset:
    """Load a saved synthetic set, validated at the file boundary: raises
    SchemaError unless xs is a finite 2-D matrix, labels hold one action in
    [0, N_ACTIONS) per row, and label_logits, when present, are finite
    (rows, N_ACTIONS).

    The file is read once, as bytes, through the memo
    (`datasets.memoized`): bytes this process last wrote or parsed at
    `path` return their set without a parse. Each call returns its own
    SyntheticDataset, with its own copy of the provenance; the arrays are
    shared and read-only on every return, hit or miss. A failed load keeps
    nothing."""
    with open(path, "rb") as fh:
        data = fh.read()
    syn = datasets.memoized(
        path, (data,), lambda: _synthetic(path, datasets.parse_json(path, data))
    )
    return replace(syn, provenance=copy.deepcopy(syn.provenance))
