"""Learn a small synthetic dataset whose cloning-loss gradients mimic the
real offline data's, in expectation over fresh network initializations.

Each epoch draws K fresh parameter vectors and one real minibatch per
draw, averages the gradient of the squared gradient-matching distance over
the K draws, and takes one momentum-SGD step on the synthetic inputs (and,
optionally, on per-row label logits). Synthetic inputs are unconstrained
reals; they start as copies of real observations but are free to leave the
one-hot manifold.
"""

import atexit
import copy
import fcntl
import json
import os
import pickle
import select
import signal
import struct
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
    read it after this call.

    When a helper fits beside this process (`_helper_fits`), the matching
    gradients and the SGD steps run in its distill helper process
    (`_Helper`) while this process draws the next (theta, real gradient)
    pairs; otherwise, on one CPU for one, the same loop runs inline. Both
    give the same bytes."""
    syn = init_synthetic(ds, cfg.synthetic_size, cfg.balanced_init, rng, cfg.learn_labels)
    m = len(syn)
    n_x = m * shape.in_dim
    flat = syn.xs.ravel().copy()
    if cfg.learn_labels:
        flat = np.concatenate([flat, syn.label_logits.ravel()])
    task = (flat, syn.labels, cfg, shape)
    items = _real_grads(ds, cfg, shape, LaneCursor(rng))
    if cfg.epochs and _helper_fits():
        flat, history = _shared_helper().descend(task, items)
    else:
        flat, history = _descend(*task, items)
    syn.xs = flat[:n_x].reshape(m, shape.in_dim).copy()
    if cfg.learn_labels:
        syn.label_logits = flat[n_x:].reshape(m, N_ACTIONS).copy()
    syn.provenance = {
        "source": str(ds.meta.get("root_seed", "")),
        "epochs": cfg.epochs,
        "final_loss": history[-1] if history else None,
    }
    return syn, history


def _helper_fits() -> bool:
    """Whether this process may use two CPUs for each BLAS thread it runs,
    so that a helper's BLAS and its own need not share a CPU. The thread
    count is the one OpenBLAS takes at start-up: OPENBLAS_NUM_THREADS,
    else GOTO_NUM_THREADS, else OMP_NUM_THREADS, else one per CPU. With
    two BLAS threads each on two CPUs, a full-size distill took 11-45 s
    on the helper against 5 s inline. Where the OS cannot say which CPUs
    the process may use (no `os.sched_getaffinity`), it counts as one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return cpus >= 2 * threads


def _real_grads(ds, cfg, shape, draws):
    """(theta, the real minibatch's cloning gradient at theta) for every
    init of every epoch, in draw order."""
    ones = np.ones(cfg.real_batch)
    for _ in range(cfg.epochs * cfg.inits_per_epoch):
        theta = tinynet.init_params(shape, draws)
        real_xs, real_actions = datasets.sample_batch(ds, cfg.real_batch, draws)
        yield theta, tinynet.bc_grad(theta, real_xs, real_actions, ones)


def _descend(flat, hard_labels, cfg, shape, items):
    """The epoch loop from the flat start vector (inputs, then label logits
    when learned), taking cfg.inits_per_epoch (theta, real gradient) pairs
    from `items` per epoch; returns the final vector and the per-epoch
    mean losses."""
    m = len(hard_labels)
    n_x = m * shape.in_dim
    opt = SgdMomentum(dim=flat.shape[0], lr=cfg.lr, momentum=cfg.momentum)
    history = []
    for _epoch in range(cfg.epochs):
        grad_acc = np.zeros_like(flat)
        loss_acc = 0.0
        xs_view = flat[:n_x].reshape(m, shape.in_dim)
        labels = flat[n_x:].reshape(m, N_ACTIONS) if cfg.learn_labels else hard_labels
        for _k in range(cfg.inits_per_epoch):
            theta, g_real = next(items)
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
    return flat, history


_PIPE_BYTES = 1 << 20  # ~13 default-size (theta, real gradient) pairs in flight
_LENGTH = struct.Struct("<Q")


# While a task runs, both ends poll their non-blocking pipes instead of
# sleeping on them. On a two-vCPU VM, a variant that slept and woke once
# per pair left the parent's later single-process stages (collect, train,
# eval) 25-45% slower in 15 of 17 alternating distill-soft benchmark
# pairs.


def _write(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        try:
            view = view[os.write(fd, view) :]
        except BlockingIOError:
            pass


def _read_into(fd: int, buf) -> None:
    """Fill `buf` from `fd`; EOFError if the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        try:
            got = os.readv(fd, [view])
        except BlockingIOError:
            continue
        if not got:
            raise EOFError
        view = view[got:]


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _write(fd, _LENGTH.pack(len(data)) + data)


def _recv(fd: int):
    head = bytearray(_LENGTH.size)
    _read_into(fd, head)
    body = bytearray(_LENGTH.unpack(head)[0])
    _read_into(fd, body)
    return pickle.loads(body)


class _Helper:
    """A forked process that runs `_descend` for its parent, one task at a
    time. A task is a length-prefixed pickle of `_descend`'s start (flat
    vector, hard labels, config, shape), then each init's theta and real
    gradient as raw float64 bytes on the same pipe; the reply, a
    length-prefixed pickle on a second pipe, is (True, (flat, history)) or
    (False, the exception `_descend` raised). The helper ends at the end
    of its task pipe: when `close` closes it, or when the parent dies."""

    def __init__(self):
        task_r, self.tasks = os.pipe()
        self.results, reply_w = os.pipe()
        try:
            fcntl.fcntl(self.tasks, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # over the user's pipe-buffer limit: the default size still works
            pass
        for fd in (task_r, self.tasks, self.results, reply_w):
            os.set_blocking(fd, False)
        self.parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.tasks, self.results, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.tasks)
            os.close(self.results)
            code = 1
            try:
                code = _serve(task_r, reply_w)
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(reply_w)
        atexit.register(self.close)

    @property
    def closed(self) -> bool:
        return self.tasks is None

    def descend(self, task, items):
        """`_descend(*task, items)`, run in the helper while this process
        draws `items`. A failure of the helper closes it and raises: its
        own exception, or RuntimeError naming its exit status."""
        try:
            try:
                _send(self.tasks, task)
                for theta, g_real in items:
                    _write(self.tasks, theta.theta)
                    _write(self.tasks, g_real)
            except BrokenPipeError:
                pass  # the helper has ended; its reply or exit status says why
            ok, value = _recv(self.results)
        except EOFError:
            code = self.close()
            cause = f" ({signal.strsignal(-code)})" if code < 0 else ""
            raise RuntimeError(
                f"distill helper process {self.pid} ended with exit status {code}{cause}"
            ) from None
        except BaseException:
            self.close()
            raise
        if not ok:
            self.close()
            raise value
        return value

    def close(self):
        """End the helper and reap it; its exit code, or None if this
        process did not fork it or it was closed already."""
        if self.closed:
            return None
        atexit.unregister(self.close)
        os.close(self.tasks)
        os.close(self.results)
        self.tasks = self.results = None
        if os.getpid() != self.parent:
            return None
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _serve(tasks: int, replies: int) -> int:
    """The helper's loop: run each task, send its reply. Returns the exit
    code: 0 at the end of the task pipe or of the parent's reply pipe, 1
    after a failed task, which it has reported."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    try:
        while True:
            select.select([tasks], [], [])  # sleep between tasks
            flat, hard_labels, cfg, shape = _recv(tasks)
            p = shape.param_count
            buf = np.empty(2 * p)

            def items():
                while True:
                    _read_into(tasks, buf)
                    yield tinynet.PolicyParams(theta=buf[:p], shape=shape), buf[p:]

            try:
                reply = (True, _descend(flat, hard_labels, cfg, shape, items()))
            except EOFError:
                raise
            except Exception as exc:  # reported to the parent, which raises it
                reply = (False, exc)
            _send(replies, reply)
            if not reply[0]:
                return 1
    except (EOFError, BrokenPipeError):
        return 0


_helper = None  # this process's helper, forked on first use


def _shared_helper() -> _Helper:
    global _helper
    if _helper is None or _helper.closed:
        _helper = _Helper()
    return _helper


def _forget_helper():
    """In a forked child: the parent's helper is not the child's."""
    global _helper
    if _helper is not None:
        _helper.close()
        _helper = None


os.register_at_fork(after_in_child=_forget_helper)


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
