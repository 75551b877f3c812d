"""Fixed two-layer policy network and its gradients.

The architecture is frozen (relu MLP, softmax head) so that both the
first-order parameter gradient of the cloning loss and the second-order
gradient of the gradient-matching distance with respect to input examples
can be written out by hand and checked against finite differences. No
autodiff engine anywhere.

Parameter layout is flat and fixed: [W1 row-major (hidden x in_dim), b1,
W2 row-major (out_dim x hidden), b2]. Labels are either hard action
indices (int vector) or soft distributions over actions (rows on the
simplex).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import datasets, fields
from .datasets import SchemaError, _fmt_array, write_atomic
from .rng import RngStream


@dataclass(frozen=True)
class NetShape:
    in_dim: int
    hidden: int = 32
    out_dim: int = 5

    @property
    def param_count(self) -> int:
        return self.in_dim * self.hidden + self.hidden + self.hidden * self.out_dim + self.out_dim


@dataclass(frozen=True)
class PolicyParams:
    theta: np.ndarray
    shape: NetShape

    def __post_init__(self):
        if self.theta.shape != (self.shape.param_count,):
            raise ValueError(
                f"theta length {self.theta.shape} != param_count {self.shape.param_count}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite entries")


def unpack(params: PolicyParams):
    """Views (W1, b1, W2, b2) into the flat vector; no copies."""
    return _split(params.theta, params.shape)


def _split(t: np.ndarray, s: NetShape):
    """Views (W1, b1, W2, b2) into a flat vector (P,), or into each row of
    an (S, P) block with S as the leading axis of every view; no copies."""
    lead = t.shape[:-1]
    i = 0
    w1 = t[..., i : i + s.hidden * s.in_dim].reshape(*lead, s.hidden, s.in_dim)
    i += s.hidden * s.in_dim
    b1 = t[..., i : i + s.hidden]
    i += s.hidden
    w2 = t[..., i : i + s.out_dim * s.hidden].reshape(*lead, s.out_dim, s.hidden)
    i += s.out_dim * s.hidden
    b2 = t[..., i : i + s.out_dim]
    return w1, b1, w2, b2


def pack(w1, b1, w2, b2) -> np.ndarray:
    """Inverse of _split: the flat vector, or the (S, P) block when the
    pieces carry a leading S axis."""
    lead = b1.shape[:-1]
    return np.concatenate(
        [w1.reshape(*lead, -1), b1, w2.reshape(*lead, -1), b2], axis=-1
    )


def init_params(shape: NetShape, rng: RngStream) -> PolicyParams:
    """Fresh weights: uniform in [-sqrt(6/fan_in), +sqrt(6/fan_in)] per
    layer, biases zero. Draw order is W1 row-major then W2 row-major."""
    bound1 = math.sqrt(6.0 / shape.in_dim)
    bound2 = math.sqrt(6.0 / shape.hidden)
    w1 = (rng.next_uniform_array(shape.hidden * shape.in_dim) * 2.0 - 1.0) * bound1
    w2 = (rng.next_uniform_array(shape.out_dim * shape.hidden) * 2.0 - 1.0) * bound2
    theta = np.concatenate(
        [
            w1,
            np.zeros(shape.hidden),
            w2,
            np.zeros(shape.out_dim),
        ]
    )
    return PolicyParams(theta=theta, shape=shape)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(params: PolicyParams, x: np.ndarray) -> np.ndarray:
    """Action distribution softmax(W2 relu(W1 x + b1) + b2). Accepts a
    single observation, a (batch, in_dim) matrix or a stack of them, e.g.
    evaluation's (8 maps, cells, in_dim) chunk: each slice of a stack is the
    same BLAS call as the 2-D forward on that slice alone, so its rows are
    the same bytes (a tall 2-D product over the whole stack is not)."""
    w1, b1, w2, b2 = unpack(params)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    h = xb @ w1.T
    h += b1
    np.maximum(h, 0.0, out=h)
    z = h @ w2.T + b2
    p = np.exp(_log_softmax(z))
    return p[0] if single else p


def _as_label_matrix(labels: np.ndarray, out_dim: int) -> np.ndarray:
    """Hard index vector -> one-hot rows; soft rows validated and passed
    through."""
    labels = np.asarray(labels)
    if labels.ndim == 1 and labels.dtype.kind in "iu":
        y = np.zeros((labels.shape[0], out_dim))
        y[np.arange(labels.shape[0]), labels] = 1.0
        return y
    if labels.ndim == 2 and labels.shape[1] == out_dim:
        if np.any(labels < 0.0) or np.any(np.abs(labels.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("soft labels must be nonnegative and sum to 1")
        return labels
    raise ValueError(f"labels must be int indices or ({out_dim},) distributions")


def _prepare_batch(params, xs, labels, weights):
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if xs.shape[1] != params.shape.in_dim:
        raise ValueError(f"inputs have dim {xs.shape[1]}, expected {params.shape.in_dim}")
    y = _as_label_matrix(labels, params.shape.out_dim)
    if y.shape[0] != xs.shape[0]:
        raise ValueError("labels and inputs disagree on batch size")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (xs.shape[0],):
        raise ValueError("weights must match the batch length")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    wsum = w.sum()
    if wsum == 0.0:
        raise ValueError("weights sum to zero")
    return xs, y, w, wsum


def bc_loss(params: PolicyParams, xs, labels, weights) -> float:
    """Weighted cloning loss: (1/sum w) * sum_i w_i * CE(forward(x_i), y_i),
    with CE of a hard label a being -log p_a."""
    xs, y, w, wsum = _prepare_batch(params, xs, labels, weights)
    w1, b1, w2, b2 = unpack(params)
    h = np.maximum(xs @ w1.T + b1, 0.0)
    logp = _log_softmax(h @ w2.T + b2)
    ce = -(y * logp).sum(axis=1)
    return float((w * ce).sum() / wsum)


def bc_grad(params: PolicyParams, xs, labels, weights) -> np.ndarray:
    """Exact analytic gradient of bc_loss w.r.t. theta, flat layout.

    Softmax-CE composite: output delta is (p - y); the rest is standard
    backprop through the relu layer.
    """
    xs, y, w, wsum = _prepare_batch(params, xs, labels, weights)
    return _grad_kernel(params.theta[None], params.shape, xs, y, w / wsum)[0]


def _grad_kernel(theta, shape, xs, y, coef) -> np.ndarray:
    """bc_grad of every row of the (S, P) parameter block theta, on checked
    arrays; no checks here. Each of the float64 rows xs (m, in_dim), label
    matrix y (m, out_dim) and normalized weights coef (m,) is either shared
    by all S rows or given per row, with a leading S axis. Returns the
    (S, P) gradient block.

    Each stacked matmul makes, for every slice, the same BLAS call as the
    2-D product on that row alone, and each sum runs over the m axis in
    order, so row i is byte-equal to the kernel on theta[i:i + 1] alone."""
    w1, b1, w2, b2 = _split(theta, shape)
    # In place where a temporary would be (S, m, hidden): the relu turns the
    # pre-activation into h, and h > 0 exactly where it was > 0.
    h = xs @ w1.transpose(0, 2, 1)
    h += b1[:, None, :]
    np.maximum(h, 0.0, out=h)
    p = np.exp(_log_softmax(h @ w2.transpose(0, 2, 1) + b2[:, None, :]))
    delta = (p - y) * coef[..., None]  # (S, m, out)
    g_w2 = delta.transpose(0, 2, 1) @ h
    g_b2 = delta.sum(axis=1)
    e = delta @ w2  # (S, m, hidden)
    e *= h > 0.0
    g_w1 = e.transpose(0, 2, 1) @ xs
    g_b1 = e.sum(axis=1)
    return pack(g_w1, g_b1, g_w2, g_b2)


@dataclass
class MatchGrad:
    """Gradient of the squared gradient-matching distance w.r.t. the
    synthetic batch, plus the distance itself (a free byproduct)."""

    grad_x: np.ndarray  # (m, in_dim)
    grad_label_logits: np.ndarray | None  # (m, out_dim) when labels are learned
    loss: float


def matching_grad_wrt_examples(
    params: PolicyParams,
    real_grad: np.ndarray,
    xs,
    labels,
    learn_labels: bool = False,
) -> MatchGrad:
    """Gradient of D = ||g_real - g_syn||^2 w.r.t. each synthetic input
    (and, when learn_labels, each label logit vector), where g_syn is the
    uniform-weight bc_grad over the synthetic batch.

    Derivation sketch: with v = g_syn - g_real split into (V1, vb1, V2, vb2),
    the per-example inner product <v, grad_theta CE_j> is

        S_j = delta_j' V2 h_j + vb2' delta_j + e_j' V1 x_j + vb1' e_j,

    with delta = p - y and e = (W2' delta) * relu'(u). Differentiating
    through x (relu mask treated locally constant) gives

        dS_j/dx_j = V1' e_j + W1' [ s_j * (V2' delta_j + W2' (J_j c_j)) ],
        c_j = vb2 + V2 h_j + W2 (s_j * (V1 x_j + vb1)),
        J_j c = p * c - p (p . c)   (softmax Jacobian),

    and for logit-parameterized labels dS_j/dlogits_j = -(y * c - y (y . c)).
    The full derivative of D is (2/m) dS_j, since g_syn carries 1/m.
    When learn_labels is set, `labels` must be the (m, out_dim) logit matrix.
    """
    shape = params.shape
    if real_grad.shape != (shape.param_count,):
        raise ValueError("real_grad layout does not match params")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("synthetic batch must be a nonempty (m, in_dim) matrix")
    if xs.shape[1] != shape.in_dim:
        raise ValueError(f"inputs have dim {xs.shape[1]}, expected {shape.in_dim}")
    if learn_labels:
        logits = np.asarray(labels, dtype=np.float64)
        if logits.shape != (xs.shape[0], shape.out_dim):
            raise ValueError("label logits must be (m, out_dim)")
        y = np.exp(_log_softmax(logits))
    else:
        y = _as_label_matrix(labels, shape.out_dim)

    m = xs.shape[0]
    w1, b1, w2, b2 = unpack(params)
    u = xs @ w1.T + b1
    s = (u > 0.0).astype(np.float64)
    h = np.maximum(u, 0.0)
    p = np.exp(_log_softmax(h @ w2.T + b2))
    delta = p - y

    # synthetic-side gradient (uniform weights 1/m)
    g_w2 = delta.T @ h / m
    g_b2 = delta.sum(axis=0) / m
    e = (delta @ w2) * s
    g_w1 = e.T @ xs / m
    g_b1 = e.sum(axis=0) / m
    g_syn = pack(g_w1, g_b1, g_w2, g_b2)

    r = g_syn - real_grad
    loss = float(r @ r)

    v1, vb1, v2, vb2 = _split(r, shape)  # v = r in per-layer blocks

    a = delta @ v2  # rows: V2' delta_j
    c = vb2[None, :] + h @ v2.T + ((xs @ v1.T + vb1) * s) @ w2.T  # rows: c_j
    jc = p * c - p * (p * c).sum(axis=1, keepdims=True)
    mid = (a + jc @ w2) * s
    grad_x = (2.0 / m) * (e @ v1 + mid @ w1)

    grad_logits = None
    if learn_labels:
        yc = y * c
        grad_logits = -(2.0 / m) * (yc - y * yc.sum(axis=1, keepdims=True))
    return MatchGrad(grad_x=grad_x, grad_label_logits=grad_logits, loss=loss)


def save_checkpoint(params: PolicyParams, path: str) -> None:
    """JSON checkpoint {shape: {in, hidden, out}, theta: [...]} with
    round-trip-exact decimal floats. The memo is primed with a read-only
    copy of what was written (`datasets.prime`), so the next load of the
    file skips the parse."""
    s = params.shape
    dims = {"in": s.in_dim, "hidden": s.hidden, "out": s.out_dim}
    theta = _fmt_array(params.theta)
    text = '{"shape":{"in":%d,"hidden":%d,"out":%d},"theta":%s}\n' % (*dims.values(), theta)
    with write_atomic(path) as fh:
        fh.write(text)
    datasets.prime(path, text, lambda: _checkpoint(path, {"shape": dims, "theta": params.theta}))


def _checkpoint(path: str, obj) -> PolicyParams:
    """The checkpoint in `obj`, a decoded checkpoint file, validated, with
    its own read-only theta; SchemaError as in `load_checkpoint`."""
    try:
        dims = {key: obj["shape"][key] for key in ("in", "hidden", "out")}
        theta = obj["theta"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: expected shape {{in, hidden, out}} and theta") from exc
    for key, dim in dims.items():
        fields.integer(f"{path}: shape {key}", dim, 1, SchemaError)
    shape = NetShape(*dims.values())
    try:
        params = PolicyParams(theta=np.array(theta, dtype=np.float64), shape=shape)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    params.theta.flags.writeable = False
    return params


def load_checkpoint(path: str) -> PolicyParams:
    """Raises SchemaError naming the path for malformed JSON, a missing
    shape/theta key, a shape dimension that is not a JSON integer >= 1 (a
    bool is not one), or a theta that is not param_count finite floats.

    The file is read once, as bytes, through the memo
    (`datasets.memoized`): bytes this process last wrote or parsed at
    `path` return their checkpoint without a parse. theta is read-only on
    every return, hit or miss. A failed load keeps nothing."""
    with open(path, "rb") as fh:
        data = fh.read()
    return datasets.memoized(
        path, (data,), lambda: _checkpoint(path, datasets.parse_json(path, data))
    )
