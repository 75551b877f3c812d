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

import json
import math
from dataclasses import dataclass

import numpy as np

from .datasets import SchemaError, _fmt_array
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
    s = params.shape
    t = params.theta
    i = 0
    w1 = t[i : i + s.hidden * s.in_dim].reshape(s.hidden, s.in_dim)
    i += s.hidden * s.in_dim
    b1 = t[i : i + s.hidden]
    i += s.hidden
    w2 = t[i : i + s.out_dim * s.hidden].reshape(s.out_dim, s.hidden)
    i += s.out_dim * s.hidden
    b2 = t[i : i + s.out_dim]
    return w1, b1, w2, b2


def pack(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])


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
    single observation or a (batch, in_dim) matrix."""
    w1, b1, w2, b2 = unpack(params)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    h = np.maximum(xb @ w1.T + b1, 0.0)
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
    w1, b1, w2, b2 = unpack(params)
    u = xs @ w1.T + b1
    h = np.maximum(u, 0.0)
    p = np.exp(_log_softmax(h @ w2.T + b2))
    coef = (w / wsum)[:, None]
    delta = (p - y) * coef  # (m, out)
    g_w2 = delta.T @ h
    g_b2 = delta.sum(axis=0)
    e = (delta @ w2) * (u > 0.0)  # (m, hidden)
    g_w1 = e.T @ xs
    g_b1 = e.sum(axis=0)
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

    # split v = r into per-layer blocks
    i = 0
    v1 = r[i : i + shape.hidden * shape.in_dim].reshape(shape.hidden, shape.in_dim)
    i += shape.hidden * shape.in_dim
    vb1 = r[i : i + shape.hidden]
    i += shape.hidden
    v2 = r[i : i + shape.out_dim * shape.hidden].reshape(shape.out_dim, shape.hidden)
    i += shape.out_dim * shape.hidden
    vb2 = r[i : i + shape.out_dim]

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
    round-trip-exact decimal floats."""
    theta = _fmt_array(params.theta)
    s = params.shape
    body = (
        '{"shape":{"in":%d,"hidden":%d,"out":%d},"theta":%s}'
        % (s.in_dim, s.hidden, s.out_dim, theta)
    )
    with open(path, "w") as fh:
        fh.write(body + "\n")


def load_checkpoint(path: str) -> PolicyParams:
    """Raises SchemaError naming the path for malformed JSON, a missing
    shape/theta key, or a theta that is not param_count finite floats."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON ({exc.msg})") from exc
    try:
        dims = obj["shape"]
        shape = NetShape(int(dims["in"]), int(dims["hidden"]), int(dims["out"]))
        theta = obj["theta"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: expected shape {{in, hidden, out}} and theta") from exc
    try:
        return PolicyParams(theta=np.asarray(theta, dtype=np.float64), shape=shape)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
