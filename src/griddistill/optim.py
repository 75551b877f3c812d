"""The two optimizers the pipeline uses: SGD with momentum for the
synthetic dataset, Adam for the students.

Both are deterministic state machines: the same initial state and gradient
sequence always produce the same iterates.
"""

import numpy as np


class SgdMomentum:
    """v <- momentum*v + g; x <- x - lr*v."""

    def __init__(self, dim: int, lr: float = 0.1, momentum: float = 0.5):
        self.lr = lr
        self.momentum = momentum
        self.velocity = np.zeros(dim, dtype=np.float64)

    def step(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if x.shape != self.velocity.shape or grad.shape != self.velocity.shape:
            raise ValueError("optimizer state, parameters and gradient lengths disagree")
        self.velocity = self.momentum * self.velocity + grad
        return x - self.lr * self.velocity


class Adam:
    """Bias-corrected Adam with the published default constants, over
    parameters of any shape: a flat vector, or an (S, P) block of S
    independent parameter vectors, each row updated exactly as it would be
    alone. The moments are updated in place, in the operation order of the
    textbook formula (m <- beta1*m + (1-beta1)*g, v <- beta2*v +
    ((1-beta2)*g)*g), so the iterates are bit-identical to it."""

    def __init__(
        self,
        shape,
        lr: float = 5e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape, dtype=np.float64)
        self.v = np.zeros(shape, dtype=np.float64)
        self.t = 0
        self._num = np.empty(shape, dtype=np.float64)  # scratch: the update's numerator
        self._den = np.empty(shape, dtype=np.float64)  # scratch: its denominator

    def step(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if x.shape != self.m.shape or grad.shape != self.m.shape:
            raise ValueError("optimizer state, parameters and gradient shapes disagree")
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        v += num
        np.divide(m, 1.0 - self.beta1 ** self.t, out=num)  # m_hat
        num *= self.lr
        np.divide(v, 1.0 - self.beta2 ** self.t, out=den)  # v_hat
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        return x - num
