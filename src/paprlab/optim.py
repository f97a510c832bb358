"""AdamW: Adam moment updates with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["adamw_update", "AdamW"]

# Elements per update block: 128 KiB per float64 array, so the six arrays a
# block touches (parameter, gradient, both moments, two scratch) take 768 KiB
# and stay in a core's L2.  4096 and 65536 measured slower.
_BLOCK = 16384


def adamw_update(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                 step: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
    """One AdamW step; returns (theta, m, v) as new arrays.

    step is the 1-based update count used for bias correction.  The weight
    decay is decoupled: it scales the parameter directly instead of entering
    the gradient moments.  This is the reference form of the rule, which
    :meth:`AdamW.step` matches bit for bit.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)
    return theta, m, v


class AdamW:
    """AdamW over a list of parameters, updated in place.

    step() walks each parameter, its gradient and its moments in blocks of
    _BLOCK elements and runs adamw_update's operations in adamw_update's
    order on each block, so the result is bit-identical to it while the
    working set stays in cache and no full-size temporary is allocated.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = (np.empty(_BLOCK), np.empty(_BLOCK))

    def step(self):
        """Apply one update using the gradients currently stored on the params.

        Parameters with no gradient (e.g. unused in the current graph) are
        still subject to the decoupled decay, matching the update rule with a
        zero gradient.
        """
        self.step_count += 1
        b1, b2, eps, lr, wd = self.beta1, self.beta2, self.eps, self.lr, self.weight_decay
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            # copy=False: a non-contiguous array raises rather than being
            # updated through a copy.
            flat = [np.reshape(a, -1, copy=False) for a in (p.data, grad, m, v)]
            for lo in range(0, flat[0].size, _BLOCK):
                theta, g, mb, vb = (a[lo:lo + _BLOCK] for a in flat)
                t, u = (s[:theta.size] for s in self._scratch)
                np.multiply(mb, b1, out=mb)
                np.multiply(g, 1.0 - b1, out=t)
                np.add(mb, t, out=mb)
                np.multiply(vb, b2, out=vb)
                np.multiply(g, 1.0 - b2, out=t)
                np.multiply(t, g, out=t)
                np.add(vb, t, out=vb)
                np.divide(vb, bc2, out=t)
                np.sqrt(t, out=t)
                np.add(t, eps, out=t)
                np.divide(mb, bc1, out=u)
                np.divide(u, t, out=u)
                np.multiply(theta, wd, out=t)
                np.add(u, t, out=u)
                np.multiply(u, lr, out=u)
                np.subtract(theta, u, out=theta)

    def state_dict(self) -> dict:
        """Step count and copies of the moments, which step() updates in place."""
        return {"step": self.step_count, "m": [a.copy() for a in self.m],
                "v": [a.copy() for a in self.v]}

    def load_state_dict(self, state: dict):
        self.step_count = int(state["step"])
        self.m = [np.array(a) for a in state["m"]]
        self.v = [np.array(a) for a in state["v"]]
