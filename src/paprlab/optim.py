"""AdamW: Adam moment updates with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _settle_fences, _submit

__all__ = ["adamw_update", "AdamW"]

# Elements per update block: 256 KiB per float32 array, so the six arrays a
# block touches (parameter, gradient, both moments, two scratch) take 1.5 MiB
# and stay in a 2 MiB L2.  Longer blocks mean fewer ufunc calls, between which
# the calling thread and the update thread take the GIL in turn.  A plain
# step() over FC-AE's parameters, on both threads, read 63-64 ms against
# 70-76 ms at 32768; 131072 (3 MiB) read 55-67 ms but made neither model's
# whole training step faster.
_BLOCK = 65536

# Elements per update task, whole blocks; a settle may wait for one.
_TASK = 4 * _BLOCK

# AdamW's moment decay rates and denominator guard: adamw_update's defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adamw_update(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                 step: int, lr: float, beta1: float = BETA1, beta2: float = BETA2,
                 eps: float = EPS, weight_decay: float = 0.0):
    """One AdamW step; returns (theta, m, v) as new arrays.

    step is the 1-based update count used for bias correction.  The weight
    decay is decoupled: it scales the parameter directly instead of entering
    the gradient moments.  This is the reference form of the rule: the moments
    of :meth:`AdamW.step` match it bit for bit, and its theta within rounding.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)
    return theta, m, v


def _run(*task):
    """Update elements [lo, hi) of one parameter at a 1-based step, 13 passes
    per block."""
    *arrays, lo, hi, step, lr, weight_decay = task
    b1, b2 = BETA1, BETA2
    # Kingma & Ba's fold: lr * m_hat / (sqrt(v_hat) + EPS) is
    # alpha * m / (sqrt(v) + eps_hat); the decoupled decay is one factor
    root_bc2 = (1.0 - b2 ** step) ** 0.5
    alpha = lr * root_bc2 / (1.0 - b1 ** step)
    eps_hat, decay = EPS * root_bc2, 1.0 - lr * weight_decay
    scratch = np.empty((2, _BLOCK), arrays[0].dtype)
    for start in range(lo, hi, _BLOCK):
        theta, g, mb, vb = (a[start:min(start + _BLOCK, hi)] for a in arrays)
        t, u = scratch[:, :theta.size]
        np.multiply(mb, b1, out=mb)
        np.multiply(g, 1.0 - b1, out=t)
        np.add(mb, t, out=mb)
        np.multiply(vb, b2, out=vb)
        np.multiply(g, 1.0 - b2, out=t)
        np.multiply(t, g, out=t)
        np.add(vb, t, out=vb)
        np.sqrt(vb, out=t)
        np.add(t, eps_hat, out=t)
        np.divide(mb, t, out=u)
        np.multiply(u, alpha, out=u)
        np.multiply(theta, decay, out=theta)
        np.subtract(theta, u, out=theta)


class AdamW:
    """AdamW over a list of parameters, updated in place.

    queue(p) cuts p's update into tasks once p's gradient is final, as
    ``loss.backward(opt.queue)`` reports it, and hands them to the second
    thread (autodiff._worker); until they have ended, p carries a fence
    (see autodiff).  end_step() queues the rest without waiting, finish()
    settles every fence, and step(), state_dict() and load_state_dict()
    return with every update applied.  A task walks its arrays in
    cache-sized blocks, in the parameter's dtype, elementwise, calling only
    numpy (never a name a profiler wraps), so the thread that runs it
    changes no bit.  The moments are bit-identical to adamw_update's;
    theta, with the bias corrections and the decay folded into Python-float
    scalars (13 passes per block, not 16), is within rounding of it.  A
    parameter listed twice is a ValueError.
    """

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        self.params = list(params)
        self._unqueued = {}
        for i, p in enumerate(self.params):
            if self._unqueued.setdefault(id(p), i) != i:
                raise ValueError(f"parameter {i} repeats parameter {self._unqueued[id(p)]}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def queue(self, p: Tensor):
        """Queue the update of parameter p, whose gradient must be final;
        ignore a tensor that is no parameter or is queued this step already.
        A parameter with no gradient still decays, as under a zero one."""
        i = self._unqueued.pop(id(p), None)
        if i is None:
            return
        _settle_fences((p,))  # an earlier step's update, which no op read
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        # copy=False: a non-contiguous array raises rather than being
        # updated through a copy.
        arrays = [np.reshape(a, -1, copy=False) for a in (p.data, grad, self.m[i], self.v[i])]
        p._fence = [_submit(_run, *arrays, lo, min(lo + _TASK, p.data.size),
                            self.step_count + 1, self.lr, self.weight_decay)
                    for lo in range(0, p.data.size, _TASK)]

    def end_step(self):
        """Queue every parameter not queued this step and end the step,
        without waiting for its updates."""
        try:
            for p in self.params:
                self.queue(p)
        finally:
            self.step_count += 1
            self._unqueued = {id(p): i for i, p in enumerate(self.params)}

    def step(self):
        """Apply one update using the gradients currently stored on the params:
        end_step(), then finish()."""
        try:
            self.end_step()
        finally:
            self.finish()

    def finish(self):
        """Run here each queued task the second thread has not started, wait
        for those it has, and raise the first error a task raised."""
        _settle_fences(self.params)

    def state_dict(self) -> dict:
        """Step count and copies of the moments, which step() updates in
        place, once every queued update has ended."""
        self.finish()
        return {"step": self.step_count, "m": [a.copy() for a in self.m],
                "v": [a.copy() for a in self.v]}

    def load_state_dict(self, state: dict):
        """Restore a state_dict() once every queued update has ended;
        ValueError if the moments do not match the parameters in count,
        shape or dtype."""
        self.finish()
        for key in ("m", "v"):
            if len(state[key]) != len(self.params):
                raise ValueError(f"{key} holds {len(state[key])} arrays for "
                                 f"{len(self.params)} parameters")
            for i, (a, p) in enumerate(zip(state[key], self.params)):
                if (a.shape, a.dtype) != (p.data.shape, p.data.dtype):
                    raise ValueError(f"{key} of parameter {i} is {a.dtype} {a.shape}, "
                                     f"not {p.data.dtype} {p.data.shape}")
        self.step_count = int(state["step"])
        self.m = [np.array(a) for a in state["m"]]
        self.v = [np.array(a) for a in state["v"]]
