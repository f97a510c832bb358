"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine specialized for training the autoencoder through
the fixed transmit chain.  Tensors hold float32/complex64 data as given and
coerce anything else to float64/complex128, the reference precision of
gradient checks and evaluation.  Every op computes its output and gradients
in the precision of its inputs, and a constant an op receives (a scalar, a
noise draw, a target) is cast to that precision, so a float32 graph stays
float32 end to end.  For complex tensors the gradient buffer packs the two
real partials of the scalar loss as dL/dRe + 1j*dL/dIm, which makes the
backward rule of any complex-linear stage simply its conjugate-transpose.

The graph is built only along paths that require gradients, so inference on
frozen models adds no tape overhead.

An op is written in three parts: it computes its output data with numpy,
defines a rule backward(g) that receives the output gradient g and hands
each operand its share through _accumulate, and returns
_make(data, parents, backward), which records the rule on the tape only
when a parent requires a gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .ofdm import bpf, ofdm_demodulate

__all__ = [
    "Tensor",
    "parameter",
    "linear",
    "conv1d",
    "batch_norm",
    "selu",
    "reshape",
    "sq_norm",
    "interleaved_to_complex",
    "complex_to_interleaved",
    "complex_scale",
    "add_constant",
    "bandpass",
    "dft_unpad",
    "rapp_nonlinearity",
    "power_norm",
    "mse_complex",
    "papr_loss",
    "acpr_value",
]

SELU_SCALE = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717

_LOG10 = math.log(10.0)

# Elements in conv1d's column buffer (2 MiB at float64, 1 MiB at float32).
# Blocks of samples are lowered into it one at a time, so no full-batch column
# copy exists.
_COL_BLOCK = 1 << 18

_KEPT_DTYPES = (np.float32, np.complex64)


class Tensor:
    """A node in the reverse-mode graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in _KEPT_DTYPES:
            data = data.astype(np.complex128 if np.iscomplexobj(data) else np.float64,
                               copy=False)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.real) if self.data.ndim == 0 else float(self.data)

    def backward(self):
        """Backpropagate from a scalar node through the recorded tape.

        The tape is freed as the walk proceeds: each node drops its closure
        and parents once its gradient has been passed on, so the graph needs
        no garbage-collector pass.  A second call on the same graph raises.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar node")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones(self.data.shape, dtype=self.data.real.dtype)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward = _spent
                node._parents = ()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return _add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __neg__(self):
        return _mul_scalar(self, -1.0)

    def __sub__(self, other):
        return _add(self, _mul_scalar(_as_tensor(other, self), -1.0))

    def __rsub__(self, other):
        return _add(_as_tensor(other, self), _mul_scalar(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return _mul(self, other)
        return _mul_scalar(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported")
        return _mul_scalar(self, 1.0 / float(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _spent():
    raise RuntimeError("backward() already ran through this graph, which freed it")


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _as_tensor(value, like: Tensor) -> Tensor:
    """value as a node; a real constant takes like's precision, since a
    float64 0-d array would promote a float32 operand."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.real.dtype))


def _accumulate(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _make(data, parents, backward) -> Tensor:
    """Create a graph node; records the tape only when a parent requires a
    gradient.  backward(g) takes the node's output gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = lambda: backward(out.grad)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise / generic ops ----------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))
    return _make(a.data + b.data, (a, b), backward)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), backward)


def _mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * s)
    return _make(a.data * s, (a,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))
    return _make(x.data.reshape(shape), (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b for x of shape (B, F), w (F, O), b (O,)."""
    def backward(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))
    return _make(x.data @ w.data + b.data, (x, w, b), backward)


def selu(x: Tensor) -> Tensor:
    """SCALE * (max(x, 0) + ALPHA * (exp(min(x, 0)) - 1)), built in place."""
    data = np.minimum(x.data, 0.0)
    np.exp(data, out=data)
    data -= 1.0
    data *= SELU_ALPHA
    data += np.maximum(x.data, 0.0)
    data *= SELU_SCALE

    def backward(g):
        # slope SCALE * (ALPHA * (expm + 1) if x <= 0 else 1); expm is
        # recomputed rather than kept on the tape, and the 1 is taken off
        # and added back so the slope rounds as it always has
        local = np.minimum(x.data, 0.0)
        np.exp(local, out=local)
        local -= 1.0
        local += 1.0
        local *= SELU_ALPHA
        np.putmask(local, x.data > 0, 1.0)
        local *= SELU_SCALE
        local *= g
        _accumulate(x, local)
    return _make(data, (x,), backward)


def sq_norm(x: Tensor) -> Tensor:
    """Sum of squared entries of a real tensor, as a scalar node."""
    def backward(g):
        _accumulate(x, g * (2.0 * x.data))
    return _make(np.sum(x.data * x.data), (x,), backward)


def _fill_columns(col: np.ndarray, x: np.ndarray, taps) -> np.ndarray:
    """Lower the samples x (n, C, L) into col (>= n, C, K, Lout) and return
    them as (n, C*K, Lout) columns.  Each tap copies one shifted slice; the
    entries that fall in the zero padding are never written, so they keep the
    zeros the buffer was created with."""
    n = x.shape[0]
    for kk, t0, t1, shift in taps:
        col[:n, :, kk, t0:t1] = x[:, :, t0 + shift:t1 + shift]
    return col[:n].reshape(n, -1, col.shape[3])


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: int = 2) -> Tensor:
    """1-D cross-correlation with zero padding and stride 1.

    x: (B, C, L); w: (O, C, K); b: (O,).  Output length is L + 2*padding - K + 1.
    Blocks of samples are lowered into one column buffer of at most
    _COL_BLOCK elements, and each sample runs its own (O, C*K) @ (C*K, Lout)
    GEMM, so a sample's output does not depend on the batch it came in.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError("conv1d expects x of shape (B, C, L) and w of shape (O, C, K)")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.data.shape[1]}, weights expect {w.data.shape[1]}"
        )
    batch, channels, length = x.data.shape
    out_ch, _, k = w.data.shape
    out_len = length + 2 * padding - k + 1
    if out_len < 1:
        raise ValueError(f"kernel of {k} does not fit an input of {length} padded by {padding}")
    # output t of tap kk reads input t + kk - padding; [t0, t1) keeps it inside x
    taps = [(kk, max(0, padding - kk), min(out_len, length + padding - kk), kk - padding)
            for kk in range(k)]
    per_block = max(1, min(batch, _COL_BLOCK // (channels * k * out_len)))
    wmat = w.data.reshape(out_ch, channels * k)
    dtype = np.result_type(x.data, w.data)
    col = np.zeros((per_block, channels, k, out_len), dtype)
    data = np.empty((batch, out_ch, out_len), dtype)
    for lo in range(0, batch, per_block):
        hi = min(lo + per_block, batch)
        np.matmul(wmat, _fill_columns(col, x.data[lo:hi], taps), out=data[lo:hi])
        data[lo:hi] += b.data[:, None]
    need_gx = x.requires_grad

    def backward(g):                                  # g: (B, O, Lout)
        _accumulate(b, g.sum(axis=(0, 2)))
        cols = np.zeros((per_block, channels, k, out_len), dtype)
        gw = np.zeros((out_ch, channels * k), dtype)
        if need_gx:
            gcol = np.empty_like(cols)
            gx = np.zeros(x.data.shape, dtype)
        for lo in range(0, batch, per_block):
            hi = min(lo + per_block, batch)
            xcol = _fill_columns(cols, x.data[lo:hi], taps)
            gw += np.matmul(g[lo:hi], xcol.transpose(0, 2, 1)).sum(axis=0)
            if need_gx:
                np.matmul(wmat.T, g[lo:hi], out=gcol[:hi - lo].reshape(xcol.shape))
                for kk, t0, t1, shift in taps:
                    gx[lo:hi, :, t0 + shift:t1 + shift] += gcol[:hi - lo, :, kk, t0:t1]
        _accumulate(w, gw.reshape(out_ch, channels, k))
        if need_gx:
            _accumulate(x, gx)
    return _make(data, (x, w, b), backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization for x of shape (B, C, L).

    Training mode standardizes with batch statistics and updates the running
    buffers in place; eval mode uses the running estimates.
    """
    if x.data.ndim != 3:
        raise ValueError("batch_norm expects input of shape (B, C, L)")
    axes = (0, 2)
    n = x.data.shape[0] * x.data.shape[2]
    # backward needs xhat; without a tape the affine step overwrites it
    taped = any(t.requires_grad for t in (x, gamma, beta))
    data = np.empty(x.data.shape, x.data.dtype) if taped else None
    if training:
        if x.data.shape[0] < 2:
            raise ValueError("batch normalization needs a batch of at least 2 in training mode")
        mean = x.data.mean(axis=axes)
        xhat = x.data - mean[:, None]
        # the reduction np.var runs: the sum of squared deviations over n
        var = np.square(xhat, out=data).sum(axis=axes) / n
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        xhat = x.data - running_mean[:, None]
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    if taped:
        np.multiply(gamma.data[:, None], xhat, out=data)
    else:
        data = xhat
        data *= gamma.data[:, None]
    data += beta.data[:, None]

    def backward(g):
        g_sum = g.sum(axis=axes)
        gx = g * xhat
        g_xhat_sum = gx.sum(axis=axes)
        _accumulate(beta, g_sum)
        _accumulate(gamma, g_xhat_sum)
        scale = (gamma.data * inv_std)[:, None]
        if training:
            # (gamma * inv_std) * (g - sum(g)/n - xhat * sum(g * xhat)/n)
            np.multiply(xhat, (g_xhat_sum / n)[:, None], out=gx)
            np.subtract(g, gx, out=gx)
            gx -= (g_sum / n)[:, None]
            gx *= scale
        else:
            np.multiply(g, scale, out=gx)
        _accumulate(x, gx)
    return _make(data, (x, gamma, beta), backward)


# -- complex <-> real bridging ------------------------------------------------


def interleaved_to_complex(x: Tensor) -> Tensor:
    """Real (..., 2M) with interleaved re/im pairs -> complex (..., M)."""
    data = x.data[..., 0::2] + 1j * x.data[..., 1::2]

    def backward(g):
        gx = np.empty(x.data.shape, x.data.dtype)
        gx[..., 0::2] = g.real
        gx[..., 1::2] = g.imag
        _accumulate(x, gx)
    return _make(data, (x,), backward)


def complex_to_interleaved(z: Tensor) -> Tensor:
    """Complex (..., M) -> real (..., 2M) with interleaved re/im pairs."""
    data = np.empty(z.data.shape[:-1] + (2 * z.data.shape[-1],), dtype=z.data.real.dtype)
    data[..., 0::2] = z.data.real
    data[..., 1::2] = z.data.imag

    def backward(g):
        _accumulate(z, g[..., 0::2] + 1j * g[..., 1::2])
    return _make(data, (z,), backward)


# -- chain stages --------------------------------------------------------------


def complex_scale(z: Tensor, c: complex) -> Tensor:
    """Multiply by a constant complex scalar; backward applies conj(c).

    c stays a Python complex, which does not promote complex64 data.
    """
    c = complex(c)

    def backward(g):
        _accumulate(z, g * c.conjugate())
    return _make(z.data * c, (z,), backward)


def add_constant(z: Tensor, const: np.ndarray) -> Tensor:
    """Add a constant array (e.g. a drawn noise realization), cast to z's dtype."""
    def backward(g):
        _accumulate(z, g)
    return _make(z.data + np.asarray(const, dtype=z.data.dtype), (z,), backward)


def bandpass(z: Tensor, oversampling: int) -> Tensor:
    """Differentiable :func:`ofdm.bpf`; the projection is self-adjoint."""
    def backward(g):
        _accumulate(z, bpf(g, oversampling))
    return _make(bpf(z.data, oversampling), (z,), backward)


def dft_unpad(z: Tensor, oversampling: int) -> Tensor:
    """Differentiable :func:`ofdm.ofdm_demodulate`: receiver DFT plus
    out-of-band bin removal, complex (B, LN) -> (B, N)."""
    symbols = ofdm_demodulate(z.data, oversampling)
    total = z.data.shape[-1]
    n = total // oversampling
    half = n // 2

    def backward(g):
        padded = np.zeros(z.data.shape, dtype=symbols.dtype)
        padded[..., :half] = g[..., :half]
        padded[..., total - half:] = g[..., half:]
        _accumulate(z, np.fft.ifft(padded, axis=-1) * math.sqrt(n))
    return _make(symbols, (z,), backward)


def rapp_nonlinearity(z: Tensor, a0: float, v: float, p: float) -> Tensor:
    """Differentiable RAPP AM/AM stage on a complex tensor, phase-preserving.

    Implemented through the squared amplitude so the map stays smooth at the
    origin, where it reduces to multiplication by the small-signal gain v.
    """
    u = z.data.real**2 + z.data.imag**2
    w = (v / a0) ** 2
    t = (w * u) ** p
    f = v * (1.0 + t) ** (-1.0 / (2.0 * p))
    data = z.data * f

    def backward(g):
        # df/du; p*t/u is finite for u > 0, the u = 0 limit is w for p = 1
        # and 0 for p > 1 (p < 1 is outside the supported smooth range).
        dtdu = np.where(u > 0.0, p * t / np.where(u > 0.0, u, 1.0),
                        w if p == 1.0 else 0.0)
        dfdu = -f * dtdu / (2.0 * p * (1.0 + t))
        proj = g.real * z.data.real + g.imag * z.data.imag
        _accumulate(z, g * f + 2.0 * dfdu * proj * z.data)
    return _make(data, (z,), backward)


def power_norm(z: Tensor) -> Tensor:
    """Scale a complex batch by one real factor to unit mean sample power.

    The factor couples every element of the batch, and the backward pass
    carries that coupling.
    """
    from .errors import DegenerateInputError

    count = z.data.size
    total = np.sum(z.data.real**2 + z.data.imag**2)
    if total <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero batch")
    mean_power = total / count
    s = 1.0 / np.sqrt(mean_power)
    data = z.data * s

    def backward(g):
        dot = np.sum(g.real * z.data.real + g.imag * z.data.imag)
        _accumulate(z, g * s - z.data * (dot / (count * mean_power ** 1.5)))
    return _make(data, (z,), backward)


# -- loss heads ----------------------------------------------------------------


def mse_complex(z: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over the complex entries: mean |z - target|^2,
    with the target cast to z's dtype."""
    diff = z.data - np.asarray(target, dtype=z.data.dtype)
    count = diff.size

    def backward(g):
        _accumulate(z, g * (2.0 / count) * diff)
    return _make(np.sum(diff.real**2 + diff.imag**2) / count, (z,), backward)


def papr_loss(z: Tensor) -> Tensor:
    """Batch mean of the per-waveform linear PAPR of a complex (B, M) tensor.

    The max is handled with its subgradient: per waveform a single peak
    sample receives the peak term (ties resolve to the lowest index).
    """
    power = z.data.real**2 + z.data.imag**2
    batch, m = power.shape
    peak_idx = np.argmax(power, axis=-1)
    rows = np.arange(batch)
    peak = power[rows, peak_idx]
    mean = power.mean(axis=-1)
    ratios = peak / mean

    def backward(g):
        g = float(g)
        coeff = np.full_like(power, -1.0 / m) * (peak / mean**2)[:, None]
        coeff[rows, peak_idx] += 1.0 / mean
        _accumulate(z, (g / batch) * (2.0 * coeff * z.data))
    return _make(np.mean(ratios), (z,), backward)


def acpr_value(z: Tensor, bw_bins: int) -> Tensor:
    """Differentiable adjacent-channel power ratio (dB) of a complex batch.

    Band powers come from the batch-averaged periodogram.  The max over the
    two adjacent bands is the plain subgradient max (ties favor the upper
    band).
    """
    batch, total = z.data.shape
    half = bw_bins // 2
    if 3 * bw_bins > total:
        raise ValueError(
            f"adjacent bands do not fit: 3*{bw_bins} bins exceed spectrum length {total}"
        )
    spec = np.fft.fft(z.data, axis=-1)
    per_bin = (np.abs(spec) ** 2).sum(axis=0) / (batch * total * total)
    # unshifted bin layout: [0, half) and [total-half, total) are in-band
    main_idx = np.r_[0:half, total - half:total]
    up_idx = np.arange(half, 3 * half)
    lo_idx = np.arange(total - 3 * half, total - half)
    main = per_bin[main_idx].sum()
    # floor the adjacent powers far below any physical level (-300 dBc) so a
    # perfectly band-limited input keeps the value and gradient finite
    up = max(per_bin[up_idx].sum(), main * 1e-30)
    lo = max(per_bin[lo_idx].sum(), main * 1e-30)

    up_db = 10.0 * np.log10(up / main)
    lo_db = 10.0 * np.log10(lo / main)
    value = max(up_db, lo_db)
    w_up, w_lo = (1.0, 0.0) if up >= lo else (0.0, 1.0)

    def backward(g):
        g = float(g)
        coeff = np.zeros(total, dtype=per_bin.dtype)
        coeff[up_idx] = g * w_up * 10.0 / (_LOG10 * up)
        coeff[lo_idx] = g * w_lo * 10.0 / (_LOG10 * lo)
        coeff[main_idx] = -g * 10.0 / (_LOG10 * main)
        gz = np.fft.ifft(coeff * spec, axis=-1) * (2.0 / (batch * total))
        _accumulate(z, gz)
    return _make(value, (z,), backward)
