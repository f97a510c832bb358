"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine specialized for training the autoencoder through
the fixed transmit chain.  Tensors hold float64 or complex128 data; for
complex tensors the gradient buffer packs the two real partials of the scalar
loss as dL/dRe + 1j*dL/dIm, which makes the backward rule of any
complex-linear stage simply its conjugate-transpose.

The graph is built only along paths that require gradients, so inference on
frozen models adds no tape overhead.
"""

from __future__ import annotations

import numpy as np

from .ofdm import bpf, ofdm_demodulate

__all__ = [
    "Tensor",
    "parameter",
    "linear",
    "conv1d",
    "batch_norm",
    "selu",
    "relu",
    "reshape",
    "sq_norm",
    "interleaved_to_complex",
    "complex_to_interleaved",
    "channels_to_complex",
    "complex_to_channels",
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

_LOG10 = np.log(10.0)


class Tensor:
    """A node in the reverse-mode graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if np.iscomplexobj(data):
            self.data = np.asarray(data, dtype=np.complex128)
        else:
            self.data = np.asarray(data, dtype=np.float64)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self):
        """Backpropagate from a scalar node through the recorded tape."""
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
        self.grad = np.ones_like(self.data, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    __radd__ = __add__

    def __neg__(self):
        return _mul_scalar(self, -1.0)

    def __sub__(self, other):
        return _add(self, _mul_scalar(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return _add(_as_tensor(other), _mul_scalar(self, -1.0))

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


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray):
    if t.requires_grad or t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g


def _make(data, parents, backward) -> Tensor:
    """Create a graph node; records the tape only when a parent needs it."""
    out = Tensor(data)
    if any(p.requires_grad or p._backward is not None for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents)
        out._backward = backward(out)
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
    def backward(out):
        def fn():
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))
        return fn
    return _make(a.data + b.data, (a, b), backward)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(out):
        def fn():
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))
        return fn
    return _make(a.data * b.data, (a, b), backward)


def _mul_scalar(a: Tensor, s: float) -> Tensor:
    def backward(out):
        def fn():
            _accumulate(a, out.grad * s)
        return fn
    return _make(a.data * s, (a,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    def backward(out):
        def fn():
            _accumulate(x, out.grad.reshape(x.data.shape))
        return fn
    return _make(x.data.reshape(shape), (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b for x of shape (B, F), w (F, O), b (O,)."""
    def backward(out):
        def fn():
            _accumulate(x, out.grad @ w.data.T)
            _accumulate(w, x.data.T @ out.grad)
            _accumulate(b, out.grad.sum(axis=0))
        return fn
    return _make(x.data @ w.data + b.data, (x, w, b), backward)


def selu(x: Tensor) -> Tensor:
    pos = x.data > 0
    expm = np.exp(np.minimum(x.data, 0.0)) - 1.0
    data = SELU_SCALE * np.where(pos, x.data, SELU_ALPHA * expm)

    def backward(out):
        def fn():
            local = SELU_SCALE * np.where(pos, 1.0, SELU_ALPHA * (expm + 1.0))
            _accumulate(x, out.grad * local)
        return fn
    return _make(data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    pos = x.data > 0

    def backward(out):
        def fn():
            _accumulate(x, out.grad * pos)
        return fn
    return _make(np.where(pos, x.data, 0.0), (x,), backward)


def sq_norm(x: Tensor) -> Tensor:
    """Sum of squared entries of a real tensor, as a scalar node."""
    def backward(out):
        def fn():
            _accumulate(x, out.grad * (2.0 * x.data))
        return fn
    return _make(np.sum(x.data * x.data), (x,), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: int = 2) -> Tensor:
    """1-D cross-correlation with zero padding and stride 1.

    x: (B, C, L); w: (O, C, K); b: (O,).  Output length is L + 2*padding - K + 1.
    Lowered to an im2col matmul so both passes ride BLAS.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError("conv1d expects x of shape (B, C, L) and w of shape (O, C, K)")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.data.shape[1]}, weights expect {w.data.shape[1]}"
        )
    batch, channels, length = x.data.shape
    out_ch, _, k = w.data.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    out_len = length + 2 * padding - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # (B, C, Lout, K)
    xcol = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(
        batch, out_len, channels * k)
    wmat = w.data.reshape(out_ch, channels * k)
    data = np.ascontiguousarray((xcol @ wmat.T + b.data).transpose(0, 2, 1))

    def backward(out):
        def fn():
            g = out.grad                                  # (B, O, Lout)
            _accumulate(b, g.sum(axis=(0, 2)))
            gt = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(-1, out_ch)
            gw = gt.T @ xcol.reshape(-1, channels * k)
            _accumulate(w, gw.reshape(out_ch, channels, k))
            gcol = (gt @ wmat).reshape(batch, out_len, channels, k)
            gxp = np.zeros((batch, channels, length + 2 * padding))
            for kk in range(k):
                gxp[:, :, kk:kk + out_len] += gcol[:, :, :, kk].transpose(0, 2, 1)
            _accumulate(x, gxp[:, :, padding:padding + length] if padding else gxp)
        return fn
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
    if training:
        if x.data.shape[0] < 2:
            raise ValueError("batch normalization needs a batch of at least 2 in training mode")
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[:, None]) * inv_std[:, None]
    data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(out):
        def fn():
            g = out.grad
            _accumulate(beta, g.sum(axis=(0, 2)))
            _accumulate(gamma, (g * xhat).sum(axis=(0, 2)))
            gxhat = g * gamma.data[:, None]
            if training:
                n = x.data.shape[0] * x.data.shape[2]
                s1 = gxhat.sum(axis=(0, 2))
                s2 = (gxhat * xhat).sum(axis=(0, 2))
                gx = inv_std[:, None] / n * (n * gxhat - s1[:, None] - xhat * s2[:, None])
            else:
                gx = gxhat * inv_std[:, None]
            _accumulate(x, gx)
        return fn
    return _make(data, (x, gamma, beta), backward)


# -- complex <-> real bridging ------------------------------------------------


def interleaved_to_complex(x: Tensor) -> Tensor:
    """Real (..., 2M) with interleaved re/im pairs -> complex (..., M)."""
    data = x.data[..., 0::2] + 1j * x.data[..., 1::2]

    def backward(out):
        def fn():
            g = np.empty(x.data.shape, dtype=np.float64)
            g[..., 0::2] = out.grad.real
            g[..., 1::2] = out.grad.imag
            _accumulate(x, g)
        return fn
    return _make(data, (x,), backward)


def complex_to_interleaved(z: Tensor) -> Tensor:
    """Complex (..., M) -> real (..., 2M) with interleaved re/im pairs."""
    data = np.empty(z.data.shape[:-1] + (2 * z.data.shape[-1],), dtype=np.float64)
    data[..., 0::2] = z.data.real
    data[..., 1::2] = z.data.imag

    def backward(out):
        def fn():
            _accumulate(z, out.grad[..., 0::2] + 1j * out.grad[..., 1::2])
        return fn
    return _make(data, (z,), backward)


def channels_to_complex(x: Tensor) -> Tensor:
    """Real (B, 2, M) with re/im channels -> complex (B, M)."""
    data = x.data[:, 0, :] + 1j * x.data[:, 1, :]

    def backward(out):
        def fn():
            _accumulate(x, np.stack([out.grad.real, out.grad.imag], axis=1))
        return fn
    return _make(data, (x,), backward)


def complex_to_channels(z: Tensor) -> Tensor:
    """Complex (B, M) -> real (B, 2, M) with re/im channels."""
    data = np.stack([z.data.real, z.data.imag], axis=1)

    def backward(out):
        def fn():
            _accumulate(z, out.grad[:, 0, :] + 1j * out.grad[:, 1, :])
        return fn
    return _make(data, (z,), backward)


# -- chain stages --------------------------------------------------------------


def complex_scale(z: Tensor, c: complex) -> Tensor:
    """Multiply by a constant complex scalar; backward applies conj(c)."""
    c = complex(c)

    def backward(out):
        def fn():
            _accumulate(z, out.grad * np.conj(c))
        return fn
    return _make(z.data * c, (z,), backward)


def add_constant(z: Tensor, const: np.ndarray) -> Tensor:
    """Add a constant array (e.g. a drawn noise realization)."""
    def backward(out):
        def fn():
            _accumulate(z, out.grad)
        return fn
    return _make(z.data + const, (z,), backward)


def bandpass(z: Tensor, oversampling: int) -> Tensor:
    """Differentiable :func:`ofdm.bpf`; the projection is self-adjoint."""
    def backward(out):
        def fn():
            _accumulate(z, bpf(out.grad, oversampling))
        return fn
    return _make(bpf(z.data, oversampling), (z,), backward)


def dft_unpad(z: Tensor, oversampling: int) -> Tensor:
    """Differentiable :func:`ofdm.ofdm_demodulate`: receiver DFT plus
    out-of-band bin removal, complex (B, LN) -> (B, N)."""
    symbols = ofdm_demodulate(z.data, oversampling)
    total = z.data.shape[-1]
    n = total // oversampling
    half = n // 2

    def backward(out):
        def fn():
            g = out.grad
            padded = np.zeros(z.data.shape, dtype=np.complex128)
            padded[..., :half] = g[..., :half]
            padded[..., total - half:] = g[..., half:]
            _accumulate(z, np.fft.ifft(padded, axis=-1) * np.sqrt(n))
        return fn
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

    def backward(out):
        def fn():
            # df/du; p*t/u is finite for u > 0, the u = 0 limit is w for p = 1
            # and 0 for p > 1 (p < 1 is outside the supported smooth range).
            dtdu = np.where(u > 0.0, p * t / np.where(u > 0.0, u, 1.0),
                            w if p == 1.0 else 0.0)
            dfdu = -f * dtdu / (2.0 * p * (1.0 + t))
            proj = out.grad.real * z.data.real + out.grad.imag * z.data.imag
            _accumulate(z, out.grad * f + 2.0 * dfdu * proj * z.data)
        return fn
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

    def backward(out):
        def fn():
            dot = np.sum(out.grad.real * z.data.real + out.grad.imag * z.data.imag)
            _accumulate(z, out.grad * s - z.data * (dot / (count * mean_power ** 1.5)))
        return fn
    return _make(data, (z,), backward)


# -- loss heads ----------------------------------------------------------------


def mse_complex(z: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over the complex entries: mean |z - target|^2."""
    diff = z.data - target
    count = diff.size

    def backward(out):
        def fn():
            _accumulate(z, out.grad * (2.0 / count) * diff)
        return fn
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

    def backward(out):
        def fn():
            g = float(out.grad)
            coeff = np.full_like(power, -1.0 / m) * (peak / mean**2)[:, None]
            coeff[rows, peak_idx] += 1.0 / mean
            _accumulate(z, (g / batch) * (2.0 * coeff * z.data))
        return fn
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

    def backward(out):
        def fn():
            g = float(out.grad)
            coeff = np.zeros(total)
            coeff[up_idx] = g * w_up * 10.0 / (_LOG10 * up)
            coeff[lo_idx] = g * w_lo * 10.0 / (_LOG10 * lo)
            coeff[main_idx] = -g * 10.0 / (_LOG10 * main)
            gz = np.fft.ifft(coeff * spec, axis=-1) * (2.0 / (batch * total))
            _accumulate(z, gz)
        return fn
    return _make(np.float64(value), (z,), backward)
