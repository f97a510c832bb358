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

The layout ops, reshape and the complex <-> interleaved re/im bridges (numpy's
own complex layout), are views of their input, gradient included; no op
writes into its input.  Arithmetic with a number runs add_constant or
complex_scale.  A conv stage of the CAE (convolution, batch norm, SELU) is
one op, conv_stage, which runs cache-sized blocks of samples through all
three and has one gradient rule.

_worker, the package's one extra thread, runs linear's weight-gradient
products, AdamW's update tasks and eval's cf and slm transmits; _settle
runs here each job it has not started, so nothing waits behind its queue.
Training's jobs never call a name that a profiler such as perfbench's
tracer wraps; eval's transmits do, so traced eval spans interleave.  A
parameter whose update is queued or running carries a fence, its update
jobs, which linear and conv_stage settle before they read the parameter.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .metrics import acpr_powers
from .ofdm import band_bins, bpf, ofdm_demodulate, unit_power

__all__ = [
    "Tensor",
    "parameter",
    "linear",
    "selu",
    "conv_stage",
    "reshape",
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
    "SELU_SCALE",
    "SELU_ALPHA",
    "BN_MOMENTUM",
    "BN_EPS",
]

SELU_SCALE = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717

_LOG10 = math.log(10.0)

# Batch norm's running-statistics rate and variance guard.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Elements in conv_stage's column buffer (2 MiB at float64, 1 MiB at
# float32).  Blocks of samples are lowered into it one at a time, so no
# full-batch column copy exists.
_COL_BLOCK = 1 << 18

_KEPT_DTYPES = (np.float32, np.complex64)

# The process's second thread, started by the first job.
_worker = ThreadPoolExecutor(1, "paprlab-worker")


def _submit(fn, *args):
    """Hand fn(*args) to the second thread; returns the job [future, fn, args].
    The thread's queue holds the job, which _settle empties, so a job it
    cancels keeps no argument alive while it waits there."""
    job = [None, fn, args]
    job[0] = _worker.submit(lambda: job[1](*job[2]))
    return job


def _settle(jobs):
    """The results of a list of jobs, in order.  A job the second thread has
    not started runs here; one it has is waited for.  An error raised here
    wins; else the first job, in order, that raised on the thread raises its
    error unchanged.  After an error here the unstarted jobs are dropped, so
    no job outlives the call.  A job that settles jobs of its own finds them
    queued behind itself, so it runs them and cannot deadlock."""
    ran = {}
    try:
        for i, (future, fn, args) in enumerate(jobs):
            if future.cancel():
                ran[i] = fn(*args)
    finally:
        started = [future for future, _, _ in jobs if not future.cancel()]
        for future in started:
            future.exception()  # waits for the job to end
        for job in jobs:
            job[1:] = None, ()
    return [ran[i] if i in ran else future.result() for i, (future, _, _) in enumerate(jobs)]


def _settle_fences(tensors):
    """Settle the fences of tensors together; afterwards none carries one."""
    jobs = []
    for t in tensors:
        if t._fence is not None:
            jobs += t._fence
            t._fence = None
    _settle(jobs)


class Tensor:
    """A node in the reverse-mode graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_own_grad",
                 "_fence")

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
        self._own_grad = None
        self._fence = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.real) if self.data.ndim == 0 else float(self.data)

    def backward(self, on_final=None):
        """Backpropagate from a scalar node through the recorded tape.

        on_final(leaf), if given, runs once per leaf on the tape that needs a
        gradient, as soon as the leaf's last consumer has run: its gradient is
        final, so an optimizer may update it while the walk goes on.

        The tape is freed as the walk proceeds: each node drops its closure
        and parents once its gradient has been passed on, so the graph needs
        no garbage-collector pass.  A second call on the same graph raises.

        The next backward that reaches a parameter reuses its grad array: a
        weight gradient that linear allocated is written over in place by
        the next linear product of the same shape and dtype, when it is the
        leaf's first contribution.  So keep a copy of a grad that must
        outlive the next backward.  A grad set from outside, or summed over
        two consumers, is never written over.
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
            if node.grad is not node._own_grad:
                node._own_grad = None
            node.grad = None
        uses = Counter(id(leaf) for node in topo for leaf in node._parents
                       if leaf._backward is None and leaf.requires_grad)
        self.grad = np.ones(self.data.shape, dtype=self.data.real.dtype)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                parents = node._parents
                node._backward = _spent
                node._parents = ()
                for parent in parents:
                    uses[id(parent)] -= 1  # below 0 for a parent that is no leaf
                    if on_final is not None and uses[id(parent)] == 0:
                        on_final(parent)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return _add(self, other)
        return add_constant(self, float(other))

    def __sub__(self, other):
        return add_constant(self, -float(other))

    def __mul__(self, other):
        return complex_scale(self, float(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _spent():
    raise RuntimeError("backward() already ran through this graph, which freed it")


def parameter(data) -> Tensor:
    """A trainable leaf, in :class:`Tensor`'s precision."""
    return Tensor(data, requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _accumulate_product(t: Tensor, a: np.ndarray, b: np.ndarray, overlap):
    """_accumulate(t, a @ b), running overlap() here meanwhile: the product
    runs on the second thread and is taken back (_settle).  A first
    contribution is written into t._own_grad, the array a product gave t's
    gradient in an earlier backward, when its shape and dtype fit;
    backward() keeps that array only while it is still t.grad.  A fresh
    array over 32 MiB costs an mmap and its page faults every step."""
    if not t.requires_grad:
        overlap()
        return
    own, summed = t._own_grad, t.grad is not None
    fits = (own is not None and own.shape == (a.shape[0], b.shape[1])
            and own.dtype == np.result_type(a.dtype, b.dtype))
    args = (a, b, own if fits and not summed else None)
    jobs = [_submit(np.matmul, *args)]
    try:
        overlap()
    finally:
        product, = _settle(jobs)
    if summed:
        t.grad, t._own_grad = t.grad + product, None
    else:
        t.grad = t._own_grad = product


def _make(data, parents, backward) -> Tensor:
    """Create a graph node; records the tape only when a parent requires a
    gradient.  backward(g) takes the node's output gradient."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = lambda: backward(out.grad)
    return out


# -- elementwise / generic ops ----------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for operands of one shape; nothing is broadcast."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"cannot add shapes {a.data.shape} and {b.data.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)
    return _make(a.data + b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b for x of shape (B, F), w (F, O), b (O,), once
    the fences of w and b are settled.  The backward hands the weight
    gradient x.T @ g, a bare numpy matmul, to the second thread while the
    calling thread computes the input and bias gradients."""
    _settle_fences((w, b))

    def backward(g):
        def rest():
            if x.requires_grad:
                # g @ w.T, bit for bit in float32, in BLAS's faster
                # orientation; the copy keeps it C-contiguous for AdamW's
                # flat views
                _accumulate(x, np.ascontiguousarray((w.data @ g.T).T))
            _accumulate(b, g.sum(axis=0))
        _accumulate_product(w, x.data.T, g, rest)
    return _make(x.data @ w.data + b.data, (x, w, b), backward)


def _selu_into(y: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """out = SCALE * (max(y, 0) + ALPHA * (exp(min(y, 0)) - 1)), with tmp
    as scratch; out may be y."""
    np.minimum(y, 0.0, out=tmp)
    np.exp(tmp, out=tmp)
    tmp -= 1.0
    tmp *= SELU_ALPHA
    np.maximum(y, 0.0, out=out)
    out += tmp
    out *= SELU_SCALE


def _selu_slope(y: np.ndarray) -> np.ndarray:
    """SELU's slope SCALE * (ALPHA * exp(y) if y <= 0 else 1).  exp is
    recomputed rather than kept on the tape, and its 1 is taken off and
    added back so the slope rounds as it always has; the slope is finite and
    positive, so the two masks pick it or 1 without a branch per sample."""
    local = np.minimum(y, 0.0)
    np.exp(local, out=local)
    local -= 1.0
    local += 1.0
    local *= SELU_ALPHA
    local *= y <= 0
    local += y > 0
    local *= SELU_SCALE
    return local


def selu(x: Tensor) -> Tensor:
    """SCALE * (max(x, 0) + ALPHA * (exp(min(x, 0)) - 1))."""
    data = np.empty_like(x.data)
    _selu_into(x.data, data, np.empty_like(data))

    def backward(g):
        local = _selu_slope(x.data)
        local *= g
        _accumulate(x, local)
    return _make(data, (x,), backward)


def _fill_columns(col: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lower the samples x (n, C, L) into col (>= n, C, K, L + K - 1) and
    return them as (n, C*K, L + K - 1) columns.  Tap kk holds all of x at
    offset K - 1 - kk; the entries around it fall in the zero padding and are
    never written, so they keep the zeros the buffer was created with."""
    n, k, out_len = x.shape[0], col.shape[2], col.shape[3]
    for kk in range(k):
        col[:n, :, kk, k - 1 - kk:out_len - kk] = x
    return col[:n].reshape(n, -1, out_len)


def conv_stage(x: Tensor, w: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Convolution, batch norm and SELU of one CAE stage, as one op, once
    the fences of w, b, gamma and beta are settled.

    x: (B, C, L); w: (O, C, K); b, gamma, beta: (O,).  The conv is the full
    cross-correlation: x is zero-padded by K - 1 on each side, so the output
    is (B, O, L + K - 1), in the dtype of x and w.  Each sample runs its own
    (O, C*K) @ (C*K, L+K-1) GEMM on columns lowered into one reused buffer.
    Eval mode normalises with the running statistics, so all three run on one
    cache-sized block of samples at a time and a sample's output does not
    depend on its batch.  Training mode takes the batch statistics over the
    whole conv output and updates the running buffers at rate BN_MOMENTUM.
    Every elementwise pass keeps the order and operands of the separate
    conv, batch norm and SELU ops, so the bits are theirs.  A taped call
    keeps the column buffer, the normalised conv output and the SELU input
    until backward; a tape-free eval call keeps nothing.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ValueError("conv_stage expects x of shape (B, C, L) and w of shape (O, C, K)")
    batch, channels, length = x.data.shape
    out_ch, w_channels, k = w.data.shape
    if channels != w_channels:
        raise ValueError(f"channel mismatch: input has {channels}, weights expect {w_channels}")
    if channels * k * length == 0:
        raise ValueError(f"empty input or kernel: x {x.data.shape}, w {w.data.shape}")
    if training and batch < 2:
        raise ValueError("batch normalization needs a batch of at least 2 in training mode")
    _settle_fences((w, b, gamma, beta))
    out_len = length + k - 1
    per_block = max(1, min(batch, _COL_BLOCK // (channels * k * out_len)))
    # a forward block's columns, output and SELU scratch stay within
    # _COL_BLOCK elements, so its passes run in cache; the backward's blocks
    # fill the column buffer, which fixes how gw rounds
    step = max(1, min(per_block, _COL_BLOCK // ((channels * k + 2 * out_ch) * out_len)))
    blocks, bwd_blocks = ([slice(lo, min(lo + size, batch)) for lo in range(0, batch, size)]
                          for size in (step, per_block))
    wmat = w.data.reshape(out_ch, channels * k)
    dtype = np.result_type(x.data, w.data)
    shape = (batch, out_ch, out_len)
    col = np.zeros((per_block, channels, k, out_len), dtype)
    tmp = np.empty((step, out_ch, out_len), dtype)
    taped = any(t.requires_grad for t in (x, w, b, gamma, beta))
    data = np.empty(shape, dtype)
    # xhat: the conv output, normalised in place; y: the SELU input
    xhat = np.empty(shape, dtype) if taped or training else data
    y = np.empty(shape, dtype) if taped else data
    axes = (0, 2)
    n = batch * out_len

    def convolve(s):
        np.matmul(wmat, _fill_columns(col, x.data[s]), out=xhat[s])
        xhat[s] += b.data[:, None]

    if training:
        for s in blocks:
            convolve(s)
        mean = xhat.mean(axis=axes)
        xhat -= mean[:, None]
        # the reduction np.var runs: the sum of squared deviations over n
        var = np.square(xhat, out=y).sum(axis=axes) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    for s in blocks:
        if not training:
            convolve(s)
            xhat[s] -= running_mean[:, None]
        xhat[s] *= inv_std[:, None]
        np.multiply(xhat[s], gamma.data[:, None], out=y[s])
        y[s] += beta.data[:, None]
        _selu_into(y[s], data[s], tmp[:s.stop - s.start])
    need_gx = x.requires_grad

    def backward(g):                                  # g: (B, O, L+K-1)
        # SELU, then batch norm, then the conv
        gy = _selu_slope(y)
        gy *= g
        g_sum = gy.sum(axis=axes)
        gc = gy * xhat
        g_xhat_sum = gc.sum(axis=axes)
        _accumulate(beta, g_sum)
        _accumulate(gamma, g_xhat_sum)
        scale = (gamma.data * inv_std)[:, None]
        if training:
            # (gamma * inv_std) * (gy - sum(gy)/n - xhat * sum(gy * xhat)/n)
            np.multiply(xhat, (g_xhat_sum / n)[:, None], out=gc)
            np.subtract(gy, gc, out=gc)
            gc -= (g_sum / n)[:, None]
            gc *= scale
        else:
            np.multiply(gy, scale, out=gc)
        del gy
        _accumulate(b, gc.sum(axis=axes))
        gw = np.zeros((out_ch, channels * k), dtype)
        if need_gx:
            gcol = np.empty_like(col)
            gx = np.zeros(x.data.shape, dtype)
        for s in bwd_blocks:
            xcol = _fill_columns(col, x.data[s])
            gw += np.matmul(gc[s], xcol.transpose(0, 2, 1)).sum(axis=0)
            if need_gx:
                np.matmul(wmat.T, gc[s], out=gcol[:s.stop - s.start].reshape(xcol.shape))
                for kk in range(k):                   # tap order fixes gx's rounding
                    gx[s] += gcol[:s.stop - s.start, :, kk, k - 1 - kk:out_len - kk]
        _accumulate(w, gw.reshape(out_ch, channels, k))
        if need_gx:
            _accumulate(x, gx)
    return _make(data, (x, w, b, gamma, beta), backward)


# -- layout views ----------------------------------------------------------------


def _view(x: Tensor, data: np.ndarray) -> Tensor:
    """data, a view of x.data under another shape or dtype, as a node whose
    gradient is read back through the same reinterpretation, without a copy."""
    def backward(g):
        _accumulate(x, np.ascontiguousarray(g).view(x.data.dtype).reshape(x.data.shape))
    return _make(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    return _view(x, x.data.reshape(shape))


def interleaved_to_complex(x: Tensor) -> Tensor:
    """Real (..., 2M) with interleaved re/im pairs -> complex (..., M): numpy's
    own complex layout, so the output is a view of x."""
    return _view(x, np.ascontiguousarray(x.data).view(np.result_type(x.data, np.complex64)))


def complex_to_interleaved(z: Tensor) -> Tensor:
    """Complex (..., M) -> real (..., 2M) with interleaved re/im pairs, a view
    of z."""
    return _view(z, np.ascontiguousarray(z.data).view(z.data.real.dtype))


# -- chain stages --------------------------------------------------------------


def complex_scale(z: Tensor, c: complex | float) -> Tensor:
    """Multiply by a constant scalar, real or complex; backward applies
    conj(c).  c stays a Python number, which does not promote float32 or
    complex64 data."""
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

    def backward(g):
        padded = np.zeros(z.data.shape, dtype=symbols.dtype)
        padded[..., band_bins(n, total)[0]] = g
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
    """Differentiable :func:`ofdm.unit_power`: each waveform (row) of a complex
    batch is scaled by its own real factor to unit mean sample power, so a
    row's output does not depend on the rest of the batch."""
    def backward(g):
        m = z.data.shape[-1]
        power = np.mean(np.abs(z.data) ** 2, axis=-1, keepdims=True)
        dot = np.sum(g.real * z.data.real + g.imag * z.data.imag, axis=-1, keepdims=True)
        _accumulate(z, g / np.sqrt(power) - z.data * (dot / (m * power ** 1.5)))
    return _make(unit_power(z.data), (z,), backward)


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

    The rule is :func:`metrics.acpr_powers`, the one behind the reported
    ACPR, applied to the batch-averaged periodogram; this op adds only its
    gradient, through the main band and the chosen adjacent band.
    """
    batch, total = z.data.shape
    spec = np.fft.fft(z.data, axis=-1)
    per_bin = (np.abs(spec) ** 2).sum(axis=0) / (batch * total * total)
    main, worse, worse_idx = acpr_powers(per_bin, bw_bins)

    def backward(g):
        g = float(g)
        coeff = np.zeros(total, dtype=per_bin.dtype)
        coeff[worse_idx] = g * 10.0 / (_LOG10 * worse)
        coeff[band_bins(bw_bins, total)[0]] = -g * 10.0 / (_LOG10 * main)
        gz = np.fft.ifft(coeff * spec, axis=-1) * (2.0 / (batch * total))
        _accumulate(z, gz)
    return _make(10.0 * np.log10(worse / main), (z,), backward)
