"""Reference forms of the conv stack ops and of SLM selection, kept as test oracles.

These are the straightforward implementations that ``paprlab.autodiff``
replaced with faster ones: an im2col ``conv1d`` over a full-batch column
copy, a ``batch_norm`` with textbook forward and backward, and a masked
``selu``.  They build tape nodes through the engine's own ``_make`` and
``_accumulate``, so their gradients can be compared with the engine's.
``slm_select_batch`` is the float64 per-block loop that
``paprlab.baselines.slm_select_batch`` replaced with a complex64 screen and
a float64 recheck.
"""

import numpy as np

from paprlab import baselines
from paprlab.autodiff import (BN_EPS, BN_MOMENTUM, SELU_ALPHA, SELU_SCALE, Tensor, _accumulate,
                              _make)
from paprlab.metrics import papr
from paprlab.ofdm import ofdm_modulate


def selu(x: Tensor) -> Tensor:
    pos = x.data > 0
    expm = np.exp(np.minimum(x.data, 0.0)) - 1.0
    data = SELU_SCALE * np.where(pos, x.data, SELU_ALPHA * expm)

    def backward(g):
        local = SELU_SCALE * np.where(pos, 1.0, SELU_ALPHA * (expm + 1.0))
        _accumulate(x, g * local)
    return _make(data, (x,), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """1-D cross-correlation with zero padding and stride 1, as im2col."""
    batch, channels, length = x.data.shape
    out_ch, _, k = w.data.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    out_len = length + 2 * padding - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # (B, C, Lout, K)
    xcol = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(
        batch, out_len, channels * k)
    wmat = w.data.reshape(out_ch, channels * k)
    data = np.ascontiguousarray((xcol @ wmat.T + b.data).transpose(0, 2, 1))

    def backward(g):                                  # g: (B, O, Lout)
        _accumulate(b, g.sum(axis=(0, 2)))
        gt = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(-1, out_ch)
        gw = gt.T @ xcol.reshape(-1, channels * k)
        _accumulate(w, gw.reshape(out_ch, channels, k))
        gcol = (gt @ wmat).reshape(batch, out_len, channels, k)
        gxp = np.zeros((batch, channels, length + 2 * padding))
        for kk in range(k):
            gxp[:, :, kk:kk + out_len] += gcol[:, :, :, kk].transpose(0, 2, 1)
        _accumulate(x, gxp[:, :, padding:padding + length] if padding else gxp)
    return _make(data, (x, w, b), backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch normalization for x of shape (B, C, L)."""
    if training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[:, None]) * inv_std[:, None]
    data = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
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
    return _make(data, (x, gamma, beta), backward)


def slm_select_batch(blocks, slm, oversampling):
    """Selective mapping block by block: every candidate modulated and its
    PAPR taken in float64, the argmin kept (ties to the lowest index).  The
    bank is looked up on ``paprlab.baselines``, so a test that patches it
    there patches both forms."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=complex))
    batch, n = blocks.shape
    bank = baselines.slm_phase_bank(n, slm)
    waves = np.empty((batch, n * oversampling), dtype=complex)
    indices = np.empty(batch, dtype=np.int64)
    for i, block in enumerate(blocks):
        candidates = ofdm_modulate(block * bank, oversampling)
        indices[i] = np.argmin(papr(candidates))
        waves[i] = candidates[indices[i]]
    return waves, indices
