"""Differentiable end-to-end transmit chain around an autoencoder model.

The forward pass mirrors the evaluation chain: encoder with unit-power
output, band-pass filter, input back-off, RAPP amplifier, AWGN, receiver
compensation by the Bussgang gain, DFT plus out-of-band removal, decoder.
Noise and the Bussgang gain are treated as constants during backpropagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import complex_noise
from .frontend import HpaParams, bussgang_alpha, ibo_scale

__all__ = ["ChainTaps", "run_chain"]


@dataclass
class ChainTaps:
    """Signals tapped along the chain, as graph tensors.

    x_f (the amplifier input) feeds the PAPR loss, x_p (the amplifier output)
    the spectral loss, and decoded the reconstruction loss.
    """

    x_in: np.ndarray      # chain input waveform, (B, LN) complex
    x_enc: Tensor         # encoder output after power normalization
    x_f: Tensor           # band-pass filtered, back-off scaled PA input
    x_p: Tensor           # PA output
    y: Tensor             # received, Bussgang-compensated waveform
    decoded: Tensor       # reconstructed symbol block, (B, N)
    alpha: complex        # Bussgang gain used by the receiver
    p_snr_db: float


def run_chain(model, x_time: np.ndarray, hpa: HpaParams, p_snr_db: float = math.inf,
              noise: np.ndarray | None = None,
              noise_rng: np.random.Generator | None = None,
              linear_pa: bool = False,
              alpha_override: complex | None = None) -> ChainTaps:
    """Run one batch through encoder, front-end, channel and decoder.

    Parameters
    ----------
    model : object with encode/decode methods and n/oversampling attributes
    x_time : complex (B, L*N) batch of modulated waveforms
    p_snr_db : peak SNR of the channel; +inf disables noise
    noise : optional pre-drawn complex noise realization (overrides the rng);
        useful for finite-difference checks where the chain must be frozen
    noise_rng : generator used to draw noise when p_snr_db is finite
    linear_pa : bypass the RAPP nonlinearity (ideal amplifier)
    alpha_override : use this compensation gain instead of the per-batch
        estimate (the estimate is a stop-gradient constant either way)
    """
    x_time = np.asarray(x_time, dtype=complex)
    if x_time.ndim != 2 or x_time.shape[1] != model.n * model.oversampling:
        raise ValueError(
            f"expected waveform batch of shape (B, {model.n * model.oversampling}), "
            f"got {x_time.shape}"
        )
    x_in = ad.constant(x_time)
    x_enc = model.encode(x_in)
    x_bpf = ad.bandpass(x_enc, model.n)
    x_f = ad.complex_scale(x_bpf, ibo_scale(hpa))
    if linear_pa:
        x_p = x_f
    else:
        x_p = ad.rapp_nonlinearity(x_f, hpa.a0, hpa.v, hpa.p)
    if alpha_override is not None:
        alpha = complex(alpha_override)
    else:
        alpha = bussgang_alpha(x_f.data, x_p.data)

    if noise is None and not math.isinf(p_snr_db):
        if noise_rng is None:
            raise ValueError("noise_rng is required for a finite p_snr_db")
        noise = complex_noise(x_time.shape, p_snr_db, hpa, noise_rng)
    received = ad.add_constant(x_p, noise) if noise is not None else x_p
    y = ad.complex_scale(received, 1.0 / alpha)
    symbols = ad.dft_unpad(y, model.n)
    decoded = model.decode(symbols)
    return ChainTaps(x_in=x_time, x_enc=x_enc, x_f=x_f, x_p=x_p, y=y,
                     decoded=decoded, alpha=alpha, p_snr_db=p_snr_db)
