"""The end-to-end chain, one implementation per stage.

Training differentiates through :func:`transmit`, :func:`front_end` and
:func:`receive`, and evaluation runs the same functions on tape-free tensors,
so a model is judged by the amplifier and receiver it was trained through.
:func:`pa_input` is the front-end's back-off alone, for callers that need only
the amplifier input.  :func:`run_chain` strings the stages together with AWGN
and the decoder.  Noise and the Bussgang gain are treated as constants during
backpropagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import complex_noise
from .frontend import HpaParams, bussgang_alpha, ibo_scale

__all__ = ["ChainTaps", "transmit", "pa_input", "front_end", "receive", "run_chain"]


@dataclass
class ChainTaps:
    """Signals tapped along the chain, as graph tensors.

    x_f (the amplifier input) feeds the PAPR loss, x_p (the amplifier output)
    the spectral loss, and decoded the reconstruction loss.
    """

    x_f: Tensor           # band-pass filtered, back-off scaled PA input
    x_p: Tensor           # PA output
    decoded: Tensor       # reconstructed symbol block, (B, N)
    alpha: complex        # Bussgang gain used by the receiver


def transmit(model, x: Tensor) -> Tensor:
    """Encode a (B, L*N) waveform batch and band-limit it to the data bins."""
    return ad.bandpass(model.encode(x), model.oversampling)


def pa_input(x: Tensor, hpa: HpaParams, linear_chain: bool = False) -> Tensor:
    """The amplifier input x_f: x backed off to the IBO, or x itself when
    linear_chain models an ideal amplifier."""
    return x if linear_chain else ad.complex_scale(x, ibo_scale(hpa))


def front_end(x: Tensor, hpa: HpaParams, linear_chain: bool = False):
    """Back-off and RAPP amplifier; returns (x_f, x_p, alpha).

    linear_chain models an ideal amplifier: x_f = x_p = x and alpha = 1.
    """
    x_f = pa_input(x, hpa, linear_chain)
    if linear_chain:
        return x_f, x_f, 1.0 + 0.0j
    x_p = ad.rapp_nonlinearity(x_f, hpa.a0, hpa.v, hpa.p)
    return x_f, x_p, bussgang_alpha(x_f.data, x_p.data)


def receive(received: Tensor, alpha: complex, oversampling: int) -> Tensor:
    """Divide by the Bussgang gain, then DFT and drop the out-of-band bins."""
    return ad.dft_unpad(ad.complex_scale(received, 1.0 / alpha), oversampling)


def run_chain(model, x_time: np.ndarray, hpa: HpaParams, p_snr_db: float = math.inf,
              noise: np.ndarray | None = None,
              noise_rng: np.random.Generator | None = None,
              linear_chain: bool = False) -> ChainTaps:
    """Run one batch through encoder, front-end, channel and decoder.

    Parameters
    ----------
    model : object with encode/decode methods and n/oversampling attributes
    x_time : complex (B, L*N) batch of modulated waveforms, cast once to the
        complex dtype of the model's parameters (complex64 for a float32
        model, complex128 for a float64 one or a model without parameters)
    p_snr_db : peak SNR of the channel; +inf disables noise
    noise : optional pre-drawn complex noise realization (overrides the rng);
        useful for finite-difference checks where the chain must be frozen
    noise_rng : generator used to draw noise when p_snr_db is finite
    linear_chain : ideal amplifier, as in :func:`front_end`
    """
    params = model.parameters()
    dtype = np.result_type(params[0].data, np.complex64) if params else np.complex128
    x_time = np.asarray(x_time, dtype=dtype)
    if x_time.ndim != 2 or x_time.shape[1] != model.n * model.oversampling:
        raise ValueError(
            f"expected waveform batch of shape (B, {model.n * model.oversampling}), "
            f"got {x_time.shape}"
        )
    x_f, x_p, alpha = front_end(transmit(model, Tensor(x_time)), hpa, linear_chain)
    if noise is None and not math.isinf(p_snr_db):
        if noise_rng is None:
            raise ValueError("noise_rng is required for a finite p_snr_db")
        noise = complex_noise(x_time.shape, p_snr_db, hpa, noise_rng)
    received = ad.add_constant(x_p, noise) if noise is not None else x_p
    decoded = model.decode(receive(received, alpha, model.oversampling))
    return ChainTaps(x_f=x_f, x_p=x_p, decoded=decoded, alpha=alpha)
