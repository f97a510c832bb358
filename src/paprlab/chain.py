"""The end-to-end chain, one implementation per stage.

Training differentiates through :func:`transmit`, :func:`front_end` and
:func:`receive`, and evaluation runs the same functions on tape-free tensors,
so a model is judged by the amplifier and receiver it was trained through.
:func:`run_chain` strings the stages together with the decoder and adds the
channel noise its caller drew; the chain never draws noise itself (training
and the BER evaluation draw it with :func:`channel.complex_noise`).  Noise
and the Bussgang gain are treated as constants during backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .frontend import HpaParams, bussgang_alpha, ibo_scale

__all__ = ["ChainTaps", "transmit", "front_end", "receive", "run_chain"]


@dataclass
class ChainTaps:
    """Signals tapped along the chain, as graph tensors.

    x_f (the amplifier input) feeds the PAPR loss, x_p (the amplifier output)
    the spectral loss, and decoded the reconstruction loss.
    """

    x_f: Tensor           # band-limited, unit-power, back-off scaled PA input
    x_p: Tensor           # PA output
    decoded: Tensor       # reconstructed symbol block, (B, N)
    alpha: complex        # Bussgang gain used by the receiver


def transmit(model, x: Tensor) -> Tensor:
    """Encode a (B, L*N) waveform batch, band-limit it to the data bins and
    scale each waveform to unit mean power, the level every method feeds the
    back-off stage at."""
    return ad.power_norm(ad.bandpass(model.encode(x), model.oversampling))


def front_end(x: Tensor, hpa: HpaParams):
    """Back-off and RAPP amplifier; returns (x_f, x_p).

    A receiver estimates its Bussgang gain from the pair with
    :func:`frontend.bussgang_alpha`; spectral measurements need no gain.
    """
    x_f = ad.complex_scale(x, ibo_scale(hpa))
    return x_f, ad.rapp_nonlinearity(x_f, hpa.a0, hpa.v, hpa.p)


def receive(received: Tensor, alpha: complex, oversampling: int) -> Tensor:
    """Divide by the Bussgang gain, then DFT and drop the out-of-band bins."""
    return ad.dft_unpad(ad.complex_scale(received, 1.0 / alpha), oversampling)


def run_chain(model, x_time: np.ndarray, hpa: HpaParams, noise: np.ndarray) -> ChainTaps:
    """Run one batch through encoder, front-end, channel and decoder.

    Parameters
    ----------
    model : object with encode/decode methods and n/oversampling attributes
    x_time : complex (B, L*N) batch of modulated waveforms, cast once to the
        complex dtype of the model's parameters: complex64 for a float32
        model (every built or loaded one), complex128 for a model cast to
        float64 or one without parameters
    noise : complex (B, L*N) channel noise added to the PA output, drawn by
        the caller with :func:`channel.complex_noise`
    """
    params = model.parameters()
    dtype = np.result_type(params[0].data, np.complex64) if params else np.complex128
    x_time = np.asarray(x_time, dtype=dtype)
    if x_time.ndim != 2 or x_time.shape[1] != model.n * model.oversampling:
        raise ValueError(
            f"expected waveform batch of shape (B, {model.n * model.oversampling}), "
            f"got {x_time.shape}"
        )
    x_f, x_p = front_end(transmit(model, Tensor(x_time)), hpa)
    alpha = bussgang_alpha(x_f.data, x_p.data)
    decoded = model.decode(receive(ad.add_constant(x_p, noise), alpha, model.oversampling))
    return ChainTaps(x_f=x_f, x_p=x_p, decoded=decoded, alpha=alpha)
