"""The end-to-end chain: the amplifier, the channel noise and one
implementation per stage.

The RAPP amplifier (:class:`HpaParams`) is a memoryless AM/AM nonlinearity:
only the sample amplitude is compressed, the phase passes through unchanged.
:func:`rapp_gain` is its closed form and :func:`bussgang_alpha` the gain a
receiver divides by.  :func:`complex_noise` is the only place noise is drawn.

Training differentiates through :func:`transmit`, :func:`front_end` and
:func:`receive`, and evaluation runs the same functions on tape-free tensors,
so a model is judged by the amplifier and receiver it was trained through.
:func:`run_chain` strings the stages together with the decoder and adds the
channel noise its caller drew; the chain never draws noise itself (training
and the BER evaluation draw it with :func:`complex_noise`).  Noise and the
Bussgang gain are treated as constants during backpropagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .ofdm import DegenerateInputError

__all__ = ["HpaParams", "ibo_scale", "rapp_gain", "bussgang_alpha", "noise_std",
           "complex_noise", "ChainTaps", "transmit", "front_end", "receive", "run_chain"]


@dataclass(frozen=True)
class HpaParams:
    """RAPP amplifier parameters plus the input back-off applied before it.

    a0 is the limiting output amplitude, v the small-signal gain and p the
    smoothness of the transition into saturation (p -> inf approaches an
    ideal soft limiter).
    """

    a0: float = 1.0
    v: float = 1.0
    p: float = 2.0
    ibo_db: float = 3.7

    def __post_init__(self):
        for name in ("a0", "v", "p", "ibo_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.a0 <= 0 or self.v <= 0 or self.p <= 0:
            raise ValueError("a0, v and p must all be positive")


def ibo_scale(hpa: HpaParams) -> float:
    """Linear amplitude factor applied to a unit-power signal before the PA."""
    return hpa.a0 * 10.0 ** (-hpa.ibo_db / 20.0)


def rapp_gain(amplitude: np.ndarray, hpa: HpaParams) -> np.ndarray:
    """AM/AM curve: G(A) = v*A * (1 + (v*A/a0)^(2p))^(-1/(2p))."""
    a = np.asarray(amplitude, dtype=float)
    t = ((hpa.v / hpa.a0) ** 2 * a * a) ** hpa.p
    return hpa.v * a * (1.0 + t) ** (-1.0 / (2.0 * hpa.p))


def bussgang_alpha(x: np.ndarray, x_pa: np.ndarray) -> complex:
    """Empirical Bussgang gain of the amplifier, referenced to its input.

    alpha = E(x * conj(x_pa)) / E(|x|^2).  For a phase-preserving AM/AM
    nonlinearity alpha is real and equals the least-squares linear gain, so
    dividing the received signal by alpha minimizes the residual distortion
    power E|x_pa - alpha*x|^2.

    A non-finite batch, as from a diverged model, gives a NaN gain without
    dividing.
    """
    x = np.asarray(x, dtype=complex)
    x_pa = np.asarray(x_pa, dtype=complex)
    if x.shape != x_pa.shape:
        raise ValueError(f"input and output batches differ in shape: {x.shape} vs {x_pa.shape}")
    denom = np.mean(np.abs(x) ** 2)
    if not (np.isfinite(denom) and np.isfinite(x_pa).all()):
        return complex(math.nan, math.nan)
    if denom <= 0.0:
        raise DegenerateInputError("Bussgang gain is undefined for a zero input batch")
    return complex(np.mean(x * np.conj(x_pa)) / denom)


def noise_std(p_snr_db: float, hpa: HpaParams) -> float:
    """Total complex noise standard deviation sigma_w (variance a0^2/P_SNR).

    p_snr_db is the peak signal-to-noise ratio a0^2/sigma_w^2 in dB; +inf
    disables noise.
    """
    if p_snr_db == math.inf:
        return 0.0
    return hpa.a0 * 10.0 ** (-p_snr_db / 20.0)


def complex_noise(shape, p_snr_db: float, hpa: HpaParams,
                  rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise of total variance sigma_w^2.

    Each sample's real part is drawn just before its imaginary part, so row
    k of a draw does not depend on how many rows are drawn at once.  At
    infinite peak SNR the noise is zero and the generator is left untouched.
    """
    sigma = noise_std(p_snr_db, hpa)
    if sigma == 0.0:
        return np.zeros(shape, dtype=complex)
    pairs = (sigma / np.sqrt(2.0)) * rng.standard_normal((*np.broadcast_shapes(shape), 2))
    return pairs.view(np.complex128)[..., 0]


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
    :func:`bussgang_alpha`; spectral measurements need no gain.
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
        the caller with :func:`complex_noise`
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
