"""AWGN channel parameterized by peak-SNR.

This module is the only place noise is drawn.  Training and the BER
evaluation call :func:`complex_noise` and hand the draw to the chain stages,
which never draw noise themselves.
"""

import math

import numpy as np

from .frontend import HpaParams

__all__ = ["noise_std", "complex_noise"]


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

