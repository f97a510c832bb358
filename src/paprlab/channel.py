"""AWGN channel parameterized by peak-SNR.

This module is the only place noise is drawn: the training chain and the BER
evaluation both call :func:`complex_noise`.
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
    if math.isinf(p_snr_db):
        return 0.0
    return hpa.a0 * 10.0 ** (-p_snr_db / 20.0)


def complex_noise(shape, p_snr_db: float, hpa: HpaParams,
                  rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise of total variance sigma_w^2.

    The real part is drawn before the imaginary part.  At infinite peak SNR
    the noise is zero and the generator is left untouched.
    """
    sigma = noise_std(p_snr_db, hpa)
    if sigma == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = sigma / np.sqrt(2.0)
    return scale * rng.standard_normal(shape) + 1j * (scale * rng.standard_normal(shape))

