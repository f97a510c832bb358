"""Scalar and curve metrics: PAPR, CCDF, PSD and ACPR.

PSD bins are ordered from -fs/2 to +fs/2 and use the unitary-DFT periodogram
scaling, so the bins sum to the mean time-domain sample power.  ACPR band
edges land exactly on bin boundaries because the main channel spans N bins of
the L*N-bin spectrum; :func:`ofdm.band_bins` places the bands.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .ofdm import band_bins

__all__ = [
    "ACPR_FLOOR_DB",
    "SpectralParams",
    "papr",
    "papr_db",
    "ccdf",
    "psd",
    "band_powers",
    "acpr",
]

ACPR_FLOOR_DB = -200.0


@dataclass(frozen=True)
class SpectralParams:
    """Main-channel width in DFT bins and the target adjacent-channel ratio."""

    bw_bins: int
    acpr_req_db: float = -45.0

    def __post_init__(self):
        if self.bw_bins < 2 or self.bw_bins % 2 != 0:
            raise ValueError(f"bw_bins must be a positive even number, got {self.bw_bins}")


def papr(wave: np.ndarray) -> np.ndarray | float:
    """Peak-to-average power ratio (linear) along the last axis."""
    wave = np.asarray(wave)
    power = np.abs(wave) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean <= 0.0):
        raise DegenerateInputError("PAPR is undefined for a zero waveform")
    out = power.max(axis=-1) / mean
    return out if out.ndim else float(out)


def papr_db(wave: np.ndarray) -> np.ndarray | float:
    return 10.0 * np.log10(papr(wave))


def ccdf(papr_values_db: np.ndarray, thresholds_db: np.ndarray) -> np.ndarray:
    """Empirical exceedance probability P(PAPR > threshold), one per threshold."""
    values = np.asarray(papr_values_db, dtype=float).ravel()
    thresholds = np.asarray(thresholds_db, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need at least one PAPR value")
    return (values[:, None] > thresholds[None, :]).mean(axis=0)


def psd(batch: np.ndarray) -> np.ndarray:
    """Averaged periodogram of a batch of waveforms.

    Parameters
    ----------
    batch : complex array of shape (B, M) or (M,)

    Returns
    -------
    real array of shape (M,), bins ordered from -fs/2 to +fs/2; the bins sum
    to the batch-mean sample power.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=complex))
    if batch.shape[0] == 0:
        raise ValueError("need at least one waveform")
    m = batch.shape[-1]
    spec = np.abs(np.fft.fft(batch, axis=-1)) ** 2 / (m * m)
    return np.fft.fftshift(spec.mean(axis=0))


def band_powers(per_bin: np.ndarray, bw_bins: int) -> tuple:
    """(main, upper, lower) band powers of an unshifted per-bin power spectrum."""
    total = per_bin.shape[-1]
    if 3 * bw_bins > total:
        raise ValueError(
            f"adjacent bands do not fit: 3*{bw_bins} bins exceed spectrum length {total}"
        )
    return tuple(per_bin[idx].sum() for idx in band_bins(bw_bins, total))


def acpr(psd_values: np.ndarray, sp: SpectralParams) -> float:
    """Adjacent-channel power ratio in dB, floored at ACPR_FLOOR_DB.

    The worse (higher-power) of the two N-bin bands immediately above and
    below the main channel is compared against the main-channel power.
    """
    per_bin = np.fft.ifftshift(np.asarray(psd_values, dtype=float))
    main, upper, lower = band_powers(per_bin, sp.bw_bins)
    if main <= 0.0:
        raise DegenerateInputError("main-channel power is zero")
    adjacent = max(upper, lower)
    if adjacent <= 0.0:
        return ACPR_FLOOR_DB
    return max(10.0 * np.log10(adjacent / main), ACPR_FLOOR_DB)

