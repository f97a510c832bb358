"""Scalar and curve metrics: PAPR, CCDF, PSD, ACPR and OBO.

PSD bins are ordered from -fs/2 to +fs/2 and use the unitary-DFT periodogram
scaling, so the bins sum to the mean time-domain sample power.  ACPR band
edges land exactly on bin boundaries because the main channel spans N bins of
the L*N-bin spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

__all__ = [
    "ACPR_FLOOR_DB",
    "SpectralParams",
    "CcdfCurve",
    "papr",
    "papr_db",
    "ccdf",
    "psd",
    "acpr",
    "obo",
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


@dataclass(frozen=True)
class CcdfCurve:
    thresholds_db: np.ndarray
    probabilities: np.ndarray


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


def ccdf(papr_values_db: np.ndarray, thresholds_db: np.ndarray) -> CcdfCurve:
    """Empirical exceedance probability P(PAPR > threshold) per threshold."""
    values = np.asarray(papr_values_db, dtype=float).ravel()
    thresholds = np.asarray(thresholds_db, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("need at least one PAPR value")
    probs = (values[:, None] > thresholds[None, :]).mean(axis=0)
    return CcdfCurve(thresholds_db=thresholds, probabilities=probs)


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


def band_bins(num_bins: int, bw_bins: int) -> tuple[slice, slice, slice]:
    """(main, upper, lower) slices into a -fs/2..fs/2 ordered spectrum."""
    if num_bins % 2 != 0:
        raise ValueError(f"spectrum length must be even, got {num_bins}")
    if 3 * bw_bins > num_bins:
        raise ValueError(
            f"adjacent bands do not fit: 3*{bw_bins} bins exceed spectrum length {num_bins}"
        )
    c = num_bins // 2
    h = bw_bins // 2
    main = slice(c - h, c + h)
    upper = slice(c + h, c + 3 * h)
    lower = slice(c - 3 * h, c - h)
    return main, upper, lower


def acpr(psd_values: np.ndarray, sp: SpectralParams) -> float:
    """Adjacent-channel power ratio in dB, floored at ACPR_FLOOR_DB.

    The worse (higher-power) of the two N-bin bands immediately above and
    below the main channel is compared against the main-channel power.
    """
    psd_values = np.asarray(psd_values, dtype=float)
    main_sl, up_sl, lo_sl = band_bins(psd_values.shape[-1], sp.bw_bins)
    main = psd_values[main_sl].sum()
    if main <= 0.0:
        raise DegenerateInputError("main-channel power is zero")
    adjacent = max(psd_values[up_sl].sum(), psd_values[lo_sl].sum())
    if adjacent <= 0.0:
        return ACPR_FLOOR_DB
    return max(10.0 * np.log10(adjacent / main), ACPR_FLOOR_DB)


def obo(batch: np.ndarray, a0: float) -> float:
    """Output back-off in dB: peak amplifier power over mean input power."""
    batch = np.asarray(batch)
    power = np.mean(np.abs(batch) ** 2)
    if power <= 0.0:
        raise DegenerateInputError("OBO is undefined for a zero batch")
    return 10.0 * np.log10(a0 * a0 / power)

