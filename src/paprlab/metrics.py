"""Scalar and curve metrics: PAPR, CCDF, PSD and ACPR.

PSD bins are ordered from -fs/2 to +fs/2 and use the unitary-DFT periodogram
scaling, so the bins sum to the mean time-domain sample power.  ACPR band
edges land exactly on bin boundaries because the main channel spans N bins of
the L*N-bin spectrum; :func:`ofdm.band_bins` places the bands.
:func:`acpr_powers` is the one ACPR rule: the reported ACPR and the training
loss's spectral term, ``autodiff.acpr_value``, both read it.
"""

from dataclasses import dataclass

import numpy as np

from .ofdm import DegenerateInputError, band_bins

__all__ = [
    "ACPR_FLOOR_DB",
    "SpectralParams",
    "papr",
    "papr_db",
    "ccdf",
    "psd",
    "acpr_powers",
    "acpr",
]

ACPR_FLOOR_DB = -200.0


@dataclass(frozen=True)
class SpectralParams:
    """Parameters of the spectral loss term: the main-channel width in DFT
    bins and the required ACPR in dB that the term is measured against."""

    bw_bins: int
    acpr_req_db: float


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


def acpr_powers(per_bin: np.ndarray, bw_bins: int) -> tuple:
    """The ACPR rule on an unshifted per-bin power spectrum.

    Returns (main, worse, bins): the main-channel power, the power of the
    worse adjacent N-bin band and that band's bin indices.  Each adjacent band
    is floored at ACPR_FLOOR_DB below the main band, so a band-limited
    spectrum reads exactly the floor; ties go to the upper band.
    """
    total = per_bin.shape[-1]
    if bw_bins < 2 or bw_bins % 2 or 3 * bw_bins > total:
        raise ValueError(f"bands of {bw_bins} bins do not fit a {total}-bin spectrum: "
                         "the width must be even, from 2 to a third of the spectrum")
    main_idx, up_idx, lo_idx = band_bins(bw_bins, total)
    main = per_bin[main_idx].sum()
    if main <= 0.0:
        raise DegenerateInputError("main-channel power is zero")
    floor = main * 10.0 ** (ACPR_FLOOR_DB / 10.0)
    up = max(per_bin[up_idx].sum(), floor)
    lo = max(per_bin[lo_idx].sum(), floor)
    return (main, up, up_idx) if up >= lo else (main, lo, lo_idx)


def acpr(psd_values: np.ndarray, bw_bins: int) -> float:
    """Adjacent-channel power ratio in dB of a PSD with bw_bins main-channel
    bins: the worse adjacent band of :func:`acpr_powers` over the main band,
    at least ACPR_FLOOR_DB."""
    main, worse, _ = acpr_powers(np.fft.ifftshift(np.asarray(psd_values, dtype=float)), bw_bins)
    return 10.0 * np.log10(worse / main)
