"""Model-driven PAPR-reduction baselines: clipping-and-filtering and selective mapping."""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import papr
from .ofdm import _check_sizes, bpf, ofdm_modulate, unit_power

__all__ = [
    "CfParams",
    "SlmParams",
    "clip_amplitude",
    "clip_filter",
    "slm_phase_bank",
    "slm_select_batch",
]

# Blocks whose candidates one complex64 transform screens in slm_select_batch
_SCREEN_BLOCKS = 16


@dataclass(frozen=True)
class CfParams:
    """Clipping ratio in dB above the waveform RMS, and clip/filter iterations."""

    clip_ratio_db: float = 1.58
    iterations: int = 1

    def __post_init__(self):
        if not np.isfinite(self.clip_ratio_db):
            raise ValueError(f"clip_ratio_db must be a finite number, got {self.clip_ratio_db}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class SlmParams:
    """Number of candidate phase sequences and the seed that generates them."""

    num_sequences: int = 128
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_sequences < 1:
            raise ValueError(f"num_sequences must be >= 1, got {self.num_sequences}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed}")


def clip_amplitude(wave: np.ndarray, a_clip: np.ndarray) -> np.ndarray:
    """Limit sample amplitudes to a_clip, preserving phase.

    a_clip broadcasts against the waveform, so a per-row threshold of shape
    (..., 1) clips each waveform of a batch at its own level.
    """
    wave = np.asarray(wave, dtype=complex)
    mag = np.abs(wave)
    safe = np.where(mag > 0, mag, 1.0)
    return np.where(mag <= a_clip, wave, wave * (a_clip / safe))


def clip_filter(wave: np.ndarray, cf: CfParams, oversampling: int) -> np.ndarray:
    """Iterated amplitude clipping and band-pass filtering.

    Each iteration clips at RMS * 10^(clip_ratio_db/20) (RMS taken per
    waveform) and re-filters to the data bandwidth.  The result has unit mean
    power per waveform, the level every method feeds the back-off stage at.
    """
    out = np.asarray(wave, dtype=complex)
    ratio = 10.0 ** (cf.clip_ratio_db / 20.0)
    for _ in range(cf.iterations):
        rms = np.sqrt(np.mean(np.abs(out) ** 2, axis=-1, keepdims=True))
        out = clip_amplitude(out, rms * ratio)
        out = bpf(out, oversampling)
    return unit_power(out)


def slm_phase_bank(n_subcarriers: int, slm: SlmParams) -> np.ndarray:
    """Candidate phase sequences, shape (U, N) with entries in {1, -1, j, -j}.

    Row 0 is all ones, so the unmodified waveform is always a candidate and
    selection can never increase the PAPR.  Remaining rows are i.i.d. draws
    from the seeded generator; nested banks share a prefix, i.e. the first U
    rows of a larger bank equal the U-sequence bank for the same seed.
    """
    rng = np.random.default_rng(slm.rng_seed)
    bank = np.ones((slm.num_sequences, n_subcarriers), dtype=complex)
    if slm.num_sequences > 1:
        exponents = rng.integers(0, 4, size=(slm.num_sequences - 1, n_subcarriers))
        bank[1:] = 1j ** exponents
    return bank


def slm_select_batch(blocks: np.ndarray, slm: SlmParams,
                     oversampling: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick the lowest-PAPR candidate among phase-rotated versions of each block.

    blocks has shape (B, N).  Returns the selected time-domain waveforms and
    the candidate index per block; the receiver is assumed to know the index.
    The index is the float64 argmin of :func:`metrics.papr` over the U
    candidates that :func:`ofdm.ofdm_modulate` makes of the block, ties going
    to the lowest index, and the waveform is that candidate bit for bit.

    *Screen.*  Every candidate is modulated in complex64, _SCREEN_BLOCKS
    blocks at a time through one zeroed spectrum buffer of _SCREEN_BLOCKS *
    U * L*N values, and keeps its peak power.  The phases have unit modulus,
    so by Parseval the U candidates of a block share one mean power and the
    peak ranks them.  Each block is first scaled to a unit largest symbol,
    which keeps float32 in range and ranks its candidates alike.  Memory is
    bounded whatever B: the buffer (4.7 MB at 16 x 128 x 288), its
    transform of the same size and its magnitudes at half that size.

    *Slack.*  A complex64 FFT of length n = L*N errs normwise by
    ||x^ - x||_2 <= c log2(n) u ||x||_2, u = 2^-24, with c about 7 for radix
    2 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm. 24.2); take c = 8.  A peak is at least the RMS, ||x||_2 / sqrt(n),
    so a screened peak power errs relatively by at most
    e = 2 sqrt(n) c log2(n) u, 1.3e-4 at n = 288.  A candidate whose
    screened peak exceeds the block's screened minimum by the relative slack
    delta = 8e (1.1e-3 at n = 288) has a larger float64 PAPR than the
    minimum's candidate, so it cannot be the argmin.  2e would do; the rest
    covers the rounding of the cast, the magnitudes and the comparison.

    *Recheck.*  The other candidates form the block's shortlist.  A block
    with one shortlisted candidate takes it.  A block with more takes the
    float64 papr argmin over them in index order, so ties go to the lowest
    index.  One batched float64 ofdm_modulate then makes the chosen
    waveforms.  A block the screen cannot rank, all zero or not finite,
    shortlists every candidate: an all-zero block raises
    DegenerateInputError as papr does.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=complex))
    batch, n = blocks.shape
    _check_sizes(n, oversampling)
    bank = slm_phase_bank(n, slm)
    total, half = n * oversampling, n // 2
    largest = np.abs(blocks).max(axis=1, keepdims=True)
    scaled = (blocks / np.where(largest > 0, largest, 1.0)).astype(np.complex64)[:, None, :]
    phases = bank.astype(np.complex64)
    spectra = np.zeros((min(batch, _SCREEN_BLOCKS), len(bank), total), np.complex64)
    peak = np.empty((batch, len(bank)), np.float32)
    for start in range(0, batch, _SCREEN_BLOCKS):
        rows = scaled[start:start + _SCREEN_BLOCKS]
        view = spectra[:len(rows)]
        # band_bins' main bins, written as its two slices
        np.multiply(rows[..., :half], phases[:, :half], out=view[..., :half])
        np.multiply(rows[..., half:], phases[:, half:], out=view[..., total - half:])
        peak[start:start + len(rows)] = np.abs(np.fft.ifft(view, axis=-1)).max(axis=-1) ** 2
    # delta = 8e, e = 2 sqrt(n) c log2(n) u with c = 8
    slack = 8.0 * 2.0 * math.sqrt(total) * 8.0 * math.log2(total) * 2.0 ** -24
    # a NaN minimum compares false everywhere, which shortlists every candidate
    shortlist = ~(peak > peak.min(axis=1, keepdims=True) * (1.0 + slack))
    indices = np.argmax(shortlist, axis=1)  # the first shortlisted candidate
    for i in np.flatnonzero(np.count_nonzero(shortlist, axis=1) > 1):
        tried = np.flatnonzero(shortlist[i])
        indices[i] = tried[np.argmin(papr(ofdm_modulate(blocks[i] * bank[tried], oversampling)))]
    return ofdm_modulate(blocks * bank[indices], oversampling), indices
