"""Model-driven PAPR-reduction baselines: clipping-and-filtering and selective mapping."""

from dataclasses import dataclass

import numpy as np

from .metrics import papr
from .ofdm import bpf, ofdm_modulate, unit_power

__all__ = [
    "CfParams",
    "SlmParams",
    "clip_amplitude",
    "clip_filter",
    "slm_phase_bank",
    "slm_select_batch",
]


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
    Ties go to the lowest index.  Blocks are processed one at a time, which
    bounds memory at U candidate waveforms.
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=complex))
    batch, n = blocks.shape
    bank = slm_phase_bank(n, slm)
    waves = np.empty((batch, n * oversampling), dtype=complex)
    indices = np.empty(batch, dtype=np.int64)
    for i, block in enumerate(blocks):
        candidates = ofdm_modulate(block * bank, oversampling)
        indices[i] = np.argmin(papr(candidates))
        waves[i] = candidates[indices[i]]
    return waves, indices
