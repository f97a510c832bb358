"""Complex-baseband OFDM primitives.

Symbol blocks are complex arrays of shape (..., N) and time-domain waveforms
are complex arrays of shape (..., L*N), where N is the number of data
subcarriers and L the oversampling factor.  All functions operate along the
last axis, so batches of any leading shape are supported.

Conventions fixed here and relied on by the rest of the package:

* the inverse transform carries a 1/sqrt(N) factor, the forward transform the
  matching 1/(L*sqrt(N)), so that modulate/demodulate is an exact inverse pair
  and a unit-energy constellation yields unit mean sample power for any L;
* the N data subcarriers occupy the centered bins of the length L*N spectrum:
  symbols [0, N/2) ride the nonnegative-frequency bins [0, N/2) and symbols
  [N/2, N) the negative-frequency bins [L*N - N/2, L*N).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstellationSpec",
    "qam4_constellation",
    "qam4_map",
    "ml_detect",
    "ofdm_modulate",
    "ofdm_demodulate",
    "bpf",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class ConstellationSpec:
    """A finite constellation with Gray bit labels and unit average energy."""

    points: np.ndarray            # (M,) complex
    labels: np.ndarray            # (M, bits_per_symbol) ints in {0, 1}
    name: str = field(default="", compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape[0] != points.shape[0]:
            raise ValueError("labels and points must have the same length")
        energy = np.mean(np.abs(points) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation mean energy is {energy}, expected 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def bits_per_symbol(self) -> int:
        return self.labels.shape[1]


def qam4_constellation() -> ConstellationSpec:
    """Gray-labelled 4-QAM: 00->(1+j)/sqrt2, 01->(-1+j)/sqrt2, 11->(-1-j)/sqrt2, 10->(1-j)/sqrt2."""
    points = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) * _INV_SQRT2
    labels = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    return ConstellationSpec(points=points, labels=labels, name="qam4")


# Bit pair (b0, b1) -> point index in qam4_constellation().points.
_QAM4_INDEX = np.array([[0, 1], [3, 2]])


def qam4_map(bits: np.ndarray) -> np.ndarray:
    """Map Gray-labelled bit pairs onto 4-QAM symbols.

    Parameters
    ----------
    bits : array of shape (..., 2*N) with values in {0, 1}

    Returns
    -------
    complex array of shape (..., N)
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.shape[-1]}")
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    idx = _QAM4_INDEX[bits[..., 0::2], bits[..., 1::2]]
    return qam4_constellation().points[idx]


def ml_detect(estimates: np.ndarray, constellation: ConstellationSpec | None = None) -> np.ndarray:
    """Nearest-point symbol decision, returning the bit labels.

    Ties are broken toward the lowest constellation index.

    Parameters
    ----------
    estimates : complex array of shape (..., N)

    Returns
    -------
    int array of shape (..., N * bits_per_symbol)
    """
    if constellation is None:
        constellation = qam4_constellation()
    estimates = np.asarray(estimates, dtype=complex)
    dist = np.abs(estimates[..., None] - constellation.points)
    idx = np.argmin(dist, axis=-1)
    bits = constellation.labels[idx]                     # (..., N, bps)
    return bits.reshape(*estimates.shape[:-1], -1)


def _data_bins(n_subcarriers: int, total_bins: int) -> np.ndarray:
    """FFT bin indices (unshifted order) carrying the N data subcarriers."""
    half = n_subcarriers // 2
    return np.concatenate([
        np.arange(half),
        np.arange(total_bins - half, total_bins),
    ])


def _check_sizes(n_subcarriers: int, oversampling: int):
    if oversampling < 1:
        raise ValueError(f"oversampling factor must be >= 1, got {oversampling}")
    if n_subcarriers < 2 or n_subcarriers % 2 != 0:
        raise ValueError(f"subcarrier count must be a positive even number, got {n_subcarriers}")


def ofdm_modulate(block: np.ndarray, oversampling: int = 4) -> np.ndarray:
    """Oversampled OFDM modulation of a symbol block.

    Zero-pads the N-symbol block into the centered bins of a length L*N
    spectrum and applies the inverse DFT with 1/sqrt(N) scaling.
    """
    block = np.asarray(block, dtype=complex)
    n = block.shape[-1]
    _check_sizes(n, oversampling)
    total = n * oversampling
    spectrum = np.zeros(block.shape[:-1] + (total,), dtype=complex)
    spectrum[..., _data_bins(n, total)] = block
    return np.fft.ifft(spectrum, axis=-1) * (total / np.sqrt(n))


def ofdm_demodulate(wave: np.ndarray, oversampling: int = 4) -> np.ndarray:
    """Inverse of :func:`ofdm_modulate`: forward DFT plus out-of-band removal."""
    wave = np.asarray(wave, dtype=complex)
    total = wave.shape[-1]
    if total % oversampling != 0:
        raise ValueError(
            f"waveform length {total} is not a multiple of the oversampling factor {oversampling}"
        )
    n = total // oversampling
    _check_sizes(n, oversampling)
    spectrum = np.fft.fft(wave, axis=-1) / (oversampling * np.sqrt(n))
    return spectrum[..., _data_bins(n, total)]


def bpf(wave: np.ndarray, oversampling: int = 4) -> np.ndarray:
    """Rectangular band-pass filter matched to the data bandwidth.

    Zeroes every DFT bin outside the N in-band bins and transforms back.
    This is a linear, idempotent projection; in-band signals pass unchanged.
    """
    wave = np.asarray(wave, dtype=complex)
    total = wave.shape[-1]
    if total % oversampling != 0:
        raise ValueError(
            f"waveform length {total} is not a multiple of the oversampling factor {oversampling}"
        )
    n = total // oversampling
    half = n // 2
    spectrum = np.fft.fft(wave, axis=-1)
    spectrum[..., half:total - half] = 0.0
    return np.fft.ifft(spectrum, axis=-1)
