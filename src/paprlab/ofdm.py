"""Complex-baseband OFDM primitives.

Symbol blocks are complex arrays of shape (..., N) and time-domain waveforms
are complex arrays of shape (..., L*N), where N is the number of data
subcarriers and L the oversampling factor.  All functions operate along the
last axis, so batches of any leading shape are supported.

Conventions fixed here and relied on by the rest of the package:

* the inverse transform carries a 1/sqrt(N) factor, the forward transform the
  matching 1/(L*sqrt(N)), so that modulate/demodulate is an exact inverse pair
  and unit-energy 4-QAM symbols yield unit mean sample power for any L;
* the N data subcarriers occupy the centered bins of the length L*N spectrum:
  symbols [0, N/2) ride the nonnegative-frequency bins [0, N/2) and symbols
  [N/2, N) the negative-frequency bins [L*N - N/2, L*N).
"""

import math

import numpy as np

__all__ = [
    "QAM4_POINTS",
    "QAM4_LABELS",
    "qam4_map",
    "ml_detect",
    "ofdm_modulate",
    "ofdm_demodulate",
    "bpf",
]

# Gray-labelled 4-QAM with unit mean energy:
# 00->(1+j)/sqrt2, 01->(-1+j)/sqrt2, 11->(-1-j)/sqrt2, 10->(1-j)/sqrt2.
QAM4_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) * (1.0 / np.sqrt(2.0))
QAM4_LABELS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int64)
QAM4_POINTS.flags.writeable = False
QAM4_LABELS.flags.writeable = False

# Bit pair (b0, b1) -> point index in QAM4_POINTS.
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
    return QAM4_POINTS[idx]


def ml_detect(estimates: np.ndarray) -> np.ndarray:
    """Nearest-point 4-QAM decision, returning the Gray bit labels.

    Ties are broken toward the lowest index in QAM4_POINTS.

    Parameters
    ----------
    estimates : complex array of shape (..., N)

    Returns
    -------
    int array of shape (..., 2*N)
    """
    estimates = np.asarray(estimates, dtype=complex)
    dist = np.abs(estimates[..., None] - QAM4_POINTS)
    idx = np.argmin(dist, axis=-1)
    bits = QAM4_LABELS[idx]                              # (..., N, 2)
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


def _as_complex(wave) -> np.ndarray:
    """wave as a complex array: complex64 for float32 or complex64 input,
    complex128 otherwise.  bpf and ofdm_demodulate run in this precision."""
    wave = np.asarray(wave)
    return wave.astype(np.result_type(wave.dtype, np.complex64), copy=False)


def ofdm_demodulate(wave: np.ndarray, oversampling: int = 4) -> np.ndarray:
    """Inverse of :func:`ofdm_modulate`: forward DFT plus out-of-band removal."""
    wave = _as_complex(wave)
    total = wave.shape[-1]
    if total % oversampling != 0:
        raise ValueError(
            f"waveform length {total} is not a multiple of the oversampling factor {oversampling}"
        )
    n = total // oversampling
    _check_sizes(n, oversampling)
    spectrum = np.fft.fft(wave, axis=-1) / (oversampling * math.sqrt(n))
    return spectrum[..., _data_bins(n, total)]


def bpf(wave: np.ndarray, oversampling: int = 4) -> np.ndarray:
    """Rectangular band-pass filter matched to the data bandwidth.

    Zeroes every DFT bin outside the N in-band bins and transforms back.
    This is a linear, idempotent projection; in-band signals pass unchanged.
    """
    wave = _as_complex(wave)
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
