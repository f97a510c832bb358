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
  [N/2, N) the negative-frequency bins [L*N - N/2, L*N).  :func:`band_bins`
  is the one definition of this layout and of the two adjacent N-bin bands.
"""

import math

import numpy as np

__all__ = [
    "DegenerateInputError",
    "QAM4_POINTS",
    "QAM4_LABELS",
    "qam4_map",
    "ml_detect",
    "band_bins",
    "ofdm_modulate",
    "ofdm_demodulate",
    "bpf",
    "unit_power",
]


class DegenerateInputError(ValueError):
    """A signal or batch has no usable power (all-zero input, zero gain, ...)."""


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

    For this labelling the decision is a sign slicer: b0 = imag < 0 and
    b1 = real < 0.  A component exactly on a decision boundary (zero) is
    decided as positive, so -1j gives the bits of (1 - j)/sqrt2.

    Parameters
    ----------
    estimates : complex array of shape (..., N)

    Returns
    -------
    int array of shape (..., 2*N)
    """
    estimates = np.asarray(estimates)
    bits = np.stack([estimates.imag < 0, estimates.real < 0], axis=-1).astype(np.int64)
    return bits.reshape(*estimates.shape[:-1], -1)


def band_bins(n: int, total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(main, upper, lower) FFT bin indices, unshifted, of a length-total spectrum.

    main holds the N in-band bins in symbol order; upper and lower are the
    N-bin bands just above and below it.  The adjacent bands lie inside the
    spectrum only when 3*N <= total.
    """
    half = n // 2
    main = np.r_[0:half, total - half:total]
    upper = np.arange(half, 3 * half)
    lower = np.arange(total - 3 * half, total - half)
    return main, upper, lower


def _check_sizes(n_subcarriers: int, oversampling: int):
    if oversampling < 1:
        raise ValueError(f"oversampling factor must be >= 1, got {oversampling}")
    if n_subcarriers < 2 or n_subcarriers % 2 != 0:
        raise ValueError(f"subcarrier count must be a positive even number, got {n_subcarriers}")


def ofdm_modulate(block: np.ndarray, oversampling: int) -> np.ndarray:
    """Oversampled OFDM modulation of a symbol block.

    Zero-pads the N-symbol block into the centered bins of a length L*N
    spectrum and applies the inverse DFT with 1/sqrt(N) scaling.
    """
    block = np.asarray(block, dtype=complex)
    n = block.shape[-1]
    _check_sizes(n, oversampling)
    total = n * oversampling
    spectrum = np.zeros(block.shape[:-1] + (total,), dtype=complex)
    spectrum[..., band_bins(n, total)[0]] = block
    return np.fft.ifft(spectrum, axis=-1) * (total / np.sqrt(n))


def _spectrum(wave, oversampling: int) -> tuple[np.ndarray, int]:
    """(DFT along the last axis, N) of a waveform of L*N samples, N even: in
    complex64 for float32 or complex64 input, complex128 otherwise."""
    wave = np.asarray(wave)
    wave = wave.astype(np.result_type(wave.dtype, np.complex64), copy=False)
    total = wave.shape[-1]
    if total % oversampling != 0:
        raise ValueError(
            f"waveform length {total} is not a multiple of the oversampling factor {oversampling}"
        )
    n = total // oversampling
    _check_sizes(n, oversampling)
    return np.fft.fft(wave, axis=-1), n


def ofdm_demodulate(wave: np.ndarray, oversampling: int) -> np.ndarray:
    """Inverse of :func:`ofdm_modulate`: forward DFT plus out-of-band removal."""
    spectrum, n = _spectrum(wave, oversampling)
    return spectrum[..., band_bins(n, spectrum.shape[-1])[0]] / (oversampling * math.sqrt(n))


def bpf(wave: np.ndarray, oversampling: int) -> np.ndarray:
    """Rectangular band-pass filter matched to the data bandwidth.

    Zeroes every DFT bin outside the N in-band bins and transforms back.
    This is a linear, idempotent projection; in-band signals pass unchanged.
    """
    spectrum, n = _spectrum(wave, oversampling)
    spectrum[..., n // 2:spectrum.shape[-1] - n // 2] = 0.0
    return np.fft.ifft(spectrum, axis=-1)


def unit_power(wave: np.ndarray) -> np.ndarray:
    """Scale each waveform (last axis) to unit mean sample power."""
    power = np.mean(np.abs(wave) ** 2, axis=-1, keepdims=True)
    if np.any(power <= 0.0):
        raise DegenerateInputError("cannot normalize an all-zero waveform")
    # the reciprocal's product rounds as numpy's complex-by-real division does,
    # and a diverged (NaN) row passes through without an invalid-value warning
    return wave * (1.0 / np.sqrt(power))
