import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paprlab.errors import DegenerateInputError
from paprlab.metrics import (
    ACPR_FLOOR_DB,
    CcdfCurve,
    SpectralParams,
    acpr,
    ccdf,
    papr,
    papr_db,
    psd,
)
from paprlab.ofdm import ofdm_modulate, qam4_map


def brute_force_papr(wave):
    """Sample-by-sample evaluation of the peak/average power ratio."""
    peak = 0.0
    total = 0.0
    for s in wave:
        p = abs(s) ** 2
        peak = max(peak, p)
        total += p
    return peak / (total / len(wave))


class TestPapr:
    def test_constant_envelope(self):
        phases = np.exp(1j * np.linspace(0, 5, 64))
        assert papr(phases) == pytest.approx(1.0)
        assert papr_db(phases) == pytest.approx(0.0)

    def test_all_ones_block_gives_n(self):
        x = ofdm_modulate(np.ones(4), oversampling=1)
        assert papr(x) == pytest.approx(4.0)
        assert papr_db(x) == pytest.approx(6.0206, abs=1e-3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        batch = ofdm_modulate(qam4_map(rng.integers(0, 2, (16, 144))), 4)
        expected = [brute_force_papr(row) for row in batch]
        np.testing.assert_allclose(papr(batch), expected, rtol=1e-12)

    def test_zero_waveform_rejected(self):
        with pytest.raises(DegenerateInputError):
            papr(np.zeros(8))

    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert papr(c * x) == pytest.approx(papr(x), rel=1e-9)


class TestCcdf:
    def test_counting(self):
        curve = ccdf([3.0, 5.0, 7.0], [4.0])
        assert curve.probabilities[0] == pytest.approx(2 / 3)

    def test_extreme_thresholds(self):
        curve = ccdf([3.0, 5.0, 7.0], [0.0, 100.0])
        assert curve.probabilities[0] == 1.0
        assert curve.probabilities[1] == 0.0

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        curve = ccdf(rng.normal(8, 2, 500), np.linspace(0, 15, 61))
        assert np.all(np.diff(curve.probabilities) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([], [1.0])


class TestPsd:
    def test_pure_tone(self):
        m = 64
        k = 5
        tone = np.exp(2j * np.pi * k * np.arange(m) / m)
        spectrum = psd(tone)
        # bin k sits at shifted index m//2 + k
        assert spectrum[m // 2 + k] == pytest.approx(1.0)
        assert spectrum.sum() == pytest.approx(1.0)

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(2)
        batch = (rng.standard_normal((20000, 32)) + 1j * rng.standard_normal((20000, 32))) \
            / np.sqrt(2)
        spectrum = psd(batch)
        level = 1.0 / 32
        # per-bin estimate is a mean of 20000 unit-mean exponentials
        three_sigma = 3 * level / np.sqrt(20000)
        assert np.all(np.abs(spectrum - level) < three_sigma * 1.5)

    def test_clipped_ofdm_has_skirts(self):
        rng = np.random.default_rng(3)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (200, 144))), 4)
        mag = np.maximum(np.abs(x), 1.0)
        clipped = x / mag
        spectrum = psd(clipped)
        out_of_band = np.concatenate([spectrum[:108], spectrum[180:]])
        assert out_of_band.sum() > 1e-6 * spectrum.sum()

    def test_parseval(self):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((50, 96)) + 1j * rng.standard_normal((50, 96))
        mean_power = np.mean(np.abs(batch) ** 2)
        assert abs(psd(batch).sum() - mean_power) < 1e-9 * mean_power

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            psd(np.zeros((0, 8)))


class TestAcpr:
    def test_flat_spectrum(self):
        sp = SpectralParams(bw_bins=8)
        assert acpr(np.ones(32), sp) == pytest.approx(0.0)

    def test_inband_only_hits_floor(self):
        sp = SpectralParams(bw_bins=8)
        spectrum = np.zeros(32)
        spectrum[12:20] = 1.0
        assert acpr(spectrum, sp) == ACPR_FLOOR_DB

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        spectrum = rng.random(64) + 0.01
        sp = SpectralParams(bw_bins=16)
        assert acpr(13.7 * spectrum, sp) == pytest.approx(acpr(spectrum, sp))

    def test_upper_bound(self):
        rng = np.random.default_rng(6)
        sp = SpectralParams(bw_bins=16)
        for _ in range(20):
            spectrum = rng.random(64) + 1e-6
            main = spectrum[24:40].sum()
            bound = 10 * np.log10(spectrum.sum() / main)
            assert acpr(spectrum, sp) <= bound + 1e-12

    def test_band_windows_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            acpr(np.ones(16), SpectralParams(bw_bins=8))

    def test_asymmetric_spectrum_takes_worse_band(self):
        sp = SpectralParams(bw_bins=4)
        spectrum = np.zeros(16)
        spectrum[6:10] = 1.0     # main
        spectrum[10:14] = 0.1    # upper
        spectrum[2:6] = 0.01     # lower
        assert acpr(spectrum, sp) == pytest.approx(-10.0)


def test_ccdf_curve_is_dataclass():
    curve = ccdf([1.0], [0.5])
    assert isinstance(curve, CcdfCurve)
    assert curve.thresholds_db[0] == 0.5
