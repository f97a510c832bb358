import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paprlab.ofdm import (
    QAM4_LABELS,
    QAM4_POINTS,
    band_bins,
    bpf,
    ml_detect,
    ofdm_demodulate,
    ofdm_modulate,
    qam4_map,
)

RT2 = np.sqrt(2.0)


def oracle_modulate(block, oversampling):
    """Direct-sum DFT oracle for the centered zero-padded modulator."""
    n = len(block)
    total = n * oversampling
    x = np.zeros(total, dtype=complex)
    for i in range(total):
        acc = 0.0 + 0.0j
        for k in range(n):
            bin_k = k if k < n // 2 else total - n + k
            acc += block[k] * np.exp(2j * np.pi * bin_k * i / total)
        x[i] = acc / np.sqrt(n)
    return x


class TestQam4Map:
    def test_corner_points(self):
        assert qam4_map([0, 0])[0] == pytest.approx((1 + 1j) / RT2)
        assert qam4_map([0, 1])[0] == pytest.approx((-1 + 1j) / RT2)
        assert qam4_map([1, 1])[0] == pytest.approx((-1 - 1j) / RT2)
        assert qam4_map([1, 0])[0] == pytest.approx((1 - 1j) / RT2)

    def test_antipodal_pair(self):
        assert qam4_map([1, 1])[0] == pytest.approx(-qam4_map([0, 0])[0])

    def test_unit_energy_block(self):
        rng = np.random.default_rng(0)
        block = qam4_map(rng.integers(0, 2, 144))
        assert block.shape == (72,)
        np.testing.assert_allclose(np.abs(block) ** 2, 1.0, atol=1e-15)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            qam4_map([0, 1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            qam4_map([0, 2])


class TestMlDetect:
    def test_exact_point(self):
        np.testing.assert_array_equal(ml_detect(np.array([(1 + 1j) / RT2])), [0, 0])

    def test_nearest_quadrant(self):
        np.testing.assert_array_equal(ml_detect(np.array([0.9 + 0.8j])), [0, 0])

    def test_tie_breaks_to_lowest_index(self):
        # the origin is equidistant from all four points; index 0 is (1 + j)/sqrt2
        np.testing.assert_array_equal(ml_detect(np.array([0.0 + 0.0j])), [0, 0])

    def test_boundary_components_decide_as_positive(self):
        """A zero real or imaginary part is decided as positive: -1j lies
        between (-1 - j)/sqrt2 and (1 - j)/sqrt2 and takes the latter's bits."""
        points = np.array([-1j, 1j, 1, -1, -0.0 - 0.0j, -0.5 + 0.0j, 0.0 - 0.5j])
        np.testing.assert_array_equal(ml_detect(points),
                                      [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_nearest_point_oracle(self, scale):
        rng = np.random.default_rng(4)
        estimates = scale * (rng.standard_normal((200, 72))
                             + 1j * rng.standard_normal((200, 72)))
        nearest = np.argmin(np.abs(estimates[..., None] - QAM4_POINTS), axis=-1)
        np.testing.assert_array_equal(ml_detect(estimates),
                                      QAM4_LABELS[nearest].reshape(200, 144))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (20, 144))
        np.testing.assert_array_equal(ml_detect(qam4_map(bits)), bits)

    def test_high_snr_ber_goes_to_zero(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, (100, 144))
        noisy = qam4_map(bits) + 1e-3 * (rng.standard_normal((100, 72))
                                         + 1j * rng.standard_normal((100, 72)))
        assert np.mean(ml_detect(noisy) != bits) == 0.0


class TestModulateDemodulate:
    def test_all_ones_impulse(self):
        x = ofdm_modulate(np.ones(4), oversampling=1)
        np.testing.assert_allclose(x, [2, 0, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("oversampling", [1, 2, 4])
    def test_roundtrip(self, oversampling):
        rng = np.random.default_rng(3)
        block = qam4_map(rng.integers(0, 2, (8, 144)))
        back = ofdm_demodulate(ofdm_modulate(block, oversampling), oversampling)
        assert np.max(np.abs(back - block)) < 1e-10

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(4)
        block = qam4_map(rng.integers(0, 2, 16))
        got = ofdm_modulate(block, oversampling=4)
        np.testing.assert_allclose(got, oracle_modulate(block, 4), atol=1e-10)

    def test_oversampling_preserves_mean_power(self):
        rng = np.random.default_rng(5)
        block = qam4_map(rng.integers(0, 2, 144))
        p1 = np.mean(np.abs(ofdm_modulate(block, 1)) ** 2)
        p4 = np.mean(np.abs(ofdm_modulate(block, 4)) ** 2)
        assert abs(p1 - p4) < 1e-10
        assert abs(p4 - 1.0) < 1e-10

    def test_zero_waveform_demodulates_to_zero(self):
        np.testing.assert_array_equal(ofdm_demodulate(np.zeros(288), 4), np.zeros(72))

    def test_energy_in_padded_bins_only(self):
        # build a waveform whose spectrum lives entirely out of band
        spectrum = np.zeros(64, dtype=complex)
        spectrum[8:56] = np.random.default_rng(6).standard_normal(48)
        wave = np.fft.ifft(spectrum)
        np.testing.assert_allclose(ofdm_demodulate(wave, 4), np.zeros(16), atol=1e-12)

    def test_invalid_oversampling(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.ones(4), oversampling=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="multiple"):
            ofdm_demodulate(np.zeros(70), 4)

    @given(st.integers(1, 4), st.sampled_from([4, 8, 16, 72]))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, oversampling, n):
        rng = np.random.default_rng(n * 10 + oversampling)
        block = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = ofdm_demodulate(ofdm_modulate(block, oversampling), oversampling)
        assert np.max(np.abs(back - block)) < 1e-10


@pytest.mark.parametrize("oversampling", [3, 4])
@pytest.mark.parametrize("n", [8, 72])
def test_band_bins_is_the_modulator_layout(n, oversampling):
    """main is exactly the nonzero bins of the modulated spectrum, in symbol
    order; upper and lower are the adjacent N-bin bands on either side."""
    total = n * oversampling
    main, upper, lower = band_bins(n, total)
    block = np.arange(1, n + 1) * (1 - 2j)         # distinct nonzero symbols
    spectrum = np.fft.fft(ofdm_modulate(block, oversampling)) * np.sqrt(n) / total
    np.testing.assert_array_equal(np.sort(main),
                                  np.flatnonzero(np.abs(spectrum) > 1e-9 * n))
    np.testing.assert_allclose(spectrum[main], block, atol=1e-9 * n)
    # in -fs/2..fs/2 order the three bands are contiguous runs of N bins:
    # lower, main, upper
    shifted = np.fft.fftshift(np.arange(total))
    position = np.argsort(shifted)                 # unshifted bin -> shifted index
    first = position[main].min()
    np.testing.assert_array_equal(np.sort(position[main]), np.arange(first, first + n))
    np.testing.assert_array_equal(position[upper], np.arange(first + n, first + 2 * n))
    np.testing.assert_array_equal(position[lower], np.arange(first - n, first))
    assert len(set(main) | set(upper) | set(lower)) == 3 * n


class TestNumericalBedrock:
    @pytest.mark.parametrize("length", [8, 256, 4096])
    def test_dft_idft_inverse(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        assert np.max(np.abs(x - np.fft.ifft(np.fft.fft(x)))) < 1e-10

    @pytest.mark.parametrize("length", [8, 256, 4096])
    def test_parseval(self, length):
        rng = np.random.default_rng(length + 1)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(np.fft.fft(x, norm="ortho")) ** 2)
        assert abs(time_energy - freq_energy) / time_energy < 1e-10


class TestBpf:
    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(288) + 1j * rng.standard_normal(288)
        once = bpf(x, 4)
        np.testing.assert_allclose(bpf(once, 4), once, atol=1e-12)

    def test_inband_passes_unchanged(self):
        rng = np.random.default_rng(8)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, 144)), 4)
        np.testing.assert_allclose(bpf(x, 4), x, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = 2.5 - 1j, -0.3 + 2j
        np.testing.assert_allclose(bpf(a * x + b * y, 4),
                                   a * bpf(x, 4) + b * bpf(y, 4), atol=1e-12)

    def test_rejects_odd_subcarrier_count(self):
        with pytest.raises(ValueError, match="positive even"):
            bpf(np.zeros(4 * 7, dtype=complex), 4)

    def test_removes_out_of_band_power(self):
        rng = np.random.default_rng(10)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, 144)), 4)
        clipped = x / np.maximum(np.abs(x), 1.0)
        filtered = bpf(clipped, 4)
        spectrum = np.abs(np.fft.fft(filtered)) ** 2
        out_of_band = spectrum[36:252].sum()
        assert out_of_band < 1e-20 * spectrum.sum()  # < -200 dBc


def test_qam_constellation_unit_energy():
    assert QAM4_POINTS.shape == (4,) and QAM4_LABELS.shape == (4, 2)
    assert abs(np.mean(np.abs(QAM4_POINTS) ** 2) - 1.0) < 1e-15
    # the labels are the bits qam4_map sends to each point, and Gray-coded:
    # neighbouring points differ in one bit
    np.testing.assert_array_equal(qam4_map(QAM4_LABELS.reshape(-1)), QAM4_POINTS)
    assert all(np.sum(QAM4_LABELS[i] != QAM4_LABELS[(i + 1) % 4]) == 1 for i in range(4))
    with pytest.raises(ValueError):
        QAM4_POINTS[0] = 0
