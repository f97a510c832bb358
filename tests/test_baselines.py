import numpy as np
import oracle_ops
import pytest

from paprlab import baselines
from paprlab.baselines import (
    CfParams,
    SlmParams,
    clip_amplitude,
    clip_filter,
    slm_phase_bank,
    slm_select_batch,
)
from paprlab.errors import DegenerateInputError
from paprlab.metrics import papr
from paprlab.ofdm import band_bins, ml_detect, ofdm_demodulate, ofdm_modulate, qam4_map


def oracle_clip_filter(wave, clip_ratio_db, iterations, oversampling):
    """Per-sample loop reference for clipping-and-filtering.

    Independent control flow; shares the numpy abs/mean/FFT primitives so
    the comparison can be exact (python's scalar abs rounds differently).
    """
    total = len(wave)
    n = total // oversampling
    out = np.array(wave, dtype=complex)
    for _ in range(iterations):
        mags = np.abs(out)
        rms = np.sqrt(np.mean(mags ** 2))
        a_clip = rms * 10 ** (clip_ratio_db / 20)
        for i in range(total):
            if mags[i] > a_clip:
                out[i] = out[i] * (a_clip / mags[i])
        spectrum = np.fft.fft(out)
        for k in range(n // 2, total - n // 2):
            spectrum[k] = 0.0
        out = np.fft.ifft(spectrum)
    return out / np.sqrt(np.mean(np.abs(out) ** 2))


def oracle_slm(block, bank, oversampling):
    """Exhaustive candidate enumeration for selective mapping."""
    n = len(block)
    total = n * oversampling
    best_wave, best_papr, best_idx = None, np.inf, -1
    for u in range(bank.shape[0]):
        spectrum = np.zeros(total, dtype=complex)
        rotated = block * bank[u]
        spectrum[:n // 2] = rotated[:n // 2]
        spectrum[total - n // 2:] = rotated[n // 2:]
        wave = np.fft.ifft(spectrum) * (total / np.sqrt(n))
        power = np.abs(wave) ** 2
        ratio = power.max() / power.mean()
        if ratio < best_papr:
            best_wave, best_papr, best_idx = wave, ratio, u
    return best_wave, best_idx


class TestParams:
    def test_cf_defaults(self):
        assert CfParams().clip_ratio_db == pytest.approx(1.58)
        assert CfParams().iterations == 1

    def test_cf_validation(self):
        with pytest.raises(ValueError):
            CfParams(iterations=0)

    def test_slm_defaults(self):
        assert SlmParams().num_sequences == 128

    def test_slm_validation(self):
        with pytest.raises(ValueError):
            SlmParams(num_sequences=0)


class TestClipFilter:
    def test_clip_step_hits_threshold_exactly(self):
        rng = np.random.default_rng(0)
        wave = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a_clip = 0.8 * np.abs(wave).max()
        clipped = clip_amplitude(wave, a_clip)
        assert np.abs(clipped).max() == pytest.approx(a_clip, rel=1e-12)
        below = np.abs(wave) <= a_clip
        np.testing.assert_array_equal(clipped[below], wave[below])

    def test_constant_envelope_below_threshold_unchanged(self):
        # an in-band tone has constant amplitude == its RMS, below any CR > 0 dB
        n, oversampling = 16, 4
        tone = np.exp(2j * np.pi * 2 * np.arange(n * oversampling) / (n * oversampling))
        out = clip_filter(tone, CfParams(clip_ratio_db=1.58), oversampling)
        np.testing.assert_allclose(out, tone, atol=1e-12)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(1)
        cf = CfParams(clip_ratio_db=1.58, iterations=1)
        for _ in range(20):
            block = qam4_map(rng.integers(0, 2, 16))
            wave = ofdm_modulate(block, 4)
            got = clip_filter(wave, cf, 4)
            want = oracle_clip_filter(wave, 1.58, 1, 4)
            np.testing.assert_array_equal(got, want)

    def test_multiple_iterations_match_oracle(self):
        rng = np.random.default_rng(2)
        wave = ofdm_modulate(qam4_map(rng.integers(0, 2, 16)), 4)
        got = clip_filter(wave, CfParams(clip_ratio_db=1.0, iterations=3), 4)
        want = oracle_clip_filter(wave, 1.0, 3, 4)
        np.testing.assert_array_equal(got, want)

    def test_output_is_band_limited(self):
        rng = np.random.default_rng(3)
        wave = ofdm_modulate(qam4_map(rng.integers(0, 2, (8, 144))), 4)
        out = clip_filter(wave, CfParams(), 4)
        spectrum = np.abs(np.fft.fft(out, axis=-1)) ** 2
        oob = spectrum[:, 36:252].sum()
        assert oob < 1e-20 * spectrum.sum()

    def test_output_power_is_unit(self):
        rng = np.random.default_rng(4)
        wave = ofdm_modulate(qam4_map(rng.integers(0, 2, (8, 144))), 4)
        out = clip_filter(wave, CfParams(), 4)
        np.testing.assert_allclose(np.mean(np.abs(out) ** 2, axis=-1), 1.0, atol=1e-12)

    def test_zero_waveform_rejected(self):
        with pytest.raises(DegenerateInputError):
            clip_filter(np.zeros(64, complex), CfParams(), 4)


class TestSlm:
    def test_u1_is_identity(self):
        rng = np.random.default_rng(5)
        block = qam4_map(rng.integers(0, 2, 16))
        waves, indices = slm_select_batch(block[None], SlmParams(num_sequences=1), 4)
        assert indices[0] == 0
        np.testing.assert_array_equal(waves[0], ofdm_modulate(block, 4))

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(6)
        slm = SlmParams(num_sequences=16, rng_seed=3)
        for _ in range(10):
            block = qam4_map(rng.integers(0, 2, 32))
            waves, _ = slm_select_batch(block[None], slm, 4)
            assert papr(waves[0]) <= papr(ofdm_modulate(block, 4)) + 1e-12

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        slm = SlmParams(num_sequences=4, rng_seed=11)
        bank = slm_phase_bank(8, slm)
        for _ in range(20):
            block = qam4_map(rng.integers(0, 2, 16))
            waves, indices = slm_select_batch(block[None], slm, 4)
            want_wave, want_idx = oracle_slm(block, bank, 4)
            assert indices[0] == want_idx
            np.testing.assert_array_equal(waves[0], want_wave)

    def test_phase_bank_entries(self):
        bank = slm_phase_bank(16, SlmParams(num_sequences=8, rng_seed=0))
        np.testing.assert_array_equal(bank[0], np.ones(16))
        allowed = np.array([1, 1j, -1, -1j])
        assert np.isin(bank, allowed).all()

    def test_nested_banks_share_prefix(self):
        small = slm_phase_bank(16, SlmParams(num_sequences=4, rng_seed=9))
        large = slm_phase_bank(16, SlmParams(num_sequences=8, rng_seed=9))
        np.testing.assert_array_equal(large[:4], small)

    def test_papr_improves_with_nested_u(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            block = qam4_map(rng.integers(0, 2, 32))
            wave4, _ = slm_select_batch(block[None], SlmParams(num_sequences=4, rng_seed=1), 4)
            wave8, _ = slm_select_batch(block[None], SlmParams(num_sequences=8, rng_seed=1), 4)
            assert papr(wave8[0]) <= papr(wave4[0]) + 1e-12

    def test_rotation_preserves_magnitudes(self):
        rng = np.random.default_rng(9)
        block = qam4_map(rng.integers(0, 2, 32))
        bank = slm_phase_bank(16, SlmParams(num_sequences=8, rng_seed=2))
        np.testing.assert_array_equal(np.abs(block * bank[3]), np.abs(block))

    def test_ber_transparent_over_ideal_channel(self):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, 64)
        block = qam4_map(bits)
        slm = SlmParams(num_sequences=8, rng_seed=4)
        waves, indices = slm_select_batch(block[None], slm, 4)
        bank = slm_phase_bank(32, slm)
        received = ofdm_demodulate(waves[0], 4) * np.conj(bank[indices[0]])
        np.testing.assert_array_equal(ml_detect(received), bits)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        blocks = qam4_map(rng.integers(0, 2, (30, 16)))
        slm = SlmParams(num_sequences=8, rng_seed=5)
        bank = slm_phase_bank(8, slm)
        waves, indices = slm_select_batch(blocks, slm, 4)
        for i in range(len(blocks)):
            wave, idx = oracle_slm(blocks[i], bank, 4)
            assert indices[i] == idx
            np.testing.assert_array_equal(waves[i], wave)


def _stock_blocks(seed: int, batch: int) -> np.ndarray:
    """Random 4-QAM blocks at the stock 72 subcarriers."""
    return qam4_map(np.random.default_rng(seed).integers(0, 2, (batch, 144)))


def _assert_matches_oracle(blocks, slm, oversampling=4):
    waves, indices = slm_select_batch(blocks, slm, oversampling)
    want_waves, want_indices = oracle_ops.slm_select_batch(blocks, slm, oversampling)
    np.testing.assert_array_equal(indices, want_indices)
    np.testing.assert_array_equal(waves, want_waves)
    return want_indices


class TestSlmScreen:
    """The complex64 screen and float64 recheck against the float64
    block-by-block oracle, bit for bit, at the stock 72 x 4 with U = 128."""

    def test_matches_oracle_on_random_blocks(self):
        _assert_matches_oracle(_stock_blocks(20, 2000), SlmParams())

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_batch_sizes_around_the_screen_group(self, offset):
        batch = 1 if offset is None else baselines._SCREEN_BLOCKS + offset
        _assert_matches_oracle(_stock_blocks(21, batch), SlmParams())

    def test_exact_ties_go_to_the_lowest_index(self, monkeypatch):
        # -b and j*b modulate to -x and j*x, whose PAPRs equal x's exactly;
        # each candidate's twins sit 32 rows apart, so the first group wins
        base = slm_phase_bank(72, SlmParams(num_sequences=32))
        bank = np.concatenate([-base, 1j * base, -1j * base, base])
        monkeypatch.setattr(baselines, "slm_phase_bank", lambda n, slm: bank)
        indices = _assert_matches_oracle(_stock_blocks(22, 300), SlmParams())
        assert (indices < 32).all()

    def test_circular_shift_near_ties_match_oracle(self, monkeypatch):
        # b * (-j)^bin shifts the waveform circularly by L*N/4 samples: the
        # same PAPR up to float64 rounding, which only the recheck can order
        base = slm_phase_bank(72, SlmParams(num_sequences=64))
        shifted = base * (-1j) ** band_bins(72, 288)[0]
        bank = np.concatenate([base, shifted])
        monkeypatch.setattr(baselines, "slm_phase_bank", lambda n, slm: bank)
        indices = _assert_matches_oracle(_stock_blocks(23, 300), SlmParams())
        assert (indices >= 64).any() and (indices < 64).any()

    def test_nan_block_matches_oracle(self):
        blocks = _stock_blocks(24, 3)
        blocks[1, 5] = np.nan
        _assert_matches_oracle(blocks, SlmParams())

    def test_zero_block_rejected(self):
        blocks = _stock_blocks(25, 3)
        blocks[2] = 0.0
        with pytest.raises(DegenerateInputError):
            slm_select_batch(blocks, SlmParams(), 4)

    @pytest.mark.parametrize("n, oversampling, message", [
        (71, 4, "subcarrier count"), (72, 0, "oversampling factor")])
    def test_bad_sizes_rejected_as_modulation_does(self, n, oversampling, message):
        with pytest.raises(ValueError, match=message):
            slm_select_batch(np.ones((3, n), complex), SlmParams(), oversampling)

    def test_empty_batch(self):
        waves, indices = slm_select_batch(np.zeros((0, 72), complex), SlmParams(), 4)
        assert waves.shape == (0, 288) and indices.shape == (0,)
