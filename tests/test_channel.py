import math

import numpy as np
import pytest

from paprlab.channel import complex_noise, noise_std
from paprlab.frontend import HpaParams

HPA = HpaParams(a0=1.0)


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        rng = np.random.default_rng(6)
        noise = complex_noise((3,), math.inf, HPA, rng)
        np.testing.assert_array_equal(noise, np.zeros(3))
        # the generator is left untouched
        assert rng.standard_normal() == np.random.default_rng(6).standard_normal()

    def test_noise_power(self):
        noise = complex_noise(10 ** 6, 0.0, HPA, np.random.default_rng(7))
        measured = np.mean(np.abs(noise) ** 2)
        # power estimate of 1e6 unit-mean exponentials: sigma = 1/sqrt(n)
        assert abs(measured - 1.0) < 3e-3

    def test_variance_scales_with_p_snr(self):
        assert noise_std(10.0, HPA) ** 2 == pytest.approx(0.1)
        assert noise_std(math.inf, HPA) == 0.0

    def test_a0_scales_noise(self):
        assert noise_std(0.0, HpaParams(a0=2.0)) == pytest.approx(2.0)

    def test_zero_mean(self):
        noise = complex_noise(10 ** 6, 0.0, HPA, np.random.default_rng(8))
        assert abs(noise.mean()) < 4.0 / np.sqrt(10 ** 6)

    def test_re_im_uncorrelated(self):
        noise = complex_noise(10 ** 6, 0.0, HPA, np.random.default_rng(9))
        corr = np.mean(noise.real * noise.imag) / 0.5
        assert abs(corr) < 4.0 / np.sqrt(10 ** 6)

    def test_fixed_seed_is_bit_identical(self):
        """Same seed, same noise; the real part is drawn before the imaginary."""
        shape = (4, 64)
        rng = np.random.default_rng(10)
        scale = noise_std(5.0, HPA) / np.sqrt(2.0)
        want = scale * rng.standard_normal(shape) + 1j * (scale * rng.standard_normal(shape))
        np.testing.assert_array_equal(
            complex_noise(shape, 5.0, HPA, np.random.default_rng(10)), want)

    def test_explicit_rng_stream_advances(self):
        rng = np.random.default_rng(11)
        first = complex_noise(64, 5.0, HPA, rng)
        second = complex_noise(64, 5.0, HPA, rng)
        assert np.any(first != second)

