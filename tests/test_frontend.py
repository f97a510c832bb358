import math
import warnings

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab.errors import DegenerateInputError
from paprlab.frontend import HpaParams, bussgang_alpha, ibo_scale, rapp_gain
from paprlab.ofdm import ofdm_modulate, qam4_map


def amplify(wave, hpa):
    """The chain's amplifier stage, ad.rapp_nonlinearity, on a plain array."""
    return ad.rapp_nonlinearity(ad.Tensor(np.asarray(wave, dtype=complex)),
                                hpa.a0, hpa.v, hpa.p).data


class TestHpaParams:
    def test_defaults(self):
        hpa = HpaParams()
        assert hpa.a0 == 1.0 and hpa.v == 1.0 and hpa.p == 2.0

    @pytest.mark.parametrize("bad", [dict(a0=0), dict(v=-1), dict(p=0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            HpaParams(**bad)


class TestApplyIbo:
    """The back-off stage: a unit-power waveform times ibo_scale(hpa)."""

    def test_zero_backoff_identity(self):
        assert ibo_scale(HpaParams(ibo_db=0.0)) == 1.0

    def test_six_db_halves_amplitude(self):
        assert ibo_scale(HpaParams(ibo_db=6.0206)) == pytest.approx(0.5, abs=1e-4)

    def test_obo_after_stage_equals_ibo(self):
        rng = np.random.default_rng(0)
        batch = ofdm_modulate(qam4_map(rng.integers(0, 2, (32, 144))), 4)  # unit power
        hpa = HpaParams(ibo_db=3.0)
        scaled = batch * ibo_scale(hpa)
        obo_db = 10.0 * np.log10(hpa.a0 ** 2 / np.mean(np.abs(scaled) ** 2))
        assert obo_db == pytest.approx(3.0, abs=1e-9)


class TestRapp:
    def test_small_signal_slope(self):
        hpa = HpaParams(v=1.7)
        a = np.array([1e-8])
        assert rapp_gain(a, hpa)[0] == pytest.approx(1.7e-8, rel=1e-6)

    def test_saturation_knee_value(self):
        # G(a0/v) = a0 * 2^(-1/(2p)); p=2 gives 2^(-1/4)
        hpa = HpaParams(a0=1.0, v=1.0, p=2.0)
        assert rapp_gain(np.array([1.0]), hpa)[0] == pytest.approx(2 ** -0.25, abs=1e-6)
        assert 2 ** -0.25 == pytest.approx(0.84090, abs=1e-5)

    def test_deep_saturation(self):
        hpa = HpaParams()
        assert rapp_gain(np.array([100.0]), hpa)[0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_and_bounded(self):
        hpa = HpaParams(a0=1.3, v=0.8, p=2.0)
        a = np.linspace(0, 50, 5000)
        g = rapp_gain(a, hpa)
        assert np.all(np.diff(g) > 0)
        assert np.all(g < hpa.a0)

    def test_large_p_approaches_soft_limiter(self):
        hpa = HpaParams(a0=1.0, v=1.0, p=100.0)
        a = np.linspace(0, 5, 2000)
        limiter = np.minimum(a, 1.0)
        assert np.max(np.abs(rapp_gain(a, hpa) - limiter)) < 0.01

    def test_phase_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        y = amplify(x, HpaParams())
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)

    def test_amplitude_matches_gain_curve(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        hpa = HpaParams(a0=0.9, v=1.1, p=3.0)
        np.testing.assert_allclose(np.abs(amplify(x, hpa)),
                                   rapp_gain(np.abs(x), hpa), rtol=1e-12)


class TestBussgangAlpha:
    def test_linear_pa_gives_v(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        v = 2.3
        assert abs(bussgang_alpha(x, v * x) - v) < 1e-12

    def test_identity_gives_one(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert bussgang_alpha(x, x) == pytest.approx(1.0)

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            bussgang_alpha(np.zeros(4, complex), np.ones(4, complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bussgang_alpha(np.zeros(4, complex), np.zeros(5, complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_gives_nan_without_warning(self, bad):
        x = np.ones(4, complex)
        x[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = bussgang_alpha(x, x)
        assert math.isnan(alpha.real) and math.isnan(alpha.imag)

    def test_matches_monte_carlo_oracle(self):
        """Batch estimates agree with a large-sample Gaussian oracle at IBO 3 dB."""
        hpa = HpaParams(ibo_db=3.0)
        scale = ibo_scale(hpa)

        rng = np.random.default_rng(5)
        ref = scale * (rng.standard_normal(10 ** 6) + 1j * rng.standard_normal(10 ** 6)) \
            / np.sqrt(2.0)
        oracle = (np.mean(ref * np.conj(amplify(ref, hpa)))
                  / np.mean(np.abs(ref) ** 2)).real

        estimates = []
        for i in range(40):
            batch_rng = np.random.default_rng(100 + i)
            x = ofdm_modulate(qam4_map(batch_rng.integers(0, 2, (64, 144))), 4) * scale
            estimates.append(bussgang_alpha(x, amplify(x, hpa)).real)
        estimates = np.array(estimates)
        tol = 3 * estimates.std(ddof=1) / np.sqrt(len(estimates)) + 3e-4
        assert abs(estimates.mean() - oracle) < tol

    def test_alpha_minimizes_linear_fit_residual(self):
        """alpha is the least-squares gain: perturbing it raises E|x_pa - a*x|^2."""
        rng = np.random.default_rng(6)
        hpa = HpaParams(ibo_db=3.0)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (64, 144))), 4) * ibo_scale(hpa)
        x_pa = amplify(x, hpa)
        alpha = bussgang_alpha(x, x_pa)

        def residual(a):
            return np.mean(np.abs(x_pa - a * x) ** 2)

        base = residual(alpha)
        assert residual(alpha * 1.01) > base
        assert residual(alpha * 0.99) > base
