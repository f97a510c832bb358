import math

import numpy as np
import pytest
from gradcheck import numeric_grad, rel_error

from paprlab import autodiff as ad
from paprlab import chain
from paprlab.chain import run_chain
from paprlab.channel import complex_noise
from paprlab.errors import DegenerateInputError
from paprlab.frontend import HpaParams
from paprlab.layers import Module
from paprlab.losses import LossWeights, joint_loss
from paprlab.metrics import SpectralParams
from paprlab.models import CaeModel
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.training import weight_params


class IdentityCodec(Module):
    """Pass-through encoder/decoder used to verify the chain wiring."""

    def __init__(self, n, oversampling):
        super().__init__()
        self.n = n
        self.oversampling = oversampling

    def encode(self, z):
        return ad.power_norm(z)

    def decode(self, z):
        return z


class TestChainWiring:
    def test_identity_chain_reconstructs_block(self):
        rng = np.random.default_rng(0)
        blocks = qam4_map(rng.integers(0, 2, (6, 32)))
        x = ofdm_modulate(blocks, 4)
        stub = IdentityCodec(16, 4)
        hpa = HpaParams(ibo_db=0.0, v=1.0)
        taps = run_chain(stub, x, hpa, p_snr_db=math.inf, linear_chain=True)
        assert taps.alpha == pytest.approx(1.0)
        assert np.max(np.abs(taps.decoded.data - blocks)) < 1e-8

    def test_identity_chain_mse_is_tiny(self):
        rng = np.random.default_rng(1)
        blocks = qam4_map(rng.integers(0, 2, (4, 16)))
        x = ofdm_modulate(blocks, 4)
        stub = IdentityCodec(8, 4)
        taps = run_chain(stub, x, HpaParams(ibo_db=0.0), p_snr_db=math.inf, linear_chain=True)
        mse = ad.mse_complex(taps.decoded, blocks)
        assert mse.item() < 1e-16

    def test_zero_batch_raises_cleanly(self):
        stub = IdentityCodec(8, 4)
        with pytest.raises(DegenerateInputError):
            run_chain(stub, np.zeros((2, 32), complex), HpaParams())

    def test_shape_validation(self):
        stub = IdentityCodec(8, 4)
        with pytest.raises(ValueError, match="shape"):
            run_chain(stub, np.zeros((2, 30), complex), HpaParams())

    def test_taps_exposed(self):
        rng = np.random.default_rng(2)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (3, 16))), 4)
        stub = IdentityCodec(8, 4)
        hpa = HpaParams(ibo_db=3.0)
        taps = run_chain(stub, x, hpa, p_snr_db=math.inf)
        # x_f carries the back-off: unit power scaled by 10^(-3/20)
        assert np.mean(np.abs(taps.x_f.data) ** 2) == pytest.approx(10 ** -0.3, rel=1e-9)
        # PA compresses peaks: output power strictly below input power
        assert np.mean(np.abs(taps.x_p.data) ** 2) < np.mean(np.abs(taps.x_f.data) ** 2)

    def test_noise_requires_rng(self):
        stub = IdentityCodec(8, 4)
        x = ofdm_modulate(qam4_map(np.zeros((1, 16), dtype=int)), 4)
        with pytest.raises(ValueError, match="noise_rng"):
            run_chain(stub, x, HpaParams(), p_snr_db=10.0)

    def test_noise_is_applied_and_deterministic(self):
        rng_bits = np.random.default_rng(3)
        x = ofdm_modulate(qam4_map(rng_bits.integers(0, 2, (2, 16))), 4)
        stub = IdentityCodec(8, 4)
        taps_a = run_chain(stub, x, HpaParams(), p_snr_db=10.0,
                           noise_rng=np.random.default_rng(42))
        taps_b = run_chain(stub, x, HpaParams(), p_snr_db=10.0,
                           noise_rng=np.random.default_rng(42))
        np.testing.assert_array_equal(taps_a.decoded.data, taps_b.decoded.data)
        clean = run_chain(stub, x, HpaParams(), p_snr_db=math.inf)
        assert np.any(taps_a.decoded.data != clean.decoded.data)

    def test_noise_comes_from_the_channel(self):
        """The chain adds exactly channel.complex_noise drawn from its generator."""
        rng_bits = np.random.default_rng(4)
        x = ofdm_modulate(qam4_map(rng_bits.integers(0, 2, (2, 16))), 4)
        stub = IdentityCodec(8, 4)
        hpa = HpaParams()
        drawn = run_chain(stub, x, hpa, p_snr_db=9.0, noise_rng=np.random.default_rng(5))
        given = run_chain(stub, x, hpa, p_snr_db=9.0,
                          noise=complex_noise(x.shape, 9.0, hpa, np.random.default_rng(5)))
        np.testing.assert_array_equal(drawn.decoded.data, given.decoded.data)


class TestToyGradientSweep:
    def test_every_parameter_matches_finite_differences(self, monkeypatch):
        """Full forward+backward through the nonlinear noisy chain on a
        4-subcarrier toy system, checked against central differences."""
        n, oversampling = 4, 4
        model = CaeModel(n_subcarriers=n, oversampling=oversampling,
                         enc_channels=(2, 3), dec_channels=(3, 2), seed=11)
        model.train()
        rng = np.random.default_rng(12)
        blocks = qam4_map(rng.integers(0, 2, (3, 2 * n)))
        x_time = ofdm_modulate(blocks, oversampling)
        hpa = HpaParams(ibo_db=3.0)
        spectral = SpectralParams(bw_bins=n)
        weights = LossWeights(lambda1=1e-3, lambda2=0.01, lambda3=0.002)
        sigma = hpa.a0 * 10 ** (-12.0 / 20.0)
        noise = sigma / np.sqrt(2) * (rng.standard_normal(x_time.shape)
                                      + 1j * rng.standard_normal(x_time.shape))
        # freeze the stop-gradient compensation gain at its unperturbed value
        alpha = run_chain(model, x_time, hpa, p_snr_db=12.0, noise=noise).alpha
        monkeypatch.setattr(chain, "bussgang_alpha", lambda x, x_pa: alpha)
        reg = weight_params(model)

        def loss_value():
            taps = run_chain(model, x_time, hpa, p_snr_db=12.0, noise=noise)
            loss, _ = joint_loss(taps, blocks, weights, spectral, stage=2, reg_params=reg)
            return loss

        loss = loss_value()
        loss.backward()
        grads = {name: p.grad.copy() for name, p in model.named_parameters()}

        for name, p in model.named_parameters():
            def f(arr, p=p):
                saved = p.data
                p.data = arr
                value = loss_value().item()
                p.data = saved
                return value
            numeric = numeric_grad(f, p.data.copy(), eps=1e-5)
            err = rel_error(grads[name], numeric)
            # conv biases ahead of batch norm have exactly-zero gradients, so
            # allow an absolute floor where both sides are numerical noise
            atol = np.max(np.abs(grads[name] - numeric))
            assert err < 1e-4 or atol < 1e-6, f"{name}: rel error {err:.2e}, abs {atol:.2e}"
