import numpy as np
import pytest
from gradcheck import numeric_grad, rel_error

from paprlab import autodiff as ad
from paprlab import chain
from paprlab.chain import HpaParams, complex_noise, run_chain
from paprlab.metrics import SpectralParams
from paprlab.models import Module, build_model
from paprlab.ofdm import DegenerateInputError, ofdm_modulate, qam4_map
from paprlab.training import LossWeights, joint_loss


class IdentityCodec(Module):
    """Pass-through encoder/decoder used to verify the chain wiring."""

    def __init__(self, n, oversampling):
        super().__init__()
        self.n = n
        self.oversampling = oversampling

    def encode(self, z):
        return z

    def decode(self, z):
        return z


# Far below its limit a0 the RAPP amplifier is linear to rounding: at 60 dB
# of back-off ibo_scale is exactly 1.0, and alpha is 1 within 1e-12.
LINEAR_HPA = HpaParams(a0=1e3, ibo_db=60.0)


class TestChainWiring:
    def test_identity_chain_reconstructs_block(self):
        rng = np.random.default_rng(0)
        blocks = qam4_map(rng.integers(0, 2, (6, 32)))
        x = ofdm_modulate(blocks, 4)
        stub = IdentityCodec(16, 4)
        taps = run_chain(stub, x, LINEAR_HPA, np.zeros_like(x))
        assert taps.alpha == pytest.approx(1.0)
        assert np.max(np.abs(taps.decoded.data - blocks)) < 1e-8

    def test_identity_chain_mse_is_tiny(self):
        rng = np.random.default_rng(1)
        blocks = qam4_map(rng.integers(0, 2, (4, 16)))
        x = ofdm_modulate(blocks, 4)
        stub = IdentityCodec(8, 4)
        taps = run_chain(stub, x, LINEAR_HPA, np.zeros_like(x))
        mse = ad.mse_complex(taps.decoded, blocks)
        assert mse.item() < 1e-16

    def test_zero_batch_raises_cleanly(self):
        stub = IdentityCodec(8, 4)
        with pytest.raises(DegenerateInputError):
            run_chain(stub, np.zeros((2, 32), complex), HpaParams(), np.zeros((2, 32), complex))

    def test_shape_validation(self):
        stub = IdentityCodec(8, 4)
        with pytest.raises(ValueError, match="shape"):
            run_chain(stub, np.zeros((2, 30), complex), HpaParams(), np.zeros((2, 30), complex))

    def test_taps_exposed(self):
        rng = np.random.default_rng(2)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (3, 16))), 4)
        stub = IdentityCodec(8, 4)
        hpa = HpaParams(ibo_db=3.0)
        taps = run_chain(stub, x, hpa, np.zeros_like(x))
        # x_f carries the back-off: unit power scaled by 10^(-3/20)
        assert np.mean(np.abs(taps.x_f.data) ** 2) == pytest.approx(10 ** -0.3, rel=1e-9)
        # PA compresses peaks: output power strictly below input power
        assert np.mean(np.abs(taps.x_p.data) ** 2) < np.mean(np.abs(taps.x_f.data) ** 2)

    def test_noise_is_applied_and_deterministic(self):
        rng_bits = np.random.default_rng(3)
        x = ofdm_modulate(qam4_map(rng_bits.integers(0, 2, (2, 16))), 4)
        stub = IdentityCodec(8, 4)
        hpa = HpaParams()
        taps_a, taps_b = (run_chain(stub, x, hpa, complex_noise(
            x.shape, 10.0, hpa, np.random.default_rng(42))) for _ in range(2))
        np.testing.assert_array_equal(taps_a.decoded.data, taps_b.decoded.data)
        clean = run_chain(stub, x, hpa, np.zeros_like(x))
        assert np.any(taps_a.decoded.data != clean.decoded.data)


class TestToyGradientSweep:
    def test_every_parameter_matches_finite_differences(self, monkeypatch):
        """Full forward+backward through the nonlinear noisy chain on a
        4-subcarrier toy system, checked against central differences."""
        n, oversampling = 4, 4
        model = build_model({"kind": "cae", "n_subcarriers": n, "oversampling": oversampling,
                             "enc_channels": [2, 3], "dec_channels": [3, 2],
                             "seed": 11}).astype(np.float64)
        model.train()
        rng = np.random.default_rng(12)
        blocks = qam4_map(rng.integers(0, 2, (3, 2 * n)))
        x_time = ofdm_modulate(blocks, oversampling)
        hpa = HpaParams(ibo_db=3.0)
        spectral = SpectralParams(bw_bins=n, acpr_req_db=-45.0)
        weights = LossWeights(lambda2=0.01, lambda3=0.002)
        sigma = hpa.a0 * 10 ** (-12.0 / 20.0)
        noise = sigma / np.sqrt(2) * (rng.standard_normal(x_time.shape)
                                      + 1j * rng.standard_normal(x_time.shape))
        # freeze the stop-gradient compensation gain at its unperturbed value
        alpha = run_chain(model, x_time, hpa, noise).alpha
        monkeypatch.setattr(chain, "bussgang_alpha", lambda x, x_pa: alpha)

        def loss_value():
            taps = run_chain(model, x_time, hpa, noise)
            loss, _ = joint_loss(taps, blocks, weights, spectral, stage=2)
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
