import math

import numpy as np
import pytest

from paprlab.chain import HpaParams, complex_noise, run_chain
from paprlab.metrics import SpectralParams, acpr, papr, psd
from paprlab.models import build_model
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.training import LossWeights, joint_loss

N, L = 8, 4
SPECTRAL = SpectralParams(bw_bins=N, acpr_req_db=-45.0)
HPA = HpaParams(ibo_db=3.0)


def toy_cae(seed):
    return build_model({"kind": "cae", "n_subcarriers": N, "oversampling": L,
                        "enc_channels": [3, 2], "dec_channels": [2, 3], "seed": seed})


def make_taps(seed=0, batch=2, model=None, p_snr_db=math.inf):
    rng = np.random.default_rng(seed)
    blocks = qam4_map(rng.integers(0, 2, (batch, 2 * N)))
    x = ofdm_modulate(blocks, L)
    if model is None:
        model = toy_cae(seed).train()
    noise = complex_noise(x.shape, p_snr_db, HPA, np.random.default_rng(seed + 1))
    taps = run_chain(model, x, HPA, noise)
    return taps, blocks, model


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert w.lambda2 == pytest.approx(0.004)
        assert w.lambda3 == pytest.approx(0.001)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda2=-1)


class TestJointLoss:
    def test_perfect_reconstruction_zero_weights(self):
        """With x_hat == x and all weights zero the loss vanishes."""
        taps, blocks, _ = make_taps()
        taps.decoded.data = np.array(blocks, dtype=complex)  # force perfect output
        w = LossWeights(lambda2=0, lambda3=0)
        loss, parts = joint_loss(taps, blocks, w, SPECTRAL, stage=2)
        assert loss.item() == 0.0
        assert parts["l1"] == 0.0

    def test_stage2_zero_weights_equals_l1(self):
        taps, blocks, _ = make_taps(seed=1)
        w = LossWeights(lambda2=0, lambda3=0)
        loss, parts = joint_loss(taps, blocks, w, SPECTRAL, stage=2)
        assert loss.item() == pytest.approx(parts["l1"])
        mse = np.mean(np.abs(taps.decoded.data - blocks) ** 2)
        assert parts["l1"] == pytest.approx(mse)

    def test_stage1_ignores_lambda2_lambda3(self):
        taps, blocks, _ = make_taps(seed=2)
        a, _ = joint_loss(taps, blocks, LossWeights(lambda2=0.004, lambda3=0.001),
                          SPECTRAL, stage=1)
        taps2, blocks2, _ = make_taps(seed=2)
        b, _ = joint_loss(taps2, blocks2, LossWeights(lambda2=99.0, lambda3=42.0),
                          SPECTRAL, stage=1)
        assert a.item() == pytest.approx(b.item())

    def test_term_by_term_oracle(self):
        """Stage-2 loss equals an independent term-by-term computation."""
        model = toy_cae(3).astype(np.float64)
        taps, blocks, _ = make_taps(seed=3, model=model.train())
        w = LossWeights(lambda2=0.004, lambda3=0.001)
        loss, parts = joint_loss(taps, blocks, w, SPECTRAL, stage=2)

        mse = np.mean(np.abs(taps.decoded.data - blocks) ** 2)
        mean_papr = np.mean(papr(taps.x_f.data))
        acpr_gap = acpr(psd(taps.x_p.data), N) - SPECTRAL.acpr_req_db
        expected = mse + 0.004 * mean_papr + 0.001 * acpr_gap
        assert loss.item() == pytest.approx(expected, rel=1e-9)
        assert parts["l2"] == pytest.approx(mean_papr, rel=1e-9)
        assert parts["l3"] == pytest.approx(acpr_gap, rel=1e-9)

    def test_stages_report_the_same_terms(self):
        """Both stages compute all three terms; stage 1 trains on l1 alone."""
        taps, blocks, _ = make_taps(seed=9)
        loss1, parts1 = joint_loss(taps, blocks, LossWeights(), SPECTRAL, stage=1)
        _, parts2 = joint_loss(taps, blocks, LossWeights(), SPECTRAL, stage=2)
        assert parts1 == parts2
        assert loss1.item() == parts1["l1"]

    def test_invalid_stage(self):
        taps, blocks, _ = make_taps(seed=7)
        with pytest.raises(ValueError, match="stage"):
            joint_loss(taps, blocks, LossWeights(), SPECTRAL, stage=3)

    def test_gradient_flows_through_total(self):
        taps, blocks, model = make_taps(seed=8)
        loss, _ = joint_loss(taps, blocks, LossWeights(), SPECTRAL, stage=2)
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)
