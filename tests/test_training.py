import math

import numpy as np
import pytest

from paprlab.autodiff import Tensor
from paprlab.chain import run_chain
from paprlab.channel import complex_noise
from paprlab.errors import TrainingDivergedError
from paprlab.frontend import HpaParams
from paprlab.losses import LossWeights, joint_loss
from paprlab.metrics import SpectralParams, papr_db
from paprlab.models import CaeModel
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.training import TrainConfig, train

N, L = 8, 4
HPA = HpaParams(ibo_db=3.0)
SPECTRAL = SpectralParams(bw_bins=N)

# Float32 against the float64 reference, with tolerances set from float32's
# unit roundoff before any float32 step was measured.  The longest sums run
# over 6380 terms (the stock encoder FC), where random rounding grows to about
# 2^6 eps; 2^8 eps leaves room for the depth of the chain on the loss.  The
# weight gradients also pass through batch norm's backward, whose centring
# cancels, so they get 2^12 eps, normwise.
EPS32 = 2.0 ** -23
LOSS_RTOL = 2 ** 8 * EPS32
GRAD_RTOL = 2 ** 12 * EPS32
SINGLE = {np.dtype(np.float32), np.dtype(np.complex64)}


def toy_model(seed=0):
    return CaeModel(n_subcarriers=N, oversampling=L, enc_channels=(4, 3),
                    dec_channels=(3, 4), seed=seed)


def toy_config(**kw):
    args = dict(epochs=3, batches_per_epoch=12, batch_size=16, lr=0.003,
                stage1_epochs=1, snr_min_db=8.0, snr_max_db=14.0)
    args.update(kw)
    return TrainConfig(**args)


def eval_mean_papr_db(model, seed=123):
    model.eval()
    rng = np.random.default_rng(seed)
    x = ofdm_modulate(qam4_map(rng.integers(0, 2, (256, 2 * N))), L)
    taps = run_chain(model, x, HPA, p_snr_db=math.inf)
    return float(np.mean(papr_db(taps.x_f.data)))


class TestTrainConfig:
    def test_defaults_match_stock_setup(self):
        cfg = TrainConfig()
        assert cfg.epochs == 160
        assert cfg.batches_per_epoch == 4375
        assert cfg.batch_size == 32
        assert cfg.lr == pytest.approx(0.001)

    def test_stage_switch(self):
        cfg = toy_config(epochs=10, stage1_epochs=4)
        assert [cfg.stage_for_epoch(e) for e in range(6)] == [1, 1, 1, 1, 2, 2]

    def test_fixed_schedule_is_stage2_throughout(self):
        cfg = toy_config(schedule="fixed")
        assert cfg.stage_for_epoch(0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_config(schedule="sometimes")
        with pytest.raises(ValueError):
            toy_config(stage1_epochs=99)
        with pytest.raises(ValueError):
            toy_config(l2_mode="both")


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = toy_model()
        before = {k: v.copy() for k, v in model.state_dict().items()}
        result = train(model, toy_config(epochs=0, stage1_epochs=0), LossWeights(),
                       HPA, SPECTRAL, seed=1)
        assert result.records == []
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(v, before[k])

    def test_training_reduces_papr(self):
        """After the stage-2 epochs the transmit PAPR drops below the
        untrained model's level (training smoke run, fixed seed)."""
        baseline = eval_mean_papr_db(toy_model(seed=5))
        model = toy_model(seed=5)
        cfg = toy_config(epochs=20, batches_per_epoch=25, stage1_epochs=5)
        result = train(model, cfg, LossWeights(lambda2=0.01), HPA, SPECTRAL, seed=2)
        assert len(result.records) == 20
        trained = eval_mean_papr_db(model)
        assert trained < baseline

    def test_records_carry_stages_and_finite_metrics(self):
        model = toy_model(seed=6)
        cfg = toy_config(epochs=3, stage1_epochs=2)
        result = train(model, cfg, LossWeights(), HPA, SPECTRAL, seed=3)
        assert [r.stage for r in result.records] == [1, 1, 2]
        assert [r.epoch for r in result.records] == [0, 1, 2]
        for r in result.records:
            for value in (r.loss, r.l1, r.mean_papr_db, r.acpr_db):
                assert math.isfinite(value)
        # stage-1 records keep the PAPR/ACPR loss terms at zero
        assert result.records[0].l2 == 0.0

    def test_determinism(self):
        kwargs = dict(cfg=toy_config(epochs=2), weights=LossWeights(),
                      hpa=HPA, spectral=SPECTRAL, seed=7)
        m1 = toy_model(seed=8)
        train(m1, **kwargs)
        m2 = toy_model(seed=8)
        train(m2, **kwargs)
        for (ka, va), (kb, vb) in zip(sorted(m1.state_dict().items()),
                                      sorted(m2.state_dict().items())):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    def test_seed_changes_trajectory(self):
        m1 = toy_model(seed=9)
        train(m1, toy_config(epochs=1), LossWeights(), HPA, SPECTRAL, seed=10)
        m2 = toy_model(seed=9)
        train(m2, toy_config(epochs=1), LossWeights(), HPA, SPECTRAL, seed=11)
        diffs = [np.abs(a.data - b.data).max()
                 for a, b in zip(m1.parameters(), m2.parameters())]
        assert max(diffs) > 0

    def test_divergence_raises_with_epoch_index(self):
        model = toy_model(seed=12)
        model.encoder.fc.w.data[0, 0] = math.nan
        with pytest.raises(TrainingDivergedError) as err:
            train(model, toy_config(epochs=2), LossWeights(), HPA, SPECTRAL, seed=13)
        assert err.value.epoch == 0
        assert err.value.signal == "x_f"
        assert "x_f" in str(err.value)

    def test_additive_l2_mode_disables_decay(self):
        model = toy_model(seed=14)
        cfg = toy_config(epochs=1, l2_mode="additive")
        result = train(model, cfg, LossWeights(lambda1=1e-4), HPA, SPECTRAL, seed=15)
        assert result.optimizer.weight_decay == 0.0

    def test_model_left_in_eval_mode(self):
        model = toy_model(seed=16)
        train(model, toy_config(epochs=1), LossWeights(), HPA, SPECTRAL, seed=17)
        assert model.training is False


def normwise(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestFloat32Training:
    def test_stock_step_stays_in_single_precision(self, monkeypatch):
        """Every tensor a stock-CAE training step creates, its gradient, the
        loss and the AdamW moments are float32 or complex64; the model is
        float64 again afterwards."""
        model = CaeModel()
        made = []
        init = Tensor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)
        monkeypatch.setattr(Tensor, "__init__", recording)
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, schedule="fixed", stage1_epochs=0)
        result = train(model, cfg, LossWeights(), HpaParams(), SpectralParams(bw_bins=72),
                       seed=1)
        grads = [t.grad for t in made + model.parameters() if t.grad is not None]
        moments = result.optimizer.m + result.optimizer.v
        assert len(grads) > len(model.parameters())
        assert {a.dtype for a in [t.data for t in made] + grads + moments} == SINGLE
        assert {a.dtype for _, a in model.named_state()} == {np.dtype(np.float64)}

    def test_stock_step_matches_float64(self):
        """From the same weights, data and noise, one stage-2 step's loss and
        weight gradients in float32 agree with the float64 step."""
        rng = np.random.default_rng(21)
        blocks = qam4_map(rng.integers(0, 2, (32, 144)))
        x = ofdm_modulate(blocks, 4)
        hpa, spectral = HpaParams(), SpectralParams(bw_bins=72)
        noise = complex_noise(x.shape, 10.0, hpa, rng)
        steps = {}
        for dtype in (np.float64, np.float32):
            model = CaeModel(seed=4).astype(dtype)
            taps = run_chain(model, x, hpa, p_snr_db=10.0, noise=noise)
            loss, _ = joint_loss(taps, blocks, LossWeights(), spectral, stage=2)
            loss.backward()
            assert loss.data.dtype == dtype
            steps[dtype] = loss.item(), {k: p.grad for k, p in model.named_parameters()}
        (loss64, grads64), (loss32, grads32) = steps[np.float64], steps[np.float32]
        assert abs(loss32 - loss64) <= LOSS_RTOL * abs(loss64)
        flat = [np.concatenate([g[k].ravel() for k in grads64]) for g in (grads32, grads64)]
        assert normwise(*flat) <= GRAD_RTOL
        for name in (k for k in grads64 if k.endswith(".w")):
            assert normwise(grads32[name], grads64[name]) <= GRAD_RTOL, name
