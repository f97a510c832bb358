import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from workers import EagerWorker, IdleWorker, RecordingWorker

from paprlab import autodiff as ad
from paprlab import optim, training
from paprlab.autodiff import Tensor
from paprlab.chain import HpaParams, complex_noise, run_chain
from paprlab.config import default_config
from paprlab.harness import build_model_from_config
from paprlab.metrics import SpectralParams, papr_db
from paprlab.models import build_model
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.optim import BETA1, BETA2, EPS, _TASK, AdamW
from paprlab.training import (
    LossWeights,
    TrainConfig,
    TrainingDivergedError,
    joint_loss,
    train,
)

N, L = 8, 4
HPA = HpaParams(ibo_db=3.0)
SPECTRAL = SpectralParams(bw_bins=N, acpr_req_db=-45.0)
STOCK = default_config()
STOCK_SPECTRAL = SpectralParams(bw_bins=STOCK.system.n_subcarriers, acpr_req_db=STOCK.acpr_req_db)

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
    return build_model({"kind": "cae", "n_subcarriers": N, "oversampling": L,
                        "enc_channels": [4, 3], "dec_channels": [3, 4], "seed": seed})


def toy_fc_ae(hidden, seed):
    return build_model({"kind": "fc_ae", "n_subcarriers": N, "oversampling": L,
                        "hidden": hidden, "seed": seed})


def toy_config(**kw):
    args = dict(epochs=3, batches_per_epoch=12, batch_size=16, lr=0.003,
                stage1_epochs=1, snr_min_db=8.0, snr_max_db=14.0)
    args.update(kw)
    return TrainConfig(**args)


def eval_mean_papr_db(model, seed=123):
    model.eval()
    rng = np.random.default_rng(seed)
    x = ofdm_modulate(qam4_map(rng.integers(0, 2, (256, 2 * N))), L)
    taps = run_chain(model, x, HPA, np.zeros_like(x))
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


class TestTrain:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = toy_model()
        before = {k: v.copy() for k, v in model.named_state()}
        result = train(model, toy_config(epochs=0, stage1_epochs=0), LossWeights(),
                       HPA, SPECTRAL, seed=1)
        assert result.records == []
        for k, v in model.named_state():
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
            for value in (r.loss, r.l1, r.l2, r.l3):
                assert math.isfinite(value)
        # stage-1 records carry the PAPR term too, although it is not trained on
        assert result.records[0].l2 >= 1.0
        assert result.records[0].loss == result.records[0].l1

    def test_determinism(self):
        kwargs = dict(cfg=toy_config(epochs=2), weights=LossWeights(),
                      hpa=HPA, spectral=SPECTRAL, seed=7)
        m1 = toy_model(seed=8)
        train(m1, **kwargs)
        m2 = toy_model(seed=8)
        train(m2, **kwargs)
        for (ka, va), (kb, vb) in zip(sorted(m1.named_state()),
                                      sorted(m2.named_state())):
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

    def test_model_left_in_eval_mode(self):
        model = toy_model(seed=16)
        train(model, toy_config(epochs=1), LossWeights(), HPA, SPECTRAL, seed=17)
        assert model.training is False


class SequentialAdamW(AdamW):
    """The reference loop's optimizer: backward queues nothing, and
    end_step() (which train() calls, and step() before finish()) updates
    every parameter on the calling thread, in whole arrays, in the order of
    AdamW's 13 passes, so no parameter ever carries a fence."""

    def queue(self, p):
        pass

    def end_step(self):
        self.step_count += 1
        root_bc2 = (1.0 - BETA2 ** self.step_count) ** 0.5
        alpha = self.lr * root_bc2 / (1.0 - BETA1 ** self.step_count)
        eps_hat, decay = EPS * root_bc2, 1.0 - self.lr * self.weight_decay
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += g * (1.0 - BETA1)
            v *= BETA2
            v += g * (1.0 - BETA2) * g
            p.data *= decay
            p.data -= m / (np.sqrt(v) + eps_hat) * alpha


class TestOverlappedUpdate:
    """train() updates each parameter on a second thread once backward has
    finished its gradient (Tensor.backward's on_final hook, AdamW.queue)."""

    @pytest.mark.parametrize("build, tasks", [
        (lambda: toy_model(seed=22), 1),
        # the hidden FC weight, 600 x 600, spans a whole task and a short one
        (lambda: toy_fc_ae([600, 600], seed=22), 2),
    ], ids=["cae", "fc_ae"])
    def test_matches_sequential_reference(self, monkeypatch, build, tasks):
        """Weights, buffers, moments and the train log equal those of the
        same loop with a sequential whole-array update, bit for bit."""
        cfg = toy_config(epochs=2, batches_per_epoch=3)
        runs = []
        for optimizer in (AdamW, SequentialAdamW):
            monkeypatch.setattr(training, "AdamW", optimizer)
            model = build()
            result = train(model, cfg, LossWeights(), HPA, SPECTRAL, seed=23)
            runs.append((dict(model.named_state()), result))
        (state, result), (ref_state, ref) = runs
        assert -(-max(p.data.size for p in result.optimizer.params) // _TASK) == tasks
        assert result.records == ref.records
        assert result.optimizer.step_count == ref.optimizer.step_count == 6
        assert state.keys() == ref_state.keys()
        for key in state:
            np.testing.assert_array_equal(state[key], ref_state[key], err_msg=key)
        for got, want in zip(result.optimizer.m + result.optimizer.v,
                             ref.optimizer.m + ref.optimizer.v):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arch", ["cae_stock", "fc_ae"])
    def test_the_second_thread_changes_no_bit(self, monkeypatch, arch):
        """Stock-CAE steps and small FC-AE steps give the same losses,
        weights, buffers and moments, bit for bit, with the second thread
        running jobs as it gets to them (also with the interpreter switching
        threads every microsecond), with it starting every job, and with it
        starting none, so that every product and update runs on the calling
        thread; all equal SequentialAdamW's, and no parameter is left with a
        fence."""
        if arch == "cae_stock":
            def build():
                return build_model_from_config(STOCK, "cae")
            cfg = TrainConfig(epochs=1, batches_per_epoch=3, schedule="fixed", stage1_epochs=0)
            args = (STOCK.loss, STOCK.hpa, STOCK_SPECTRAL)
        else:
            def build():
                return toy_fc_ae([600, 600], seed=29)
            cfg = toy_config(epochs=2, batches_per_epoch=2)
            args = (LossWeights(), HPA, SPECTRAL)
        losses = []
        real_loss = training.joint_loss

        def recording_loss(*a, **kw):
            loss, parts = real_loss(*a, **kw)
            losses[-1].append(loss.item())
            return loss, parts
        monkeypatch.setattr(training, "joint_loss", recording_loss)
        real_worker, eager, interval = ad._worker, EagerWorker(), sys.getswitchinterval()
        runs = []
        try:
            for worker, optimizer, switch in (
                    (real_worker, AdamW, interval), (real_worker, AdamW, 1e-6),
                    (eager, AdamW, interval), (IdleWorker(), AdamW, interval),
                    (real_worker, SequentialAdamW, interval)):
                sys.setswitchinterval(switch)
                monkeypatch.setattr(ad, "_worker", worker)
                monkeypatch.setattr(training, "AdamW", optimizer)
                losses.append([])
                model = build()
                result = train(model, cfg, *args, seed=30)
                assert all(p._fence is None for p in model.parameters())
                runs.append((dict(model.named_state()), result.optimizer.m + result.optimizer.v))
        finally:
            sys.setswitchinterval(interval)
            eager.shutdown()
        assert len(losses[0]) == cfg.epochs * cfg.batches_per_epoch
        assert eager.threads and threading.main_thread() not in eager.threads
        (ref_state, ref_moments), ref_losses = runs[-1], losses[-1]
        for (state, moments), run_losses in zip(runs[:-1], losses[:-1]):
            assert run_losses == ref_losses
            assert state.keys() == ref_state.keys()
            for key in state:
                np.testing.assert_array_equal(state[key], ref_state[key], err_msg=key)
            for got, want in zip(moments, ref_moments):
                np.testing.assert_array_equal(got, want)

    def test_no_update_outlives_train(self, monkeypatch):
        """Each epoch is logged with no parameter carrying a fence, and every
        way out of train() leaves every queued update ended, no parameter
        with a fence and at most one thread more than before: a run that
        returns, one whose backward raised with updates queued,
        and one whose data draw raised at the start of a step, as a
        profiler stopping the run between steps does, while the previous
        step's updates were queued."""
        before = threading.active_count()
        worker = RecordingWorker(ad._worker)
        monkeypatch.setattr(ad, "_worker", worker)

        def check(model):
            assert worker.futures and all(future.done() for future in worker.futures)
            assert all(p._fence is None for p in model.parameters())
            assert threading.active_count() <= before + 1
            worker.futures.clear()

        for seed in (24, 25):
            model, fences = toy_model(seed=seed), []
            train(model, toy_config(epochs=2, batches_per_epoch=2), LossWeights(), HPA,
                  SPECTRAL, seed=seed,
                  log=lambda record: fences.extend(p._fence for p in model.parameters()))
            assert len(fences) == 2 * len(model.parameters()) and not any(fences)
            check(model)

        real_queue = AdamW.queue

        def failing_queue(self, p):
            real_queue(self, p)
            if len(self._unqueued) < len(self.params) - 2:
                raise RuntimeError("backward failed")
        with monkeypatch.context() as patch:
            patch.setattr(AdamW, "queue", failing_queue)
            model = toy_model(seed=26)
            with pytest.raises(RuntimeError, match="backward failed"):
                train(model, toy_config(epochs=1, batches_per_epoch=2),
                      LossWeights(), HPA, SPECTRAL, seed=26)
        check(model)

        class Stop(Exception):
            pass
        real_map, calls, fenced = training.qam4_map, [], []
        model = toy_model(seed=31)

        def stopping_map(bits):
            calls.append(1)
            if len(calls) == 3:
                fenced.extend(p for p in model.parameters() if p._fence)
                raise Stop
            return real_map(bits)
        monkeypatch.setattr(training, "qam4_map", stopping_map)
        with pytest.raises(Stop):
            train(model, toy_config(epochs=1, batches_per_epoch=4),
                  LossWeights(), HPA, SPECTRAL, seed=31)
        assert len(fenced) == len(model.parameters())
        check(model)

    @pytest.mark.parametrize("when", ["next_read", "settle"])
    def test_failed_update_surfaces(self, monkeypatch, when):
        """An update that raises on the second thread is raised unchanged by
        the next op that reads its parameter, or, after the last step, by
        train()'s settle; no parameter is left with a fence."""
        model = toy_model(seed=32)
        victim = model.encoder.fc.w
        cfg = toy_config(epochs=1, batches_per_epoch=3)
        fail_step = 1 if when == "next_read" else cfg.batches_per_epoch
        err = RuntimeError("update failed")
        real_run = optim._run

        def failing_run(*task):
            if task[-3] == fail_step and np.shares_memory(task[0], victim.data):
                raise err
            return real_run(*task)
        monkeypatch.setattr(optim, "_run", failing_run)
        with pytest.raises(RuntimeError) as info:
            train(model, cfg, LossWeights(), HPA, SPECTRAL, seed=33)
        assert info.value is err
        frames = {entry.name for entry in info.traceback}
        assert ("linear" in frames) == (when == "next_read")
        assert ("finish" in frames) == (when == "settle")
        assert all(p._fence is None for p in model.parameters())


def normwise(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestFloat32Training:
    def test_stock_step_stays_in_single_precision(self, monkeypatch):
        """Every tensor a stock-CAE training step creates, its gradient, the
        loss and the AdamW moments are float32 or complex64; the model stays
        float32 afterwards."""
        model = build_model_from_config(STOCK, "cae")
        made = []
        init = Tensor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)
        monkeypatch.setattr(Tensor, "__init__", recording)
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, schedule="fixed", stage1_epochs=0)
        result = train(model, cfg, STOCK.loss, STOCK.hpa, STOCK_SPECTRAL, seed=1)
        grads = [t.grad for t in made + model.parameters() if t.grad is not None]
        moments = result.optimizer.m + result.optimizer.v
        assert len(grads) > len(model.parameters())
        assert {a.dtype for a in [t.data for t in made] + grads + moments} == SINGLE
        assert {a.dtype for _, a in model.named_state()} == {np.dtype(np.float32)}

    def test_step_transforms_only_single_precision(self, monkeypatch):
        """From each chain run to the next data draw, in both stages, every
        FFT the step takes is of complex64 data."""
        in_step = [False]
        dtypes = []

        def marking(fn, flag):
            def wrapper(*args, **kwargs):
                in_step[0] = flag
                return fn(*args, **kwargs)
            return wrapper

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                if in_step[0]:
                    dtypes.append(np.asarray(a).dtype)
                return fn(a, *args, **kwargs)
            return wrapper
        monkeypatch.setattr(training, "run_chain", marking(training.run_chain, True))
        monkeypatch.setattr(training, "qam4_map", marking(training.qam4_map, False))
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
        result = train(toy_model(seed=18), toy_config(epochs=2, batches_per_epoch=2),
                       LossWeights(), HPA, SPECTRAL, seed=19)
        assert [r.stage for r in result.records] == [1, 2]
        assert dtypes and set(dtypes) == {np.dtype(np.complex64)}

    def test_stock_step_matches_float64(self):
        """From the same weights, data and noise, one stage-2 step's loss and
        weight gradients in float32 agree with the float64 step."""
        rng = np.random.default_rng(21)
        blocks = qam4_map(rng.integers(0, 2, (32, 144)))
        x = ofdm_modulate(blocks, 4)
        hpa = STOCK.hpa
        noise = complex_noise(x.shape, 10.0, hpa, rng)
        steps = {}
        for dtype in (np.float64, np.float32):
            model = build_model_from_config(STOCK, "cae").astype(dtype)
            taps = run_chain(model, x, hpa, noise)
            loss, _ = joint_loss(taps, blocks, STOCK.loss, STOCK_SPECTRAL, stage=2)
            loss.backward()
            assert loss.data.dtype == dtype
            steps[dtype] = loss.item(), {k: p.grad for k, p in model.named_parameters()}
        (loss64, grads64), (loss32, grads32) = steps[np.float64], steps[np.float32]
        assert abs(loss32 - loss64) <= LOSS_RTOL * abs(loss64)
        flat = [np.concatenate([g[k].ravel() for k in grads64]) for g in (grads32, grads64)]
        assert normwise(*flat) <= GRAD_RTOL
        for name in (k for k in grads64 if k.endswith(".w")):
            assert normwise(grads32[name], grads64[name]) <= GRAD_RTOL, name


def _state_digest(model) -> str:
    """sha256 over every parameter and buffer, by name, of a model's state."""
    digest = hashlib.sha256()
    for name, array in sorted(model.named_state()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Tiny CAE and FC-AE trained two epochs, one per stage: each epoch's
# (loss, l1, l2, l3) and the final state.  The largest GEMM's inner dimension
# is 204 (the CAE encoder's FC input), well under 2048, so the BLAS thread
# count cannot move a bit.  A change to one of these changes what training computes; re-pin
# only on purpose and say why.
GOLDEN_TRAINING = {
    "cae": ([(2.089138239622116, 2.089138239622116, 3.180457830429077, 19.202309131622314),
             (0.9275616109371185, 0.8968486934900284, 3.05931955575943, 18.47566509246826)],
            "521f0c4126825aa41cafda44bdd0e1cee4d8ad6e239bb751e866493501b30ccb"),
    "fc_ae": ([(1.521266371011734, 1.521266371011734, 3.4214619994163513, 20.331462860107422),
               (0.9255997687578201, 0.8917683959007263, 3.423451542854309, 20.13757562637329)],
              "a8843b41547c349f464c1ea1e1dfb72559622162a89be1563deee98e427887e9"),
}


@pytest.mark.parametrize("arch", sorted(GOLDEN_TRAINING))
def test_golden_training_run(arch):
    model = toy_model(seed=27) if arch == "cae" else toy_fc_ae([24, 32], seed=27)
    result = train(model, toy_config(epochs=2, batches_per_epoch=4, batch_size=8),
                   LossWeights(), HPA, SPECTRAL, seed=28)
    terms = [(r.loss, r.l1, r.l2, r.l3) for r in result.records]
    assert (terms, _state_digest(model)) == GOLDEN_TRAINING[arch]
