"""Gradient and value checks for the autodiff engine, layer by layer."""

import gc
import threading
import weakref

import numpy as np
import oracle_ops
import pytest
from gradcheck import numeric_grad, rel_error
from workers import EagerWorker

from paprlab import autodiff as ad
from paprlab.autodiff import Tensor
from paprlab.errors import DegenerateInputError
from paprlab.models import Conv1d, Linear
from paprlab.metrics import ACPR_FLOOR_DB, acpr, acpr_powers, papr, psd
from paprlab.ofdm import band_bins, bpf
from paprlab.optim import AdamW

RNG = np.random.default_rng(2024)

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def check_grad(build_loss, arrays, eps=FD_STEP, tol=GRAD_TOL):
    """Compare engine gradients against central differences for each input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for i, t in enumerate(tensors):
        def f(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return build_loss(*args).item()
        numeric = numeric_grad(f, arrays[i], eps=eps)
        assert t.grad is not None, f"input {i} received no gradient"
        err = rel_error(t.grad, numeric)
        assert err < tol, f"input {i}: rel error {err:.3e}"


def scalarize(t: Tensor) -> Tensor:
    """Reduce any tensor to a scalar: its mean squared distance from a fixed
    target, complex for complex data, so every entry gets its own gradient."""
    target = np.linspace(-0.7, 1.1, t.data.size).reshape(t.data.shape)
    return ad.mse_complex(t, target * (1.0 - 0.4j) if np.iscomplexobj(t.data) else target)


class TestEngineBasics:
    def test_add_mul_grads(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((3, 4))
        check_grad(lambda x, y: scalarize(x + 2.5 * y + x), [a, b])

    def test_add_rejects_two_shapes(self):
        """Nothing is broadcast: the chain adds only operands of one shape."""
        with pytest.raises(ValueError, match="shapes"):
            Tensor(np.ones((3, 4))) + Tensor(np.ones(4))

    def test_tensor_product_is_not_an_op(self):
        """* and - take a number; the chain scales and shifts by constants only."""
        x, y = Tensor(np.ones(3)), Tensor(np.ones(3))
        with pytest.raises(TypeError):
            x * y
        with pytest.raises(TypeError):
            x - y

    def test_scalar_ops(self):
        a = RNG.standard_normal((5,))
        check_grad(lambda x: scalarize(2.5 * x - 1.0), [a])

    def test_linear_grads(self):
        x = RNG.standard_normal((4, 3))
        w = RNG.standard_normal((3, 5))
        b = RNG.standard_normal(5)
        check_grad(lambda *args: scalarize(ad.linear(*args)), [x, w, b])

    def test_linear_grads_with_constant_input(self):
        """A constant input, like FC-AE's waveform into its first layer, gets
        no gradient; w and b get the same gradients as with a taped input."""
        x = RNG.standard_normal((4, 3))
        w = RNG.standard_normal((3, 5))
        b = RNG.standard_normal(5)
        check_grad(lambda *args: scalarize(ad.linear(Tensor(x), *args)), [w, b])
        const = Tensor(x)
        params = [Tensor(a, requires_grad=True) for a in (w, b)]
        scalarize(ad.linear(const, *params)).backward()
        taped = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        scalarize(ad.linear(*taped)).backward()
        assert const.grad is None
        for got, want in zip(params, taped[1:]):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_reshape_grads(self):
        x = RNG.standard_normal((2, 6))
        check_grad(lambda t: scalarize(ad.reshape(t, (3, 4))), [x])

    def test_no_tape_for_constants(self):
        out = Tensor(np.ones(3)) + Tensor(np.ones(3))
        assert out._backward is None and not out.requires_grad

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x + x  # dy/dx = 1 via each of two paths
        y.backward()
        assert x.grad[0] == 2.0

    def test_frozen_leaf_gets_no_gradient(self):
        arrays = RNG.standard_normal((4, 3)), RNG.standard_normal((3, 5)), RNG.standard_normal(5)

        def run(w_trainable):
            x, w, b = (Tensor(a, requires_grad=needs)
                       for a, needs in zip(arrays, (True, w_trainable, True)))
            scalarize(ad.selu(ad.linear(x, w, b))).backward()
            return x, w, b

        x, w, b = run(False)
        x_ref, w_ref, b_ref = run(True)
        assert w.grad is None and w_ref.grad is not None
        np.testing.assert_array_equal(x.grad, x_ref.grad)
        np.testing.assert_array_equal(b.grad, b_ref.grad)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_frees_the_tape(self):
        # without a cycle collector, only dropping each closure frees the graph
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
            hidden = ad.selu(x * 2.0)
            ref = weakref.ref(hidden.data)
            loss = scalarize(hidden)
            del hidden
            loss.backward()
            assert ref() is None
            assert x.grad is not None
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("given, kept", [
        (np.float32, np.float32), (np.complex64, np.complex64), (np.float64, np.float64),
        (np.complex128, np.complex128), (np.float16, np.float64), (np.int64, np.float64),
        (np.bool_, np.float64)])
    def test_dtype_kept_or_coerced(self, given, kept):
        """float32/complex64 data is kept; anything else becomes float64 or
        complex128, and the backward seed takes the loss's precision."""
        x = Tensor(np.ones(3, dtype=given), requires_grad=True)
        assert x.data.dtype == kept
        if kept == np.float32:
            loss = scalarize(x) - 1.0
            loss.backward()
            assert loss.data.dtype == x.grad.dtype == np.float32

    def test_second_backward_raises(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        loss = scalarize(x + x)
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_final_hook_reports_each_leaf_once_after_its_last_consumer(self):
        """a feeds two ops and c one op twice; each is reported once, right
        after the op that consumes it last, with its final gradient.  A
        parameter off the tape and a constant on it are never reported."""
        a, b, c, idle = (Tensor(np.arange(1.0, 3.0) * k, requires_grad=True)
                         for k in (1, 2, 3, 4))
        const = Tensor(np.ones(2))
        names = {id(a): "a", id(b): "b", id(c): "c", id(idle): "idle", id(const): "const"}
        events = []

        def op(name, *parents):
            def backward(g):
                events.append(name)
                for p in parents:
                    ad._accumulate(p, g * 0.5)
            return ad._make(sum(p.data for p in parents), parents, backward)

        loss = scalarize(op("second", op("first", a, b, const), a) + op("third", c, c))
        seen = {}

        def on_final(leaf):
            events.append(names[id(leaf)])
            seen[names[id(leaf)]] = leaf.grad.copy()
        loss.backward(on_final)
        assert sorted(seen) == ["a", "b", "c"]
        assert sorted(events) == sorted(["first", "second", "third", "a", "b", "c"])
        assert events.index("third") + 1 == events.index("c")
        first = events.index("first")
        assert sorted(events[first + 1:first + 3]) == ["a", "b"]
        for leaf in (a, b, c):
            np.testing.assert_array_equal(seen[names[id(leaf)]], leaf.grad)


class TestLinearBackward:
    """linear's float32 backward at the trained models' shapes, and the reuse
    of a weight's gradient array from one backward to the next."""

    # (in, out) of the stock CAE's two FC layers and FC-AE's six, which
    # share 2500 -> 3500 between the encoder and the decoder
    FC_SHAPES = [(6380, 576), (1924, 144), (576, 2500), (2500, 3500), (3500, 576),
                 (144, 2500), (3500, 144)]

    @staticmethod
    def _leaves(rng, batch, shape):
        fan_in, fan_out = shape
        x = rng.standard_normal((batch, fan_in)).astype(np.float32)
        w = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)
        return [Tensor(a, requires_grad=True) for a in (x, w, np.zeros(fan_out, np.float32))]

    @staticmethod
    def _loss(batches, w, b):
        """Mean square of the SELU of each batch's linear output, summed."""
        out = None
        for x in batches:
            term = ad.mse_complex(ad.selu(ad.linear(Tensor(x), w, b)), 0.0)
            out = term if out is None else out + term
        return out

    @pytest.mark.parametrize("shape", FC_SHAPES, ids=[f"{i}to{o}" for i, o in FC_SHAPES])
    def test_float32_grads_equal_the_plain_products(self, shape):
        """The input gradient is g @ w.T and the weight gradient x.T @ g, bit
        for bit, at the training batch: a property of the BLAS build that the
        training digests rest on.  The input gradient is C-contiguous."""
        rng = np.random.default_rng(7)
        x, w, b = self._leaves(rng, 32, shape)
        out = ad.linear(x, w, b)
        out.grad = rng.standard_normal(out.data.shape).astype(np.float32)
        out._backward()
        np.testing.assert_array_equal(x.grad, out.grad @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ out.grad)
        assert x.grad.dtype == w.grad.dtype == np.float32
        assert x.grad.flags.c_contiguous

    def test_parameter_as_input_can_be_stepped(self):
        """AdamW updates through flat views, which a non-contiguous gradient
        would refuse."""
        x, w, b = self._leaves(np.random.default_rng(8), 4, (3, 5))
        before = x.data.copy()
        scalarize(ad.linear(x, w, b)).backward()
        AdamW([x, w, b], lr=0.1, weight_decay=0.01).step()
        assert not np.array_equal(x.data, before)

    def test_second_backward_reuses_the_weight_gradient(self):
        """A second pass over another batch writes the weight's gradient into
        the first pass's array, with the bits of a fresh graph's gradients.
        A gradient set from outside is replaced, never written over."""
        rng = np.random.default_rng(9)
        _, w, b = self._leaves(rng, 32, (600, 300))
        batches = [rng.standard_normal((32, 600)).astype(np.float32) for _ in range(3)]
        self._loss(batches[:1], w, b).backward()
        first = w.grad
        self._loss(batches[1:2], w, b).backward()
        assert w.grad is first
        fresh = [Tensor(t.data.copy(), requires_grad=True) for t in (w, b)]
        self._loss(batches[1:2], *fresh).backward()
        for got, want in zip((w, b), fresh):
            np.testing.assert_array_equal(got.grad, want.grad)
        outside = np.zeros_like(w.data)
        w.grad = outside
        self._loss(batches[2:], w, b).backward()
        assert w.grad is not outside and not outside.any()

    # the stock encoder FC and the encoder FC at N = 16
    THREAD_SHAPES = [(6380, 576), (1452, 128)]

    @pytest.mark.parametrize("shape", THREAD_SHAPES, ids=[f"{i}to{o}" for i, o in THREAD_SHAPES])
    def test_weight_gradient_off_the_thread_equals_inline(self, monkeypatch, shape):
        """The weight gradient the second thread computes equals x.T @ g
        computed on the calling thread, bit for bit, in float32 at batch 32:
        fresh and written into the previous backward's array."""
        worker = EagerWorker()
        monkeypatch.setattr(ad, "_worker", worker)
        rng = np.random.default_rng(11)
        x, w, b = self._leaves(rng, 32, shape)
        try:
            for _ in range(2):
                first = w.grad
                w.grad = None  # as backward() leaves a weight whose array it reuses
                out = ad.linear(x, w, b)
                out.grad = rng.standard_normal(out.data.shape).astype(np.float32)
                x.grad = b.grad = None
                out._backward()
                np.testing.assert_array_equal(w.grad, x.data.T @ out.grad)
                np.testing.assert_array_equal(x.grad, out.grad @ w.data.T)
        finally:
            worker.shutdown()
        assert w.grad is first
        assert worker.threads and threading.main_thread() not in worker.threads

    def test_weight_gradient_error_on_the_thread_is_raised_by_backward(self, monkeypatch):
        """A weight-gradient product that raises on the second thread is
        raised by backward() unchanged."""
        err = RuntimeError("product failed")

        def fail(*args):
            raise err
        worker = EagerWorker(swap={np.matmul: fail})
        monkeypatch.setattr(ad, "_worker", worker)
        rng = np.random.default_rng(12)
        x, w, b = self._leaves(rng, 32, (60, 40))
        loss = self._loss([x.data], w, b)
        try:
            with pytest.raises(RuntimeError) as info:
                loss.backward()
        finally:
            worker.shutdown()
        assert info.value is err
        assert worker.threads and threading.main_thread() not in worker.threads

    def test_shared_weight_gets_the_sum(self):
        """A weight fed to two linear ops gets both gradients summed, on the
        first pass and on a pass that could reuse an array."""
        rng = np.random.default_rng(10)
        _, w, b = self._leaves(rng, 32, (60, 40))
        for _ in range(2):
            batches = [rng.standard_normal((32, 60)).astype(np.float32) for _ in range(2)]
            self._loss(batches, w, b).backward()
            parts = []
            for x in batches:
                fresh = [Tensor(t.data.copy(), requires_grad=True) for t in (w, b)]
                self._loss([x], *fresh).backward()
                parts.append(fresh)
            for i, t in enumerate((w, b)):
                np.testing.assert_array_equal(t.grad, parts[0][i].grad + parts[1][i].grad)


def test_a_settle_that_raises_waits_for_the_running_job(monkeypatch):
    """When one job raised, _settle raises its error unchanged only once
    every job the second thread started has ended."""
    worker = EagerWorker()
    monkeypatch.setattr(ad, "_worker", worker)
    err, release, ended = RuntimeError("job failed"), threading.Event(), []

    def fail():
        raise err

    def slow():
        release.wait(10)
        ended.append(True)
    timer = threading.Timer(0.2, release.set)
    try:
        jobs = [ad._submit(fail), ad._submit(slow)]
        timer.start()
        with pytest.raises(RuntimeError) as info:
            ad._settle(jobs)
        assert info.value is err and ended == [True]
    finally:
        release.set()
        timer.join()
        worker.shutdown()


class TestActivations:
    def test_selu_values(self):
        x = Tensor(np.array([0.0, 1.0, -1000.0, -0.0, np.inf, -np.inf]))
        out = ad.selu(x).data
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0507, abs=1e-4)
        assert out[2] == pytest.approx(-1.7581, abs=1e-4)
        assert out[3] == 0.0 and not np.signbit(out[3])
        assert out[4] == np.inf
        assert out[5] == ad.SELU_SCALE * (ad.SELU_ALPHA * -1.0)
        np.testing.assert_array_equal(out, oracle_ops.selu(x).data)

    def test_selu_grad(self):
        x = RNG.standard_normal((4, 7)) * 2
        check_grad(lambda t: scalarize(ad.selu(t)), [x])


def stage(x, w, b, running=None, training=False):
    """conv_stage on arrays, batch norm at gamma 1 and beta 0; the running
    statistics default to 0 and 1."""
    out_ch = w.shape[0]
    mean, var = (np.zeros(out_ch), np.ones(out_ch)) if running is None else running
    return ad.conv_stage(Tensor(x), Tensor(w), Tensor(b), Tensor(np.ones(out_ch)),
                         Tensor(np.zeros(out_ch)), mean, var, training=training).data


def norm_selu(y, mean=0.0, var=1.0):
    """What eval-mode batch norm at gamma 1, beta 0 and SELU make of y."""
    return ad.selu(Tensor((y - mean) / np.sqrt(var + ad.BN_EPS))).data


def identity_kernel(channels):
    """A K = 1 kernel passing each channel through unchanged."""
    return np.eye(channels)[:, :, None]


class TestConv1d:
    """conv_stage's correlation, read through eval-mode batch norm and SELU."""

    def test_identity_kernel(self):
        x = RNG.standard_normal((2, 1, 10))
        w = np.array([[[0.0, 1.0, 0.0]]])
        b = np.zeros(1)
        out = stage(x, w, b)
        assert out.shape == (2, 1, 12)
        np.testing.assert_allclose(out[:, :, 1:11], norm_selu(x))
        np.testing.assert_allclose(out[:, :, 0], 0.0)
        np.testing.assert_allclose(out[:, :, 11], 0.0)

    def test_zero_weights_give_bias(self):
        x = RNG.standard_normal((2, 3, 8))
        w = np.zeros((4, 3, 3))
        b = np.array([1.0, -2.0, 0.5, 3.0])
        out = stage(x, w, b)
        np.testing.assert_allclose(out, np.broadcast_to(norm_selu(b)[:, None], (2, 4, 10)))

    def test_matches_nested_loop_oracle(self):
        x = RNG.standard_normal((2, 2, 7))
        w = RNG.standard_normal((3, 2, 3))
        b = RNG.standard_normal(3)
        padding = 2                                   # K - 1: a full correlation
        got = stage(x, w, b)

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        out_len = 7 + 2 * padding - 3 + 1
        want = np.zeros((2, 3, out_len))
        for bi in range(2):
            for o in range(3):
                for pos in range(out_len):
                    acc = b[o]
                    for c in range(2):
                        for k in range(3):
                            acc += w[o, c, k] * xp[bi, c, pos + k]
                    want[bi, o, pos] = acc
        np.testing.assert_allclose(got, norm_selu(want), atol=1e-12)

    def test_grads(self):
        x = RNG.standard_normal((2, 2, 7))
        w = RNG.standard_normal((3, 2, 3))
        b = RNG.standard_normal(3)
        gamma, beta = Tensor(RNG.standard_normal(3) + 1.5), Tensor(RNG.standard_normal(3))
        mean, var = RNG.standard_normal(3), RNG.random(3) + 0.5

        def loss(*args):
            return scalarize(ad.conv_stage(*args, gamma, beta, mean, var, training=False))
        check_grad(loss, [x, w, b])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            stage(np.zeros((1, 2, 5)), np.zeros((3, 4, 3)), np.zeros(3))


class TestBatchNorm:
    """conv_stage's batch norm, read through an identity K = 1 kernel and
    SELU."""

    def test_training_standardizes(self):
        x = RNG.standard_normal((8, 5, 12)) * 3 + 1
        running = (np.zeros(5), np.ones(5))
        out = stage(x, identity_kernel(5), np.zeros(5), running=running, training=True)
        mean, var = x.mean(axis=(0, 2))[:, None], x.var(axis=(0, 2))[:, None]
        np.testing.assert_allclose(out, norm_selu(x, mean, var), atol=1e-12)
        np.testing.assert_allclose(running[0], 0.1 * mean[:, 0], atol=1e-15)
        np.testing.assert_allclose(running[1], 0.9 + 0.1 * var[:, 0], atol=1e-15)

    def test_standardized_input_is_fixed_point(self):
        raw = RNG.standard_normal((64, 2, 16))
        raw = (raw - raw.mean(axis=(0, 2), keepdims=True)) / raw.std(axis=(0, 2), keepdims=True)
        out = stage(raw, identity_kernel(2), np.zeros(2), training=True)
        np.testing.assert_allclose(out, ad.selu(Tensor(raw)).data, atol=1e-4)

    def test_eval_mode_uses_running_stats(self):
        running = (np.zeros(3), np.ones(3))
        for _ in range(200):
            stage(RNG.standard_normal((16, 3, 8)) * 2 + 5, identity_kernel(3), np.zeros(3),
                  running=running, training=True)
        np.testing.assert_allclose(running[0], 5.0, atol=0.2)
        np.testing.assert_allclose(running[1], 4.0, atol=0.5)
        x = RNG.standard_normal((4, 3, 8)) * 2 + 5
        out = stage(x, identity_kernel(3), np.zeros(3), running=running)
        want = norm_selu(x, running[0][:, None], running[1][:, None])
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_batch_of_one_rejected_in_training(self):
        with pytest.raises(ValueError, match="batch"):
            stage(np.zeros((1, 2, 4)), identity_kernel(2), np.zeros(2), training=True)

    def test_grads_training_mode(self):
        """The batch mean takes the conv bias out, so its gradient is zero
        and left out of the difference check."""
        x = RNG.standard_normal((4, 3, 5))
        w = RNG.standard_normal((2, 3, 3))
        b = ad.parameter(RNG.standard_normal(2))
        gamma = RNG.standard_normal(2) + 1.5
        beta = RNG.standard_normal(2)

        def loss(xt, wt, gt, bt):
            return scalarize(ad.conv_stage(xt, wt, b, gt, bt, np.zeros(2), np.ones(2),
                                           training=True))
        check_grad(loss, [x, w, gamma, beta])
        np.testing.assert_allclose(b.grad, 0.0, atol=1e-12)

    def test_grads_eval_mode(self):
        x = RNG.standard_normal((4, 3, 5))
        w = RNG.standard_normal((2, 3, 3))
        b = RNG.standard_normal(2)
        gamma = RNG.standard_normal(2) + 1.5
        beta = RNG.standard_normal(2)
        rm = RNG.standard_normal(2)
        rv = np.abs(RNG.standard_normal(2)) + 0.5

        def loss(*args):
            return scalarize(ad.conv_stage(*args, rm.copy(), rv.copy(), training=False))
        check_grad(loss, [x, w, b, gamma, beta])


class TestComplexBridging:
    def test_interleaved_roundtrip(self):
        z = RNG.standard_normal((3, 8)) + 1j * RNG.standard_normal((3, 8))
        x = ad.complex_to_interleaved(Tensor(z))
        assert x.data.shape == (3, 16)
        back = ad.interleaved_to_complex(x)
        np.testing.assert_array_equal(back.data, z)

    def test_interleaved_grads(self):
        z = RNG.standard_normal((2, 4)) + 1j * RNG.standard_normal((2, 4))
        check_grad(lambda t: scalarize(ad.complex_to_interleaved(t)), [z])

    def test_real_to_complex_grads(self):
        x = RNG.standard_normal((2, 8))
        check_grad(lambda t: scalarize(ad.interleaved_to_complex(t)), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layout_ops_are_views(self, dtype):
        """The bridges and reshape share memory with their input, and each
        hands back its output gradient without a copy."""
        x = Tensor(RNG.standard_normal((2, 3, 8)).astype(dtype), requires_grad=True)
        z = ad.interleaved_to_complex(x)
        back = ad.complex_to_interleaved(z)
        flat = ad.reshape(back, (2, 24))
        assert z.data.dtype == np.result_type(dtype, np.complex64)
        assert back.data.dtype == dtype
        for out in (z, back, flat):
            assert np.shares_memory(out.data, x.data)
        scalarize(flat).backward()
        for node, out in ((x, z), (z, back), (back, flat)):
            assert np.shares_memory(node.grad, out.grad)


class TestChainOps:
    def test_complex_scale_value_and_grad(self):
        z = RNG.standard_normal((2, 6)) + 1j * RNG.standard_normal((2, 6))
        c = 0.7 - 0.4j
        out = ad.complex_scale(Tensor(z), c)
        np.testing.assert_allclose(out.data, z * c)
        check_grad(lambda t: scalarize(ad.complex_scale(t, c)), [z])

    def test_add_constant_grad(self):
        z = RNG.standard_normal((2, 6)) + 1j * RNG.standard_normal((2, 6))
        w = RNG.standard_normal((2, 6)) + 1j * RNG.standard_normal((2, 6))
        out = ad.add_constant(Tensor(z), w)
        np.testing.assert_allclose(out.data, z + w)
        check_grad(lambda t: scalarize(ad.add_constant(t, w)), [z])

    def test_bandpass_matches_ofdm_bpf(self):
        from paprlab.ofdm import bpf
        z = RNG.standard_normal((3, 32)) + 1j * RNG.standard_normal((3, 32))
        out = ad.bandpass(Tensor(z), 4)
        np.testing.assert_allclose(out.data, bpf(z, 4), atol=1e-13)

    def test_bandpass_grad(self):
        z = RNG.standard_normal((2, 16)) + 1j * RNG.standard_normal((2, 16))
        check_grad(lambda t: scalarize(ad.bandpass(t, 4)), [z])

    def test_dft_unpad_matches_demodulate(self):
        from paprlab.ofdm import ofdm_demodulate
        z = RNG.standard_normal((3, 32)) + 1j * RNG.standard_normal((3, 32))
        out = ad.dft_unpad(Tensor(z), 4)
        np.testing.assert_allclose(out.data, ofdm_demodulate(z, 4), atol=1e-13)

    def test_dft_unpad_grad(self):
        z = RNG.standard_normal((2, 16)) + 1j * RNG.standard_normal((2, 16))
        check_grad(lambda t: scalarize(ad.dft_unpad(t, 4)), [z])

    def test_rapp_matches_frontend(self):
        """Output is the closed-form AM/AM gain curve with the input phase."""
        from paprlab.chain import HpaParams, rapp_gain
        z = RNG.standard_normal((2, 50)) + 1j * RNG.standard_normal((2, 50))
        hpa = HpaParams(a0=0.9, v=1.2, p=2.0)
        out = ad.rapp_nonlinearity(Tensor(z), hpa.a0, hpa.v, hpa.p)
        want = rapp_gain(np.abs(z), hpa) * np.exp(1j * np.angle(z))
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_rapp_grad(self, p):
        z = RNG.standard_normal((2, 10)) + 1j * RNG.standard_normal((2, 10))
        check_grad(lambda t: scalarize(ad.rapp_nonlinearity(t, 1.0, 1.0, p)), [z])

    def test_rapp_grad_survives_zero_sample(self):
        z = RNG.standard_normal((1, 6)) + 1j * RNG.standard_normal((1, 6))
        z[0, 2] = 0.0
        t = Tensor(z, requires_grad=True)
        loss = scalarize(ad.rapp_nonlinearity(t, 1.0, 1.0, 2.0))
        loss.backward()
        assert np.all(np.isfinite(t.grad.real)) and np.all(np.isfinite(t.grad.imag))

    def test_power_norm_value(self):
        z = 3.0 * (RNG.standard_normal((4, 8)) + 1j * RNG.standard_normal((4, 8)))
        out = ad.power_norm(Tensor(z))
        assert np.mean(np.abs(out.data) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_power_norm_grad_per_row(self):
        """Rows at powers far apart, so a batch-wide scale would show."""
        scale = np.array([[0.2], [1.0], [4.0]])
        z = scale * (RNG.standard_normal((3, 6)) + 1j * RNG.standard_normal((3, 6)))
        check_grad(lambda t: scalarize(ad.power_norm(t)), [z])

    def test_power_norm_rows_are_independent(self):
        """Changing row j leaves every other row's output and gradient bit-identical."""
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        changed = z.copy()
        changed[2] *= 7.5 * np.exp(0.3j)
        changed[2, 5] += 2.0
        outs = []
        for batch in (z, changed):
            t = Tensor(batch, requires_grad=True)
            out = ad.power_norm(t)
            scalarize(out).backward()
            outs.append((out.data, t.grad))
        (out_a, grad_a), (out_b, grad_b) = outs
        keep = [0, 1, 3]
        np.testing.assert_array_equal(out_a[keep], out_b[keep])
        np.testing.assert_array_equal(grad_a[keep], grad_b[keep])
        np.testing.assert_allclose(np.mean(np.abs(out_b) ** 2, axis=-1), 1.0, rtol=1e-12)

    def test_power_norm_zero_batch(self):
        with pytest.raises(DegenerateInputError):
            ad.power_norm(Tensor(np.zeros((2, 4), dtype=complex)))


class TestLossHeads:
    def test_mse_value_and_grad(self):
        z = RNG.standard_normal((3, 5)) + 1j * RNG.standard_normal((3, 5))
        target = RNG.standard_normal((3, 5)) + 1j * RNG.standard_normal((3, 5))
        out = ad.mse_complex(Tensor(z), target)
        assert out.item() == pytest.approx(np.mean(np.abs(z - target) ** 2))
        check_grad(lambda t: ad.mse_complex(t, target), [z])

    def test_papr_loss_matches_metric(self):
        z = RNG.standard_normal((6, 32)) + 1j * RNG.standard_normal((6, 32))
        out = ad.papr_loss(Tensor(z))
        assert out.item() == pytest.approx(np.mean(papr(z)))

    def test_papr_loss_grad(self):
        z = RNG.standard_normal((4, 16)) + 1j * RNG.standard_normal((4, 16))
        check_grad(lambda t: ad.papr_loss(t), [z])

    def test_acpr_value_matches_metric(self):
        z = RNG.standard_normal((8, 32)) + 1j * RNG.standard_normal((8, 32))
        out = ad.acpr_value(Tensor(z), 8)
        assert out.item() == pytest.approx(acpr(psd(z), 8), abs=1e-9)

    def test_acpr_grad_hard_max(self):
        z = RNG.standard_normal((3, 32)) + 1j * RNG.standard_normal((3, 32))
        check_grad(lambda t: ad.acpr_value(t, 8), [z])

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_acpr_floor_on_band_limited_input(self, dtype):
        """bpf output has adjacent-band power only at rounding level, down to
        none; the ACPR_FLOOR_DB floor keeps the value and gradient finite."""
        rng = np.random.default_rng(9)
        wave = rng.standard_normal((32, 288)) + 1j * rng.standard_normal((32, 288))
        z = Tensor(bpf(wave.astype(dtype), 4), requires_grad=True)
        out = ad.acpr_value(z, 72)
        out.backward()
        assert ACPR_FLOOR_DB - 1e-9 <= out.item() < -100.0
        assert z.grad.dtype == dtype and np.all(np.isfinite(z.grad))

    def test_acpr_floor_matches_metric(self):
        """On band-limited input the loss and the metric read the same floor."""
        rng = np.random.default_rng(9)
        wave = bpf(rng.standard_normal((32, 288)) + 1j * rng.standard_normal((32, 288)), 4)
        got = ad.acpr_value(Tensor(wave), 72).item()
        want = acpr(psd(wave), 72)
        assert got == want == ACPR_FLOOR_DB

    @pytest.mark.parametrize("worse", ["upper", "lower"])
    def test_acpr_grad_spectrum_on_main_and_chosen_band(self, worse):
        """The gradient's spectrum lives on the main bins and the bins of the
        band acpr_powers chose; every other bin is zero."""
        rng = np.random.default_rng(11)
        z = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        main_idx, up_idx, lo_idx = band_bins(8, 32)
        spec = np.fft.fft(z, axis=-1)
        spec[:, up_idx if worse == "lower" else lo_idx] *= 0.1
        t = Tensor(np.fft.ifft(spec, axis=-1), requires_grad=True)
        ad.acpr_value(t, 8).backward()
        _, _, chosen = acpr_powers((np.abs(np.fft.fft(t.data, axis=-1)) ** 2).sum(axis=0), 8)
        np.testing.assert_array_equal(chosen, up_idx if worse == "upper" else lo_idx)
        grad_spec = np.abs(np.fft.fft(t.grad, axis=-1))
        support = np.zeros(32, dtype=bool)
        support[main_idx] = support[chosen] = True
        assert np.all(grad_spec[:, support] > 1e-6)
        assert np.all(grad_spec[:, ~support] < 1e-12)


class TestLayerModules:
    def test_linear_layer_shapes_and_grad(self):
        rng = np.random.default_rng(0)
        layer = Linear(6, 4, rng)
        x = Tensor(RNG.standard_normal((5, 6)), requires_grad=True)
        out = scalarize(layer(x))
        out.backward()
        assert layer.w.grad.shape == (6, 4)
        assert layer.b.grad.shape == (4,)
        assert x.grad.shape == (5, 6)

    def test_conv_layer_params_registered(self):
        rng = np.random.default_rng(0)
        layer = Conv1d(2, 3, rng)
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["w", "b"]
