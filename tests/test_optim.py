from concurrent.futures import wait

import numpy as np
import pytest
from workers import IdleWorker

from paprlab import autodiff as ad
from paprlab.autodiff import Tensor, parameter
from paprlab.optim import _BLOCK, _TASK, AdamW, adamw_update


def _big_params(seed):
    """A parameter of two tasks and a short third, and a small one."""
    rng = np.random.default_rng(seed)
    return [parameter(rng.standard_normal(2 * _TASK + 5).astype(np.float32)),
            parameter(rng.standard_normal((3, 4)).astype(np.float32))]


class TestAdamWUpdate:
    def test_zero_gradient_is_pure_decay(self):
        theta = np.array([2.0, -3.0])
        m = np.zeros(2)
        v = np.zeros(2)
        out, m, v = adamw_update(theta, np.zeros(2), m, v, step=1, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(out, theta * (1 - 0.1 * 0.5))
        np.testing.assert_array_equal(m, 0.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_two_zero_gradient_steps_compound(self):
        theta = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for step in (1, 2):
            theta, m, v = adamw_update(theta, np.zeros(1), m, v, step=step,
                                       lr=0.01, weight_decay=0.1)
        np.testing.assert_allclose(theta, (1 - 0.01 * 0.1) ** 2)

    def test_first_step_matches_hand_computation(self):
        # scalar quadratic f(t) = t^2/2 at t=1: grad = 1
        theta = np.array([1.0])
        out, m, v = adamw_update(theta, np.array([1.0]), np.zeros(1), np.zeros(1),
                                 step=1, lr=0.001, beta1=0.9, beta2=0.999,
                                 eps=1e-8, weight_decay=0.0)
        # m_hat = v_hat = 1 exactly after bias correction
        np.testing.assert_allclose(m, [0.1])
        np.testing.assert_allclose(v, [0.001])
        assert out[0] == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-15)

    def test_reduces_to_adam_when_decay_zero(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        grad = rng.standard_normal(5)
        m = rng.standard_normal(5) * 0.01
        v = np.abs(rng.standard_normal(5)) * 0.01
        got, m2, v2 = adamw_update(theta, grad, m, v, step=3, lr=0.01, weight_decay=0.0)
        # reference Adam
        m_ref = 0.9 * m + 0.1 * grad
        v_ref = 0.999 * v + 0.001 * grad ** 2
        step_ref = 0.01 * (m_ref / (1 - 0.9 ** 3)) / (np.sqrt(v_ref / (1 - 0.999 ** 3)) + 1e-8)
        np.testing.assert_allclose(got, theta - step_ref)


class TestAdamWClass:
    def test_step_applies_update_to_all_params(self):
        a = parameter(np.array([1.0, 2.0]))
        b = parameter(np.array([[3.0]]))
        opt = AdamW([a, b], lr=0.1, weight_decay=0.0)
        a.grad = np.array([1.0, -1.0])
        b.grad = np.array([[2.0]])
        opt.step()
        assert a.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        assert a.data[1] == pytest.approx(2.0 + 0.1, abs=1e-6)
        assert b.data[0, 0] == pytest.approx(3.0 - 0.1, abs=1e-6)

    def test_missing_grad_still_decays(self):
        a = parameter(np.array([4.0]))
        opt = AdamW([a], lr=0.5, weight_decay=0.2)
        opt.step()
        np.testing.assert_allclose(a.data, [4.0 * (1 - 0.5 * 0.2)])

    @pytest.mark.parametrize("shape, dtype", [
        ((7,), np.float64), ((3 * _BLOCK + 5,), np.float64), ((5, 3), np.float64),
        ((7,), np.float32), ((3 * _BLOCK + 5,), np.float32), ((5, 3), np.float32),
    ], ids=["n7", "three_blocks_plus_5", "5x3",
            "n7-float32", "three_blocks_plus_5-float32", "5x3-float32"])
    def test_matches_functional_reference(self, shape, dtype):
        """m and v bit-identical to adamw_update, theta within rounding of it,
        for a parameter spanning several blocks and one that never gets a grad,
        at float64 and at float32 (where the moments stay float32), over the
        first steps and late steps, where both bias corrections are about 1.

        step() folds the bias corrections and the decay into scalars, so
        each step's theta may differ from adamw_update's, from the same
        theta_prev, by a few roundings of theta_prev and of the update:
        |theta - theta_ref| <= 4 eps (|theta_prev| + |theta_ref - theta_prev|).
        """
        eps = np.finfo(dtype).eps
        rng = np.random.default_rng(1)
        data = rng.standard_normal(shape).astype(dtype)
        idle = rng.standard_normal(4).astype(dtype)
        p, q = Tensor(data.copy(), requires_grad=True), Tensor(idle.copy(), requires_grad=True)
        opt = AdamW([p, q], lr=0.02, weight_decay=0.03)
        moments = [(np.zeros(shape, dtype), np.zeros(shape, dtype)),
                   (np.zeros(4, dtype), np.zeros(4, dtype))]
        for step in [*range(1, 6), *range(10**5, 10**5 + 5)]:
            opt.step_count = step - 1
            # gradients from 1e-6 to 10 in magnitude
            grad = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 1, shape)).astype(dtype)
            prev = [p.data.copy(), q.data.copy()]
            p.grad, q.grad = grad.copy(), None
            opt.step()
            ref = [adamw_update(theta, g, m, v, step=step, lr=0.02, weight_decay=0.03)
                   for theta, (m, v), g in zip(prev, moments, (grad, np.zeros(4, dtype)))]
            moments = [(m, v) for _, m, v in ref]
            for i, (t, before, (theta, m, v)) in enumerate(zip((p, q), prev, ref)):
                assert t.data.dtype == opt.m[i].dtype == opt.v[i].dtype == theta.dtype == dtype
                np.testing.assert_array_equal(opt.m[i], m)
                np.testing.assert_array_equal(opt.v[i], v)
                bound = 4 * eps * (np.abs(before) + np.abs(theta - before))
                assert np.all(np.abs(t.data - theta) <= bound), (step, i)

    def test_repeated_parameter_is_rejected(self):
        """A parameter listed twice would be updated once and carry a
        second, unused moment pair into the state_dict."""
        p, q = parameter(np.zeros(3)), parameter(np.zeros(2))
        with pytest.raises(ValueError, match="parameter 2 repeats parameter 0"):
            AdamW([p, q, p], lr=0.1, weight_decay=0.01)

    def test_non_contiguous_parameter_raises(self):
        p = parameter(np.zeros((4, 3)))
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.data = np.asfortranarray(np.ones((4, 3)))
        p.grad = np.ones((4, 3))
        with pytest.raises(ValueError):
            opt.step()

    def test_state_dict_is_a_snapshot(self):
        p = parameter(np.ones(3))
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.ones(3)
        opt.step()
        state = opt.state_dict()
        m, v = state["m"][0].copy(), state["v"][0].copy()
        opt.step()
        np.testing.assert_array_equal(state["m"][0], m)
        np.testing.assert_array_equal(state["v"][0], v)

    def test_state_dict_roundtrip(self):
        p = parameter(np.ones(3))
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.ones(3)
        opt.step()
        state = opt.state_dict()

        p2 = parameter(np.ones(3))
        opt2 = AdamW([p2], lr=0.1, weight_decay=0.01)
        opt2.load_state_dict(state)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])
        np.testing.assert_array_equal(opt2.v[0], opt.v[0])

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["m"].pop(), "m holds 1 arrays for 2 parameters"),
        (lambda s: s["v"].append(np.zeros(3)), "v holds 3 arrays for 2 parameters"),
        (lambda s: s["m"].__setitem__(1, np.zeros(4)), "m of parameter 1"),
        (lambda s: s["v"].__setitem__(0, np.zeros(3, np.float32)), "v of parameter 0"),
    ], ids=["m_short", "v_long", "m_shape", "v_dtype"])
    def test_load_state_dict_rejects_mismatched_moments(self, edit, message):
        """A state whose moments do not match the parameters raises, naming
        the parameter, and leaves the optimizer as it was."""
        params = [parameter(np.ones(3)), parameter(np.ones((2, 1)))]
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        state = AdamW(params, lr=0.1, weight_decay=0.01).state_dict()
        state["step"] = 7
        edit(state)
        with pytest.raises(ValueError, match=message):
            opt.load_state_dict(state)
        assert opt.step_count == 0

    @pytest.mark.parametrize("idle", [False, True], ids=["overlapped", "idle_thread"])
    def test_queued_steps_match_plain_steps(self, monkeypatch, idle):
        """theta, m and v after steps that queue a parameter before step()
        equal those of plain step() calls bit for bit, also when the update
        thread starts no task, so that step() runs every task itself."""
        runs = []
        for queued in (False, True):
            if queued and idle:
                monkeypatch.setattr(ad, "_worker", IdleWorker())
            params = _big_params(3)
            opt = AdamW(params, lr=0.01, weight_decay=0.02)
            rng = np.random.default_rng(4)
            for _ in range(3):
                for p in params:
                    p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
                if queued:
                    opt.queue(params[0])
                opt.step()
            runs.append([p.data for p in params] + opt.m + opt.v + [opt.step_count])
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("idle", [False, True], ids=["update_thread", "stepping_thread"])
    def test_failed_task_is_raised_by_step(self, monkeypatch, idle):
        """A task that raises on either thread is raised by step() once no
        task runs, and the next step is whole."""
        params = _big_params(5)
        opt = AdamW(params, lr=0.01, weight_decay=0.01)
        params[0].grad = np.ones(7, np.float32)  # the wrong size: every task fails
        if idle:
            monkeypatch.setattr(ad, "_worker", IdleWorker())
        else:
            opt.queue(params[0])
            wait([future for future, _, _ in params[0]._fence])
        with pytest.raises(ValueError):
            opt.step()
        assert all(p._fence is None for p in params)
        params[0].grad = np.ones(params[0].data.shape, np.float32)
        before = params[0].data.copy()
        opt.step()
        assert opt.step_count == 2
        assert np.all(params[0].data < before)

    @pytest.mark.parametrize("call", ["step", "state_dict", "load_state_dict"])
    def test_blocking_calls_return_with_every_update_applied(self, monkeypatch, call):
        """With an update thread that starts no task, step(), state_dict()
        and load_state_dict() each run the queued updates themselves: they
        return with theta, m and v those of plain steps, and no parameter
        carries a fence."""
        grads = [np.random.default_rng(6).standard_normal(p.data.shape).astype(np.float32)
                 for p in _big_params(7)]
        ref = _big_params(7)
        ref_opt = AdamW(ref, lr=0.01, weight_decay=0.02)
        for p, g in zip(ref, grads):
            p.grad = g
        ref_opt.step()
        monkeypatch.setattr(ad, "_worker", IdleWorker())
        params = _big_params(7)
        opt = AdamW(params, lr=0.01, weight_decay=0.02)
        for p, g in zip(params, grads):
            p.grad = g
        if call == "step":
            opt.step()
        else:
            opt.end_step()
            assert all(p._fence for p in params)
            if call == "state_dict":
                state = opt.state_dict()
                for got, want in zip(state["m"] + state["v"], ref_opt.m + ref_opt.v):
                    np.testing.assert_array_equal(got, want)
            else:
                opt.load_state_dict(ref_opt.state_dict())
        assert all(p._fence is None for p in params)
        for got, want in zip([p.data for p in params] + opt.m + opt.v,
                             [p.data for p in ref] + ref_opt.m + ref_opt.v):
            np.testing.assert_array_equal(got, want)
        assert opt.step_count == 1

    def test_end_step_leaves_updates_to_the_next_read(self, monkeypatch):
        """end_step() returns with each update queued behind a fence; the
        next linear that reads the weight applies it first."""
        monkeypatch.setattr(ad, "_worker", IdleWorker())
        w, b = parameter(np.ones((3, 2), np.float32)), parameter(np.zeros(2, np.float32))
        opt = AdamW([w, b], lr=0.1, weight_decay=0.0)
        w.grad, b.grad = np.ones((3, 2), np.float32), np.ones(2, np.float32)
        opt.end_step()
        np.testing.assert_array_equal(w.data, 1.0)
        out = ad.linear(Tensor(np.ones((1, 3), np.float32)), w, b)
        assert w._fence is None and b._fence is None
        assert np.all(w.data < 1.0) and np.all(b.data < 0.0)
        np.testing.assert_array_equal(out.data, np.ones((1, 3), np.float32) @ w.data + b.data)

    def test_steps_that_no_op_reads_between_apply_in_order(self, monkeypatch):
        """Two end_step() calls with no read of the parameters between them
        apply both updates, in order: theta, m and v equal two plain
        steps'."""
        grads = [np.random.default_rng(8).standard_normal(p.data.shape).astype(np.float32)
                 for p in _big_params(9)]
        runs = []
        for idle in (False, True):
            if idle:
                monkeypatch.setattr(ad, "_worker", IdleWorker())
            params = _big_params(9)
            opt = AdamW(params, lr=0.01, weight_decay=0.02)
            for p, g in zip(params, grads):
                p.grad = g
            for _ in range(2):
                if idle:
                    opt.end_step()
                else:
                    opt.step()
            opt.finish()
            runs.append([p.data for p in params] + opt.m + opt.v)
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("idle", [False, True], ids=["update_thread", "reading_thread"])
    def test_failed_update_is_raised_at_the_next_read(self, monkeypatch, idle):
        """An update that raises, on either thread, is raised unchanged by
        the next op that reads the parameter, which leaves no fence."""
        if idle:
            monkeypatch.setattr(ad, "_worker", IdleWorker())
        w, b = parameter(np.ones((3, 2), np.float32)), parameter(np.zeros(2, np.float32))
        opt = AdamW([w, b], lr=0.1, weight_decay=0.0)
        w.grad = np.ones(4, np.float32)  # the wrong size: the update fails
        opt.end_step()
        if not idle:
            wait([future for future, _, _ in w._fence])
            assert all(future.exception() is not None for future, _, _ in w._fence)
        with pytest.raises(ValueError):
            ad.linear(Tensor(np.ones((1, 3), np.float32)), w, b)
        assert w._fence is None and b._fence is None
