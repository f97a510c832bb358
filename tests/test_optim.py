import numpy as np
import pytest

from paprlab.autodiff import Tensor, parameter
from paprlab.optim import _BLOCK, AdamW, adamw_update


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
        """Bit-identical to adamw_update in theta, m and v, including a
        parameter spanning several blocks and one that never gets a grad,
        at float64 and at float32, where the moments stay float32."""
        rng = np.random.default_rng(1)
        data = rng.standard_normal(shape).astype(dtype)
        idle = rng.standard_normal(4).astype(dtype)
        p, q = Tensor(data.copy(), requires_grad=True), Tensor(idle.copy(), requires_grad=True)
        opt = AdamW([p, q], lr=0.02, weight_decay=0.03)
        ref = [(data.copy(), np.zeros(shape, dtype), np.zeros(shape, dtype)),
               (idle.copy(), np.zeros(4, dtype), np.zeros(4, dtype))]
        for step in range(1, 6):
            grad = rng.standard_normal(shape).astype(dtype)
            p.grad, q.grad = grad.copy(), None
            opt.step()
            ref = [adamw_update(theta, g, m, v, step=step, lr=0.02, weight_decay=0.03)
                   for (theta, m, v), g in zip(ref, (grad, np.zeros(4, dtype)))]
        for i, (t, (theta, m, v)) in enumerate(zip((p, q), ref)):
            assert t.data.dtype == opt.m[i].dtype == opt.v[i].dtype == theta.dtype == dtype
            np.testing.assert_array_equal(t.data, theta)
            np.testing.assert_array_equal(opt.m[i], m)
            np.testing.assert_array_equal(opt.v[i], v)

    def test_non_contiguous_parameter_raises(self):
        p = parameter(np.zeros((4, 3)))
        opt = AdamW([p], lr=0.1)
        p.data = np.asfortranarray(np.ones((4, 3)))
        p.grad = np.ones((4, 3))
        with pytest.raises(ValueError):
            opt.step()

    def test_state_dict_is_a_snapshot(self):
        p = parameter(np.ones(3))
        opt = AdamW([p], lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        state = opt.state_dict()
        m, v = state["m"][0].copy(), state["v"][0].copy()
        opt.step()
        np.testing.assert_array_equal(state["m"][0], m)
        np.testing.assert_array_equal(state["v"][0], v)

    def test_state_dict_roundtrip(self):
        p = parameter(np.ones(3))
        opt = AdamW([p], lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        state = opt.state_dict()

        p2 = parameter(np.ones(3))
        opt2 = AdamW([p2], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])
        np.testing.assert_array_equal(opt2.v[0], opt.v[0])
