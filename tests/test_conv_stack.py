"""The conv stack ops (conv1d, batch_norm, selu) against their oracles.

``oracle_ops`` holds the plain forms these ops replaced.  Forwards of selu
and batch_norm must match them bit for bit, conv1d's forward to 1e-13 and
every gradient to 1e-12, normwise relative.
"""

import numpy as np
import pytest
from oracle_ops import batch_norm as oracle_batch_norm
from oracle_ops import conv1d as oracle_conv1d
from oracle_ops import selu as oracle_selu

from paprlab import autodiff as ad
from paprlab import chain
from paprlab.autodiff import Tensor
from paprlab.models import CaeModel, FcAeModel
from paprlab.ofdm import ofdm_modulate, qam4_map

RNG = np.random.default_rng(77)

FWD_TOL = 1e-13
GRAD_TOL = 1e-12

# (in channels, out channels, input length) of the stock CAE's four convs:
# encoder 1 -> 13 -> 11 on 2*288 interleaved samples, decoder 1 -> 11 -> 13
# on 2*72; kernel 3, each full correlation growing the length by 2
STOCK_CONVS = [(1, 13, 576), (13, 11, 578), (1, 11, 144), (11, 13, 146)]


def normwise(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def run(op, arrays, upstream=None, **kwargs):
    """Forward op on fresh leaf tensors, then backpropagate upstream (if
    given) through the op's own backward; returns (output, input gradients)."""
    leaves = [Tensor(a, requires_grad=upstream is not None) for a in arrays]
    out = op(*leaves, **kwargs)
    if upstream is not None:
        out.grad = upstream
        out._backward()
    return out.data, [t.grad for t in leaves]


class TestConv1dOracle:
    @pytest.mark.parametrize("batch", ["1", "2", "block+1"])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("channels", [1, 2, 13])
    def test_matches_oracle(self, channels, k, padding, batch):
        """The oracle at padding K - 1 is conv1d itself.  At another padding
        p it is conv1d run on x zero-padded by p - (K - 1), or with K - 1 - p
        outputs cropped from each end (their upstream gradient zero), so the
        reference's general padding stays checked."""
        length, out_ch = 40, 4
        pad, crop = max(padding - k + 1, 0), max(k - 1 - padding, 0)
        full_len = length + 2 * pad + k - 1
        per_block = ad._COL_BLOCK // (channels * k * full_len)
        n = {"1": 1, "2": 2, "block+1": per_block + 1}[batch]
        x = RNG.standard_normal((n, channels, length))
        w = RNG.standard_normal((out_ch, channels, k))
        b = RNG.standard_normal(out_ch)
        g = RNG.standard_normal((n, out_ch, full_len - 2 * crop))
        edges = ((0, 0), (0, 0))
        got, (gx, *got_grads) = run(ad.conv1d, [np.pad(x, edges + ((pad, pad),)), w, b],
                                    np.pad(g, edges + ((crop, crop),)))
        want, want_grads = run(oracle_conv1d, [x, w, b], g, padding=padding)
        assert got.shape == (n, out_ch, full_len) and got.flags.c_contiguous
        assert normwise(got[:, :, crop:full_len - crop], want) <= FWD_TOL
        got_grads.insert(0, gx[:, :, pad:pad + length])
        for name, gg, gw in zip("xwb", got_grads, want_grads):
            assert normwise(gg, gw) <= GRAD_TOL, name

    @pytest.mark.parametrize("channels, length, k", [(1, 0, 1), (1, 4, 0), (0, 4, 3)],
                             ids=["empty_input", "empty_kernel", "no_channels"])
    def test_shapes_without_columns_rejected(self, channels, length, k):
        with pytest.raises(ValueError, match="empty input or kernel"):
            ad.conv1d(Tensor(np.zeros((2, channels, length))), Tensor(np.zeros((1, channels, k))),
                      Tensor(np.zeros(1)))

    def test_input_gradient_skipped_when_not_needed(self):
        """A data input gets no gradient, and the weight and bias gradients
        are the same bits as when the input gradient is computed."""
        x = RNG.standard_normal((5, 13, 578))
        w = RNG.standard_normal((11, 13, 3))
        b = RNG.standard_normal(11)
        grads = {}
        for x_needs in (False, True):
            xt = Tensor(x, requires_grad=x_needs)
            wt, bt = ad.parameter(w), ad.parameter(b)
            ad.mse_complex(ad.conv1d(xt, wt, bt), 0.0).backward()
            assert (xt.grad is not None) == x_needs
            grads[x_needs] = (wt.grad, bt.grad)
        for skipped, computed in zip(grads[False], grads[True]):
            np.testing.assert_array_equal(skipped, computed)


class TestBatchNormOracle:
    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "tape_free"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("batch", [2, 3, 32])
    @pytest.mark.parametrize("channels", [1, 2, 13])
    def test_matches_oracle(self, channels, batch, training, taped):
        x = RNG.standard_normal((batch, channels, 37)) * 3.0 + 1.5
        gamma = RNG.standard_normal(channels) + 1.0
        beta = RNG.standard_normal(channels)
        running = (RNG.standard_normal(channels), RNG.random(channels) + 0.5)
        g = RNG.standard_normal(x.shape) if taped else None
        results = []
        for op in (ad.batch_norm, oracle_batch_norm):
            mean, var = running[0].copy(), running[1].copy()
            out, grads = run(op, [x, gamma, beta], g, running_mean=mean, running_var=var,
                             training=training)
            results.append((out, grads, mean, var))
        (got, got_grads, got_mean, got_var), (want, want_grads, want_mean, want_var) = results
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_mean, want_mean)
        np.testing.assert_array_equal(got_var, want_var)
        if taped:
            for name, gg, gw in zip(("x", "gamma", "beta"), got_grads, want_grads):
                assert normwise(gg, gw) <= GRAD_TOL, name


class TestSeluOracle:
    @pytest.mark.parametrize("shape", [(7,), (3, 13, 578)])
    def test_matches_oracle(self, shape):
        """Forward and gradient are the oracle's bits: FC-AE training runs
        selu but no other conv stack op, so its results must not move."""
        x = RNG.standard_normal(shape) * 3.0
        g = RNG.standard_normal(shape)
        got, (got_grad,) = run(ad.selu, [x], g)
        want, (want_grad,) = run(oracle_selu, [x], g)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_grad, want_grad)


class TestBatchSplitInvariance:
    @pytest.mark.parametrize("channels, out_ch, length, dtype",
                             [(*conv, np.float64) for conv in STOCK_CONVS]
                             + [(*conv, np.float32) for conv in STOCK_CONVS],
                             ids=[f"{c}-{o}-{n}{suffix}" for suffix in ("", "-float32")
                                  for c, o, n in STOCK_CONVS])
    def test_outputs_do_not_depend_on_the_split(self, channels, out_ch, length, dtype):
        """conv1d, eval-mode batch_norm and selu on a batch of 40 equal, bit
        for bit, the same ops run on its pieces, at float64 and at float32.
        [17, 23] starts a piece inside a column block of the 13 -> 11 conv
        (11 samples per block)."""
        batch = 40
        x, w, b, gamma, beta, mean, var = (a.astype(dtype) for a in (
            RNG.standard_normal((batch, channels, length)),
            RNG.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels),
            RNG.standard_normal(out_ch), RNG.standard_normal(out_ch) + 1.0,
            RNG.standard_normal(out_ch), RNG.standard_normal(out_ch),
            RNG.random(out_ch) + 0.5))
        w, b, gamma, beta = Tensor(w), Tensor(b), Tensor(gamma), Tensor(beta)

        def stages(xs):
            conv = ad.conv1d(Tensor(xs), w, b)
            norm = ad.batch_norm(conv, gamma, beta, mean, var, training=False)
            return conv.data, norm.data, ad.selu(norm).data

        whole = stages(x)
        assert {a.dtype for a in whole} == {np.dtype(dtype)}
        for sizes in ([1, 7, 32], [17, 23]):
            edges = np.cumsum([0] + sizes)
            pieces = [stages(x[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
            for stage, name in enumerate(("conv1d", "batch_norm", "selu")):
                joined = np.concatenate([p[stage] for p in pieces])
                np.testing.assert_array_equal(joined, whole[stage], err_msg=f"{name} {sizes}")

    @pytest.mark.parametrize("model", [CaeModel(n_subcarriers=8, oversampling=4,
                                                enc_channels=(13, 11), dec_channels=(11, 13),
                                                seed=3),
                                       FcAeModel(n_subcarriers=8, oversampling=4,
                                                 hidden=(32, 48), seed=3)],
                             ids=["cae", "fc_ae"])
    def test_transmit_does_not_depend_on_the_split(self, model):
        """chain.transmit of an eval-mode model on a batch of 500 equals the
        same transmit run on its pieces: each waveform is band-limited and
        scaled to unit power on its own.  linear's GEMM may round a row
        differently at another batch size, by a few 1e-15, so the bound is
        1e-12 rather than bit equality."""
        model.eval()
        blocks = qam4_map(np.random.default_rng(9).integers(0, 2, (500, 16)))
        x = ofdm_modulate(blocks, 4)
        whole = chain.transmit(model, Tensor(x)).data
        for sizes in ([250, 250], [1, 7, 32, 460], [17, 483]):
            edges = np.cumsum([0] + sizes)
            joined = np.concatenate([chain.transmit(model, Tensor(x[lo:hi])).data
                                     for lo, hi in zip(edges[:-1], edges[1:])])
            np.testing.assert_allclose(joined, whole, rtol=0, atol=1e-12, err_msg=f"{sizes}")
