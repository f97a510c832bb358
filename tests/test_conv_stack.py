"""The conv stage op and selu against their oracles.

``oracle_ops`` holds the plain forms of the ops that ``conv_stage`` fuses:
conv1d, batch_norm and selu.  conv_stage's forward must match their chain
to 1e-13 and every gradient to 1e-12, normwise relative; where the conv is
exact (small integers), the forward and the running statistics must match
bit for bit.  At the stock stages its bits are pinned to those of the three
ops it replaced.  selu, which FC-AE runs on its own, must match its oracle
bit for bit.
"""

import hashlib

import numpy as np
import pytest
from oracle_ops import batch_norm as oracle_batch_norm
from oracle_ops import conv1d as oracle_conv1d
from oracle_ops import selu as oracle_selu

from paprlab import autodiff as ad
from paprlab import chain, harness, models
from paprlab.autodiff import Tensor
from paprlab.config import default_config
from paprlab.models import CaeModel, build_model
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
    given) through the op's own backward, or through each node of a chain
    of ops in turn; returns (output, input gradients)."""
    leaves = [Tensor(a, requires_grad=upstream is not None) for a in arrays]
    out = node = op(*leaves, **kwargs)
    if upstream is not None:
        out.grad = upstream
        while node._backward is not None:             # each node's first parent feeds it
            node._backward()
            node = node._parents[0]
    return out.data, [t.grad for t in leaves]


def oracle_stage(x, w, b, gamma, beta, running_mean, running_var, training, padding):
    """The chain conv_stage fuses, on the oracles of its three ops."""
    conv = oracle_conv1d(x, w, b, padding=padding)
    return oracle_selu(oracle_batch_norm(conv, gamma, beta, running_mean, running_var, training))


def bn_arrays(channels):
    """Random gamma, beta, running mean and running variance."""
    return (RNG.standard_normal(channels) + 1.0, RNG.standard_normal(channels),
            RNG.standard_normal(channels), RNG.random(channels) + 0.5)


class TestConv1dOracle:
    """conv_stage's correlation, checked in eval mode, where batch norm and
    SELU act sample by sample."""

    @pytest.mark.parametrize("batch", ["1", "2", "block+1"])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("channels", [1, 2, 13])
    def test_matches_oracle(self, channels, k, padding, batch):
        """The oracle chain at conv padding K - 1 is conv_stage itself.  At
        another padding p it is conv_stage run on x zero-padded by
        p - (K - 1), or with K - 1 - p outputs cropped from each end (their
        upstream gradient zero), so the reference's general padding stays
        checked."""
        length, out_ch = 40, 4
        pad, crop = max(padding - k + 1, 0), max(k - 1 - padding, 0)
        full_len = length + 2 * pad + k - 1
        per_block = ad._COL_BLOCK // (channels * k * full_len)
        n = {"1": 1, "2": 2, "block+1": per_block + 1}[batch]
        x = RNG.standard_normal((n, channels, length))
        w = RNG.standard_normal((out_ch, channels, k))
        b = RNG.standard_normal(out_ch)
        gamma, beta, mean, var = bn_arrays(out_ch)
        g = RNG.standard_normal((n, out_ch, full_len - 2 * crop))
        edges = ((0, 0), (0, 0))
        got, (gx, *got_grads) = run(ad.conv_stage,
                                    [np.pad(x, edges + ((pad, pad),)), w, b, gamma, beta],
                                    np.pad(g, edges + ((crop, crop),)), running_mean=mean,
                                    running_var=var, training=False)
        want, want_grads = run(oracle_stage, [x, w, b, gamma, beta], g, running_mean=mean,
                               running_var=var, training=False, padding=padding)
        assert got.shape == (n, out_ch, full_len) and got.flags.c_contiguous
        assert normwise(got[:, :, crop:full_len - crop], want) <= FWD_TOL
        got_grads.insert(0, gx[:, :, pad:pad + length])
        for name, gg, gw in zip(("x", "w", "b", "gamma", "beta"), got_grads, want_grads):
            assert normwise(gg, gw) <= GRAD_TOL, name

    @pytest.mark.parametrize("channels, length, k", [(1, 0, 1), (1, 4, 0), (0, 4, 3)],
                             ids=["empty_input", "empty_kernel", "no_channels"])
    def test_shapes_without_columns_rejected(self, channels, length, k):
        with pytest.raises(ValueError, match="empty input or kernel"):
            ad.conv_stage(Tensor(np.zeros((2, channels, length))),
                          Tensor(np.zeros((1, channels, k))), Tensor(np.zeros(1)),
                          Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1), np.ones(1),
                          training=False)

    def test_input_gradient_skipped_when_not_needed(self):
        """A data input gets no gradient, and the parameter gradients are the
        same bits as when the input gradient is computed."""
        x = RNG.standard_normal((5, 13, 578))
        arrays = (RNG.standard_normal((11, 13, 3)), RNG.standard_normal(11),
                  RNG.standard_normal(11) + 1.0, RNG.standard_normal(11))
        grads = {}
        for x_needs in (False, True):
            xt = Tensor(x, requires_grad=x_needs)
            params = [ad.parameter(a) for a in arrays]
            out = ad.conv_stage(xt, *params, np.zeros(11), np.ones(11), training=True)
            ad.mse_complex(out, 0.0).backward()
            assert (xt.grad is not None) == x_needs
            grads[x_needs] = [p.grad for p in params]
        for skipped, computed in zip(grads[False], grads[True]):
            np.testing.assert_array_equal(skipped, computed)


class TestBatchNormOracle:
    """conv_stage against the oracle chain.  Small integers make every conv
    exact, so both batch norms see the same bits: the output and the running
    statistics must be the oracle's bits, the gradients within GRAD_TOL.  In
    training mode the batch mean takes the conv bias out, so its gradient
    need only be rounding noise."""

    @staticmethod
    def check(batch, channels, out_ch, length, training, taped):
        x = RNG.integers(-4, 5, (batch, channels, length)).astype(np.float64)
        w = RNG.choice([-2.0, -1.0, 1.0, 2.0], (out_ch, channels, 3))
        b = RNG.integers(-3, 4, out_ch).astype(np.float64)
        gamma, beta, *running = bn_arrays(out_ch)
        g = RNG.standard_normal((batch, out_ch, length + 2)) if taped else None
        results = []
        for op, extra in ((ad.conv_stage, {}), (oracle_stage, {"padding": 2})):
            mean, var = running[0].copy(), running[1].copy()
            out, grads = run(op, [x, w, b, gamma, beta], g, running_mean=mean,
                             running_var=var, training=training, **extra)
            results.append((out, grads, mean, var))
        (got, got_grads, got_mean, got_var), (want, want_grads, want_mean, want_var) = results
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_mean, want_mean)
        np.testing.assert_array_equal(got_var, want_var)
        if taped:
            grads = dict(zip(("x", "w", "b", "gamma", "beta"), zip(got_grads, want_grads)))
            if training:
                for gb in grads.pop("b"):
                    assert np.linalg.norm(gb) <= GRAD_TOL * np.linalg.norm(grads["w"][1])
            for name, (gg, gw) in grads.items():
                assert normwise(gg, gw) <= GRAD_TOL, name

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "tape_free"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("batch", [2, 3, 32])
    @pytest.mark.parametrize("channels", [1, 2, 13])
    def test_matches_oracle(self, channels, batch, training, taped):
        self.check(batch, channels, channels, 37, training, taped)

    def test_stock_stage_across_blocks(self):
        """Training mode at the 13 -> 11 stage and batch 32, where the
        forward runs 7 samples per block and the backward 11."""
        self.check(32, 13, 11, 578, training=True, taped=True)


# sha256 (first 16 hex digits) over output, running mean and variance and the
# five input gradients of each stock stage, in training mode at batch 32 in
# float32 and in eval mode at batch 40 in float64, as the three ops conv_stage
# fused (conv1d, batch_norm and selu) computed them on these inputs.  numpy
# 2.4.6, OpenBLAS 0.3.31 SkylakeX, 1 or 2 threads.
THREE_OP_PINS = {
    "train": ["30e620c7e57477c4", "d0a470db483d5632", "2f18e493f85eb9ad", "e29d8a913603f1ab"],
    "eval": ["79851ab07b74588e", "8867a078182e97aa", "a7e3e4842777d57d", "64eafaff776cad69"],
}


@pytest.mark.parametrize("mode, batch, dtype", [("train", 32, np.float32),
                                                ("eval", 40, np.float64)], ids=["train", "eval"])
def test_stock_stages_keep_the_three_op_bits(mode, batch, dtype):
    """At the stock stages conv_stage gives the bits of the conv1d ->
    batch_norm -> selu chain it replaced, forward, running statistics and
    backward, so the training digests hold."""
    digests = []
    for channels, out_ch, length in STOCK_CONVS:
        rng = np.random.default_rng(5)
        *arrays, mean, var, g = (a.astype(dtype) for a in (
            rng.standard_normal((batch, channels, length)),
            rng.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels),
            rng.standard_normal(out_ch), rng.standard_normal(out_ch) + 1.0,
            rng.standard_normal(out_ch), rng.standard_normal(out_ch),
            rng.random(out_ch) + 0.5, rng.standard_normal((batch, out_ch, length + 2))))
        out, grads = run(ad.conv_stage, arrays, g, running_mean=mean, running_var=var,
                         training=mode == "train")
        digest = hashlib.sha256()
        for a in (out, mean, var, *grads):
            digest.update(a.tobytes())
        digests.append(digest.hexdigest()[:16])
    assert digests == THREE_OP_PINS[mode]


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
        """conv_stage in eval mode on a batch of 40 equals, bit for bit, the
        same op run on its pieces, at float64 and at float32.  [17, 23]
        starts a piece inside a block of the 13 -> 11 stage (7 samples per
        forward block)."""
        batch = 40
        x, w, b, gamma, beta, mean, var = (a.astype(dtype) for a in (
            RNG.standard_normal((batch, channels, length)),
            RNG.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels),
            RNG.standard_normal(out_ch), *bn_arrays(out_ch)))
        params = Tensor(w), Tensor(b), Tensor(gamma), Tensor(beta)

        def stage(xs):
            return ad.conv_stage(Tensor(xs), *params, mean, var, training=False).data

        whole = stage(x)
        assert whole.dtype == dtype
        for sizes in ([1, 7, 32], [17, 23]):
            edges = np.cumsum([0] + sizes)
            joined = np.concatenate([stage(x[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])])
            np.testing.assert_array_equal(joined, whole, err_msg=f"{sizes}")

    @pytest.mark.parametrize("model", [build_model({"kind": "cae", "n_subcarriers": 8,
                                                    "oversampling": 4, "enc_channels": [13, 11],
                                                    "dec_channels": [11, 13], "seed": 3}),
                                       build_model({"kind": "fc_ae", "n_subcarriers": 8,
                                                    "oversampling": 4, "hidden": [32, 48],
                                                    "seed": 3})],
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


def stock_cae() -> CaeModel:
    """The stock CAE in eval mode, float64 and frozen, as the eval commands
    run it, with batch-norm running statistics away from 0 and 1."""
    model = build_model({**harness._descriptor(default_config(), "cae"), "seed": 4})
    model.eval().astype(np.float64)
    rng = np.random.default_rng(8)
    for p in model.parameters():
        p.requires_grad = False
    for coder in (model.encoder, model.decoder):
        for bn in (coder.bn1, coder.bn2):
            bn.running_mean[:] = rng.standard_normal(bn.running_mean.shape)
            bn.running_var[:] = rng.random(bn.running_var.shape) + 0.5
    return model


def whole_batch_coder(coder, z: np.ndarray) -> np.ndarray:
    """Both conv stages of a coder on the whole batch, then its FC."""
    x = ad.reshape(ad.complex_to_interleaved(Tensor(z)), (len(z), 1, -1))
    for conv, bn in ((coder.conv1, coder.bn1), (coder.conv2, coder.bn2)):
        x = ad.conv_stage(x, conv.w, conv.b, bn.gamma, bn.beta, bn.running_mean,
                          bn.running_var, bn.training)
    return ad.interleaved_to_complex(coder.fc(ad.reshape(x, (len(z), -1)))).data


class TestBlockChainedEvalCoder:
    """A tape-free eval-mode conv coder runs its stages _EVAL_BLOCK samples at
    a time; a taped or training-mode call runs them on the whole batch."""

    @pytest.fixture(scope="class")
    def model(self):
        return stock_cae()

    @staticmethod
    def stage_batches(monkeypatch):
        """Record the batch of every conv_stage call."""
        batches, stage = [], ad.conv_stage

        def recording(x, *args):
            batches.append(len(x.data))
            return stage(x, *args)
        monkeypatch.setattr(ad, "conv_stage", recording)
        return batches

    @pytest.mark.parametrize("batch", [500, 77, 1])
    @pytest.mark.parametrize("coder", ["encoder", "decoder"])
    def test_matches_the_whole_batch_stages(self, model, monkeypatch, coder, batch):
        """None of the batches is a multiple of the block; each output is
        the whole-batch stages' and FC's, bit for bit."""
        assert batch % models._EVAL_BLOCK
        module = getattr(model, coder)
        rng = np.random.default_rng(batch)
        width = model.n * (model.oversampling if coder == "encoder" else 1)
        z = rng.standard_normal((batch, width)) + 1j * rng.standard_normal((batch, width))
        want = whole_batch_coder(module, z)
        batches = self.stage_batches(monkeypatch)
        got = module(Tensor(z))
        assert got._backward is None
        np.testing.assert_array_equal(got.data, want)
        block = models._EVAL_BLOCK
        assert batches == [min(block, batch - lo) for lo in range(0, batch, block)
                           for _ in range(2)]

    @pytest.mark.parametrize("case", ["taped_input", "taped_weight", "training"])
    def test_taped_and_training_calls_take_the_whole_batch(self, monkeypatch, case):
        model = stock_cae()
        z = Tensor(np.random.default_rng(1).standard_normal((77, 288)) + 0j,
                   requires_grad=case == "taped_input")
        model.encoder.conv2.w.requires_grad = case == "taped_weight"
        model.train(case == "training")
        batches = self.stage_batches(monkeypatch)
        out = model.encode(z)
        assert batches == [77, 77]
        assert (out._backward is not None) == (case != "training")
