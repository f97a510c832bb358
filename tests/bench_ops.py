"""Per-op timings of the conv stack at the stock CAE shapes (opt-in).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_ops.py --benchmark-only

The name does not match test_*.py, so the default test run does not collect
this file.  Each case times the forward call or the node's backward closure
of conv1d, batch_norm or selu on one of the stock CAE's four conv stages.
Forwards run as the workloads run them: at the training batch (32) on a
tape with batch norm in training mode, and at the eval batch (500) tape-free
with batch norm in eval mode.  Backwards run on a tape at both batches.
"""

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab.autodiff import Tensor

# (in channels, out channels, input length) of the encoder's and decoder's
# convs; kernel 3 and padding 2 make each output 2 samples longer
STOCK_CONVS = [(1, 13, 576), (13, 11, 578), (1, 11, 144), (11, 13, 146)]
STAGE_IDS = [f"{c}to{o}x{n}" for c, o, n in STOCK_CONVS]
OPS = ["conv1d", "batch_norm", "selu"]


def _op_call(op, stage, batch, taped):
    """A closure running op's forward at one stage, and the op's inputs."""
    channels, out_ch, length = stage
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, channels, length))
    w = rng.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels)
    b = np.zeros(out_ch)
    if op == "conv1d":
        # the first conv of each coder takes data, which needs no gradient
        leaves = (Tensor(x, requires_grad=taped and channels > 1),
                  Tensor(w, requires_grad=taped), Tensor(b, requires_grad=taped))
        return lambda: ad.conv1d(*leaves), leaves
    x = Tensor(ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data, requires_grad=taped)
    if op == "selu":
        return lambda: ad.selu(x), (x,)
    gamma = Tensor(np.ones(out_ch), requires_grad=taped)
    beta = Tensor(np.zeros(out_ch), requires_grad=taped)
    mean, var = np.zeros(out_ch), np.ones(out_ch)
    return (lambda: ad.batch_norm(x, gamma, beta, mean, var, training=taped),
            (x, gamma, beta))


@pytest.mark.parametrize("batch, taped", [(32, True), (500, False)], ids=["32-train", "500-eval"])
@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
@pytest.mark.parametrize("op", OPS)
def test_forward(benchmark, op, stage, batch, taped):
    call, _ = _op_call(op, stage, batch, taped)
    benchmark(call)


@pytest.mark.parametrize("batch", [32, 500])
@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
@pytest.mark.parametrize("op", OPS)
def test_backward(benchmark, op, stage, batch):
    call, leaves = _op_call(op, stage, batch, taped=True)
    out = call()
    out.grad = np.ones_like(out.data)

    def backward():
        for t in leaves:
            t.grad = None
        out._backward()
    benchmark(backward)
