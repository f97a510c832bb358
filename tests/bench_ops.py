"""Per-op timings at the stock CAE shapes (opt-in).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_ops.py --benchmark-only

The name does not match test_*.py, so the default test run does not collect
this file.  Every case runs at float64, the evaluation precision, and at
float32, the training precision.

- conv1d, batch_norm and selu, forward call or the node's backward closure,
  on each of the stock CAE's four conv stages.  Forwards run as the
  workloads run them: at the training batch (32) on a tape with batch norm in
  training mode, and at the eval batch (500) tape-free with batch norm in
  eval mode.  Backwards run on a tape at both batches.
- linear, forward and backward, at the encoder and decoder FC shapes and the
  training batch.
- AdamW.step over the stock CAE's parameter list.
"""

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab.autodiff import Tensor
from paprlab.models import CaeModel
from paprlab.optim import AdamW

# (in channels, out channels, input length) of the encoder's and decoder's
# convs; kernel 3 and padding 2 make each output 2 samples longer
STOCK_CONVS = [(1, 13, 576), (13, 11, 578), (1, 11, 144), (11, 13, 146)]
STAGE_IDS = [f"{c}to{o}x{n}" for c, o, n in STOCK_CONVS]
OPS = ["conv1d", "batch_norm", "selu"]
# (in features, out features) of the encoder's and decoder's FC layers
STOCK_FCS = [(6380, 576), (1924, 144)]
FC_IDS = [f"{i}to{o}" for i, o in STOCK_FCS]
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32],
                                 ids=["float64", "float32"])


def _op_call(op, stage, batch, taped, dtype):
    """A closure running op's forward at one stage, and the op's inputs."""
    channels, out_ch, length = stage
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, channels, length)).astype(dtype)
    w = (rng.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels)).astype(dtype)
    b = np.zeros(out_ch, dtype)
    if op == "conv1d":
        # the first conv of each coder takes data, which needs no gradient
        leaves = (Tensor(x, requires_grad=taped and channels > 1),
                  Tensor(w, requires_grad=taped), Tensor(b, requires_grad=taped))
        return lambda: ad.conv1d(*leaves), leaves
    x = Tensor(ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data, requires_grad=taped)
    if op == "selu":
        return lambda: ad.selu(x), (x,)
    gamma = Tensor(np.ones(out_ch, dtype), requires_grad=taped)
    beta = Tensor(np.zeros(out_ch, dtype), requires_grad=taped)
    mean, var = np.zeros(out_ch, dtype), np.ones(out_ch, dtype)
    return (lambda: ad.batch_norm(x, gamma, beta, mean, var, training=taped),
            (x, gamma, beta))


def _linear_call(shape, dtype):
    """A closure running linear's forward at the training batch on a tape."""
    fan_in, fan_out = shape
    rng = np.random.default_rng(0)
    leaves = (Tensor(rng.standard_normal((32, fan_in)).astype(dtype), requires_grad=True),
              Tensor((rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype),
                     requires_grad=True),
              Tensor(np.zeros(fan_out, dtype), requires_grad=True))
    return lambda: ad.linear(*leaves), leaves


def _bench_backward(benchmark, call, leaves):
    out = call()
    out.grad = np.ones_like(out.data)

    def backward():
        for t in leaves:
            t.grad = None
        out._backward()
    benchmark(backward)


@DTYPES
@pytest.mark.parametrize("batch, taped", [(32, True), (500, False)], ids=["32-train", "500-eval"])
@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
@pytest.mark.parametrize("op", OPS)
def test_forward(benchmark, op, stage, batch, taped, dtype):
    call, _ = _op_call(op, stage, batch, taped, dtype)
    benchmark(call)


@DTYPES
@pytest.mark.parametrize("batch", [32, 500])
@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
@pytest.mark.parametrize("op", OPS)
def test_backward(benchmark, op, stage, batch, dtype):
    _bench_backward(benchmark, *_op_call(op, stage, batch, True, dtype))


@DTYPES
@pytest.mark.parametrize("shape", STOCK_FCS, ids=FC_IDS)
def test_linear_forward(benchmark, shape, dtype):
    call, _ = _linear_call(shape, dtype)
    benchmark(call)


@DTYPES
@pytest.mark.parametrize("shape", STOCK_FCS, ids=FC_IDS)
def test_linear_backward(benchmark, shape, dtype):
    _bench_backward(benchmark, *_linear_call(shape, dtype))


@DTYPES
def test_adamw_step(benchmark, dtype):
    model = CaeModel().astype(dtype)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.data.shape).astype(dtype)
    benchmark(AdamW(model.parameters()).step)
