"""Per-op timings at the stock CAE shapes, linear and AdamW also at FC-AE's, and whole training steps (opt-in).

    OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_ops.py --benchmark-only

Run it from the root of the checkout: pyproject.toml puts src/ on the path.

The name does not match test_*.py, so the default test run does not collect
this file.  A case runs in the precision of the path it times: float32,
the training precision, at the training batch, and float64, the evaluation
precision, at the eval batch; linear and AdamW at the stock CAE's shapes run
at both.

- conv_stage (conv, batch norm and SELU as one op) on each of the stock
  CAE's four conv stages, as the workloads run it: at the training batch
  (32) in float32 on a tape in training mode, forward call and the node's
  backward closure; and at the eval batch (500) in float64 tape-free in
  eval mode, forward only.
- selu, forward and backward, at the training batch in float32 on a tape,
  on FC-AE's two hidden widths (2500 and 3500).
- linear, forward and backward, at the training batch, at the stock CAE's
  encoder and decoder FC shapes and at FC-AE's (hidden 2500/3500; its
  encoder and decoder share 2500 -> 3500).  From the second round on, the
  backward writes the weight gradient into the last round's array, as
  training does from its second step on.
- AdamW.step over the stock CAE's parameter list (3.95M values) and over
  FC-AE's (21.8M values, larger than cache): the train-cae and train-fcae
  workloads' optimizers.  With nothing queued, step() splits the update
  between the calling thread and autodiff's worker.
- A whole stage-2 training step of the stock CAE and of FC-AE at batch 32,
  as train() runs it: chain and loss forward, backward with AdamW.queue as
  its hook, so the update overlaps the backward pass, and step().  The
  AdamW cases cannot see that overlap; these can.
- The chain ops, forward and backward, at B = 32 in float32 on a tape, as
  in training, and at B = 500 in float64, as in evaluation, where the
  forward runs tape-free.  power_norm, bandpass, rapp_nonlinearity,
  dft_unpad, papr_loss and acpr_value (72 in-band bins) take the stock
  waveform batch (B, 288); mse_complex takes the (B, 72) symbol batch and
  scores it against the sent blocks, as the reconstruction loss does.
- Loading the stock CAE for evaluation, as each eval command does:
  load_checkpoint of a freshly built model plus the method bank's cast to
  float64.
- The baselines' transmit at the eval batch (500) in float64: SLM selection
  over the stock bank (U = 128, 72 subcarriers), and clipping-and-filtering
  of the modulated batch, as the eval commands run them.
- One eval batch (500 blocks, float64) through the eval commands' batch
  stream, for none, cf, slm and the stock CAE loaded from a freshly built
  checkpoint: the data draw and modulation, then every transmit, cf and slm
  on autodiff's worker while the calling thread runs the CAE.  This case
  sees the overlap that the per-method cases cannot.
"""

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab import harness
from paprlab.autodiff import Tensor
from paprlab.baselines import clip_filter, slm_select_batch
from paprlab.chain import complex_noise, run_chain
from paprlab.config import config_from_dict, default_config
from paprlab.metrics import SpectralParams
from paprlab.models import save_checkpoint
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.optim import AdamW
from paprlab.training import joint_loss

CFG = default_config()

# (in channels, out channels, input length) of the encoder's and decoder's
# convs; kernel 3 makes each full correlation 2 samples longer
STOCK_CONVS = [(1, 13, 576), (13, 11, 578), (1, 11, 144), (11, 13, 146)]
STAGE_IDS = [f"{c}to{o}x{n}" for c, o, n in STOCK_CONVS]
# (batch, dtype, taped in training mode) of a training step and an eval batch
STAGE_CASES = pytest.mark.parametrize("batch, dtype, taped",
                                      [(32, np.float32, True), (500, np.float64, False)],
                                      ids=["32-train-float32", "500-eval-float64"])
FC_AE_HIDDEN = [2500, 3500]
# (in features, out features) of the stock CAE's encoder and decoder FC layers,
# and of FC-AE's six, whose encoder and decoder share the 2500 -> 3500 layer
STOCK_FCS = [(6380, 576), (1924, 144)]
FC_AE_FCS = [(576, 2500), (2500, 3500), (3500, 576), (144, 2500), (3500, 144)]
# linear runs the CAE's FCs at both precisions and FC-AE's at float32, the
# only precision FC-AE trains in
LINEAR_CASES = pytest.mark.parametrize("shape, dtype", [
    pytest.param(shape, dtype, id=f"{shape[0]}to{shape[1]}-{np.dtype(dtype).name}")
    for shape, dtype in [(s, d) for s in STOCK_FCS for d in (np.float64, np.float32)]
    + [(s, np.float32) for s in FC_AE_FCS]])
# chain op -> its forward on the input z and the sent symbol blocks
CHAIN_OPS = {
    "power_norm": lambda z, _: ad.power_norm(z),
    "bandpass": lambda z, _: ad.bandpass(z, 4),
    "rapp_nonlinearity": lambda z, _: ad.rapp_nonlinearity(z, 1.0, 1.0, 2.0),
    "dft_unpad": lambda z, _: ad.dft_unpad(z, 4),
    "mse_complex": ad.mse_complex,
    "papr_loss": lambda z, _: ad.papr_loss(z),
    "acpr_value": lambda z, _: ad.acpr_value(z, 72),
}
# (batch, complex dtype, taped forward) of a training step and an eval batch
CHAIN_CASES = pytest.mark.parametrize("batch, dtype, taped",
                                      [(32, np.complex64, True), (500, np.complex128, False)],
                                      ids=["32-float32", "500-float64"])


def _stage_call(stage, batch, dtype, taped):
    """A closure running conv_stage at one stock stage, and its leaves: on a
    tape in training mode, or tape-free in eval mode."""
    channels, out_ch, length = stage
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, channels, length)).astype(dtype)
    w = (rng.standard_normal((out_ch, channels, 3)) / np.sqrt(3 * channels)).astype(dtype)
    # the first stage of each coder takes data, which needs no gradient
    leaves = (Tensor(x, requires_grad=taped and channels > 1),
              *(Tensor(a.astype(dtype), requires_grad=taped)
                for a in (w, np.zeros(out_ch), np.ones(out_ch), np.zeros(out_ch))))
    mean, var = np.zeros(out_ch, dtype), np.ones(out_ch, dtype)
    return lambda: ad.conv_stage(*leaves, mean, var, training=taped), leaves


def _selu_call(width):
    """A closure running selu at the training batch on a tape, and its input."""
    x = Tensor(np.random.default_rng(0).standard_normal((32, width)).astype(np.float32),
               requires_grad=True)
    return lambda: ad.selu(x), (x,)


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


@STAGE_CASES
@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
def test_conv_stage_forward(benchmark, stage, batch, dtype, taped):
    call, _ = _stage_call(stage, batch, dtype, taped)
    benchmark(call)


@pytest.mark.parametrize("stage", STOCK_CONVS, ids=STAGE_IDS)
def test_conv_stage_backward(benchmark, stage):
    _bench_backward(benchmark, *_stage_call(stage, 32, np.float32, True))


@pytest.mark.parametrize("width", FC_AE_HIDDEN)
def test_selu_forward(benchmark, width):
    call, _ = _selu_call(width)
    benchmark(call)


@pytest.mark.parametrize("width", FC_AE_HIDDEN)
def test_selu_backward(benchmark, width):
    _bench_backward(benchmark, *_selu_call(width))


@LINEAR_CASES
def test_linear_forward(benchmark, shape, dtype):
    call, _ = _linear_call(shape, dtype)
    benchmark(call)


@LINEAR_CASES
def test_linear_backward(benchmark, shape, dtype):
    _bench_backward(benchmark, *_linear_call(shape, dtype))


def _adamw(model) -> AdamW:
    return AdamW(model.parameters(), lr=CFG.train.lr, weight_decay=CFG.train.weight_decay)


@pytest.mark.parametrize("arch, dtype", [("cae", np.float64), ("cae", np.float32),
                                         ("fc_ae", np.float32)],
                         ids=["cae-float64", "cae-float32", "fc_ae-float32"])
def test_adamw_step(benchmark, arch, dtype):
    model = harness.build_model_from_config(CFG, arch).astype(dtype)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.data.shape).astype(dtype)
    benchmark(_adamw(model).step)


@pytest.mark.parametrize("arch", ["cae", "fc_ae"])
def test_train_step(benchmark, arch):
    model = harness.build_model_from_config(CFG, arch).train()
    hpa = CFG.hpa
    spectral = SpectralParams(bw_bins=72, acpr_req_db=CFG.acpr_req_db)
    rng = np.random.default_rng(0)
    blocks = qam4_map(rng.integers(0, 2, (32, 144)))
    x = ofdm_modulate(blocks, 4)
    noise = complex_noise(x.shape, 10.0, hpa, rng)
    opt = _adamw(model)

    def step():
        loss, _ = joint_loss(run_chain(model, x, hpa, noise), blocks, CFG.loss,
                             spectral, stage=2)
        loss.backward(opt.queue)
        opt.step()
    benchmark(step)


def _chain_call(op, batch, dtype, taped):
    """A closure running a chain op's forward, and its input: a batch of
    stock unit-power OFDM waveforms (72 subcarriers, 4x oversampling), or for
    mse_complex the blocks they carry, perturbed by Gaussian noise."""
    rng = np.random.default_rng(0)
    blocks = qam4_map(rng.integers(0, 2, (batch, 144)))
    if op == "mse_complex":
        data = blocks + 0.1 * (rng.standard_normal(blocks.shape)
                               + 1j * rng.standard_normal(blocks.shape))
    else:
        data = ofdm_modulate(blocks, 4)
    z = Tensor(data.astype(dtype), requires_grad=taped)
    return lambda: CHAIN_OPS[op](z, blocks), (z,)


@CHAIN_CASES
@pytest.mark.parametrize("op", CHAIN_OPS)
def test_chain_forward(benchmark, op, batch, dtype, taped):
    call, _ = _chain_call(op, batch, dtype, taped)
    benchmark(call)


@CHAIN_CASES
@pytest.mark.parametrize("op", CHAIN_OPS)
def test_chain_backward(benchmark, op, batch, dtype, taped):
    _bench_backward(benchmark, *_chain_call(op, batch, dtype, True))


def test_eval_load(benchmark, tmp_path):
    path = tmp_path / "cae.npz"
    save_checkpoint(path, harness.build_model_from_config(CFG, "cae"))
    cfg = config_from_dict({"methods": ["cae"], "output_dir": str(tmp_path)})
    benchmark(harness._MethodBank, cfg, {"cae": path})


def _eval_blocks():
    """One eval batch of stock symbol blocks: 500 x 72 4-QAM symbols."""
    return qam4_map(np.random.default_rng(0).integers(0, 2, (500, 144)))


def test_slm_select(benchmark):
    benchmark(slm_select_batch, _eval_blocks(), CFG.slm, 4)


def test_cf_transmit(benchmark):
    blocks = _eval_blocks()
    benchmark(lambda: clip_filter(ofdm_modulate(blocks, 4), CFG.cf, 4))


def test_eval_batch_transmit(benchmark, tmp_path):
    path = tmp_path / "cae.npz"
    save_checkpoint(path, harness.build_model_from_config(CFG, "cae"))
    cfg = config_from_dict({"methods": ["none", "cf", "slm", "cae"],
                            "output_dir": str(tmp_path)})
    bank = harness._MethodBank(cfg, {"cae": path})
    benchmark(lambda: next(harness._batch_stream(cfg, bank, cfg.eval.batch)))
