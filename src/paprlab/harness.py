"""Experiment orchestration: training runs and evaluation sweeps.

Every public function takes an ExperimentConfig, derives its random streams
from the config seed, and writes byte-reproducible outputs (curve files,
checkpoints, JSON summaries) into the configured output directory.

Evaluation is the training chain: neural transmit, front-end and receiver
are the stage functions of :mod:`paprlab.chain`, run on tape-free tensors.

Evaluation runs on one shared batch stream per command: batch bi draws its
bits from the stream "<command>/data/<bi>" and every method transmits it
exactly once.  The command's accumulator then reuses those waveforms at every
point of its grid: BER adds one noise draw per (SNR point, batch), and the
OBO/ACPR sweep reruns only the amplifier and the PSD per IBO point.  So all
methods share data and noise at every point (common random numbers), and the
points of an SNR or IBO grid share one data draw per batch.  Accumulation
runs over fixed-size batches in a fixed order, so results do not depend on
how work is chunked.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import chain
from .autodiff import Tensor, add_constant
from .baselines import clip_filter, slm_phase_bank, slm_select_batch
from .channel import complex_noise
from .config import (
    NEURAL_METHODS,
    ExperimentConfig,
    build_id,
    config_hash,
    config_to_dict,
)
from .curvefile import write_curve, write_summary
from .errors import ConfigError
from .frontend import HpaParams, bussgang_alpha
from .metrics import ACPR_FLOOR_DB, SpectralParams, acpr, band_bins, ccdf, papr_db, psd
from .models import CaeModel, FcAeModel, load_checkpoint, save_checkpoint
from .ofdm import ml_detect, ofdm_demodulate, ofdm_modulate, qam4_map
from .seeding import derive_rng, derive_seed
from .training import train

__all__ = [
    "build_model_from_config",
    "run_train",
    "eval_ber",
    "eval_ccdf",
    "eval_psd",
    "eval_table",
    "eval_obo_vs_acpr",
    "run_selftest",
]

# PAPR thresholds of the CCDF curves: 0 to 13 dB in 0.25 dB steps
CCDF_THRESHOLDS_DB = np.arange(0.0, 13.0 + 0.125, 0.25)


def _spectral(config: ExperimentConfig) -> SpectralParams:
    return SpectralParams(bw_bins=config.system.n_subcarriers, acpr_req_db=config.acpr_req_db)


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _meta(config: ExperimentConfig, **extra) -> dict:
    meta = {"build": build_id(), "config_hash": config_hash(config), "seed": config.seed}
    meta.update(extra)
    return meta


def build_model_from_config(config: ExperimentConfig, arch: str):
    sys_cfg = config.system
    mdl = config.model
    init_seed = derive_seed(config.seed, f"init/{arch}")
    if arch == "cae":
        return CaeModel(n_subcarriers=sys_cfg.n_subcarriers, oversampling=sys_cfg.oversampling,
                        enc_channels=mdl.enc_channels, dec_channels=mdl.dec_channels,
                        seed=init_seed)
    if arch == "fc_ae":
        return FcAeModel(n_subcarriers=sys_cfg.n_subcarriers, oversampling=sys_cfg.oversampling,
                         hidden=mdl.fc_hidden, seed=init_seed)
    raise ConfigError(f"unknown architecture {arch!r} (expected 'cae' or 'fc_ae')")


def run_train(config: ExperimentConfig, arch: str = "cae", tag: str | None = None,
              log_progress=None) -> tuple[Path, Path]:
    """Train one model and write its checkpoint plus a per-epoch log.

    The training stream seed depends on the architecture but not on the tag,
    so schedule ablations of the same architecture share initialization, data
    order and channel noise.
    """
    tag = tag or arch
    out = _outdir(config)
    model = build_model_from_config(config, arch)
    result = train(model, config.train, config.loss, config.hpa, _spectral(config),
                   seed=derive_seed(config.seed, f"train/{arch}"), log=log_progress)

    ckpt_path = out / f"{tag}.npz"
    save_checkpoint(ckpt_path, model, optimizer=result.optimizer,
                    epoch=config.train.epochs, seed=config.seed,
                    extra_meta={"tag": tag, "config_hash": config_hash(config)})
    columns = ["epoch", "stage", "loss", "l1", "l2", "l3"]
    rows = [(r.epoch, r.stage, r.loss, r.l1, r.l2, r.l3) for r in result.records]
    log_path = write_curve(out / f"train_{tag}.csv", _meta(config, arch=arch, tag=tag),
                           columns, rows)
    write_summary(out / f"train_{tag}_summary.json", {
        "command": "train",
        "arch": arch,
        "tag": tag,
        "build": build_id(),
        "config_hash": config_hash(config),
        "config": config_to_dict(config),
        "epochs": config.train.epochs,
        "final": rows[-1][2:] if rows else None,
        "outputs": [ckpt_path.name, log_path.name],
    })
    return ckpt_path, log_path


# -- shared evaluation plumbing -------------------------------------------------


class _MethodBank:
    """Loaded models and the SLM phase bank for the configured method set."""

    def __init__(self, config: ExperimentConfig, checkpoints: dict[str, str | Path] | None):
        checkpoints = checkpoints or {}
        self.config = config
        self.models = {}
        for method in config.methods:
            if method in NEURAL_METHODS:
                if method not in checkpoints:
                    raise ConfigError(f"method {method!r} needs a checkpoint (none supplied)")
                model = load_checkpoint(checkpoints[method]).model
                model.eval()
                for param in model.parameters():
                    param.requires_grad = False  # inference records no autodiff tape
                expected = (config.system.n_subcarriers, config.system.oversampling)
                if (model.n, model.oversampling) != expected:
                    raise ConfigError(
                        f"checkpoint for {method!r} was built for system {model.n}x"
                        f"{model.oversampling}, config wants {expected[0]}x{expected[1]}"
                    )
                self.models[method] = model
        self.slm_bank = slm_phase_bank(config.system.n_subcarriers, config.slm)

    def transmit(self, method: str, blocks: np.ndarray):
        """Blocks -> band-limited unit-power waveform batch (plus SLM indices)."""
        ell = self.config.system.oversampling
        if method == "none":
            return ofdm_modulate(blocks, ell), None
        if method == "cf":
            return clip_filter(ofdm_modulate(blocks, ell), self.config.cf, ell), None
        if method == "slm":
            return slm_select_batch(blocks, self.config.slm, ell)
        return chain.transmit(self.models[method], Tensor(ofdm_modulate(blocks, ell))).data, None

    def receive_bits(self, method: str, symbols: np.ndarray, aux) -> np.ndarray:
        if method in NEURAL_METHODS:
            symbols = self.models[method].decode(Tensor(symbols)).data
        elif method == "slm":
            symbols = symbols * np.conj(self.slm_bank[aux])
        return ml_detect(symbols)


def _num_batches(total: int, batch: int) -> int:
    return max(1, math.ceil(total / batch))


def _batch_stream(config: ExperimentConfig, bank: _MethodBank, symbols: int, label: str):
    """Yield (bits, {method: (x_unit, aux)}) for each data batch of one command.

    Batch bi draws its bits from the stream f"{label}/data/{bi}" and every
    method transmits it exactly once.
    """
    n = config.system.n_subcarriers
    batch = config.eval.batch
    for bi in range(_num_batches(symbols, batch)):
        data_rng = derive_rng(config.seed, f"{label}/data/{bi}")
        bits = data_rng.integers(0, 2, size=(batch, 2 * n), dtype=np.int64)
        blocks = qam4_map(bits)
        yield bits, {method: bank.transmit(method, blocks) for method in config.methods}


def _wilson(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate; its lower end is 0 at 0 errors."""
    z = 1.96
    spread = z * math.sqrt(errors * (trials - errors) / trials + z * z / 4.0)
    center = errors + z * z / 2.0
    return max(0.0, (center - spread) / (trials + z * z)), (center + spread) / (trials + z * z)


def eval_ber(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """BER vs peak-SNR per method, with 95% Wilson score intervals."""
    bank = _MethodBank(config, checkpoints)
    n = config.system.n_subcarriers
    ell = config.system.oversampling
    ev = config.eval
    batches = _num_batches(ev.ber_symbols, ev.batch)
    n_bits = batches * ev.batch * 2 * n

    errors = {m: np.zeros(len(ev.p_snr_db), dtype=np.int64) for m in config.methods}
    for bi, (bits, sent) in enumerate(_batch_stream(config, bank, ev.ber_symbols, "ber")):
        noises = [complex_noise((ev.batch, n * ell), p_snr, config.hpa,
                                derive_rng(config.seed, f"ber/noise/{pi}/{bi}"))
                  for pi, p_snr in enumerate(ev.p_snr_db)]
        for method, (x_unit, aux) in sent.items():
            _, x_p, alpha = chain.front_end(Tensor(x_unit), config.hpa, ev.linear_chain)
            for pi, noise in enumerate(noises):
                symbols = chain.receive(add_constant(x_p, noise), alpha, ell).data
                decided = bank.receive_bits(method, symbols, aux)
                errors[method][pi] += int(np.count_nonzero(decided != bits))

    rows = []
    for pi, p_snr in enumerate(ev.p_snr_db):
        for method in config.methods:
            count = int(errors[method][pi])
            rows.append((float(p_snr), float(count / n_bits), method, n_bits, count,
                         *_wilson(count, n_bits)))
    rows.sort(key=lambda r: (r[0], r[2]))
    out = _outdir(config)
    path = write_curve(out / "ber.csv",
                       _meta(config, symbols_per_point=batches * ev.batch,
                             linear_chain=ev.linear_chain, ci="95% Wilson score"),
                       ["p_snr_db", "ber", "method", "bits", "errors", "ci_low", "ci_high"],
                       rows)
    write_summary(out / "ber_summary.json", {
        "command": "eval-ber",
        "build": build_id(),
        "config_hash": config_hash(config),
        "ber": {m: {repr(float(p)): errors[m][i] / n_bits
                    for i, p in enumerate(ev.p_snr_db)} for m in config.methods},
        "outputs": [path.name],
    })
    return path


def eval_ccdf(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """CCDF of the PAPR of the amplifier input, per method."""
    bank = _MethodBank(config, checkpoints)
    ev = config.eval
    batches = _num_batches(ev.ccdf_symbols, ev.batch)

    values = {m: [] for m in config.methods}
    for _, sent in _batch_stream(config, bank, ev.ccdf_symbols, "ccdf"):
        for method, (x_unit, _) in sent.items():
            x_f = chain.pa_input(Tensor(x_unit), config.hpa, ev.linear_chain)
            values[method].append(papr_db(x_f.data))

    rows = []
    for method in config.methods:
        curve = ccdf(np.concatenate(values[method]), CCDF_THRESHOLDS_DB)
        rows.extend((float(t), float(p), method)
                    for t, p in zip(curve.thresholds_db, curve.probabilities))
    rows.sort(key=lambda r: (r[0], r[2]))
    out = _outdir(config)
    path = write_curve(out / "ccdf.csv",
                       _meta(config, symbols=batches * ev.batch),
                       ["papr0_db", "prob_exceed", "method"], rows)
    write_summary(out / "ccdf_summary.json", {
        "command": "eval-ccdf",
        "build": build_id(),
        "config_hash": config_hash(config),
        "symbols": batches * ev.batch,
        "outputs": [path.name],
    })
    return path


def _accumulate_spectra(config: ExperimentConfig, bank: _MethodBank, symbols: int,
                        label: str, ibo_grid):
    """Batch-averaged PSD of the PA output and mean PA-input power.

    Returns (spectra, powers, symbols); spectra and powers hold one
    {method: value} dict per IBO point.  Each batch is transmitted once;
    only the front-end and the PSD run per IBO point.
    """
    hpas = [replace(config.hpa, ibo_db=float(ibo_db)) for ibo_db in ibo_grid]
    psd_sum = [dict.fromkeys(config.methods, 0.0) for _ in hpas]
    power_sum = [dict.fromkeys(config.methods, 0.0) for _ in hpas]
    for _, sent in _batch_stream(config, bank, symbols, label):
        for method, (x_unit, _) in sent.items():
            for i, hpa in enumerate(hpas):
                x_f, x_p, _ = chain.front_end(Tensor(x_unit), hpa, config.eval.linear_chain)
                psd_sum[i][method] = psd_sum[i][method] + psd(x_p.data)
                power_sum[i][method] += float(np.mean(np.abs(x_f.data) ** 2))
    batches = _num_batches(symbols, config.eval.batch)
    spectra = [{m: total / batches for m, total in point.items()} for point in psd_sum]
    powers = [{m: total / batches for m, total in point.items()} for point in power_sum]
    return spectra, powers, batches * config.eval.batch


def eval_psd(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """Averaged PSD of the transmitted (post-PA) signal per method, in dB.

    Also emits the ideal reference: a linear amplifier would confine the same
    transmit power to a flat in-band rectangle.
    """
    bank = _MethodBank(config, checkpoints)
    n = config.system.n_subcarriers
    total_bins = n * config.system.oversampling
    (spectra,), (powers,), symbols = _accumulate_spectra(
        config, bank, config.eval.psd_symbols, "psd", [config.hpa.ibo_db])

    freqs = (np.arange(total_bins) - total_bins // 2) / total_bins
    main_sl, _, _ = band_bins(total_bins, n)
    ideal = np.full(total_bins, 10.0 ** (ACPR_FLOOR_DB / 10.0))
    ref_power = (config.hpa.a0 ** 2) * 10.0 ** (-config.hpa.ibo_db / 10.0)
    ideal[main_sl] = ref_power / n

    rows = []
    for method in sorted(config.methods):
        vals = spectra[method]
        rows.extend(
            (float(freqs[k]), float(10.0 * np.log10(max(vals[k], 1e-30))), method)
            for k in range(total_bins)
        )
    rows.extend((float(freqs[k]), float(10.0 * np.log10(ideal[k])), "ideal")
                for k in range(total_bins))
    rows.sort(key=lambda r: (r[0], r[2]))
    out = _outdir(config)
    path = write_curve(out / "psd.csv", _meta(config, symbols=symbols),
                       ["freq_norm", "psd_db", "method"], rows)
    write_summary(out / "psd_summary.json", {
        "command": "eval-psd",
        "build": build_id(),
        "config_hash": config_hash(config),
        "symbols": symbols,
        "mean_tx_power": {m: powers[m] for m in sorted(config.methods)},
        "outputs": [path.name],
    })
    return path


def _acpr_obo(config: ExperimentConfig, spectrum: np.ndarray, power: float):
    """(ACPR, OBO) in dB of one method at one back-off."""
    return (float(acpr(spectrum, _spectral(config))),
            float(10.0 * np.log10(config.hpa.a0 ** 2 / power)))


def eval_table(config: ExperimentConfig, checkpoints: dict | None = None):
    """ACPR and OBO per method (the summary table of the operating point)."""
    bank = _MethodBank(config, checkpoints)
    (spectra,), (powers,), symbols = _accumulate_spectra(
        config, bank, config.eval.table_symbols, "table", [config.hpa.ibo_db])
    table = {}
    for method in config.methods:
        acpr_db, obo_db = _acpr_obo(config, spectra[method], powers[method])
        table[method] = {"acpr_db": acpr_db, "obo_db": obo_db}
    rows = [(m, table[m]["acpr_db"], table[m]["obo_db"]) for m in sorted(table)]
    out = _outdir(config)
    path = write_curve(out / "table.csv", _meta(config, symbols=symbols),
                       ["method", "acpr_db", "obo_db"], rows)
    write_summary(out / "table_summary.json", {
        "command": "eval-table",
        "build": build_id(),
        "config_hash": config_hash(config),
        "symbols": symbols,
        "table": {m: table[m] for m in sorted(table)},
        "outputs": [path.name],
    })
    return table, path


def eval_obo_vs_acpr(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """Sweep the input back-off and record the (ACPR, OBO) operating curves."""
    bank = _MethodBank(config, checkpoints)
    grid = config.eval.obo_acpr_ibo_db
    spectra, powers, _ = _accumulate_spectra(config, bank, config.eval.table_symbols,
                                             "obo_acpr", grid)
    rows = [(*_acpr_obo(config, spectra[i][method], powers[i][method]), method, float(ibo_db))
            for i, ibo_db in enumerate(grid) for method in config.methods]
    rows.sort(key=lambda r: (r[0], r[2]))
    out = _outdir(config)
    path = write_curve(out / "obo_acpr.csv", _meta(config),
                       ["acpr_db", "obo_db", "method", "ibo_db"], rows)
    write_summary(out / "obo_acpr_summary.json", {
        "command": "eval-obo-acpr",
        "build": build_id(),
        "config_hash": config_hash(config),
        "ibo_grid_db": list(grid),
        "outputs": [path.name],
    })
    return path


# -- selftest --------------------------------------------------------------------


def _fd_check(build_loss, arrays, eps=1e-5, tol=1e-4) -> bool:
    """Minimal central-difference check used by the selftest battery."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build_loss(*tensors).backward()
    for i, t in enumerate(tensors):
        numeric = np.zeros_like(arrays[i])
        it = np.nditer(arrays[i], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arrays[i][idx]
            deltas = [eps, 1j * eps] if np.iscomplexobj(arrays[i]) else [eps]
            parts = []
            for d in deltas:
                arrays[i][idx] = orig + d
                f_plus = build_loss(*[Tensor(a) for a in arrays]).item()
                arrays[i][idx] = orig - d
                f_minus = build_loss(*[Tensor(a) for a in arrays]).item()
                arrays[i][idx] = orig
                parts.append((f_plus - f_minus) / (2 * eps))
            numeric[idx] = parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0]
        scale = max(np.max(np.abs(t.grad)), np.max(np.abs(numeric)), 1e-12)
        if np.max(np.abs(t.grad - numeric)) / scale > tol:
            return False
    return True


def run_selftest() -> list[tuple[str, bool, str]]:
    """Fast property battery: numerical bedrock and closed-form anchors."""
    from . import autodiff as ad
    from .models import transmitter_conv_weight_count
    from .optim import AdamW, adamw_update

    rng = np.random.default_rng(7)
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    err = np.max(np.abs(x - np.fft.ifft(np.fft.fft(x))))
    check("dft_roundtrip", err < 1e-10, f"max err {err:.2e}")

    energy_gap = abs(np.sum(np.abs(x) ** 2)
                     - np.sum(np.abs(np.fft.fft(x, norm="ortho")) ** 2))
    check("parseval", energy_gap / np.sum(np.abs(x) ** 2) < 1e-10, f"gap {energy_gap:.2e}")

    block = qam4_map(rng.integers(0, 2, 144))
    wave = ofdm_modulate(block, 4)
    rt = np.max(np.abs(ofdm_demodulate(wave, 4) - block))
    check("modulate_roundtrip", rt < 1e-10, f"max err {rt:.2e}")

    impulse = ofdm_modulate(np.ones(4), 1)
    check("papr_impulse_anchor", abs(float(np.max(np.abs(impulse) ** 2)
                                           / np.mean(np.abs(impulse) ** 2)) - 4.0) < 1e-12)

    from .frontend import rapp_gain
    knee = rapp_gain(np.array([1.0]), HpaParams(a0=1.0, v=1.0, p=2.0))[0]
    check("rapp_knee_anchor", abs(knee - 2 ** -0.25) < 1e-6, f"G(1)={knee:.6f}")

    lin = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    check("bussgang_linear_anchor", abs(bussgang_alpha(lin, 1.7 * lin) - 1.7) < 1e-12)

    check("transmitter_conv_weights", transmitter_conv_weight_count(CaeModel()) == 468)

    conv_ok = _fd_check(
        lambda xx, ww, bb: ad.sq_norm(ad.conv1d(xx, ww, bb, padding=2)),
        [rng.standard_normal((2, 2, 7)), rng.standard_normal((3, 2, 3)),
         rng.standard_normal(3)])
    check("conv1d_gradcheck", conv_ok)

    z = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    witness = Tensor(np.linspace(0.2, 1.4, 48).reshape(3, 16))
    check("power_norm_gradcheck",
          _fd_check(lambda t: ad.sq_norm(
              ad.complex_to_interleaved(ad.power_norm(t)) * witness), [z]))

    z2 = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    check("papr_loss_gradcheck", _fd_check(lambda t: ad.papr_loss(t), [z2]))

    z3 = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    got = ad.acpr_value(Tensor(z3), 8).item()
    want = acpr(psd(z3), SpectralParams(bw_bins=8))
    check("acpr_matches_metric", abs(got - want) < 1e-9, f"delta {abs(got - want):.2e}")

    theta, _, _ = adamw_update(np.array([1.0]), np.zeros(1), np.zeros(1), np.zeros(1),
                               step=1, lr=0.1, weight_decay=0.5)
    check("adamw_decay_signature", abs(theta[0] - 0.95) < 1e-15)

    trained = ad.parameter(np.array([1.0]))
    trained.grad = np.zeros(1)
    AdamW([trained], lr=0.1, weight_decay=0.5).step()
    check("adamw_step_matches_oracle", trained.data[0] == theta[0],
          f"theta={float(trained.data[0])!r}")

    return results
