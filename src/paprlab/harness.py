"""Experiment orchestration: training runs and evaluation sweeps.

Every public function takes an ExperimentConfig, derives its random streams
from the config seed, and writes byte-reproducible outputs (curve files,
checkpoints, JSON summaries) into the configured output directory.  `_write`
is the only writer of a curve file and its JSON summary, and the one place
that stamps both with the build id and the config hash.

Evaluation is the training chain: neural transmit, front-end and receiver
are the stage functions of :mod:`paprlab.chain`, run on tape-free tensors.

Evaluation runs on one data stream: every command draws its bits from the
stream "eval/data", eval.batch symbols at a time, so symbol k has the same
bits in every command and at every batch size, and each command evaluates
exactly its configured symbol count.  Every method transmits each batch
exactly once, and the command's accumulator then reuses those waveforms at
every point of its grid: BER adds noise drawn from one stream per SNR point,
"ber/noise/<pi>", and the OBO/ACPR sweep reruns only the amplifier and the
PSD per IBO point.  So all methods share data and noise at every point
(common random numbers), and the points of a grid share one data draw.
eval.batch sets how many symbols go through at a time and the window over
which the BER receiver estimates its Bussgang gain; otherwise it moves
results only by float rounding (the PSD sums and a neural encoder's GEMM).

Each batch's cf and slm transmits are handed to autodiff's second thread;
every other stage, the neural transmits included, runs on the calling
thread.  A method does the same arithmetic on either thread, so no output
depends on which thread ran it.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import chain
from .autodiff import Tensor, _settle, _submit, add_constant
from .baselines import clip_filter, slm_phase_bank, slm_select_batch
from .chain import bussgang_alpha, complex_noise
from .config import (
    NEURAL_METHODS,
    ConfigError,
    ExperimentConfig,
    build_id,
    config_hash,
    config_to_dict,
)
from .curvefile import write_curve, write_summary
from .metrics import ACPR_FLOOR_DB, SpectralParams, acpr, ccdf, papr_db, psd
from .models import build_model, load_checkpoint, save_checkpoint
from .ofdm import band_bins, ml_detect, ofdm_modulate, qam4_map
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
]

# PAPR thresholds of the CCDF curves: 0 to 13 dB in 0.25 dB steps
_CCDF_THRESHOLDS_DB = np.arange(0.0, 13.0 + 0.125, 0.25)

# The methods whose transmit is handed to autodiff's second thread.
_THREADED_METHODS = ("cf", "slm")


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(config: ExperimentConfig, stem: str, command: str, meta: dict,
           columns: list[str], rows: list[tuple], /, **summary) -> Path:
    """Write <stem>.csv and <stem>_summary.json; return the curve file's path.

    The curve file's meta lines start with the build id, the config hash and
    the seed, then meta.  The summary holds command, build, config_hash and
    outputs next to the summary fields; outputs lists the files named by a
    summary `outputs` field, then the curve file.
    """
    out = _outdir(config)
    build, digest = build_id(), config_hash(config)
    path = write_curve(out / f"{stem}.csv",
                       {"build": build, "config_hash": digest, "seed": config.seed, **meta},
                       columns, rows)
    write_summary(out / f"{stem}_summary.json", {
        "command": command, "build": build, "config_hash": digest, **summary,
        "outputs": [*summary.get("outputs", ()), path.name],
    })
    return path


def _descriptor(config: ExperimentConfig, arch: str) -> dict:
    """The descriptor, less its seed, of the model config names for arch."""
    mdl = config.model
    if arch == "cae":
        sizes = {"enc_channels": list(mdl.enc_channels), "dec_channels": list(mdl.dec_channels)}
    elif arch == "fc_ae":
        sizes = {"hidden": list(mdl.fc_hidden)}
    else:
        raise ConfigError(f"unknown architecture {arch!r}, expected one of {NEURAL_METHODS}")
    return {"kind": arch, "n_subcarriers": config.system.n_subcarriers,
            "oversampling": config.system.oversampling, **sizes}


def build_model_from_config(config: ExperimentConfig, arch: str):
    seed = derive_seed(config.seed, f"init/{arch}")
    return build_model({**_descriptor(config, arch), "seed": seed})


def run_train(config: ExperimentConfig, arch: str = "cae", log_progress=None) -> tuple[Path, Path]:
    """Train one model and write its checkpoint <arch>.npz plus a per-epoch
    log train_<arch>.csv; separate runs of one arch take separate
    output_dirs.  The streams derive from the seed and the arch, so schedule
    ablations of one arch share initialization, data order and channel noise.
    """
    out = _outdir(config)
    model = build_model_from_config(config, arch)
    spectral = SpectralParams(bw_bins=config.system.n_subcarriers, acpr_req_db=config.acpr_req_db)
    result = train(model, config.train, config.loss, config.hpa, spectral,
                   seed=derive_seed(config.seed, f"train/{arch}"), log=log_progress)

    ckpt_path = out / f"{arch}.npz"
    save_checkpoint(ckpt_path, model, optimizer=result.optimizer,
                    epoch=config.train.epochs, seed=config.seed,
                    extra_meta={"config_hash": config_hash(config)})
    rows = [(r.epoch, r.stage, r.loss, r.l1, r.l2, r.l3) for r in result.records]
    log_path = _write(config, f"train_{arch}", "train", {"arch": arch},
                      ["epoch", "stage", "loss", "l1", "l2", "l3"], rows,
                      arch=arch, config=config_to_dict(config),
                      epochs=config.train.epochs, final=rows[-1][2:] if rows else None,
                      outputs=[ckpt_path.name])
    return ckpt_path, log_path


# -- shared evaluation plumbing -------------------------------------------------


class _MethodBank:
    """Loaded models, each checked to be the config's model by its
    descriptor and cast once to the float64 evaluation precision (the one
    such cast), and the SLM phase bank for the configured method set."""

    def __init__(self, config: ExperimentConfig, checkpoints: dict[str, str | Path] | None):
        checkpoints = checkpoints or {}
        for method in checkpoints:
            if method not in NEURAL_METHODS or method not in config.methods:
                raise ConfigError(f"checkpoint for {method!r}, which is not a neural method "
                                  f"of the evaluated methods {list(config.methods)}")
        self.config = config
        self.models = {}
        for method in config.methods:
            if method in NEURAL_METHODS:
                if method not in checkpoints:
                    raise ConfigError(f"method {method!r} needs a checkpoint (none supplied)")
                path = checkpoints[method]
                try:
                    model = load_checkpoint(path).model
                except OSError as err:
                    raise ConfigError(f"cannot read checkpoint {path}: {err.strerror}") from err
                except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
                    raise ConfigError(f"{path} is not a paprlab checkpoint") from err
                built = {k: v for k, v in model.descriptor().items() if k != "seed"}
                if built != (wanted := _descriptor(config, method)):
                    raise ConfigError(f"checkpoint for {method!r} holds model {built}, "
                                      f"config wants {wanted}")
                model.eval().astype(np.float64)
                for param in model.parameters():
                    param.requires_grad = False  # inference records no autodiff tape
                self.models[method] = model
        self.slm_bank = slm_phase_bank(config.system.n_subcarriers, config.slm)

    def transmit(self, method: str, blocks: np.ndarray, wave: np.ndarray):
        """Blocks and their plain OFDM waveforms -> waveform batch (plus SLM
        indices), each waveform band-limited and at unit mean power.  No
        method writes into wave, so every method of a batch shares it."""
        ell = self.config.system.oversampling
        if method == "none":
            return wave, None
        if method == "cf":
            return clip_filter(wave, self.config.cf, ell), None
        if method == "slm":
            return slm_select_batch(blocks, self.config.slm, ell)
        return chain.transmit(self.models[method], Tensor(wave)).data, None

    def receive_bits(self, method: str, symbols: np.ndarray, aux) -> np.ndarray:
        if method in NEURAL_METHODS:
            symbols = self.models[method].decode(Tensor(symbols)).data
        elif method == "slm":
            symbols = symbols * np.conj(self.slm_bank[aux])
        return ml_detect(symbols)


def _batch_stream(config: ExperimentConfig, bank: _MethodBank, symbols: int):
    """Yield (bits, {method: (x_unit, aux)}) for each data batch of one command.

    The batches hold the first `symbols` rows of the "eval/data" stream,
    eval.batch rows each (the last one may be shorter); every method
    transmits each batch exactly once.  The cf and slm transmits are handed
    to the second thread and settled (autodiff._settle) after the others,
    also when one of those raised, so none outlives its command.  A
    baseline's error reaches the caller unchanged, with the calling
    thread's, if any, as its __context__.  The stream and each command drop
    a batch before the next one transmits, so one batch's waveforms are
    alive at a time.
    """
    n = config.system.n_subcarriers
    data_rng = derive_rng(config.seed, "eval/data")
    for lo in range(0, symbols, config.eval.batch):
        rows = min(config.eval.batch, symbols - lo)
        bits = data_rng.integers(0, 2, size=(rows, 2 * n), dtype=np.int64)
        blocks = qam4_map(bits)
        wave = ofdm_modulate(blocks, config.system.oversampling)
        threaded = [m for m in config.methods if m in _THREADED_METHODS]
        jobs = [_submit(bank.transmit, m, blocks, wave) for m in threaded]
        try:
            sent = {m: bank.transmit(m, blocks, wave) for m in config.methods if m not in threaded}
        finally:
            results = _settle(jobs)
        sent.update(zip(threaded, results))
        yield bits, {m: sent[m] for m in config.methods}
        del blocks, wave, jobs, results, sent


def _wilson(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate, clamped to [0, 1]."""
    z = 1.96
    spread = z * math.sqrt(errors * (trials - errors) / trials + z * z / 4.0)
    center, denom = errors + z * z / 2.0, trials + z * z
    return max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom)


def eval_ber(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """BER vs peak-SNR per method, with 95% Wilson score intervals."""
    bank = _MethodBank(config, checkpoints)
    n = config.system.n_subcarriers
    ell = config.system.oversampling
    ev = config.eval
    n_bits = ev.ber_symbols * 2 * n

    noise_rngs = [derive_rng(config.seed, f"ber/noise/{pi}") for pi in range(len(ev.p_snr_db))]
    errors = {m: np.zeros(len(ev.p_snr_db), dtype=np.int64) for m in config.methods}
    for bits, sent in _batch_stream(config, bank, ev.ber_symbols):
        noises = [complex_noise((len(bits), n * ell), p_snr, config.hpa, rng)
                  for p_snr, rng in zip(ev.p_snr_db, noise_rngs)]
        for method, (x_unit, aux) in sent.items():
            x_f, x_p = chain.front_end(Tensor(x_unit), config.hpa)
            alpha = bussgang_alpha(x_f.data, x_p.data)
            for pi, noise in enumerate(noises):
                symbols = chain.receive(add_constant(x_p, noise), alpha, ell).data
                decided = bank.receive_bits(method, symbols, aux)
                errors[method][pi] += int(np.count_nonzero(decided != bits))
        del sent, noises, x_unit, aux, x_f, x_p, noise, symbols, decided

    rows = []
    for pi, p_snr in enumerate(ev.p_snr_db):
        for method in config.methods:
            count = int(errors[method][pi])
            rows.append((float(p_snr), float(count / n_bits), method, n_bits, count,
                         *_wilson(count, n_bits)))
    rows.sort(key=lambda r: (r[0], r[2]))
    return _write(config, "ber", "eval-ber",
                  {"symbols_per_point": ev.ber_symbols, "ci": "95% Wilson score"},
                  ["p_snr_db", "ber", "method", "bits", "errors", "ci_low", "ci_high"], rows,
                  ber={m: {repr(float(p)): errors[m][i] / n_bits
                           for i, p in enumerate(ev.p_snr_db)} for m in config.methods})


def eval_ccdf(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """CCDF of the PAPR of the amplifier input, per method.

    The back-off is a scalar gain, which leaves PAPR unchanged, so the PAPR
    is read off each method's unit-power transmit waveform.
    """
    bank = _MethodBank(config, checkpoints)
    symbols = config.eval.ccdf_symbols

    values = {m: [] for m in config.methods}
    for _, sent in _batch_stream(config, bank, symbols):
        for method, (x_unit, _) in sent.items():
            values[method].append(papr_db(x_unit))
        del sent, x_unit, _

    rows = []
    for method in config.methods:
        probs = ccdf(np.concatenate(values[method]), _CCDF_THRESHOLDS_DB)
        rows.extend((float(t), float(p), method) for t, p in zip(_CCDF_THRESHOLDS_DB, probs))
    rows.sort(key=lambda r: (r[0], r[2]))
    return _write(config, "ccdf", "eval-ccdf", {"symbols": symbols},
                  ["papr0_db", "prob_exceed", "method"], rows, symbols=symbols)


def _accumulate_spectra(config: ExperimentConfig, bank: _MethodBank, symbols: int, ibo_grid):
    """Symbol-averaged PSD of the PA output, one {method: psd} dict per IBO
    point.  The bins of a PSD sum to the mean PA-output power.  Each batch is
    transmitted once; only the front-end and the PSD run per IBO point.
    """
    hpas = [replace(config.hpa, ibo_db=float(ibo_db)) for ibo_db in ibo_grid]
    psd_sum = [dict.fromkeys(config.methods, 0.0) for _ in hpas]
    for _, sent in _batch_stream(config, bank, symbols):
        for method, (x_unit, _) in sent.items():
            for i, hpa in enumerate(hpas):
                _, x_p = chain.front_end(Tensor(x_unit), hpa)
                psd_sum[i][method] = psd_sum[i][method] + len(x_unit) * psd(x_p.data)
        del sent, x_unit, _, x_p
    return [{m: total / symbols for m, total in point.items()} for point in psd_sum]


def eval_psd(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """Averaged PSD of the transmitted (post-PA) signal per method, in dB.

    Also emits the ideal reference: a linear amplifier of gain v would
    confine its output power to a flat in-band rectangle.  Every row, the reference's
    included, is floored at ACPR_FLOOR_DB.
    """
    bank = _MethodBank(config, checkpoints)
    n = config.system.n_subcarriers
    total_bins = n * config.system.oversampling
    symbols = config.eval.psd_symbols
    (spectra,) = _accumulate_spectra(config, bank, symbols, [config.hpa.ibo_db])

    freqs = (np.arange(total_bins) - total_bins // 2) / total_bins
    floor = 10.0 ** (ACPR_FLOOR_DB / 10.0)
    ideal = np.full(total_bins, floor)
    ref_power = (config.hpa.v * config.hpa.a0) ** 2 * 10.0 ** (-config.hpa.ibo_db / 10.0)
    ideal[band_bins(n, total_bins)[0]] = ref_power / n
    ideal = np.fft.fftshift(ideal)

    rows = [(float(freqs[k]), float(10.0 * np.log10(max(vals[k], floor))), method)
            for method, vals in [*spectra.items(), ("ideal", ideal)] for k in range(total_bins)]
    rows.sort(key=lambda r: (r[0], r[2]))
    return _write(config, "psd", "eval-psd", {"symbols": symbols},
                  ["freq_norm", "psd_db", "method"], rows, symbols=symbols,
                  mean_tx_power={m: float(spectra[m].sum()) for m in sorted(config.methods)})


def _acpr_obo(config: ExperimentConfig, spectrum: np.ndarray):
    """(ACPR, OBO) in dB of one method's PA-output PSD at one back-off; OBO is
    a0^2 over the mean PA-output power, which the PSD bins sum to."""
    return (float(acpr(spectrum, config.system.n_subcarriers)),
            float(10.0 * np.log10(config.hpa.a0 ** 2 / spectrum.sum())))


def eval_table(config: ExperimentConfig, checkpoints: dict | None = None):
    """ACPR and OBO per method (the summary table of the operating point)."""
    bank = _MethodBank(config, checkpoints)
    symbols = config.eval.table_symbols
    (spectra,) = _accumulate_spectra(config, bank, symbols, [config.hpa.ibo_db])
    table = {m: dict(zip(("acpr_db", "obo_db"), _acpr_obo(config, spectra[m])))
             for m in sorted(config.methods)}
    path = _write(config, "table", "eval-table", {"symbols": symbols},
                  ["method", "acpr_db", "obo_db"], [(m, *t.values()) for m, t in table.items()],
                  symbols=symbols, table=table)
    return table, path


def eval_obo_vs_acpr(config: ExperimentConfig, checkpoints: dict | None = None) -> Path:
    """Sweep the input back-off and record the (ACPR, OBO) operating curves."""
    bank = _MethodBank(config, checkpoints)
    grid = config.eval.obo_acpr_ibo_db
    spectra = _accumulate_spectra(config, bank, config.eval.table_symbols, grid)
    rows = [(*_acpr_obo(config, spectra[i][method]), method, float(ibo_db))
            for i, ibo_db in enumerate(grid) for method in config.methods]
    rows.sort(key=lambda r: (r[0], r[2]))
    return _write(config, "obo_acpr", "eval-obo-acpr", {},
                  ["acpr_db", "obo_db", "method", "ibo_db"], rows, ibo_grid_db=list(grid))

