import hashlib
import json
import math
import os
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab import chain, harness
from paprlab.autodiff import Tensor
from paprlab.chain import bussgang_alpha, complex_noise
from paprlab.config import build_id, config_from_dict, config_hash
from paprlab.curvefile import read_curve, write_curve, write_summary
from paprlab.errors import ConfigError, DegenerateInputError
from paprlab.harness import (
    eval_ber,
    eval_ccdf,
    eval_obo_vs_acpr,
    eval_psd,
    eval_table,
    run_train,
)
from paprlab.models import load_checkpoint
from paprlab.ofdm import ofdm_modulate, qam4_map


def tiny_config(tmp_path, **overrides):
    data = {
        "system": {"n_subcarriers": 8, "oversampling": 4},
        "model": {"enc_channels": [4, 3], "dec_channels": [3, 4], "fc_hidden": [24, 32]},
        "train": {"epochs": 2, "batches_per_epoch": 6, "batch_size": 8,
                  "stage1_epochs": 1, "snr_min_db": 8.0, "snr_max_db": 14.0},
        "eval": {"p_snr_db": [8.0, 14.0], "ber_symbols": 400, "ccdf_symbols": 600,
                 "psd_symbols": 400, "table_symbols": 400, "batch": 200,
                 "obo_acpr_ibo_db": [2.0, 5.0]},
        "methods": ["none", "cf", "slm"],
        "slm": {"num_sequences": 8},
        "seed": 321,
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            data.setdefault(key, {}).update(value)
        else:
            data[key] = value
    return config_from_dict(data)


class TestCurveFile:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve(path, {"build": "abc", "config_hash": "123"},
                    ["x", "y", "method"], [(1.0, 0.5, "none"), (2.0, 0.25, "none")])
        meta, columns, rows = read_curve(path)
        assert meta["build"] == "abc"
        assert columns == ["x", "y", "method"]
        assert float(rows[0][0]) == 1.0
        assert float(rows[1][1]) == 0.25

    def test_floats_roundtrip_exactly(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "c.csv"
        # a NumPy float prints as its value, not as np.float64(...)
        write_curve(path, {}, ["x", "y"], [(value, np.float64(value))])
        _, _, rows = read_curve(path)
        assert [float(cell) for cell in rows[0]] == [value, value]

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_curve(tmp_path / "c.csv", {}, ["x", "y"], [(1.0,)])

    @pytest.mark.parametrize("stage", ["write", "rename"])
    @pytest.mark.parametrize("writer", ["curve", "summary"])
    def test_interrupted_write_leaves_the_previous_file(self, tmp_path, monkeypatch,
                                                        writer, stage):
        """A write interrupted while the new text goes out, or before it is
        renamed into place, leaves the previous file whole and no .tmp."""
        path = tmp_path / "out"

        def write(value):
            if writer == "curve":
                write_curve(path, {"build": "abc"}, ["x", "y"], [(1.0, value)])
            else:
                write_summary(path, {"build": "abc", "value": value})
        write(0.5)
        before = path.read_bytes()
        real_write_text = Path.write_text

        def half_written(self, text, **kwargs):
            real_write_text(self, text[:len(text) // 2], **kwargs)
            raise KeyboardInterrupt

        def interrupted(*args):
            raise KeyboardInterrupt
        if stage == "write":
            monkeypatch.setattr(Path, "write_text", half_written)
        else:
            monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write(0.25)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestRunTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ckpt, log = run_train(cfg, arch="cae")
        assert ckpt.exists() and log.exists()
        meta, columns, rows = read_curve(log)
        assert columns == ["epoch", "stage", "loss", "l1", "l2", "l3"]
        assert len(rows) == 2  # one row per epoch
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[2:])
        assert meta["config_hash"]
        loaded = load_checkpoint(ckpt)
        assert loaded.epoch == 2
        assert loaded.optimizer_state is not None

    def test_zero_epochs_gives_empty_log_body(self, tmp_path):
        cfg = tiny_config(tmp_path, train={"epochs": 0, "stage1_epochs": 0})
        ckpt, log = run_train(cfg, arch="cae")
        _, columns, rows = read_curve(log)
        assert rows == []
        assert load_checkpoint(ckpt).model is not None

    def test_same_seed_gives_identical_checkpoints(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        ckpt_a, log_a = run_train(cfg_a, arch="cae")
        ckpt_b, log_b = run_train(cfg_b, arch="cae")
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_fc_ae_arch(self, tmp_path):
        cfg = tiny_config(tmp_path, train={"epochs": 1, "stage1_epochs": 0})
        ckpt, _ = run_train(cfg, arch="fc_ae")
        assert load_checkpoint(ckpt).model.kind == "fc_ae"


class TestEvals:
    def test_ber_curve_shape_and_sanity(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = eval_ber(cfg)
        meta, columns, rows = read_curve(path)
        assert columns == ["p_snr_db", "ber", "method", "bits", "errors", "ci_low", "ci_high"]
        assert len(rows) == 2 * 3  # two points, three methods
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_ber_wilson_interval_holds_at_zero_errors(self, tmp_path):
        cfg = tiny_config(tmp_path, hpa={"ibo_db": 40.0}, eval={"p_snr_db": [37.0, 80.0]})
        meta, columns, rows = read_curve(eval_ber(cfg))
        assert meta["ci"] == "95% Wilson score"
        col = {name: i for i, name in enumerate(columns)}
        zero = [r for r in rows if int(r[col["errors"]]) == 0]
        assert zero and len(zero) < len(rows)
        for r in zero:
            assert float(r[col["ci_low"]]) == 0.0 < float(r[col["ci_high"]])
        for r in rows:
            assert float(r[col["ci_low"]]) <= float(r[col["ber"]]) <= float(r[col["ci_high"]])

    @pytest.mark.parametrize("trials", [1023, 6400])
    def test_wilson_interval_stays_in_unit_range(self, trials):
        assert harness._wilson(0, trials)[0] == 0.0
        assert harness._wilson(trials, trials)[1] == 1.0

    def test_ber_improves_with_snr(self, tmp_path):
        cfg = tiny_config(tmp_path, eval={"p_snr_db": [4.0, 16.0], "ber_symbols": 2000})
        _ = eval_ber(cfg)
        _, _, rows = read_curve(tmp_path / "out" / "ber.csv")
        by_method = {}
        for r in rows:
            by_method.setdefault(r[2], []).append(float(r[1]))
        for method, bers in by_method.items():
            assert bers[0] > bers[1], method

    def test_ccdf_file(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = eval_ccdf(cfg)
        _, columns, rows = read_curve(path)
        assert columns == ["papr0_db", "prob_exceed", "method"]
        none_rows = [r for r in rows if r[2] == "none"]
        probs = [float(r[1]) for r in none_rows]
        assert probs[0] == 1.0          # threshold 0 dB is always exceeded
        assert probs == sorted(probs, reverse=True)

    def test_psd_file_contains_ideal_reference(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = eval_psd(cfg)
        _, _, rows = read_curve(path)
        methods = {r[2] for r in rows}
        assert methods == {"none", "cf", "slm", "ideal"}
        # out-of-band rows of the ideal rectangle sit at the floor
        ideal = [r for r in rows if r[2] == "ideal"]
        assert min(float(r[1]) for r in ideal) == pytest.approx(-200.0)

    def test_psd_has_one_floor(self, tmp_path):
        """At 40 dB of back-off the amplifier is linear and the methods'
        out-of-band bins fall to rounding noise; they are floored where the
        ideal reference is."""
        cfg = tiny_config(tmp_path, hpa={"ibo_db": 40.0})
        _, _, rows = read_curve(eval_psd(cfg))
        lowest = {m: min(float(r[1]) for r in rows if r[2] == m)
                  for m in ("none", "cf", "slm", "ideal")}
        assert lowest == dict.fromkeys(lowest, -200.0)

    def test_table_values_reasonable(self, tmp_path):
        cfg = tiny_config(tmp_path, eval={"table_symbols": 1000})
        table, path = eval_table(cfg)
        assert set(table) == {"none", "cf", "slm"}
        for method, entry in table.items():
            assert -60 < entry["acpr_db"] < -5

    def test_obo_is_the_pa_output_back_off(self, tmp_path):
        """OBO is a0^2 over the mean PA-output power of the table's batches;
        the amplifier compresses, so it exceeds the configured IBO."""
        cfg = tiny_config(tmp_path, hpa={"a0": 1.5}, eval={"table_symbols": 1000})
        table, _ = eval_table(cfg)
        bank = harness._MethodBank(cfg, None)
        powers = {m: [] for m in cfg.methods}
        for _, sent in harness._batch_stream(cfg, bank, 1000):
            for method, (x_unit, _) in sent.items():
                x_f, x_p = chain.front_end(Tensor(x_unit), cfg.hpa)
                powers[method].append((np.mean(np.abs(x_f.data) ** 2),
                                       np.mean(np.abs(x_p.data) ** 2)))
        for method, pairs in powers.items():
            p_in, p_out = np.mean(pairs, axis=0)
            ibo_db = 10.0 * math.log10(cfg.hpa.a0 ** 2 / p_in)
            obo_db = table[method]["obo_db"]
            assert obo_db == pytest.approx(10.0 * math.log10(cfg.hpa.a0 ** 2 / p_out),
                                           rel=0, abs=1e-9), method
            assert ibo_db == pytest.approx(cfg.hpa.ibo_db, rel=0, abs=1e-9), method
            assert obo_db > ibo_db, method

    def test_obo_acpr_monotone_in_ibo(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = eval_obo_vs_acpr(cfg)
        _, _, rows = read_curve(path)
        for method in ("none", "cf", "slm"):
            pairs = sorted((float(r[3]), float(r[1])) for r in rows if r[2] == method)
            obos = [o for _, o in pairs]
            assert obos == sorted(obos)  # OBO rises with IBO

    def test_neural_method_requires_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=["none", "cae"])
        with pytest.raises(ConfigError, match="cae"):
            eval_ber(cfg)

    @pytest.mark.parametrize("methods, method", [
        (["none"], "cae"), (["none", "cae"], "fc_ae"), (["none", "cf"], "cf"),
    ])
    def test_checkpoint_for_unevaluated_method_rejected(self, tmp_path, methods, method):
        """A checkpoint no evaluated neural method reads is an error, before
        any path is opened."""
        cfg = tiny_config(tmp_path, methods=methods)
        with pytest.raises(ConfigError, match=repr(method)):
            eval_ccdf(cfg, {method: tmp_path / "missing.npz"})

    def test_checkpoint_of_another_kind_rejected(self, tmp_path):
        """A CAE checkpoint given for fc_ae is an error naming both kinds."""
        cfg = tiny_config(tmp_path, methods=["none", "fc_ae"],
                          train={"epochs": 0, "stage1_epochs": 0})
        ckpt, _ = run_train(cfg, arch="cae")
        with pytest.raises(ConfigError, match="'fc_ae'.*'cae'"):
            eval_ccdf(cfg, {"fc_ae": ckpt})

    def test_neural_method_with_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=["none", "cae"])
        ckpt, _ = run_train(cfg, arch="cae")
        path = eval_ber(cfg, {"cae": ckpt})
        _, _, rows = read_curve(path)
        assert {r[2] for r in rows} == {"none", "cae"}

    def test_checkpoint_system_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=["none", "cae"])
        ckpt, _ = run_train(cfg, arch="cae")
        cfg16 = tiny_config(tmp_path, methods=["none", "cae"],
                            system={"n_subcarriers": 16})
        with pytest.raises(ConfigError, match="built for system"):
            eval_ccdf(cfg16, {"cae": ckpt})

    def test_eval_outputs_are_reproducible(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        pa = eval_table(cfg_a)[1]
        pb = eval_table(cfg_b)[1]
        assert pa.read_bytes() == pb.read_bytes()

    def test_deep_back_off_matches_analytic_ber(self, tmp_path):
        """At 40 dB of back-off the amplifier is linear, and Gray 4-QAM tracks
        Q(sqrt(L*snr)) at the SNR of the PA input, snr = P_SNR - IBO in dB."""
        cfg = tiny_config(tmp_path, methods=["none"], hpa={"ibo_db": 40.0},
                          eval={"ber_symbols": 4000, "p_snr_db": [34.0, 37.0, 40.0]})
        eval_ber(cfg)
        _, _, rows = read_curve(tmp_path / "out" / "ber.csv")
        ell = cfg.system.oversampling
        for row in rows:
            snr = 10 ** ((float(row[0]) - cfg.hpa.ibo_db) / 10)
            want = 0.5 * math.erfc(math.sqrt(ell * snr / 2))
            got = float(row[1])
            n_bits = int(row[3])
            assert abs(got - want) < 4 * math.sqrt(want * (1 - want) / n_bits) + 1e-4


def _data_digest(path) -> str:
    """sha256 of a curve file without its `# ` meta lines (build and config
    hash change with every source edit; the column header and rows do not)."""
    body = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("# ")]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


# Data rows of the five curve files at tiny_config.  A change to one of these
# changes a published number; re-pin only on purpose and say why.
GOLDEN_ROWS = {
    "ber.csv": "7fbd3a4e8274af87edcc25a2adb8fa3848dc75cd058a5d942338c0da8700d967",
    "ccdf.csv": "0ce17d2b45395433176d5581a76ca6c61248631058b3f7f9feb32311f693e88d",
    "psd.csv": "df154bd74c2ac406923253925729118720ef2bd308dd9bb8621c78ab0f33418e",
    "table.csv": "612de511034e2fe2a2832304366b12c4b07b274ee3cf08f5c8b33c72602da1ea",
    "obo_acpr.csv": "232d4bd92602e0892c54a31f6584fd5f8b58bd0145401e62d8a537739cd35bf4",
}


def _summary_digest(path) -> str:
    """sha256 of a JSON summary without its build and config_hash values."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("build")
    payload.pop("config_hash")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# The five eval summaries at tiny_config, pinned like GOLDEN_ROWS.
GOLDEN_SUMMARIES = {
    "ber_summary.json": "7adf05182bef4333ff6cf6b8e3adba756b529e51231aca1fdca558b81a11b68a",
    "ccdf_summary.json": "b425598cbb3ebbc6df30e14bd29e508bb21e65e797cbae173085a77f56587a99",
    "psd_summary.json": "92eacd015b4fb5826f362f6969a311de0f5c3ea0895d14c49224a129cc46df80",
    "table_summary.json": "0cbe0da1198942553a518c8411ec54e0e9fdf661851f02d491deb4395ff36c2c",
    "obo_acpr_summary.json": "03f1c3821948962ed96b6470be8285a2bee7e1ff9cdfe7fc9c26e4031c825743",
}


def test_golden_curve_rows(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = [eval_ber(cfg), eval_ccdf(cfg), eval_psd(cfg), eval_table(cfg)[1],
             eval_obo_vs_acpr(cfg)]
    assert {p.name: _data_digest(p) for p in paths} == GOLDEN_ROWS
    summaries = [p.with_name(f"{p.stem}_summary.json") for p in paths]
    assert {p.name: _summary_digest(p) for p in summaries} == GOLDEN_SUMMARIES


# The five eval commands at tiny_config with methods [none, cae], the CAE
# loaded from an untrained (epochs 0) checkpoint: curve rows, then summaries,
# pinned like GOLDEN_ROWS.  The largest GEMM's inner dimension is 204 (the
# encoder's FC input), so the BLAS thread count cannot move a bit.
GOLDEN_CAE = {
    "ber.csv": "88e8c36c4c3af652ce7772d63bd88fdd85d9233b9f6d7d4bf034e3bd6181d9f5",
    "ccdf.csv": "4f3e96e99d1c83fd5c51d54e7976a4d4fbf3e5ec2a9e0a070d5e5f6f71d0efa8",
    "psd.csv": "fe38f778e9dbbe816477b1b575b483404ddbb6fdd04fb9755998c2c41c757998",
    "table.csv": "8ff57981980688135603c2269078427baf7c75b21cd78b4aa510dc18b6a949eb",
    "obo_acpr.csv": "b69220a0aecdcba61c02695854bbd7aaf17569b8fe543071210c87b4089a1730",
    "ber_summary.json": "5b16300be50249c5456dc8636efffa4b14b3070d1c6c9122896ff0930ad52af6",
    "ccdf_summary.json": "b425598cbb3ebbc6df30e14bd29e508bb21e65e797cbae173085a77f56587a99",
    "psd_summary.json": "e8e657e65532e2c5b22d5df821ba407a4da0d0bcc4c26e2ff7146a9c5c8a735e",
    "table_summary.json": "27d4c9f97b8410edbe0ee144faa3c1dff6c7bea958a28dc3db67fbb579890303",
    "obo_acpr_summary.json": "03f1c3821948962ed96b6470be8285a2bee7e1ff9cdfe7fc9c26e4031c825743",
}


def test_golden_cae_rows(tmp_path):
    cfg = tiny_config(tmp_path, methods=["none", "cae"], train={"epochs": 0, "stage1_epochs": 0})
    checkpoints = {"cae": run_train(cfg, arch="cae")[0]}
    paths = [eval_ber(cfg, checkpoints), eval_ccdf(cfg, checkpoints),
             eval_psd(cfg, checkpoints), eval_table(cfg, checkpoints)[1],
             eval_obo_vs_acpr(cfg, checkpoints)]
    summaries = [p.with_name(f"{p.stem}_summary.json") for p in paths]
    got = {p.name: _data_digest(p) for p in paths}
    got.update((p.name, _summary_digest(p)) for p in summaries)
    assert got == GOLDEN_CAE


def test_every_output_carries_build_and_config_hash(tmp_path):
    """Each curve file and summary that run_train and the five eval commands
    write names the build and the config; each summary lists files that exist."""
    cfg = tiny_config(tmp_path, train={"epochs": 1, "stage1_epochs": 0})
    _, log = run_train(cfg, arch="cae")
    curves = [log, eval_ber(cfg), eval_ccdf(cfg), eval_psd(cfg), eval_table(cfg)[1],
              eval_obo_vs_acpr(cfg)]
    expected = {"build": build_id(), "config_hash": config_hash(cfg)}
    for curve in curves:
        meta, _, _ = read_curve(curve)
        assert {key: meta[key] for key in expected} == expected, curve.name
        summary = json.loads(curve.with_name(f"{curve.stem}_summary.json").read_text())
        assert {key: summary[key] for key in expected} == expected, curve.name
        assert curve.name in summary["outputs"]
        assert all((curve.parent / name).exists() for name in summary["outputs"])


@pytest.mark.parametrize("command, symbols_key, grid_key", [
    (eval_ber, "ber_symbols", "p_snr_db"),
    (eval_ccdf, "ccdf_symbols", None),
    (eval_psd, "psd_symbols", None),
    (lambda cfg: eval_table(cfg)[1], "table_symbols", None),
    (eval_obo_vs_acpr, "table_symbols", "obo_acpr_ibo_db"),
], ids=["ber", "ccdf", "psd", "table", "obo_acpr"])
def test_each_batch_is_transmitted_once(tmp_path, monkeypatch, command, symbols_key,
                                        grid_key):
    """Symbols transmitted per method are the configured count, also when
    the last batch is short, whatever the length of the command's SNR or IBO
    grid."""
    counts = Counter()
    transmit = harness._MethodBank.transmit

    def counting(bank, method, blocks, wave):
        counts[method] += len(blocks)
        return transmit(bank, method, blocks, wave)

    monkeypatch.setattr(harness._MethodBank, "transmit", counting)
    grids = [[8.0], [2.0, 5.0, 8.0]] if grid_key else [None]
    for grid in grids:
        counts.clear()
        overrides = {symbols_key: 450, "batch": 200}
        if grid_key:
            overrides[grid_key] = grid
        command(tiny_config(tmp_path, eval=overrides))
        assert counts == dict.fromkeys(("none", "cf", "slm"), 450)


def test_only_the_ber_receiver_estimates_a_bussgang_gain(tmp_path, monkeypatch):
    """The spectral commands compute no Bussgang gain; BER computes one per
    batch and method, shared by every SNR point."""
    calls = []

    def counting(x, x_pa):
        calls.append(len(x))
        return bussgang_alpha(x, x_pa)

    monkeypatch.setattr(chain, "bussgang_alpha", counting)
    monkeypatch.setattr(harness, "bussgang_alpha", counting)
    cfg = tiny_config(tmp_path, eval={"psd_symbols": 450, "table_symbols": 450,
                                      "ber_symbols": 450, "batch": 200})
    eval_psd(cfg)
    eval_table(cfg)
    eval_obo_vs_acpr(cfg)
    assert calls == []
    eval_ber(cfg)
    assert calls == [200, 200, 200, 200, 200, 200, 50, 50, 50]  # 3 batches x 3 methods


def test_results_do_not_depend_on_the_batch_size(tmp_path):
    """Symbol k has the same bits and noise at every eval.batch: the BER and
    CCDF rows are byte-identical, the PSD-based rows agree to rounding, and
    every command reports its configured symbol count.  An untrained CAE
    joins every command but BER, whose receiver still estimates its gain per
    batch.  No batch size leaves a last batch of one row, whose product BLAS
    may round differently from the same row inside a larger batch."""
    neural = ["none", "cf", "slm", "cae"]
    untrained = tiny_config(tmp_path, methods=neural, train={"epochs": 0, "stage1_epochs": 0})
    checkpoints = {"cae": run_train(untrained, arch="cae")[0]}
    digests, spectra = {}, {}
    for batch in (100, 150, 200, 1000):
        out = str(tmp_path / str(batch))
        cfg = tiny_config(tmp_path, eval={"batch": batch}, output_dir=out)
        with_cae = tiny_config(tmp_path, eval={"batch": batch}, output_dir=out, methods=neural)
        ev = cfg.eval
        assert all(n % batch != 1 for n in (ev.ber_symbols, ev.ccdf_symbols, ev.psd_symbols,
                                            ev.table_symbols))
        counts = {"ber.csv": ("symbols_per_point", ev.ber_symbols),
                  "ccdf.csv": ("symbols", ev.ccdf_symbols),
                  "psd.csv": ("symbols", ev.psd_symbols),
                  "table.csv": ("symbols", ev.table_symbols)}
        for path in (eval_ber(cfg), eval_ccdf(with_cae, checkpoints),
                     eval_psd(with_cae, checkpoints), eval_table(with_cae, checkpoints)[1],
                     eval_obo_vs_acpr(with_cae, checkpoints)):
            meta, columns, rows = read_curve(path)
            if path.name in counts:
                key, count = counts[path.name]
                assert meta[key] == str(count), (batch, path.name)
            if path.name != "ber.csv":
                assert "cae" in {r[columns.index("method")] for r in rows}, path.name
            if path.name in ("ber.csv", "ccdf.csv"):
                digests.setdefault(path.name, set()).add(_data_digest(path))
                continue
            methods = [r[columns.index("method")] for r in rows]
            values = [[float(c) for c, name in zip(r, columns) if name != "method"]
                      for r in rows]
            spectra.setdefault(path.name, []).append((methods, np.array(values)))
    assert {name: len(d) for name, d in digests.items()} == {"ber.csv": 1, "ccdf.csv": 1}
    for name, runs in spectra.items():
        (methods, values), *others = runs
        for other_methods, other_values in others:
            assert other_methods == methods, name
            np.testing.assert_allclose(other_values, values, rtol=1e-12, atol=0, err_msg=name)


class _InlineExecutor:
    """Runs each submitted task at once, on the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as err:
            future.set_exception(err)
        return future


def test_the_baseline_thread_changes_no_bit(tmp_path, monkeypatch):
    """The five commands write the same rows and summaries whether cf and slm
    transmit on the baseline thread or inline, with a short last batch in
    every command; on the thread, only cf and slm leave the calling thread."""
    methods = ["none", "cf", "slm", "cae"]
    untrained = tiny_config(tmp_path, methods=methods, train={"epochs": 0, "stage1_epochs": 0})
    checkpoints = {"cae": run_train(untrained, arch="cae")[0]}
    short = {"ber_symbols": 450, "ccdf_symbols": 650, "psd_symbols": 450,
             "table_symbols": 450}
    threads = {}
    transmit = harness._MethodBank.transmit

    def recording(bank, method, blocks, wave):
        threads.setdefault(method, set()).add(threading.current_thread() is
                                              threading.main_thread())
        return transmit(bank, method, blocks, wave)

    monkeypatch.setattr(harness._MethodBank, "transmit", recording)
    runs = []
    for inline in (False, True):
        if inline:
            monkeypatch.setattr(harness, "_baseline_thread", _InlineExecutor())
        cfg = tiny_config(tmp_path, methods=methods, eval=short,
                          output_dir=str(tmp_path / f"inline-{inline}"))
        paths = [eval_ber(cfg, checkpoints), eval_ccdf(cfg, checkpoints),
                 eval_psd(cfg, checkpoints), eval_table(cfg, checkpoints)[1],
                 eval_obo_vs_acpr(cfg, checkpoints)]
        digests = {p.name: _data_digest(p) for p in paths}
        digests.update((p.name, _summary_digest(p.with_name(f"{p.stem}_summary.json")))
                       for p in paths)
        runs.append(digests)
        if not inline:
            assert threads == {"none": {True}, "cf": {False}, "slm": {False}, "cae": {True}}
    assert runs[0] == runs[1]


def test_a_baseline_error_crosses_the_thread_unchanged(tmp_path, monkeypatch):
    """An error raised by a transmit on the baseline thread reaches the eval
    command's caller as the same exception, type and message."""
    raised = DegenerateInputError("an all-zero block has no PAPR")
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise raised

    monkeypatch.setattr(harness, "slm_select_batch", failing)
    with pytest.raises(DegenerateInputError) as info:
        eval_ccdf(tiny_config(tmp_path))
    assert info.value is raised
    assert str(info.value) == "an all-zero block has no PAPR"
    assert threads and threading.main_thread() not in threads


def test_a_neural_error_waits_for_the_baseline_thread(tmp_path, monkeypatch):
    """When the neural transmit raises on the calling thread, the command
    waits for the baseline thread's transmit before the error propagates, so
    no transmit outlives its command."""
    cfg = tiny_config(tmp_path, methods=["slm", "cae"], train={"epochs": 0, "stage1_epochs": 0})
    checkpoints = {"cae": run_train(cfg, arch="cae")[0]}
    raising, finished = threading.Event(), []
    slm = harness.slm_select_batch

    def slow(*args):
        assert raising.wait(10)
        time.sleep(0.1)  # the error is on its way up by now
        out = slm(*args)
        finished.append(True)
        return out

    def failing(model, wave):
        raising.set()
        raise RuntimeError("encoder failed")

    monkeypatch.setattr(harness, "slm_select_batch", slow)
    monkeypatch.setattr(chain, "transmit", failing)
    with pytest.raises(RuntimeError, match="encoder failed"):
        eval_ccdf(cfg, checkpoints)
    assert finished == [True]


@pytest.mark.parametrize("command", [
    eval_ber, eval_ccdf, eval_psd, lambda cfg, ckpts: eval_table(cfg, ckpts)[1], eval_obo_vs_acpr,
], ids=["ber", "ccdf", "psd", "table", "obo_acpr"])
def test_each_batch_is_freed_before_the_next_transmits(tmp_path, monkeypatch, command):
    """When the next batch is modulated, nothing holds the last batch's
    transmit outputs (every method's waveform and SLM indices) or its BER
    noise any more, so one batch's waveforms are alive at a time."""
    methods = ["none", "cf", "slm", "cae"]
    cfg = tiny_config(tmp_path, methods=methods, train={"epochs": 0, "stage1_epochs": 0},
                      eval={"ber_symbols": 450, "ccdf_symbols": 450, "psd_symbols": 450,
                            "table_symbols": 450})
    checkpoints = {"cae": run_train(cfg, arch="cae")[0]}
    refs, alive, batches = [], [], []
    transmit, noise, modulate = (harness._MethodBank.transmit, harness.complex_noise,
                                 harness.ofdm_modulate)

    def recording_transmit(bank, method, blocks, wave):
        x_unit, aux = transmit(bank, method, blocks, wave)
        refs.extend((len(batches), method, weakref.ref(a)) for a in (x_unit, aux)
                    if a is not None)
        return x_unit, aux

    def recording_noise(*args):
        out = noise(*args)
        refs.append((len(batches), "noise", weakref.ref(out)))
        return out

    def checking_modulate(*args):
        alive.extend((batch, name) for batch, name, ref in refs if ref() is not None)
        batches.append(len(batches))
        return modulate(*args)

    monkeypatch.setattr(harness._MethodBank, "transmit", recording_transmit)
    monkeypatch.setattr(harness, "complex_noise", recording_noise)
    monkeypatch.setattr(harness, "ofdm_modulate", checking_modulate)
    command(cfg, checkpoints)
    assert len(batches) == 3 and {name for _, name, _ in refs} >= set(methods)
    assert alive == []


def test_table_is_the_obo_sweep_at_the_operating_point(tmp_path):
    """eval_table and eval_obo_vs_acpr read the same symbols, so at the
    configured IBO their (ACPR, OBO) pairs are equal bit for bit."""
    cfg = tiny_config(tmp_path, hpa={"ibo_db": 5.0})
    assert 5.0 in cfg.eval.obo_acpr_ibo_db
    table, _ = eval_table(cfg)
    _, columns, rows = read_curve(eval_obo_vs_acpr(cfg))
    col = {name: i for i, name in enumerate(columns)}
    sweep = {r[col["method"]]: {"acpr_db": float(r[col["acpr_db"]]),
                                 "obo_db": float(r[col["obo_db"]])}
             for r in rows if float(r[col["ibo_db"]]) == 5.0}
    assert sweep == table


def test_bank_models_record_no_tape(tmp_path):
    cfg = tiny_config(tmp_path, methods=["none", "cae"],
                      train={"epochs": 0, "stage1_epochs": 0})
    ckpt, _ = run_train(cfg, arch="cae")
    bank = harness._MethodBank(cfg, {"cae": ckpt})
    x = np.ones((2, 32), dtype=complex)
    encoded = bank.models["cae"].encode(Tensor(x))
    assert encoded._backward is None
    # the tape does not change the numbers
    reference = load_checkpoint(ckpt).model.eval().astype(np.float64)
    np.testing.assert_array_equal(encoded.data, reference.encode(Tensor(x)).data)


def test_training_checkpoint_holds_float32(tmp_path):
    ckpt, _ = run_train(tiny_config(tmp_path), arch="cae")
    with np.load(ckpt) as data:
        assert {data[k].dtype for k in data.files if k != "meta"} == {np.dtype(np.float32)}


def test_bank_models_are_frozen_float64(tmp_path):
    """The bank casts each loaded model to the float64 evaluation precision
    and freezes it; the frozen model keeps its parameters."""
    cfg = tiny_config(tmp_path, methods=["none", "cae", "fc_ae"],
                      train={"epochs": 0, "stage1_epochs": 0})
    bank = harness._MethodBank(cfg, {arch: run_train(cfg, arch=arch)[0]
                                     for arch in ("cae", "fc_ae")})
    for method, model in bank.models.items():
        assert {a.dtype for _, a in model.named_state()} == {np.dtype(np.float64)}, method
        assert model.parameters(), method
        assert not any(p.requires_grad for p in model.parameters()), method


def test_every_method_feeds_the_amplifier_at_the_back_off(tmp_path):
    """Each waveform of every method reaches the PA at a0^2 * 10^(-IBO/10),
    and no method writes into the plain waveforms all of them share."""
    cfg = tiny_config(tmp_path, methods=["none", "cf", "slm", "cae", "fc_ae"],
                      hpa={"a0": 1.5}, train={"epochs": 0, "stage1_epochs": 0})
    checkpoints = {arch: run_train(cfg, arch=arch)[0] for arch in ("cae", "fc_ae")}
    bank = harness._MethodBank(cfg, checkpoints)
    blocks = qam4_map(np.random.default_rng(6).integers(0, 2, (64, 2 * cfg.system.n_subcarriers)))
    wave = ofdm_modulate(blocks, cfg.system.oversampling)
    sent = wave.copy()
    want = cfg.hpa.a0 ** 2 * 10.0 ** (-cfg.hpa.ibo_db / 10.0)
    for method in cfg.methods:
        x_unit, _ = bank.transmit(method, blocks, wave)
        x_f, _ = chain.front_end(Tensor(x_unit), cfg.hpa)
        np.testing.assert_allclose(np.mean(np.abs(x_f.data) ** 2, axis=-1), want, rtol=1e-12,
                                   err_msg=method)
        np.testing.assert_array_equal(wave, sent, err_msg=method)


def test_eval_runs_the_training_chain(tmp_path):
    """On one batch and one noise draw, the harness path (bank transmit,
    front_end, receive, decode) equals run_chain bit for bit."""
    cfg = tiny_config(tmp_path, methods=["cae"])
    ckpt, _ = run_train(cfg, arch="cae")
    bank = harness._MethodBank(cfg, {"cae": ckpt})
    model = bank.models["cae"]
    n, ell = cfg.system.n_subcarriers, cfg.system.oversampling
    blocks = qam4_map(np.random.default_rng(3).integers(0, 2, (16, 2 * n)))
    noise = complex_noise((16, n * ell), 10.0, cfg.hpa, np.random.default_rng(4))
    taps = chain.run_chain(model, ofdm_modulate(blocks, ell), cfg.hpa, noise)

    x_unit, _ = bank.transmit("cae", blocks, ofdm_modulate(blocks, ell))
    x_f, x_p = chain.front_end(Tensor(x_unit), cfg.hpa)
    alpha = bussgang_alpha(x_f.data, x_p.data)
    symbols = chain.receive(ad.add_constant(x_p, noise), alpha, ell).data
    decoded = model.decode(Tensor(symbols)).data

    assert alpha == taps.alpha
    np.testing.assert_array_equal(x_f.data, taps.x_f.data)
    np.testing.assert_array_equal(x_p.data, taps.x_p.data)
    np.testing.assert_array_equal(decoded, taps.decoded.data)
