import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from paprlab import autodiff as ad
from paprlab import chain, harness
from paprlab.autodiff import Tensor
from paprlab.channel import complex_noise
from paprlab.config import config_from_dict
from paprlab.curvefile import read_curve, write_curve
from paprlab.errors import ConfigError
from paprlab.harness import (
    eval_ber,
    eval_ccdf,
    eval_obo_vs_acpr,
    eval_psd,
    eval_table,
    run_selftest,
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
        write_curve(path, {}, ["x"], [(value,)])
        _, _, rows = read_curve(path)
        assert float(rows[0][0]) == value

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            write_curve(tmp_path / "c.csv", {}, ["x", "y"], [(1.0,)])


class TestRunTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ckpt, log = run_train(cfg, arch="cae")
        assert ckpt.exists() and log.exists()
        meta, columns, rows = read_curve(log)
        assert columns[0] == "epoch"
        assert len(rows) == 2  # one row per epoch
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
        cfg = tiny_config(tmp_path, eval={"linear_chain": True, "p_snr_db": [-3.0, 40.0]})
        meta, columns, rows = read_curve(eval_ber(cfg))
        assert meta["ci"] == "95% Wilson score"
        col = {name: i for i, name in enumerate(columns)}
        zero = [r for r in rows if int(r[col["errors"]]) == 0]
        assert zero and len(zero) < len(rows)
        for r in zero:
            assert float(r[col["ci_low"]]) == 0.0 < float(r[col["ci_high"]])
        for r in rows:
            assert float(r[col["ci_low"]]) <= float(r[col["ber"]]) <= float(r[col["ci_high"]])

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

    def test_table_values_reasonable(self, tmp_path):
        cfg = tiny_config(tmp_path, eval={"table_symbols": 1000})
        table, path = eval_table(cfg)
        assert set(table) == {"none", "cf", "slm"}
        for method, entry in table.items():
            assert -60 < entry["acpr_db"] < -5
            assert entry["obo_db"] == pytest.approx(cfg.hpa.ibo_db, abs=0.01)

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

    def test_linear_chain_mode_matches_analytic_ber(self, tmp_path):
        """Gray 4-QAM through the linear chain tracks Q(sqrt(L*snr))."""
        cfg = tiny_config(tmp_path, methods=["none"],
                          eval={"linear_chain": True, "ber_symbols": 4000,
                                "p_snr_db": [-6.0, -3.0, 0.0]})
        eval_ber(cfg)
        _, _, rows = read_curve(tmp_path / "out" / "ber.csv")
        ell = cfg.system.oversampling
        for row in rows:
            snr = 10 ** (float(row[0]) / 10)
            want = 0.5 * math.erfc(math.sqrt(ell * snr / 2))
            got = float(row[1])
            n_bits = int(row[3])
            assert abs(got - want) < 4 * math.sqrt(want * (1 - want) / n_bits) + 1e-4


def test_selftest_battery_passes():
    results = run_selftest()
    assert all(ok for _, ok, _ in results), [n for n, ok, _ in results if not ok]


def _data_digest(path) -> str:
    """sha256 of a curve file without its `# ` meta lines (build and config
    hash change with every source edit; the column header and rows do not)."""
    body = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("# ")]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


# Data rows of the five curve files at tiny_config.  A change to one of these
# changes a published number; re-pin only on purpose and say why.
GOLDEN_ROWS = {
    "ber.csv": "57c6dd5291aad99371148951a404a3bf3a7a645ed3ae0ff88d63cfc2469b8815",
    "ccdf.csv": "7593dbf8871563169d95ab9ea2f595d8cdce08f4d50ea9def75d008806637035",
    "psd.csv": "632a2e4616bcd68b50393efc62b9bf9a90275818eea99e138bd37165e4fc77b2",
    "table.csv": "998d4eab6995253f0671ba302d3570fac61e5ab516caa3a4c151ad68b14182bd",
    "obo_acpr.csv": "ba16239d71451d26fb6197e95e59e5fdeca8c88076d27cf087000fb0067ef056",
}


def test_golden_curve_rows(tmp_path):
    cfg = tiny_config(tmp_path)
    paths = [eval_ber(cfg), eval_ccdf(cfg), eval_psd(cfg), eval_table(cfg)[1],
             eval_obo_vs_acpr(cfg)]
    assert {p.name: _data_digest(p) for p in paths} == GOLDEN_ROWS


@pytest.mark.parametrize("command, symbols_key, grid_key", [
    (eval_ber, "ber_symbols", "p_snr_db"),
    (eval_ccdf, "ccdf_symbols", None),
    (eval_psd, "psd_symbols", None),
    (lambda cfg: eval_table(cfg)[1], "table_symbols", None),
    (eval_obo_vs_acpr, "table_symbols", "obo_acpr_ibo_db"),
], ids=["ber", "ccdf", "psd", "table", "obo_acpr"])
def test_each_batch_is_transmitted_once(tmp_path, monkeypatch, command, symbols_key,
                                        grid_key):
    """Symbols transmitted per method are ceil(symbols / batch) * batch,
    whatever the length of the command's SNR or IBO grid."""
    counts = Counter()
    transmit = harness._MethodBank.transmit

    def counting(bank, method, blocks):
        counts[method] += len(blocks)
        return transmit(bank, method, blocks)

    monkeypatch.setattr(harness._MethodBank, "transmit", counting)
    grids = [[8.0], [2.0, 5.0, 8.0]] if grid_key else [None]
    for grid in grids:
        counts.clear()
        overrides = {symbols_key: 450, "batch": 200}
        if grid_key:
            overrides[grid_key] = grid
        command(tiny_config(tmp_path, eval=overrides))
        assert counts == {m: math.ceil(450 / 200) * 200 for m in ("none", "cf", "slm")}


def test_bank_models_record_no_tape(tmp_path):
    cfg = tiny_config(tmp_path, methods=["none", "cae"],
                      train={"epochs": 0, "stage1_epochs": 0})
    ckpt, _ = run_train(cfg, arch="cae")
    bank = harness._MethodBank(cfg, {"cae": ckpt})
    x = np.ones((2, 32), dtype=complex)
    encoded = bank.models["cae"].encode(Tensor(x))
    assert encoded._backward is None
    # the tape does not change the numbers
    reference = load_checkpoint(ckpt).model.eval()
    np.testing.assert_array_equal(encoded.data, reference.encode(Tensor(x)).data)


@pytest.mark.parametrize("linear_chain", [False, True])
def test_eval_runs_the_training_chain(tmp_path, linear_chain):
    """On one batch and one noise draw, the harness path (bank transmit,
    front_end, receive, decode) equals run_chain bit for bit."""
    cfg = tiny_config(tmp_path, methods=["cae"])
    ckpt, _ = run_train(cfg, arch="cae")
    bank = harness._MethodBank(cfg, {"cae": ckpt})
    model = bank.models["cae"]
    n, ell = cfg.system.n_subcarriers, cfg.system.oversampling
    blocks = qam4_map(np.random.default_rng(3).integers(0, 2, (16, 2 * n)))
    noise = complex_noise((16, n * ell), 10.0, cfg.hpa, np.random.default_rng(4))
    taps = chain.run_chain(model, ofdm_modulate(blocks, ell), cfg.hpa, p_snr_db=10.0,
                           noise=noise, linear_chain=linear_chain)

    x_unit, _ = bank.transmit("cae", blocks)
    x_f, x_p, alpha = chain.front_end(Tensor(x_unit), cfg.hpa, linear_chain)
    symbols = chain.receive(ad.add_constant(x_p, noise), alpha, ell).data
    decoded = model.decode(Tensor(symbols)).data

    assert alpha == taps.alpha
    np.testing.assert_array_equal(x_f.data, taps.x_f.data)
    np.testing.assert_array_equal(x_p.data, taps.x_p.data)
    np.testing.assert_array_equal(decoded, taps.decoded.data)
