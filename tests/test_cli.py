import numpy as np
import pytest
import yaml

from paprlab.cli import main
from paprlab.curvefile import read_curve


def write_tiny_config(tmp_path, **extra):
    data = {
        "system": {"n_subcarriers": 8, "oversampling": 4},
        "model": {"enc_channels": [4, 3], "dec_channels": [3, 4], "fc_hidden": [16, 24]},
        "train": {"epochs": 1, "batches_per_epoch": 4, "batch_size": 8,
                  "stage1_epochs": 0, "snr_min_db": 10.0, "snr_max_db": 10.0},
        "eval": {"p_snr_db": [10.0], "ber_symbols": 200, "ccdf_symbols": 200,
                 "psd_symbols": 200, "table_symbols": 200, "batch": 100,
                 "obo_acpr_ibo_db": [3.0]},
        "methods": ["none", "cf"],
        "slm": {"num_sequences": 4},
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestCli:
    def test_selftest_exit_code(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL " not in out
        assert "(theta=0.95)" in out

    def test_train_then_eval_table(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "train", "--arch", "cae"]) == 0
        assert (tmp_path / "out" / "cae.npz").exists()
        assert (tmp_path / "out" / "train_cae.csv").exists()
        assert main(["--config", str(cfg), "eval-table"]) == 0
        out = capsys.readouterr().out
        assert "ACPR" in out
        assert (tmp_path / "out" / "table.csv").exists()

    def test_eval_with_checkpoint_flag(self, tmp_path):
        cfg = write_tiny_config(tmp_path, methods=["none", "cae"])
        assert main(["--config", str(cfg), "train"]) == 0
        ckpt = tmp_path / "out" / "cae.npz"
        assert main(["--config", str(cfg), "eval-ccdf",
                     "--checkpoint", f"cae={ckpt}"]) == 0
        _, _, rows = read_curve(tmp_path / "out" / "ccdf.csv")
        assert {r[2] for r in rows} == {"none", "cae"}

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, methods=["none", "cae"])
        assert main(["--config", str(cfg), "eval-ber"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out2 = tmp_path / "other"
        assert main(["--config", str(cfg), "--set", f"output_dir={out2}",
                     "--set", "eval.ccdf_symbols=100", "eval-ccdf"]) == 0
        meta, _, _ = read_curve(out2 / "ccdf.csv")
        assert meta["symbols"] == "100"

    def test_bad_set_syntax(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", "train.epochs", "eval-ccdf"]) == 2

    def test_unknown_config_field_reports_name(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"train": {"warmup": 3}}))
        assert main(["--config", str(path), "eval-ccdf"]) == 2
        assert "train.warmup" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "eval-ccdf"]) == 0
        first = (tmp_path / "out" / "ccdf.csv").read_bytes()
        assert main(["--config", str(cfg), "--seed", "6", "eval-ccdf"]) == 0
        second = (tmp_path / "out" / "ccdf.csv").read_bytes()
        assert first != second

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "train"]) == 0
        files = ["cae.npz", "train_cae.csv", "train_cae_summary.json"]
        snapshot = {f: (tmp_path / "out" / f).read_bytes() for f in files}
        assert main(["--config", str(cfg), "train"]) == 0
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == snapshot[f], f

    def test_output_dir_env(self, tmp_path, monkeypatch):
        data = {
            "system": {"n_subcarriers": 8, "oversampling": 4},
            "eval": {"p_snr_db": [10.0], "ccdf_symbols": 100, "batch": 100},
            "methods": ["none"],
            "seed": 5,
        }
        cfg = tmp_path / "noout.yaml"
        cfg.write_text(yaml.safe_dump(data))
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("PAPRLAB_OUTPUT_DIR", str(env_dir))
        assert main(["--config", str(cfg), "eval-ccdf"]) == 0
        assert (env_dir / "ccdf.csv").exists()

    def test_schedule_override(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", "train.schedule=fixed", "train",
                     "--tag", "cae_fixed"]) == 0
        _, _, rows = read_curve(tmp_path / "out" / "train_cae_fixed.csv")
        assert rows[0][1] == "2"  # stage 2 from the first epoch
