import os
import re
import subprocess
import sys
from pathlib import Path

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

    def test_set_reads_exponent_without_point(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        hashes = []
        for lr in ("1e-3", "0.001"):
            out = tmp_path / lr
            assert main(["--config", str(cfg), "--set", f"train.lr={lr}",
                         "--set", f"output_dir={out}", "eval-ccdf"]) == 0
            hashes.append(read_curve(out / "ccdf.csv")[0]["config_hash"])
        assert hashes[0] == hashes[1]

    def test_set_non_number_for_a_number_is_config_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", "train.lr=abc", "eval-ccdf"]) == 2
        assert "config error: train: lr must be a number" in capsys.readouterr().err

    def test_set_non_string_output_dir_is_config_error(self, tmp_path, capsys, monkeypatch):
        """output_dir=5 reads as an int: rejected before any evaluation runs,
        so nothing is written."""
        cfg = write_tiny_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["--config", str(cfg), "--set", "output_dir=5", "eval-ber"]) == 2
        assert "config error: output_dir must be a string, got 5" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_bad_set_syntax(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", "train.epochs", "eval-ccdf"]) == 2

    @pytest.mark.parametrize("assignment", [
        "system.n_subcarriers=7", "eval.batch=0", "eval.ber_symbols=0", "eval.ber_symbols=-3",
        "train.batches_per_epoch=0", "hpa.ibo_db=.nan", "hpa.ibo_db=.inf", "hpa.a0=.inf",
        "hpa.p=.nan", "eval.p_snr_db=[.nan]", "eval.p_snr_db=[-.inf]",
        "train.snr_min_db=.nan", "train.lr=.nan", "train.weight_decay=.nan",
        "loss.lambda2=.nan", "acpr_req_db=.inf", "cf.clip_ratio_db=.nan",
        "train.batch_size=1", "train.batch_size=0", "train.batch_size=2.5", "eval.batch=2.5",
        "slm.num_sequences=2.5", "cf.iterations=1.5", "slm.rng_seed=-1",
        "model.enc_channels=[0,3]", "model.enc_channels=[3]", "model.fc_hidden=[10,20,30]",
        "model.enc_channels=[]", "methods=[none,none]", "methods=[]", "eval.p_snr_db=[6,6]",
        "eval.p_snr_db=[]", "eval.obo_acpr_ibo_db=[]", "train.snr_min_db=20",
        "methods=none", "output_dir=~",
    ])
    def test_invalid_size_is_config_error(self, tmp_path, capsys, assignment):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", assignment, "eval-ccdf"]) == 2
        # "config error: <section>: <field> must be a ...", no section at the root
        field = assignment.partition("=")[0].replace(".", ": ", 1)
        assert f"config error: {field} must be a" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "absent.yaml"
        assert main(["--config", str(path), "eval-ccdf"]) == 2
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err

    def test_config_file_yaml_error_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("train: {epochs: 3\n")
        assert main(["--config", str(path), "eval-ccdf"]) == 2
        assert f"config error: config file {path} is not valid YAML" in capsys.readouterr().err

    def test_set_yaml_error_is_config_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "--set", "eval.p_snr_db=[6, 8", "eval-ccdf"]) == 2
        assert ("config error: --set eval.p_snr_db: '[6, 8' is not a YAML value"
                in capsys.readouterr().err)

    def test_missing_checkpoint_file_is_config_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, methods=["none", "cae"])
        path = tmp_path / "absent.npz"
        assert main(["--config", str(cfg), "eval-ccdf", "--checkpoint", f"cae={path}"]) == 2
        assert f"config error: cannot read checkpoint {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"not a checkpoint", b"", b"PK\x03\x04 cut short"],
                             ids=["text", "empty", "truncated-zip"])
    def test_foreign_checkpoint_file_is_config_error(self, tmp_path, capsys, content):
        cfg = write_tiny_config(tmp_path, methods=["none", "cae"])
        path = tmp_path / "foreign.npz"
        path.write_bytes(content)
        assert main(["--config", str(cfg), "eval-ccdf", "--checkpoint", f"cae={path}"]) == 2
        assert f"config error: {path} is not a paprlab checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("name, save", [("arrays.npz", lambda p: np.savez(p, a=np.zeros(3))),
                                            ("array.npy", lambda p: np.save(p, np.zeros(3)))])
    def test_numpy_file_without_metadata_is_config_error(self, tmp_path, capsys, name, save):
        cfg = write_tiny_config(tmp_path, methods=["none", "cae"])
        path = tmp_path / name
        save(path)
        assert main(["--config", str(cfg), "eval-ccdf", "--checkpoint", f"cae={path}"]) == 2
        assert "is not a paprlab checkpoint" in capsys.readouterr().err

    def test_unknown_config_field_reports_name(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"train": {"warmup": 3}}))
        assert main(["--config", str(path), "eval-ccdf"]) == 2
        assert "train.warmup" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "eval-ccdf"]) == 0
        first = (tmp_path / "out" / "ccdf.csv").read_bytes()
        assert main(["--config", str(cfg), "--set", "seed=6", "eval-ccdf"]) == 0
        second = (tmp_path / "out" / "ccdf.csv").read_bytes()
        assert first != second

    @pytest.mark.parametrize("flag, value", [("--seed", "6"), ("--output-dir", "elsewhere")])
    def test_config_values_have_no_own_flag(self, tmp_path, capsys, flag, value):
        """The seed and output directory are config values, set with --set."""
        cfg = write_tiny_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), flag, value, "eval-ccdf"])
        assert exc.value.code == 2
        assert "paprlab: error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["--config", str(cfg), "train"]) == 0
        files = ["cae.npz", "train_cae.csv", "train_cae_summary.json"]
        snapshot = {f: (tmp_path / "out" / f).read_bytes() for f in files}
        assert main(["--config", str(cfg), "train"]) == 0
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == snapshot[f], f

    def test_schedule_override(self, tmp_path):
        """An ablation run goes to its own output_dir; train has no --tag."""
        cfg = write_tiny_config(tmp_path)
        fixed = tmp_path / "fixed"
        assert main(["--config", str(cfg), "--set", "train.schedule=fixed",
                     "--set", f"output_dir={fixed}", "train"]) == 0
        _, _, rows = read_curve(fixed / "train_cae.csv")
        assert rows[0][1] == "2"  # stage 2 from the first epoch
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "train", "--tag", "cae_fixed"])
        assert exc.value.code == 2


def test_module_entry_point_offers_config_and_set_only():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "paprlab.cli", "--help"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", done.stdout)) == {
        "--help", "--config", "--set"}
