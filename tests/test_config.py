import math

import pytest
import yaml

from paprlab.config import (
    ConfigError,
    ExperimentConfig,
    build_id,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
)


class TestDefaults:
    def test_stock_values(self):
        cfg = default_config()
        assert cfg.system.n_subcarriers == 72
        assert cfg.system.oversampling == 4
        assert cfg.hpa.p == 2.0
        assert cfg.acpr_req_db == -45.0
        assert cfg.cf.clip_ratio_db == pytest.approx(1.58)
        assert cfg.slm.num_sequences == 128
        assert cfg.train.epochs == 160
        assert cfg.train.batches_per_epoch == 4375
        assert cfg.train.batch_size == 32
        assert cfg.loss.lambda2 == pytest.approx(0.004)
        assert cfg.loss.lambda3 == pytest.approx(0.001)
        assert cfg.model.enc_channels == (13, 11)
        assert cfg.model.fc_hidden == (2500, 3500)


class TestRoundTrip:
    def test_dict_roundtrip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_roundtrip(self, tmp_path):
        cfg = config_from_dict({
            "system": {"n_subcarriers": 16},
            "train": {"epochs": 2, "batches_per_epoch": 3, "batch_size": 4,
                      "stage1_epochs": 1},
            "methods": ["none", "cf"],
            "seed": 99,
        })
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(cfg)), encoding="utf-8")
        assert load_config(path) == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = default_config()
        b = config_from_dict(config_to_dict(a))
        assert config_hash(a) == config_hash(b)
        c = config_from_dict({**config_to_dict(a), "seed": 7})
        assert config_hash(c) != config_hash(a)

    def test_whole_number_for_a_float_hashes_as_the_float(self):
        data = config_to_dict(default_config())
        data["hpa"]["a0"] = 1
        data["train"]["lr"] = 0.001
        data["eval"]["p_snr_db"] = [6, 8.0, 10, 12, 14, 16]
        cfg = config_from_dict(data)
        assert type(cfg.hpa.a0) is float and type(cfg.eval.p_snr_db[0]) is float
        assert cfg == default_config()
        assert config_hash(cfg) == config_hash(default_config())

    def test_exponent_without_point_is_a_float(self, tmp_path):
        # YAML 1.1 reads 1e-3 as a string; the config reads YAML 1.2's float
        path = tmp_path / "cfg.yaml"
        path.write_text("train: {lr: 1e-3}\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.train.lr == 0.001
        assert config_hash(cfg) == config_hash(config_from_dict({"train": {"lr": 0.001}}))

    def test_exponent_for_a_whole_number_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("train: {epochs: 1e3}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="train: epochs must be a whole number"):
            load_config(path)

    def test_build_id_shape(self):
        bid = build_id()
        assert len(bid) == 12
        int(bid, 16)


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown config field bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_field_names_path(self):
        with pytest.raises(ConfigError, match="train.warmup"):
            config_from_dict({"train": {"warmup": 5}})

    @pytest.mark.parametrize("path", ["model.complex_layout", "model.activation", "model.kernel",
                                      "model.padding", "system.constellation", "train.acpr_hinge",
                                      "train.l2_mode", "loss.lambda1", "eval.ccdf_min_db",
                                      "eval.ccdf_max_db", "eval.ccdf_step_db", "train.beta1",
                                      "train.beta2", "train.eps"])
    def test_deleted_switch_names_its_path(self, path):
        # a config written for a deleted option fails loudly, naming the option
        section, key = path.split(".")
        with pytest.raises(ConfigError, match=f"unknown config field {path}"):
            config_from_dict({section: {key: 1}})

    def test_default_config_hash_is_pinned(self):
        assert config_hash(default_config()) == "4bdef5a0f5f308ca"

    def test_default_config_has_35_values(self):
        def leaves(value):
            if isinstance(value, dict):
                return sum(leaves(v) for v in value.values())
            return 1
        assert leaves(config_to_dict(default_config())) == 35

    def test_invalid_value_names_section(self):
        with pytest.raises(ConfigError, match="hpa"):
            config_from_dict({"hpa": {"a0": -1.0}})

    @pytest.mark.parametrize("section, key, value, message", [
        ("system", "n_subcarriers", 7, "positive even"),
        ("system", "n_subcarriers", 0, "positive even"),
        ("eval", "batch", 0, "positive count"),
        ("eval", "batch", -5, "positive count"),
        ("eval", "ber_symbols", 0, "positive count"),
        ("eval", "ber_symbols", -3, "positive count"),
        ("eval", "table_symbols", 0, "positive count"),
        ("eval", "p_snr_db", [math.nan], "finite dB value or inf"),
        ("eval", "p_snr_db", [10.0, -math.inf], "finite dB value or inf"),
        ("eval", "obo_acpr_ibo_db", [3.0, math.inf], "finite grid"),
        ("train", "batches_per_epoch", 0, "positive count"),
        ("hpa", "ibo_db", math.nan, "finite number"),
        ("hpa", "ibo_db", math.inf, "finite number"),
        ("hpa", "a0", math.inf, "finite number"),
        ("hpa", "p", math.nan, "finite number"),
        ("train", "snr_min_db", math.nan, "finite number"),
        ("train", "snr_max_db", -math.inf, "finite number"),
        ("train", "lr", math.nan, "finite number"),
        ("train", "weight_decay", math.nan, "finite number"),
        ("loss", "lambda2", math.nan, "finite nonnegative number"),
        ("loss", "lambda3", -0.5, "finite nonnegative number"),
        ("cf", "clip_ratio_db", math.nan, "finite number"),
        ("train", "batch_size", 1, "count of at least 2"),
        ("train", "batch_size", 0, "count of at least 2"),
        ("train", "batch_size", 2.5, "whole number"),
        ("train", "epochs", True, "whole number"),
        ("eval", "batch", 2.5, "whole number"),
        ("slm", "num_sequences", 2.5, "whole number"),
        ("cf", "iterations", 1.5, "whole number"),
        ("slm", "rng_seed", -1, "nonnegative integer"),
        ("model", "enc_channels", [0, 3], "list of positive sizes"),
        ("model", "fc_hidden", [24, 2.5], "list of whole numbers"),
        ("model", "dec_channels", 4, "list of whole numbers"),
        ("model", "enc_channels", [3], "list of positive sizes, exactly two"),
        ("model", "fc_hidden", [10, 20, 30], "list of positive sizes, exactly two"),
        ("model", "enc_channels", [], "list of positive sizes, exactly two"),
        ("eval", "p_snr_db", [6.0, 6.0], "nonempty list of distinct values"),
        ("eval", "p_snr_db", [], "nonempty list of distinct values"),
        ("eval", "obo_acpr_ibo_db", [], "nonempty list of distinct values"),
        ("eval", "obo_acpr_ibo_db", [2.0, 5.0, 2.0], "nonempty list of distinct values"),
        ("", "methods", ["none", "none"], "nonempty list of distinct values"),
        ("", "methods", [], "nonempty list of distinct values"),
        ("train", "lr", 0.0, "positive number"),
        ("train", "lr", -0.001, "positive number"),
        ("train", "weight_decay", -0.01, r"number in \[0, 1/lr\)"),
        ("train", "weight_decay", 1000.0, r"number in \[0, 1/lr\)"),
        ("train", "weight_decay", 2500.0, r"number in \[0, 1/lr\)"),
        ("train", "snr_min_db", 20.0, "number at most snr_max_db"),
        ("hpa", "a0", True, "number"),
        ("train", "lr", "fast", "number"),
        ("eval", "p_snr_db", [6.0, False], "list of numbers"),
        ("eval", "obo_acpr_ibo_db", 3.0, "list of numbers"),
        ("", "output_dir", 5, "string"),
        ("", "output_dir", None, "string"),
        ("", "methods", "none", "list of strings"),
        ("", "methods", ["none", 3], "list of strings"),
        ("hpa", "a0", [1.0, 2.0], "number"),
    ])
    def test_invalid_size_names_section(self, section, key, value, message):
        """An empty section is the config root, whose messages carry no prefix."""
        data, prefix = ({section: {key: value}}, f"{section}: ") if section else ({key: value}, "")
        with pytest.raises(ConfigError, match=f"{prefix}{key} must be a {message}"):
            config_from_dict(data)

    def test_whole_number_beyond_float_range_is_config_error(self):
        with pytest.raises(ConfigError, match="hpa: int too large"):
            config_from_dict({"hpa": {"ibo_db": 10 ** 400}})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_acpr_req_db_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="acpr_req_db must be a finite number"):
            config_from_dict({"acpr_req_db": value})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"methods": ["none", "pts"]})

    def test_non_mapping_section(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            config_from_dict({"train": 5})

    def test_frozen(self):
        cfg = default_config()
        with pytest.raises(Exception):
            cfg.seed = 1
