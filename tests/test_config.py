import pytest

from paprlab.config import (
    ExperimentConfig,
    build_id,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from paprlab.errors import ConfigError


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
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = default_config()
        b = config_from_dict(config_to_dict(a))
        assert config_hash(a) == config_hash(b)
        c = config_from_dict({**config_to_dict(a), "seed": 7})
        assert config_hash(c) != config_hash(a)

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

    def test_default_config_has_36_values(self):
        def leaves(value):
            if isinstance(value, dict):
                return sum(leaves(v) for v in value.values())
            return 1
        assert leaves(config_to_dict(default_config())) == 36

    def test_invalid_value_names_section(self):
        with pytest.raises(ConfigError, match="hpa"):
            config_from_dict({"hpa": {"a0": -1.0}})

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
