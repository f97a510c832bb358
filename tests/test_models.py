import io
import json

import numpy as np
import pytest

from paprlab import chain, harness, models
from paprlab.autodiff import Tensor
from paprlab.config import config_from_dict, default_config
from paprlab.harness import build_model_from_config
from paprlab.models import (
    FcAeModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from paprlab.ofdm import ofdm_modulate, qam4_map
from paprlab.optim import AdamW
from paprlab.seeding import derive_seed


def small_cae(seed=1):
    return build_model({"kind": "cae", "n_subcarriers": 8, "oversampling": 4,
                        "enc_channels": [13, 11], "dec_channels": [11, 13], "seed": seed})


def small_fc_ae(hidden, seed):
    return build_model({"kind": "fc_ae", "n_subcarriers": 8, "oversampling": 4,
                        "hidden": hidden, "seed": seed})


def stock(arch):
    """The model the default config trains: 72 subcarriers, 4x oversampling."""
    return build_model_from_config(default_config(), arch)


class TestArchitecture:
    def test_transmitter_conv_weight_count_is_468(self):
        model = stock("cae")
        assert model.encoder.conv1.w.data.size + model.encoder.conv2.w.data.size == 468
        # 3*1*13 kernel weights in the first layer, 3*13*11 in the second
        assert model.encoder.conv1.w.data.size == 39
        assert model.encoder.conv2.w.data.size == 429

    def test_count_invariant_to_system_size(self):
        model = small_cae()
        assert model.encoder.conv1.w.data.size + model.encoder.conv2.w.data.size == 468

    def test_fc_ae_parameter_count_order(self):
        model = stock("fc_ae")  # 2500/3500 hidden
        assert 5e6 <= sum(p.data.size for p in model.parameters()) <= 5e7

    def test_forward_shapes(self):
        model = small_cae()
        model.eval()
        rng = np.random.default_rng(0)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (4, 16))), 4)
        tx = chain.transmit(model, Tensor(x))
        assert tx.data.shape == (4, 32)
        np.testing.assert_allclose(np.mean(np.abs(tx.data) ** 2, axis=-1), 1.0, rtol=1e-12)
        rx = model.decode(Tensor(np.zeros((4, 8), dtype=complex)))
        assert rx.data.shape == (4, 8)

    def test_fc_ae_forward(self):
        model = small_fc_ae([32, 48], seed=2)
        model.eval()
        rng = np.random.default_rng(2)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (4, 16))), 4)
        assert model.encode(Tensor(x)).data.shape == (4, 32)
        assert model.decode(Tensor(np.zeros((4, 8), complex))).data.shape == (4, 8)

    @pytest.mark.parametrize("arch", ["cae", "fc_ae"])
    def test_built_model_has_the_config_descriptor(self, arch):
        cfg = config_from_dict({"system": {"n_subcarriers": 8},
                                "model": {"fc_hidden": [16, 24]}, "seed": 3})
        descriptor = build_model_from_config(cfg, arch).descriptor()
        assert descriptor.pop("seed") == derive_seed(3, f"init/{arch}")
        assert descriptor == harness._descriptor(cfg, arch)

    def test_construction_is_seeded(self):
        a = small_cae(seed=7)
        b = small_cae(seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


def state_dtypes(model):
    return {array.dtype for _, array in model.named_state()}


FLOAT32 = {np.dtype(np.float32)}


class TestFloat32AtRest:
    @pytest.mark.parametrize("arch", ["cae", "fc_ae"])
    def test_built_model_is_float32(self, arch):
        assert state_dtypes(stock(arch)) == FLOAT32

    def test_loaded_model_is_float32(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, small_cae(seed=2))
        assert state_dtypes(load_checkpoint(path).model) == FLOAT32

    def test_float64_checkpoint_loads_to_the_same_float32_weights(self, tmp_path):
        """A checkpoint of float64 arrays, as earlier versions wrote it, loads
        to the float32 weights and buffers it was written from, bit for bit."""
        model = small_cae(seed=6)
        rng = np.random.default_rng(7)
        model.encode(Tensor(ofdm_modulate(qam4_map(rng.integers(0, 2, (8, 16))), 4)))
        want = dict(model.named_state())
        path = tmp_path / "f64.npz"
        save_checkpoint(path, model.astype(np.float64))
        with np.load(path) as data:
            assert {data[k].dtype for k in data.files if k.startswith("state/")} == {
                np.dtype(np.float64)}
        got = dict(load_checkpoint(path).model.named_state())
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == np.float32, name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_frozen_model_casts_saves_and_loads_whole(self, tmp_path):
        """A parameter with requires_grad False is still a parameter: the
        cast reaches it and the checkpoint holds it."""
        model = small_cae(seed=9)
        params = model.parameters()
        for p in params:
            p.requires_grad = False
        assert model.parameters() == params
        model.astype(np.float64)
        assert state_dtypes(model) == {np.dtype(np.float64)}
        path = tmp_path / "frozen.npz"
        save_checkpoint(path, model)
        want, got = dict(model.named_state()), dict(load_checkpoint(path).model.named_state())
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = small_cae(seed=3)
        # dirty the BN running stats so buffers are non-trivial
        rng = np.random.default_rng(4)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (8, 16))), 4)
        model.encode(Tensor(x))
        opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()

        path = tmp_path / "model.npz"
        save_checkpoint(path, model, optimizer=opt, epoch=5, seed=99)
        ck = load_checkpoint(path)
        assert ck.epoch == 5 and ck.seed == 99
        want = dict(model.named_state())
        got = dict(ck.model.named_state())
        assert sorted(want) == sorted(got)
        for name in want:
            np.testing.assert_array_equal(want[name], got[name], err_msg=name)
        assert ck.optimizer_state["step"] == 1
        for m_got, m_want in zip(ck.optimizer_state["m"], opt.m):
            np.testing.assert_array_equal(m_got, m_want)

    @pytest.mark.parametrize("name, value", [("running_mean", [5.0]),
                                             ("running_var", np.ones((1, 4), np.float32)),
                                             ("gamma", np.ones(1, np.float32))])
    def test_load_rejects_a_wrongly_shaped_entry(self, name, value):
        """A buffer or parameter of the wrong shape is an error, not broadcast."""
        bn = models.BatchNorm1d(4)
        state = dict(bn.named_state())
        state[name] = value
        kind = "buffer" if name.startswith("running") else "parameter"
        with pytest.raises(ValueError, match=f"shape mismatch for {kind} {name}"):
            bn.load_state_dict(state)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(4))

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that dies after writing part of its file leaves the previous
        checkpoint whole, bit for bit, and no temporary file."""
        path = tmp_path / "m.npz"
        model = small_cae(seed=10)
        save_checkpoint(path, model, epoch=1)
        before = path.read_bytes()
        real_savez = np.savez

        def dying_savez(fh, **arrays):
            whole = io.BytesIO()
            real_savez(whole, **arrays)
            fh.write(whole.getvalue()[:len(whole.getvalue()) // 2])
            raise OSError("killed while saving")
        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(OSError, match="killed"):
            save_checkpoint(path, small_cae(seed=11), epoch=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]
        ck = load_checkpoint(path)
        assert ck.epoch == 1
        want, got = dict(model.named_state()), dict(ck.model.named_state())
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_same_model_writes_identical_bytes(self, tmp_path):
        model = small_cae(seed=5)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(p1, model, epoch=1, seed=1)
        save_checkpoint(p2, model, epoch=1, seed=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fc_ae_roundtrip(self, tmp_path):
        model = small_fc_ae([16, 24], seed=6)
        path = tmp_path / "fc.npz"
        save_checkpoint(path, model)
        ck = load_checkpoint(path)
        assert isinstance(ck.model, FcAeModel)
        assert ck.model.descriptor() == model.descriptor()

    @pytest.mark.parametrize("model", [small_cae(seed=4), small_fc_ae([16, 24], seed=4)],
                             ids=["cae", "fc_ae"])
    def test_load_draws_no_weights(self, tmp_path, monkeypatch, model):
        path = tmp_path / "m.npz"
        save_checkpoint(path, model)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew a weight initialisation")
        monkeypatch.setattr(models, "_lecun_normal", no_draw)
        loaded = load_checkpoint(path).model
        assert type(loaded) is type(model)
        assert loaded.descriptor() == model.descriptor()
        want, got = dict(model.named_state()), dict(loaded.named_state())
        assert sorted(want) == sorted(got)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_format_1_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        save_checkpoint(path, small_cae())
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        # format 1 also described the removed layout/activation/kernel/padding
        meta["format"] = 1
        meta["arch"].update(layout="interleaved", activation="selu", kernel=3, padding=2)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint format 1"):
            load_checkpoint(path)

    def test_build_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_model({"kind": "mystery"})

    def test_reloaded_model_reproduces_outputs(self, tmp_path):
        model = small_cae(seed=8)
        model.eval()
        rng = np.random.default_rng(9)
        x = ofdm_modulate(qam4_map(rng.integers(0, 2, (4, 16))), 4)
        before = model.encode(Tensor(x)).data
        path = tmp_path / "m.npz"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path).model
        reloaded.eval()
        np.testing.assert_array_equal(reloaded.encode(Tensor(x)).data, before)
