"""Autoencoder transmitter/receiver models and checkpoint I/O.

Complex waveforms enter the networks as real tensors.  The default
"interleaved" layout lays re/im pairs along a single channel (length 2M),
which keeps the first transmitter convolution at one input channel and its
two conv layers at 468 weights for the stock channel sizes; the alternative
"channels" layout uses two channels of length M.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import BatchNorm1d, Conv1d, Linear, Module, activation_fn

__all__ = [
    "CaeModel",
    "FcAeModel",
    "build_model",
    "transmitter_conv_weight_count",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

CHECKPOINT_FORMAT = 1


class _ConvCoder(Module):
    """Two conv+BN+activation stages followed by a linear layer, on complex data."""

    def __init__(self, seq_len: int, channels: tuple[int, int], rng: np.random.Generator,
                 layout: str = "interleaved", activation: str = "selu",
                 kernel: int = 3, padding: int = 2):
        super().__init__()
        if layout not in ("interleaved", "channels"):
            raise ValueError(f"unknown complex layout {layout!r}")
        self.seq_len = seq_len
        self.layout = layout
        self.act = activation_fn(activation)
        in_channels = 1 if layout == "interleaved" else 2
        base_len = 2 * seq_len if layout == "interleaved" else seq_len
        grown = base_len + 2 * (2 * padding - kernel + 1)
        self.conv1 = Conv1d(in_channels, channels[0], rng, kernel, padding)
        self.bn1 = BatchNorm1d(channels[0])
        self.conv2 = Conv1d(channels[0], channels[1], rng, kernel, padding)
        self.bn2 = BatchNorm1d(channels[1])
        self.fc = Linear(channels[1] * grown, 2 * seq_len, rng)

    def __call__(self, z: Tensor) -> Tensor:
        batch = z.shape[0]
        if self.layout == "interleaved":
            x = ad.reshape(ad.complex_to_interleaved(z), (batch, 1, 2 * self.seq_len))
        else:
            x = ad.complex_to_channels(z)
        x = self.act(self.bn1(self.conv1(x)))
        x = self.act(self.bn2(self.conv2(x)))
        x = self.fc(ad.reshape(x, (batch, -1)))
        if self.layout == "interleaved":
            return ad.interleaved_to_complex(x)
        return ad.channels_to_complex(ad.reshape(x, (batch, 2, self.seq_len)))


class _FcCoder(Module):
    """Fully connected stack on complex data, interleaved real layout."""

    def __init__(self, seq_len: int, hidden: tuple[int, int], rng: np.random.Generator,
                 activation: str = "selu"):
        super().__init__()
        self.seq_len = seq_len
        self.act = activation_fn(activation)
        self.fc1 = Linear(2 * seq_len, hidden[0], rng)
        self.fc2 = Linear(hidden[0], hidden[1], rng)
        self.fc3 = Linear(hidden[1], 2 * seq_len, rng)

    def __call__(self, z: Tensor) -> Tensor:
        x = ad.complex_to_interleaved(z)
        x = self.act(self.fc1(x))
        x = self.act(self.fc2(x))
        return ad.interleaved_to_complex(self.fc3(x))


class CaeModel(Module):
    """Convolutional autoencoder: waveform-domain encoder, symbol-domain decoder."""

    kind = "cae"

    def __init__(self, n_subcarriers: int = 72, oversampling: int = 4,
                 enc_channels: tuple[int, int] = (13, 11),
                 dec_channels: tuple[int, int] = (11, 13),
                 layout: str = "interleaved", activation: str = "selu",
                 kernel: int = 3, padding: int = 2, seed: int = 0):
        super().__init__()
        self.n = n_subcarriers
        self.oversampling = oversampling
        self._args = dict(n_subcarriers=n_subcarriers, oversampling=oversampling,
                          enc_channels=list(enc_channels), dec_channels=list(dec_channels),
                          layout=layout, activation=activation, kernel=kernel,
                          padding=padding, seed=seed)
        rng = np.random.default_rng(seed)
        self.encoder = _ConvCoder(n_subcarriers * oversampling, tuple(enc_channels), rng,
                                  layout, activation, kernel, padding)
        self.decoder = _ConvCoder(n_subcarriers, tuple(dec_channels), rng,
                                  layout, activation, kernel, padding)

    def encode(self, z: Tensor) -> Tensor:
        """Time waveform -> unit-mean-power transmit waveform."""
        return ad.power_norm(self.encoder(z))

    def decode(self, z: Tensor) -> Tensor:
        """Received symbol block -> reconstructed symbol block."""
        return self.decoder(z)

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, **self._args}


class FcAeModel(Module):
    """Fully connected autoencoder ablation with the same chain interface."""

    kind = "fc_ae"

    def __init__(self, n_subcarriers: int = 72, oversampling: int = 4,
                 hidden: tuple[int, int] = (2500, 3500), activation: str = "selu",
                 seed: int = 0):
        super().__init__()
        self.n = n_subcarriers
        self.oversampling = oversampling
        self._args = dict(n_subcarriers=n_subcarriers, oversampling=oversampling,
                          hidden=list(hidden), activation=activation, seed=seed)
        rng = np.random.default_rng(seed)
        self.encoder = _FcCoder(n_subcarriers * oversampling, tuple(hidden), rng, activation)
        self.decoder = _FcCoder(n_subcarriers, tuple(hidden), rng, activation)

    def encode(self, z: Tensor) -> Tensor:
        return ad.power_norm(self.encoder(z))

    def decode(self, z: Tensor) -> Tensor:
        return self.decoder(z)

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, **self._args}


def build_model(descriptor: dict[str, Any]):
    """Reconstruct a model from its checkpoint descriptor."""
    args = {k: v for k, v in descriptor.items() if k != "kind"}
    for key in ("enc_channels", "dec_channels", "hidden"):
        if key in args:
            args[key] = tuple(args[key])
    kind = descriptor.get("kind")
    if kind == "cae":
        return CaeModel(**args)
    if kind == "fc_ae":
        return FcAeModel(**args)
    raise ValueError(f"unknown model kind {kind!r}")


def transmitter_conv_weight_count(model: CaeModel) -> int:
    """Number of weights (excluding biases) in the encoder's conv layers."""
    return model.encoder.conv1.w.data.size + model.encoder.conv2.w.data.size


# -- checkpointing -------------------------------------------------------------


@dataclass
class Checkpoint:
    model: Module
    epoch: int
    seed: int | None
    optimizer_state: dict | None
    meta: dict


def save_checkpoint(path, model, optimizer=None, epoch: int = 0, seed: int | None = None,
                    extra_meta: dict | None = None):
    """Write a model (and optional optimizer state) to a versioned .npz file.

    Arrays round-trip bit-exactly; the architecture descriptor, epoch counter
    and seed travel in an embedded JSON record.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "arch": model.descriptor(),
        "epoch": epoch,
        "seed": seed,
        "extra": extra_meta or {},
    }
    # written at once, so the live arrays need no snapshot copy
    arrays = {"state/" + name: arr for name, arr in model.named_state()}
    if optimizer is not None:
        opt_state = optimizer.state_dict()
        meta["optimizer"] = {"step": opt_state["step"]}
        for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
            arrays[f"opt/{i}/m"] = m
            arrays[f"opt/{i}/v"] = v
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> Checkpoint:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {meta.get('format')!r}")
        model = build_model(meta["arch"])
        state = {key[len("state/"):]: data[key] for key in data.files if key.startswith("state/")}
        model.load_state_dict(state)
        optimizer_state = None
        if "optimizer" in meta:
            count = len(list(model.parameters()))
            optimizer_state = {
                "step": meta["optimizer"]["step"],
                "m": [data[f"opt/{i}/m"] for i in range(count)],
                "v": [data[f"opt/{i}/v"] for i in range(count)],
            }
    return Checkpoint(model=model, epoch=meta["epoch"], seed=meta["seed"],
                      optimizer_state=optimizer_state, meta=meta)
