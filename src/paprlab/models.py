"""Autoencoder transmitter/receiver models and checkpoint I/O.

Complex waveforms enter the networks as real tensors with re/im pairs
interleaved along a single channel (length 2M).  This keeps the first
transmitter convolution at one input channel and its two conv layers at 468
weights for the stock channel sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import BatchNorm1d, Conv1d, Linear, Module

__all__ = [
    "CaeModel",
    "FcAeModel",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

CHECKPOINT_FORMAT = 2

# Every conv layer has kernel 3; a full correlation grows its input by 2.
_KERNEL = 3

# Samples per block of a tape-free eval call (see _ConvCoder): the stock
# encoder's two stage outputs take 3.4 MiB per block in float64.
_EVAL_BLOCK = 32


class _ConvCoder(Module):
    """Two conv+BN+SELU stages followed by a linear layer, on complex data.

    A tape-free eval call runs both stages _EVAL_BLOCK samples at a time into
    the FC's input, so no full-batch stage output exists.  An eval-mode
    sample's stage output does not depend on its batch, so the bits are the
    whole batch's.  Training (batch statistics) and taped calls run the
    stages on the whole batch.
    """

    def __init__(self, seq_len: int, channels, rng: np.random.Generator | None):
        super().__init__()
        grown = 2 * seq_len + 2 * (_KERNEL - 1)
        self.conv1 = Conv1d(1, channels[0], rng, _KERNEL)
        self.bn1 = BatchNorm1d(channels[0])
        self.conv2 = Conv1d(channels[0], channels[1], rng, _KERNEL)
        self.bn2 = BatchNorm1d(channels[1])
        self.fc = Linear(channels[1] * grown, 2 * seq_len, rng)

    def _stages(self, x: Tensor) -> Tensor:
        for conv, bn in ((self.conv1, self.bn1), (self.conv2, self.bn2)):
            x = ad.conv_stage(x, conv.w, conv.b, bn.gamma, bn.beta, bn.running_mean,
                              bn.running_var, bn.training)
        return x

    def __call__(self, z: Tensor) -> Tensor:
        batch = z.shape[0]
        x = ad.reshape(ad.complex_to_interleaved(z), (batch, 1, -1))
        if self.training or x.requires_grad or any(p.requires_grad for p in self.parameters()):
            flat = ad.reshape(self._stages(x), (batch, -1))
        else:
            flat = Tensor(np.empty((batch, self.fc.w.shape[0]),
                                   np.result_type(x.data, self.conv1.w.data, self.conv2.w.data)))
            for lo in range(0, batch, _EVAL_BLOCK):
                block = self._stages(Tensor(x.data[lo:lo + _EVAL_BLOCK])).data
                flat.data[lo:lo + len(block)] = block.reshape(len(block), -1)
        return ad.interleaved_to_complex(self.fc(flat))


class _FcCoder(Module):
    """Fully connected stack on complex data, interleaved real layout."""

    def __init__(self, seq_len: int, hidden, rng: np.random.Generator | None):
        super().__init__()
        self.fc1 = Linear(2 * seq_len, hidden[0], rng)
        self.fc2 = Linear(hidden[0], hidden[1], rng)
        self.fc3 = Linear(hidden[1], 2 * seq_len, rng)

    def __call__(self, z: Tensor) -> Tensor:
        x = ad.complex_to_interleaved(z)
        x = ad.selu(self.fc1(x))
        x = ad.selu(self.fc2(x))
        return ad.interleaved_to_complex(self.fc3(x))


class _Autoencoder(Module):
    """An encoder/decoder pair built from its descriptor arguments.

    With rng None no weight is drawn: the weights stay unset until
    load_state_dict fills them.
    """

    def __init__(self, args: dict[str, Any], rng: np.random.Generator | None):
        super().__init__()
        self.n = args["n_subcarriers"]
        self.oversampling = args["oversampling"]
        self._args = args
        self.encoder, self.decoder = self._coders(rng)

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, **self._args}


class CaeModel(_Autoencoder):
    """Convolutional autoencoder: waveform-domain encoder, symbol-domain decoder."""

    kind = "cae"

    def __init__(self, n_subcarriers: int, oversampling: int, enc_channels: tuple[int, int],
                 dec_channels: tuple[int, int], seed: int):
        super().__init__(dict(n_subcarriers=n_subcarriers, oversampling=oversampling,
                              enc_channels=list(enc_channels), dec_channels=list(dec_channels),
                              seed=seed), np.random.default_rng(seed))

    def _coders(self, rng):
        return (_ConvCoder(self.n * self.oversampling, self._args["enc_channels"], rng),
                _ConvCoder(self.n, self._args["dec_channels"], rng))

    def encode(self, z: Tensor) -> Tensor:
        """Time waveform -> encoded waveform; chain.transmit band-limits it
        and sets its power."""
        return self.encoder(z)

    def decode(self, z: Tensor) -> Tensor:
        """Received symbol block -> reconstructed symbol block."""
        return self.decoder(z)


class FcAeModel(_Autoencoder):
    """Fully connected autoencoder ablation with the same chain interface."""

    kind = "fc_ae"

    def __init__(self, n_subcarriers: int, oversampling: int, hidden: tuple[int, int],
                 seed: int):
        super().__init__(dict(n_subcarriers=n_subcarriers, oversampling=oversampling,
                              hidden=list(hidden), seed=seed), np.random.default_rng(seed))

    def _coders(self, rng):
        return (_FcCoder(self.n * self.oversampling, self._args["hidden"], rng),
                _FcCoder(self.n, self._args["hidden"], rng))

    def encode(self, z: Tensor) -> Tensor:
        return self.encoder(z)

    def decode(self, z: Tensor) -> Tensor:
        return self.decoder(z)


def build_model(descriptor: dict[str, Any]):
    """A model of a checkpoint descriptor, its weights unset for
    load_state_dict to fill: no weight is drawn."""
    kinds = {cls.kind: cls for cls in (CaeModel, FcAeModel)}
    cls = kinds.get(descriptor.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {descriptor.get('kind')!r}")
    model = cls.__new__(cls)
    _Autoencoder.__init__(model, {k: v for k, v in descriptor.items() if k != "kind"}, None)
    return model


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

    Arrays round-trip bit-exactly, in the model's own dtype (float32 for a
    built, trained or loaded model); the architecture descriptor, epoch
    counter and seed travel in an embedded JSON record.  The file is written
    to <path>.tmp, synced and then renamed over path, so a run killed while
    saving leaves the previous checkpoint whole.
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
    tmp = Path(f"{os.fspath(path)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> Checkpoint:
    # the file is opened here, so it is closed also when np.load fails on it
    with open(path, "rb") as fh, np.load(fh) as data:
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
