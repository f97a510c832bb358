"""Autoencoder transmitter/receiver models, the layers that hold their
parameters, and checkpoint I/O.

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

__all__ = [
    "Module",
    "Linear",
    "Conv1d",
    "BatchNorm1d",
    "CaeModel",
    "FcAeModel",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

_CHECKPOINT_FORMAT = 2

# Every conv layer has kernel 3; a full correlation grows its input by 2.
_KERNEL = 3

# Samples per block of a tape-free eval call (see _ConvCoder): the stock
# encoder's two stage outputs take 3.4 MiB per block in float64.
_EVAL_BLOCK = 32


class Module:
    """Base class: tracks parameters, buffers and train/eval mode.

    Child modules and parameters are discovered from instance attributes in
    definition order, which keeps parameter ordering (and therefore optimizer
    state and checkpoints) deterministic.  Every Tensor attribute is a
    parameter, frozen or not.  Parameters and buffers are float32, the
    training precision, from construction on.
    """

    def __init__(self):
        self.training = True

    def _modules(self, prefix: str = ""):
        """(prefix, module) for this module and each descendant, pre-order."""
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._modules(prefix + name + ".")

    def named_parameters(self):
        for prefix, module in self._modules():
            for name, value in vars(module).items():
                if isinstance(value, Tensor):
                    yield prefix + name, value

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        for prefix, module in self._modules():
            for name in getattr(module, "_buffer_names", ()):
                yield prefix + name, getattr(module, name)

    def train(self, mode: bool = True):
        for _, module in self._modules():
            module.training = mode
        return self

    def eval(self):
        return self.train(False)

    def named_state(self):
        """(name, live array) for every parameter, then every buffer."""
        for name, p in self.named_parameters():
            yield name, p.data
        yield from self.named_buffers()

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Fill every parameter and buffer from state, cast to float32; a
        float32 parameter array is taken over, not copied.  ValueError if an
        array's shape is not its entry's, KeyError on a missing or unknown
        entry."""
        expected = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for name, array in state.items():
            if name in expected:
                if expected[name].data.shape != np.shape(array):
                    raise ValueError(f"shape mismatch for parameter {name}")
                expected[name].data = np.asarray(array, dtype=np.float32)
            elif name in buffers:
                if buffers[name].shape != np.shape(array):
                    raise ValueError(f"shape mismatch for buffer {name}")
                buffers[name][...] = array
            else:
                raise KeyError(f"unexpected state entry {name}")
        missing = (set(expected) | set(buffers)) - set(state)
        if missing:
            raise KeyError(f"missing state entries: {sorted(missing)}")

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer to dtype in place: the parameter
        tensors keep their identity, so optimizers and callers holding them
        see the new arrays.  An array already of dtype is kept, not copied."""
        for _, module in self._modules():
            for value in vars(module).values():
                if isinstance(value, Tensor):
                    value.data = value.data.astype(dtype, copy=False)
            for name in getattr(module, "_buffer_names", ()):
                setattr(module, name, getattr(module, name).astype(dtype, copy=False))
        return self


def _lecun_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """A float32 LeCun-normal weight: the float64 draw, scaled, rounded once.
    Drawing in float32 would take a different stream from the generator."""
    w = rng.standard_normal(shape)
    w /= np.sqrt(fan_in)
    return w.astype(np.float32)


def _weight(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    """A LeCun-normal weight; with rng None an unset one, for a checkpoint to fill."""
    return ad.parameter(np.empty(shape, dtype=np.float32) if rng is None
                        else _lecun_normal(rng, shape, fan_in))


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None):
        super().__init__()
        self.w = _weight(rng, (in_features, out_features), in_features)
        self.b = ad.parameter(np.zeros(out_features, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class Conv1d(Module):
    """A conv stage's kernel and bias, which :func:`autodiff.conv_stage` takes."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator | None):
        super().__init__()
        self.w = _weight(rng, (out_channels, in_channels, _KERNEL), in_channels * _KERNEL)
        self.b = ad.parameter(np.zeros(out_channels, dtype=np.float32))


class BatchNorm1d(Module):
    """A conv stage's batch-norm scale and shift, and the running statistics
    that :func:`autodiff.conv_stage` updates in training mode."""

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = ad.parameter(np.ones(channels, dtype=np.float32))
        self.beta = ad.parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)


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
        self.conv1 = Conv1d(1, channels[0], rng)
        self.bn1 = BatchNorm1d(channels[0])
        self.conv2 = Conv1d(channels[0], channels[1], rng)
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
    """An encoder/decoder pair built by :func:`build_model` from its
    descriptor, less the kind; with rng None its weights stay unset."""

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

    def _coders(self, rng):
        return (_FcCoder(self.n * self.oversampling, self._args["hidden"], rng),
                _FcCoder(self.n, self._args["hidden"], rng))

    def encode(self, z: Tensor) -> Tensor:
        return self.encoder(z)

    def decode(self, z: Tensor) -> Tensor:
        return self.decoder(z)


def build_model(descriptor: dict[str, Any], draw: bool = True):
    """The model a descriptor (kind, system, sizes, seed) names, its weights
    drawn from default_rng(seed); with draw False none is drawn, for
    load_state_dict to fill."""
    kinds = {cls.kind: cls for cls in (CaeModel, FcAeModel)}
    cls = kinds.get(descriptor.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {descriptor.get('kind')!r}")
    args = {k: v for k, v in descriptor.items() if k != "kind"}
    return cls(args, np.random.default_rng(args["seed"]) if draw else None)


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
        "format": _CHECKPOINT_FORMAT,
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
        if not isinstance(meta, dict):
            raise ValueError("checkpoint metadata is not a JSON object")
        if meta.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {meta.get('format')!r}")
        if not isinstance(meta.get("arch"), dict):
            raise ValueError("checkpoint arch is not a JSON object")
        model = build_model(meta["arch"], draw=False)
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
