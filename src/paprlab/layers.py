"""Trainable layers built on the autodiff engine."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["Module", "Linear", "Conv1d", "BatchNorm1d"]


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

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name in getattr(self, "_buffer_names", ()):
            yield prefix + name, getattr(self, name)
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def train(self, mode: bool = True):
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def named_state(self):
        """(name, live array) for every parameter, then every buffer."""
        for name, p in self.named_parameters():
            yield name, p.data
        yield from self.named_buffers()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of the parameters and buffers.  AdamW updates parameters in
        place and batch norm its running statistics, so live arrays would
        not stay a snapshot."""
        return {name: array.copy() for name, array in self.named_state()}

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
        for value in vars(self).values():
            if isinstance(value, Tensor):
                value.data = value.data.astype(dtype, copy=False)
        for name in getattr(self, "_buffer_names", ()):
            setattr(self, name, getattr(self, name).astype(dtype, copy=False))
        for _, child in self._children():
            child.astype(dtype)
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

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator | None,
                 kernel_size: int):
        super().__init__()
        self.w = _weight(rng, (out_channels, in_channels, kernel_size), in_channels * kernel_size)
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
