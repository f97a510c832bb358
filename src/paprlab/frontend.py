"""Parameters and closed forms of the nonlinear transmit front-end.

The RAPP model is a memoryless AM/AM nonlinearity: only the sample amplitude
is compressed, the phase passes through unchanged.  ``chain.front_end``, the
one front-end of training and evaluation, applies it as
``autodiff.rapp_nonlinearity``; :func:`rapp_gain` is its closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

__all__ = [
    "HpaParams",
    "ibo_scale",
    "rapp_gain",
    "bussgang_alpha",
]


@dataclass(frozen=True)
class HpaParams:
    """RAPP amplifier parameters plus the input back-off applied before it.

    a0 is the limiting output amplitude, v the small-signal gain and p the
    smoothness of the transition into saturation (p -> inf approaches an
    ideal soft limiter).
    """

    a0: float = 1.0
    v: float = 1.0
    p: float = 2.0
    ibo_db: float = 3.7

    def __post_init__(self):
        for name in ("a0", "v", "p", "ibo_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.a0 <= 0 or self.v <= 0 or self.p <= 0:
            raise ValueError("a0, v and p must all be positive")


def ibo_scale(hpa: HpaParams) -> float:
    """Linear amplitude factor applied to a unit-power signal before the PA."""
    return hpa.a0 * 10.0 ** (-hpa.ibo_db / 20.0)


def rapp_gain(amplitude: np.ndarray, hpa: HpaParams) -> np.ndarray:
    """AM/AM curve: G(A) = v*A * (1 + (v*A/a0)^(2p))^(-1/(2p))."""
    a = np.asarray(amplitude, dtype=float)
    t = ((hpa.v / hpa.a0) ** 2 * a * a) ** hpa.p
    return hpa.v * a * (1.0 + t) ** (-1.0 / (2.0 * hpa.p))


def bussgang_alpha(x: np.ndarray, x_pa: np.ndarray) -> complex:
    """Empirical Bussgang gain of the amplifier, referenced to its input.

    alpha = E(x * conj(x_pa)) / E(|x|^2).  For a phase-preserving AM/AM
    nonlinearity alpha is real and equals the least-squares linear gain, so
    dividing the received signal by alpha minimizes the residual distortion
    power E|x_pa - alpha*x|^2.

    A non-finite batch, as from a diverged model, gives a NaN gain without
    dividing.
    """
    x = np.asarray(x, dtype=complex)
    x_pa = np.asarray(x_pa, dtype=complex)
    if x.shape != x_pa.shape:
        raise ValueError(f"input and output batches differ in shape: {x.shape} vs {x_pa.shape}")
    denom = np.mean(np.abs(x) ** 2)
    if not (np.isfinite(denom) and np.isfinite(x_pa).all()):
        return complex(math.nan, math.nan)
    if denom <= 0.0:
        raise DegenerateInputError("Bussgang gain is undefined for a zero input batch")
    return complex(np.mean(x * np.conj(x_pa)) / denom)
