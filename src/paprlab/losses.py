"""The three-objective training loss and its staged (gradual) form."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .chain import ChainTaps
from .metrics import SpectralParams

__all__ = ["LossWeights", "joint_loss"]


@dataclass(frozen=True)
class LossWeights:
    """Loss hyper-parameters: lambda2 scales the PAPR term, lambda3 the
    spectral term.  Weights are regularised by AdamW's decoupled
    ``weight_decay``, not by a term in the loss."""

    lambda2: float = 0.004
    lambda3: float = 0.001

    def __post_init__(self):
        for name in ("lambda2", "lambda3"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite nonnegative number, got {value}")


def joint_loss(taps: ChainTaps, target, weights: LossWeights, spectral: SpectralParams,
               stage: int) -> tuple[Tensor, dict[str, float]]:
    """Combine reconstruction, PAPR and spectral objectives for one batch.

    l1 is the mean squared symbol error, l2 the batch-mean linear PAPR of the
    PA input x_f, and l3 the ACPR of the PA output x_p above the required
    ACPR, in dB; that ACPR is the reported one (the rule of
    :func:`metrics.acpr_powers`) on the batch's periodogram.  All three are
    computed in both stages; stage 1 trains on l1 alone, and stage 2 on
    l1 + lambda2 * l2 + lambda3 * l3.

    Returns the scalar loss node and a dict of the three term values.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    l1 = ad.mse_complex(taps.decoded, target)
    l2 = ad.papr_loss(taps.x_f)
    l3 = ad.acpr_value(taps.x_p, spectral.bw_bins) - spectral.acpr_req_db
    parts = {"l1": l1.item(), "l2": l2.item(), "l3": l3.item()}
    if stage == 1:
        return l1, parts
    return l1 + weights.lambda2 * l2 + weights.lambda3 * l3, parts
