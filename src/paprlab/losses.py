"""The three-objective training loss and its staged (gradual) form."""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .chain import ChainTaps
from .metrics import SpectralParams

__all__ = ["LossWeights", "joint_loss"]


@dataclass(frozen=True)
class LossWeights:
    """Loss hyper-parameters: lambda1 scales the L2 weight penalty inside the
    reconstruction term, lambda2 the PAPR term, lambda3 the spectral term.

    lambda1 acts only under ``TrainConfig.l2_mode = "additive"``.  Under the
    default "decoupled" mode no penalty is added to the loss, and AdamW's
    ``weight_decay`` is the only regulariser.
    """

    lambda1: float = 1e-4
    lambda2: float = 0.004
    lambda3: float = 0.001

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be nonnegative")


def joint_loss(taps: ChainTaps, target, weights: LossWeights, spectral: SpectralParams,
               stage: int, reg_params: list[Tensor] | None = None
               ) -> tuple[Tensor, dict[str, float]]:
    """Combine reconstruction, PAPR and spectral objectives for one batch.

    Stage 1 uses the reconstruction term only; stage 2 adds the weighted PAPR
    and spectral terms.  The reconstruction term is the mean squared symbol
    error plus lambda1 times the squared norm of reg_params (weights only, if
    the additive regularization mode is active).

    Returns the scalar loss node and a dict of the component values.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    l1 = ad.mse_complex(taps.decoded, target)
    if reg_params and weights.lambda1 > 0:
        reg = ad.sq_norm(reg_params[0])
        for p in reg_params[1:]:
            reg = reg + ad.sq_norm(p)
        l1 = l1 + weights.lambda1 * reg
    parts = {"l1": l1.item(), "l2": 0.0, "l3": 0.0}
    if stage == 1:
        return l1, parts

    l2 = ad.papr_loss(taps.x_f)
    l3 = ad.acpr_value(taps.x_p, spectral.bw_bins) - spectral.acpr_req_db
    total = l1 + weights.lambda2 * l2 + weights.lambda3 * l3
    parts["l2"] = l2.item()
    parts["l3"] = l3.item()
    return total, parts
