"""Training: the three-objective loss, its gradual schedule and the loop.

This module owns the training objective.  :class:`TrainConfig` picks each
epoch's stage (the gradual schedule), :func:`joint_loss` turns a stage and
the chain's taps into the loss, and :func:`train` runs the optimizer over
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chain import ChainTaps, HpaParams, complex_noise, run_chain
from .errors import TrainingDivergedError
from .metrics import SpectralParams
from .ofdm import ofdm_modulate, qam4_map
from .optim import AdamW
from .seeding import derive_rng

__all__ = ["TrainConfig", "LossWeights", "joint_loss", "EpochRecord", "TrainResult", "train"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 160
    batches_per_epoch: int = 4375
    batch_size: int = 32
    lr: float = 0.001
    stage1_epochs: int = 40
    schedule: str = "gradual"           # "gradual" or "fixed"
    weight_decay: float = 0.01
    snr_min_db: float = 6.0
    snr_max_db: float = 16.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "snr_min_db", "snr_max_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        # the decoupled decay scales theta by 1 - lr * weight_decay, in (0, 1]
        for name, ok, rule in (
                ("lr", self.lr > 0, "positive number"),
                ("weight_decay", 0 <= self.lr * self.weight_decay < 1, "number in [0, 1/lr)"),
                ("snr_min_db", self.snr_min_db <= self.snr_max_db, "number at most snr_max_db")):
            if not ok:
                raise ValueError(f"{name} must be a {rule}, got {getattr(self, name)}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be a count of at least 2, got {self.batch_size}")
        if self.batches_per_epoch < 1:
            raise ValueError(
                f"batches_per_epoch must be a positive count, got {self.batches_per_epoch}")
        if self.schedule not in ("gradual", "fixed"):
            raise ValueError(f"schedule must be 'gradual' or 'fixed', got {self.schedule!r}")
        if not 0 <= self.stage1_epochs <= self.epochs:
            raise ValueError(
                f"stage1_epochs must lie in [0, epochs], got {self.stage1_epochs} of {self.epochs}"
            )

    def stage_for_epoch(self, epoch: int) -> int:
        if self.schedule == "fixed":
            return 2
        return 1 if epoch < self.stage1_epochs else 2


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


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    loss: float
    l1: float
    l2: float
    l3: float


@dataclass
class TrainResult:
    records: list[EpochRecord] = field(default_factory=list)
    optimizer: AdamW | None = None


def train(model, cfg: TrainConfig, weights: LossWeights, hpa: HpaParams,
          spectral: SpectralParams, seed: int = 0, log=None) -> TrainResult:
    """Train a model end to end through the nonlinear chain.

    The training set is a fixed pool of random bit blocks (regenerated from
    the seed), reshuffled every epoch; the channel peak-SNR is drawn per
    batch from the configured range, and the batch's noise at that SNR from
    the "train/noise" stream.  Each epoch record holds the epoch means of
    the loss and of joint_loss's three terms, which are computed in both
    stages.  AdamW's decoupled weight decay is the only regulariser.

    Two threads share each step.  The second thread (autodiff._worker) runs
    linear's weight gradients during backward, and each parameter's AdamW
    update from the moment backward has made its gradient final until the
    next step's forward reads the parameter.  The calling thread runs the
    rest, and each job the second thread has not started when it is
    needed.  The second thread calls only numpy and private helpers, never
    a function a profiler wraps, such as this module's names.  Each job does
    the same arithmetic on either thread, so the run is deterministic for a
    given seed.  Every update has ended when an epoch is logged and when
    train() returns or raises.

    Every step runs in float32, as a built or loaded model already is: a
    model of another dtype is cast to float32 in place before the optimizer
    is built, and stays float32.  The chain, the loss and the AdamW moments
    follow the parameters' dtype.

    Raises TrainingDivergedError, carrying the epoch index and the signal
    name, on the first non-finite PA input x_f, PA output x_p, Bussgang gain
    alpha or loss, checked in that order.
    """
    model.astype(np.float32)
    n = model.n
    oversampling = model.oversampling
    data_rng = derive_rng(seed, "train/data")
    shuffle_rng = derive_rng(seed, "train/shuffle")
    snr_rng = derive_rng(seed, "train/snr")
    noise_rng = derive_rng(seed, "train/noise")

    num_blocks = cfg.batches_per_epoch * cfg.batch_size
    bits_pool = data_rng.integers(0, 2, size=(num_blocks, 2 * n), dtype=np.uint8)

    optimizer = AdamW(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    result = TrainResult(optimizer=optimizer)
    model.train()
    try:
        for epoch in range(cfg.epochs):
            stage = cfg.stage_for_epoch(epoch)
            order = shuffle_rng.permutation(num_blocks)
            sums = np.zeros(4)  # loss, l1, l2, l3
            for b in range(cfg.batches_per_epoch):
                rows = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                blocks = qam4_map(bits_pool[rows])
                x_time = ofdm_modulate(blocks, oversampling)
                p_snr_db = float(snr_rng.uniform(cfg.snr_min_db, cfg.snr_max_db))
                noise = complex_noise(x_time.shape, p_snr_db, hpa, noise_rng)
                taps = run_chain(model, x_time, hpa, noise)
                for signal, tap in (("x_f", taps.x_f.data), ("x_p", taps.x_p.data),
                                    ("alpha", taps.alpha)):
                    if not np.all(np.isfinite(tap)):
                        raise TrainingDivergedError(epoch, signal)
                loss, parts = joint_loss(taps, blocks, weights, spectral, stage)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDivergedError(epoch, "loss")
                loss.backward(optimizer.queue)
                optimizer.end_step()
                sums += (value, parts["l1"], parts["l2"], parts["l3"])
            optimizer.finish()
            record = EpochRecord(epoch, stage, *map(float, sums / cfg.batches_per_epoch))
            result.records.append(record)
            if log is not None:
                log(record)
    finally:
        optimizer.finish()
    model.eval()
    return result
