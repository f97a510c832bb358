"""Training loop with the gradual loss schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import run_chain
from .errors import TrainingDivergedError
from .frontend import HpaParams
from .losses import LossWeights, joint_loss
from .metrics import SpectralParams
from .ofdm import ofdm_modulate, qam4_map
from .optim import AdamW
from .seeding import derive_rng

__all__ = ["TrainConfig", "EpochRecord", "TrainResult", "train"]


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
    batch from the configured range.  Deterministic for a given seed: one
    optimizer step per batch, single-threaded reduction order.  Each epoch
    record holds the epoch means of the loss and of joint_loss's three terms,
    which are computed in both stages.  AdamW's decoupled weight decay is the
    only regulariser.

    Every step runs in float32: the model's parameters and buffers are cast
    to float32 in place before the optimizer is built, so the chain, the loss
    and the AdamW moments follow, and back to float64 when train returns or
    raises.  Both casts are exact for float32-representable weights, which
    is what a model is built with.

    Raises TrainingDivergedError, carrying the epoch index and the signal
    name, on the first non-finite PA input x_f, PA output x_p, Bussgang gain
    alpha or loss, checked in that order.
    """
    model.astype(np.float32)
    try:
        return _train_float32(model, cfg, weights, hpa, spectral, seed, log)
    finally:
        model.astype(np.float64)


def _train_float32(model, cfg: TrainConfig, weights: LossWeights, hpa: HpaParams,
                   spectral: SpectralParams, seed: int, log) -> TrainResult:
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
    for epoch in range(cfg.epochs):
        stage = cfg.stage_for_epoch(epoch)
        order = shuffle_rng.permutation(num_blocks)
        sums = np.zeros(4)  # loss, l1, l2, l3
        for b in range(cfg.batches_per_epoch):
            rows = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            blocks = qam4_map(bits_pool[rows])
            x_time = ofdm_modulate(blocks, oversampling)
            p_snr_db = float(snr_rng.uniform(cfg.snr_min_db, cfg.snr_max_db))
            taps = run_chain(model, x_time, hpa, p_snr_db=p_snr_db, noise_rng=noise_rng)
            for signal, tap in (("x_f", taps.x_f.data), ("x_p", taps.x_p.data),
                                ("alpha", taps.alpha)):
                if not np.all(np.isfinite(tap)):
                    raise TrainingDivergedError(epoch, signal)
            loss, parts = joint_loss(taps, blocks, weights, spectral, stage)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch, "loss")
            loss.backward()
            optimizer.step()
            sums += (value, parts["l1"], parts["l2"], parts["l3"])
        record = EpochRecord(epoch, stage, *map(float, sums / cfg.batches_per_epoch))
        result.records.append(record)
        if log is not None:
            log(record)
    model.eval()
    return result
