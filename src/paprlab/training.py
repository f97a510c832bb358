"""Training loop with the gradual loss schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import run_chain
from .errors import TrainingDivergedError
from .frontend import HpaParams
from .losses import LossWeights, joint_loss
from .metrics import SpectralParams, acpr, papr_db, psd
from .ofdm import ofdm_modulate, qam4_map
from .optim import AdamW
from .seeding import derive_rng

__all__ = ["TrainConfig", "EpochRecord", "TrainResult", "weight_params", "train"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 160
    batches_per_epoch: int = 4375
    batch_size: int = 32
    lr: float = 0.001
    stage1_epochs: int = 40
    schedule: str = "gradual"           # "gradual" or "fixed"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    l2_mode: str = "decoupled"          # "decoupled" (AdamW decay) or "additive"
    snr_min_db: float = 6.0
    snr_max_db: float = 16.0

    def __post_init__(self):
        if self.schedule not in ("gradual", "fixed"):
            raise ValueError(f"schedule must be 'gradual' or 'fixed', got {self.schedule!r}")
        if self.l2_mode not in ("decoupled", "additive"):
            raise ValueError(f"l2_mode must be 'decoupled' or 'additive', got {self.l2_mode!r}")
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
    mean_papr_db: float
    acpr_db: float


@dataclass
class TrainResult:
    records: list[EpochRecord] = field(default_factory=list)
    optimizer: AdamW | None = None


def weight_params(model):
    """The multiplicative weights of a model (conv/linear kernels, no biases
    or batch-norm affine terms); this is the set the L2 penalty covers."""
    return [p for name, p in model.named_parameters() if name.endswith(".w")]


def train(model, cfg: TrainConfig, weights: LossWeights, hpa: HpaParams,
          spectral: SpectralParams, seed: int = 0, log=None) -> TrainResult:
    """Train a model end to end through the nonlinear chain.

    The training set is a fixed pool of random bit blocks (regenerated from
    the seed), reshuffled every epoch; the channel peak-SNR is drawn per
    batch from the configured range.  Deterministic for a given seed: one
    optimizer step per batch, single-threaded reduction order.

    Raises TrainingDivergedError, carrying the epoch index and the signal
    name, on the first non-finite PA input x_f, PA output x_p, Bussgang gain
    alpha or loss, checked in that order.
    """
    n = model.n
    oversampling = model.oversampling
    data_rng = derive_rng(seed, "train/data")
    shuffle_rng = derive_rng(seed, "train/shuffle")
    snr_rng = derive_rng(seed, "train/snr")
    noise_rng = derive_rng(seed, "train/noise")

    num_blocks = cfg.batches_per_epoch * cfg.batch_size
    bits_pool = data_rng.integers(0, 2, size=(num_blocks, 2 * n), dtype=np.uint8)

    wd = cfg.weight_decay if cfg.l2_mode == "decoupled" else 0.0
    optimizer = AdamW(model.parameters(), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2),
                      eps=cfg.eps, weight_decay=wd)
    reg_params = weight_params(model) if cfg.l2_mode == "additive" else None

    result = TrainResult(optimizer=optimizer)
    model.train()
    for epoch in range(cfg.epochs):
        stage = cfg.stage_for_epoch(epoch)
        order = shuffle_rng.permutation(num_blocks)
        sums = np.zeros(6)  # loss, l1, l2, l3, papr_db, acpr_db
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
            loss, parts = joint_loss(taps, blocks, weights, spectral, stage, reg_params=reg_params)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch, "loss")
            loss.backward()
            optimizer.step()
            sums += (value, parts["l1"], parts["l2"], parts["l3"],
                     float(np.mean(papr_db(taps.x_f.data))),
                     acpr(psd(taps.x_p.data), spectral))
        means = sums / cfg.batches_per_epoch
        record = EpochRecord(epoch=epoch, stage=stage, loss=means[0], l1=means[1],
                             l2=means[2], l3=means[3], mean_papr_db=means[4],
                             acpr_db=means[5])
        result.records.append(record)
        if log is not None:
            log(record)
    model.eval()
    return result
