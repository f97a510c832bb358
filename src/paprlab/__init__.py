"""paprlab: simulation lab for low-PAPR OFDM waveform design.

An end-to-end OFDM chain with a RAPP power amplifier, a trainable
convolutional autoencoder transmitter/receiver, classical
clipping-and-filtering and selective-mapping baselines, and the metrics
(PAPR, CCDF, PSD, ACPR, OBO, BER) to compare them.
"""

from .baselines import CfParams, SlmParams, clip_filter, slm_select_batch
from .channel import complex_noise, noise_std
from .errors import ConfigError, DegenerateInputError, TrainingDivergedError
from .frontend import HpaParams, bussgang_alpha
from .losses import LossWeights, joint_loss
from .metrics import SpectralParams, acpr, ccdf, obo, papr, papr_db, psd
from .models import CaeModel, FcAeModel, load_checkpoint, save_checkpoint
from .ofdm import (QAM4_LABELS, QAM4_POINTS, bpf, ml_detect, ofdm_demodulate, ofdm_modulate,
                   qam4_map)
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CfParams", "SlmParams", "clip_filter", "slm_select_batch",
    "complex_noise", "noise_std",
    "ConfigError", "DegenerateInputError", "TrainingDivergedError",
    "HpaParams", "bussgang_alpha",
    "LossWeights", "joint_loss",
    "SpectralParams", "acpr", "ccdf", "obo", "papr", "papr_db", "psd",
    "CaeModel", "FcAeModel", "load_checkpoint", "save_checkpoint",
    "QAM4_LABELS", "QAM4_POINTS", "bpf", "ml_detect", "ofdm_demodulate", "ofdm_modulate",
    "qam4_map",
    "TrainConfig", "train",
    "__version__",
]
