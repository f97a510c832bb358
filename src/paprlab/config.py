"""Experiment configuration: defaults, YAML round-trip, hashing.

A single hierarchical config drives every CLI command.  All defaults follow
the stock 72-subcarrier setup; anything can be overridden in the YAML file or
with --set on the command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .baselines import CfParams, SlmParams
from .chain import HpaParams
from .training import LossWeights, TrainConfig

__all__ = [
    "ConfigError",
    "ConfigLoader",
    "SystemConfig",
    "ModelConfig",
    "EvalConfig",
    "ExperimentConfig",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "config_hash",
    "build_id",
    "NEURAL_METHODS",
]

_VALID_METHODS = ("none", "cf", "slm", "cae", "fc_ae")
NEURAL_METHODS = ("cae", "fc_ae")


class ConfigError(ValueError):
    """An experiment configuration field is missing, unknown or invalid."""


class ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2's floats without a point, such as
    1e-3, which YAML 1.1 leaves a string.  Config files and --set both use it."""


ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


@dataclass(frozen=True)
class SystemConfig:
    n_subcarriers: int = 72
    oversampling: int = 4

    def __post_init__(self):
        if self.n_subcarriers < 2 or self.n_subcarriers % 2:
            raise ValueError(f"n_subcarriers must be a positive even number, "
                             f"got {self.n_subcarriers}")
        if self.oversampling < 3:
            raise ValueError("oversampling must be >= 3 so the adjacent bands fit the spectrum")


@dataclass(frozen=True)
class ModelConfig:
    enc_channels: tuple[int, int] = (13, 11)
    dec_channels: tuple[int, int] = (11, 13)
    fc_hidden: tuple[int, int] = (2500, 3500)

    def __post_init__(self):
        for name in ("enc_channels", "dec_channels", "fc_hidden"):
            if len(sizes := getattr(self, name)) != 2 or min(sizes) < 1:
                raise ValueError(f"{name} must be a list of positive sizes, exactly two, "
                                 f"got {list(sizes)}")


def _check_distinct(name: str, values: tuple):
    """Raise ValueError unless values is a nonempty list of distinct values:
    an eval command writes one row per method and grid point."""
    if not values or len(set(values)) < len(values):
        raise ValueError(f"{name} must be a nonempty list of distinct values, got {list(values)}")


@dataclass(frozen=True)
class EvalConfig:
    p_snr_db: tuple[float, ...] = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    ber_symbols: int = 20000
    ccdf_symbols: int = 100000
    psd_symbols: int = 10000
    table_symbols: int = 20000
    obo_acpr_ibo_db: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    batch: int = 500

    def __post_init__(self):
        for name in ("ber_symbols", "ccdf_symbols", "psd_symbols", "table_symbols", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count, got {getattr(self, name)}")
        if not all(math.isfinite(p) or p == math.inf for p in self.p_snr_db):  # inf: no noise
            raise ValueError(f"p_snr_db must be a finite dB value or inf, got {self.p_snr_db}")
        if not all(map(math.isfinite, self.obo_acpr_ibo_db)):
            raise ValueError(f"obo_acpr_ibo_db must be a finite grid, got {self.obo_acpr_ibo_db}")
        for name in ("p_snr_db", "obo_acpr_ibo_db"):
            _check_distinct(name, getattr(self, name))


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    hpa: HpaParams = field(default_factory=HpaParams)
    acpr_req_db: float = -45.0
    cf: CfParams = field(default_factory=CfParams)
    slm: SlmParams = field(default_factory=SlmParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    methods: tuple[str, ...] = ("none", "cf", "slm", "cae")
    eval: EvalConfig = field(default_factory=EvalConfig)
    # master seed of every random stream except the SLM phase bank: transmitter
    # and receiver must share that bank, so slm.rng_seed alone seeds it
    seed: int = 1234
    output_dir: str = "runs"

    def __post_init__(self):
        if not math.isfinite(self.acpr_req_db):
            raise ValueError(f"acpr_req_db must be a finite number, got {self.acpr_req_db}")
        for m in self.methods:
            if m not in _VALID_METHODS:
                raise ValueError(f"unknown method {m!r}, expected one of {_VALID_METHODS}")
        _check_distinct("methods", self.methods)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def config_to_dict(config: ExperimentConfig) -> dict:
    def clean(value):
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, tuple):
            return [clean(v) for v in value]
        return value
    return clean(asdict(config))


def _build(cls, data, path: str = ""):
    """Construct a config dataclass from a plain dict, strictly.

    A field whose default is a config dataclass is a section, built the same
    way from its own mapping; path is the dotted name of cls ("" at the root).
    A field's value is checked and typed by :func:`_typed`.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}" if path
                          else "config root must be a mapping")
    sections = {f.name: f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)}
    defaults = {f.name: f.default for f in fields(cls)}
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in defaults:
            raise ConfigError(f"unknown config field {prefix}{key}")
    kwargs = {}
    for name, value in data.items():
        if name in sections:
            value = _build(sections[name], value, prefix + name)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**{name: _typed(name, value, defaults[name]) for name, value in kwargs.items()})
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path}: {err}" if path else str(err)) from err


# a field's default type -> the value types it takes and their name
_KINDS = {int: ((int,), "whole number"), float: ((int, float), "number"), str: ((str,), "string")}


def _typed(name: str, value, default):
    """value as default's type, or a list of it where default is a tuple: an
    int for an int, a str for a str, and any number for a float, stored as a
    float so that 1 and 1.0 hash alike.  A bool is none of them (TypeError)."""
    listed = isinstance(default, tuple)
    kind = type(default[0] if listed else default)
    if kind not in _KINDS:                            # a section, built already
        return value
    accepted, noun = _KINDS[kind]
    items = (value if isinstance(value, tuple) else None) if listed else (value,)
    if items is None or not all(type(v) in accepted for v in items):
        raise TypeError(f"{name} must be {f'a list of {noun}s' if listed else f'a {noun}'}, "
                        f"got {value!r}")
    if kind is not float:
        return value
    return tuple(map(float, value)) if listed else float(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=ConfigLoader)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from err
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}") from err
    return config_from_dict({} if data is None else data)


def config_hash(config: ExperimentConfig) -> str:
    """Stable hex digest of the experiment parameters.

    output_dir is excluded: it locates the results but does not change them,
    so runs of the same experiment hash identically wherever they land.
    """
    data = config_to_dict(config)
    data.pop("output_dir", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_id() -> str:
    """Hex digest over the package sources, identifying the code that ran."""
    digest = hashlib.sha256()
    root = Path(__file__).parent
    for source in sorted(root.glob("*.py")):
        digest.update(source.name.encode("utf-8"))
        digest.update(source.read_bytes())
    return digest.hexdigest()[:12]
