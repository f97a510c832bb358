"""Command-line interface.

    paprlab [--config FILE] [--set key=value]... COMMAND

Commands: train, eval-ber, eval-ccdf, eval-psd, eval-table, eval-obo-acpr.
--set overrides config-file fields, e.g. --set seed=7 --set output_dir=runs2.
"""

from __future__ import annotations

import argparse
import math
import sys

import yaml

from . import harness
from .config import (
    ConfigLoader,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from .errors import ConfigError, TrainingDivergedError


def _apply_override(data: dict, assignment: str):
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    try:
        value = yaml.load(raw, Loader=ConfigLoader)
    except yaml.YAMLError as err:
        raise ConfigError(f"--set {key}: {raw!r} is not a YAML value") from err
    node = data
    parts = key.strip().split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
    node[parts[-1]] = value


def _resolve_config(args) -> "ExperimentConfig":
    """Precedence: --set > config file > defaults."""
    data = config_to_dict(load_config(args.config) if args.config else default_config())
    for assignment in args.set or []:
        _apply_override(data, assignment)
    return config_from_dict(data)


def _parse_checkpoints(pairs) -> dict[str, str]:
    checkpoints = {}
    for pair in pairs or []:
        method, sep, path = pair.partition("=")
        if not sep:
            raise ConfigError(f"--checkpoint expects method=path, got {pair!r}")
        checkpoints[method] = path
    return checkpoints


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paprlab",
        description="Low-PAPR OFDM waveform design lab: train the autoencoder "
                    "and evaluate it against clipping-and-filtering and "
                    "selective-mapping baselines.")
    parser.add_argument("--config", help="YAML experiment configuration")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field, e.g. --set train.epochs=10")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write its checkpoint")
    p_train.add_argument("--arch", choices=("cae", "fc_ae"), default="cae")

    for name, help_text in (
        ("eval-ber", "BER vs peak-SNR curves"),
        ("eval-ccdf", "CCDF of PAPR curves"),
        ("eval-psd", "averaged transmit PSD"),
        ("eval-table", "ACPR/OBO operating-point table"),
        ("eval-obo-acpr", "OBO vs ACPR trade-off sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--checkpoint", action="append", metavar="METHOD=PATH",
                       help="checkpoint for a neural method (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "train":
            def progress(record):
                # l2 is the mean linear PAPR, l3 the ACPR above the required one
                print(f"epoch {record.epoch:4d} stage {record.stage} "
                      f"loss {record.loss:.6f} papr {10.0 * math.log10(record.l2):.2f} dB "
                      f"acpr {record.l3 + config.acpr_req_db:.2f} dB", flush=True)
            ckpt, log = harness.run_train(config, arch=args.arch, log_progress=progress)
            print(f"checkpoint: {ckpt}")
            print(f"log: {log}")
            return 0

        checkpoints = _parse_checkpoints(args.checkpoint)
        if args.command == "eval-ber":
            path = harness.eval_ber(config, checkpoints)
        elif args.command == "eval-ccdf":
            path = harness.eval_ccdf(config, checkpoints)
        elif args.command == "eval-psd":
            path = harness.eval_psd(config, checkpoints)
        elif args.command == "eval-table":
            table, path = harness.eval_table(config, checkpoints)
            for method in sorted(table):
                print(f"{method:12s} ACPR {table[method]['acpr_db']:8.2f} dB   "
                      f"OBO {table[method]['obo_db']:6.2f} dB")
        else:
            path = harness.eval_obo_vs_acpr(config, checkpoints)
        print(f"wrote {path}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except TrainingDivergedError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
