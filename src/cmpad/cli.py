"""Command-line entry point.

One JSON config document drives everything; precedence is CLI flag >
config file > built-in default. Unknown config keys are rejected by
name. Every run directory receives the effective config echo
(config.json) and a status marker that survives Ctrl-C, and re-running
from the echoed config reproduces the run bit-exactly.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.

The built-in defaults are the desk-scale profile (32x32 images, small
backbone, 10 epochs); they train in CPU-minutes. The dataclass defaults
in network/harness keep the full-scale values for reference.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .datagen import ATTACK_TYPES, BONAFIDE, GeneratorSpec, generate, oracle_separability
from .datasets import ProtocolSplit, load_dataset, save_dataset
from .errors import CmpadError, ConfigError, DataError
from .harness import (
    TrainConfig,
    by_id,
    dump_score_distributions,
    emit_loss_curves,
    evaluate,
    protocol_split,
    run_cross_dataset,
    run_gamma_sweep,
    run_loo,
    run_single_channel_study,
    train,
)
from .losses import LossParams
from .network import (
    HEAD_BRANCHES, NetworkConfig, OptimizerConfig, ParameterSet, load_checkpoint, save_checkpoint,
)

DEFAULT_CONFIG: dict = {
    "out_root": "runs",
    "generator": {
        "image_size": 32,
        "n_identities": 12,
        "samples_per_identity": 12,
        "attack_types": list(ATTACK_TYPES),
        "attack_strength": 0.5,
        "noise_sigma": 0.05,
        "channels_a": 3,
        "channels_b": 1,
        "seed": 7,
    },
    "network": {
        "input_height": 32,
        "input_width": 32,
        "channels_a": 3,
        "channels_b": 1,
        "blocks_per_branch": 3,
        "base_filters": 8,
        "embedding_dim": 16,
        "seed": 0,
    },
    "optimizer": {
        "learning_rate": 3e-3,
        "weight_decay": 1e-5,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
    },
    "loss": {
        "alpha_bonafide": 1.0,
        "alpha_attack": 1.0,
        "gamma": 3.0,
        "mix_lambda": 0.5,
        "detach_weight": False,
    },
    "train": {"epochs": 10, "batch_size": 32, "hflip_prob": 0.5, "seed": 0},
    "protocol": {"ratios": [0.5, 0.25, 0.25], "seed": 0, "bpcer_target": 0.01},
}


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    """`override` laid over `base`; every key must exist in `base` and
    every value must have the base value's JSON type (an int is a valid
    float, a bool is not a number)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted}")
        kind = type(base[key])
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"config key {dotted} must be {kind.__name__}, got {value!r}")
        out[key] = _merge_config(base[key], value, f"{dotted}.") if kind is dict else value
    return out


def _finite_json_number(token: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and literals that
    overflow to infinity are rejected."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_effective_config(config_path: str | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(
                path.read_text(), parse_constant=_finite_json_number, parse_float=_finite_json_number
            )
        except ValueError as exc:  # bad UTF-8 or JSON, or a non-finite number
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _merge_config(cfg, file_cfg)
    cfg = _merge_config(cfg, overrides)
    return cfg


def build_generator_spec(cfg: dict) -> GeneratorSpec:
    try:
        return GeneratorSpec(**cfg["generator"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(
            network=NetworkConfig(**cfg["network"]),
            optimizer=OptimizerConfig(**cfg["optimizer"]),
            loss=LossParams(**cfg["loss"]),
            **cfg["train"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_protocol(cfg: dict) -> dict:
    """The protocol section as the experiment designs' keywords.

    `ratios` must be three non-negative fractions summing to 1 and
    `bpcer_target` a fraction in [0, 1]; `_merge_config` has already
    checked the type of every key (so `seed` is an int).
    """
    proto = cfg["protocol"]
    ratios, target = proto["ratios"], proto["bpcer_target"]
    fractions = all(type(r) in (int, float) and r >= 0 for r in ratios)
    if not (fractions and len(ratios) == 3 and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ConfigError(
            f"protocol.ratios must be three fractions >= 0 summing to 1, got {ratios!r}"
        )
    if not 0.0 <= target <= 1.0:
        raise ConfigError(f"protocol.bpcer_target must be in [0, 1], got {target!r}")
    return dict(ratios=ratios, protocol_seed=proto["seed"], bpcer_target=target)


def _print_table(rows: list[list[str]], header: list[str]) -> None:
    widths = [
        max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args, cfg: dict) -> int:
    spec = build_generator_spec(cfg)
    out = Path(args.out_dir)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"output directory {out} is not empty (use --force)")
    samples = generate(spec)
    save_dataset(samples, out, force=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    counts: dict[str, int] = {}
    for s in samples:
        counts[s.attack_type] = counts.get(s.attack_type, 0) + 1
    print(f"wrote {len(samples)} samples to {out}")
    _print_table(
        [[k, str(v)] for k, v in sorted(counts.items())], ["class", "count"]
    )
    bona = [s for s in samples if s.attack_type == BONAFIDE]
    rows = []
    for attack in spec.attack_types:
        group = bona + [s for s in samples if s.attack_type == attack]
        accs = {}
        for channel in ("a", "b"):
            try:
                accs[channel] = f"{oracle_separability(group, channel):.3f}"
            except ValueError:
                accs[channel] = "n/a"
        rows.append([attack, accs["a"], accs["b"]])
    print("\nnearest-centroid separability vs bonafide (held-out folds):")
    _print_table(rows, ["attack", "channel A acc", "channel B acc"])
    return 0


@dataclass(frozen=True)
class RunInputs:
    """What `open_run` hands a run subcommand; what it has no use for is None."""

    samples: list  # of MultiModalSample, from --data
    records: list  # of ManifestRecord, from --data
    train_cfg: TrainConfig | None  # subcommands that train
    params: ParameterSet | None  # subcommands that read --checkpoint
    split: ProtocolSplit | None  # subcommands that work on one protocol split
    protocol: dict  # the protocol section as the experiment designs' keywords
    out: Path


@contextmanager
def open_run(args, cfg: dict, with_split: bool = False):
    """The preamble every run subcommand shares, then its run directory.

    Checks the protocol section, loads --data (only the channels --head
    needs), builds the TrainConfig or reads --checkpoint, and resolves the
    grandtest (or the --attack leave-one-out) split when `with_split`. The
    inputs are yielded inside the run directory, whose status marker ends
    as done, interrupted or failed.
    """
    if args.data is None:
        raise ConfigError("--data is required for this command")
    protocol = build_protocol(cfg)
    samples, records = load_dataset(
        args.data, channels=HEAD_BRANCHES[getattr(args, "head", "joint")]
    )
    if getattr(args, "checkpoint", None) is None:
        train_cfg, params = build_train_config(cfg), None
    else:
        train_cfg, params = None, load_checkpoint(args.checkpoint)
    split = None
    if with_split:
        split = protocol_split(
            records, protocol["ratios"], protocol["protocol_seed"],
            attack=getattr(args, "attack", None),
        )
    out = Path(cfg["out_root"]) / args.name
    if out.exists() and any(out.iterdir()) and not args.force:
        raise DataError(f"run directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    status = out / "status"
    status.write_text("running\n")
    try:
        yield RunInputs(samples, records, train_cfg, params, split, protocol, out)
    except KeyboardInterrupt:
        status.write_text("interrupted\n")
        raise
    except BaseException as exc:
        status.write_text(f"failed: {type(exc).__name__}\n")
        raise
    else:
        status.write_text("done\n")


def cmd_train(args, cfg: dict) -> int:
    with open_run(args, cfg, with_split=True) as run:
        params, losses = train(run.split, by_id(run.samples), run.train_cfg)
        save_checkpoint(params, run.out / "checkpoint.bin")
        (run.out / "losslog.json").write_text(json.dumps(losses) + "\n")
    print(f"trained {run.train_cfg.epochs} epochs on {run.split.name}; "
          f"checkpoint at {run.out/'checkpoint.bin'}")
    _print_table(
        [[str(i), f"{l:.6f}"] for i, l in enumerate(losses)], ["epoch", "mean loss"]
    )
    return 0


def cmd_eval(args, cfg: dict) -> int:
    with open_run(args, cfg, with_split=True) as run:
        report, _, _ = evaluate(
            run.params, run.split, by_id(run.samples), head=args.head,
            threshold_rule=args.rule, bpcer_target=run.protocol["bpcer_target"],
            out_dir=run.out,
        )
    _print_table(
        [[run.split.name, _pct(report.apcer), _pct(report.bpcer), _pct(report.acer),
          f"{report.threshold:.6g}"]],
        ["protocol", "APCER%", "BPCER%", "ACER%", "threshold"],
    )
    return 0


def cmd_loo(args, cfg: dict) -> int:
    with open_run(args, cfg) as run:
        result = run_loo(
            run.samples, run.records, run.train_cfg, out_dir=run.out, **run.protocol
        )
    rows = [
        [r.attack, _pct(r.report.apcer), _pct(r.report.bpcer), _pct(r.report.acer)]
        for r in result.rows
    ]
    rows.append(
        ["Mean±Std", "", "", f"{_pct(result.acer_mean)}±{_pct(result.acer_std)}"]
    )
    _print_table(rows, ["unseen attack", "APCER%", "BPCER%", "ACER%"])
    return 0


def cmd_sweep_gamma(args, cfg: dict) -> int:
    with open_run(args, cfg) as run:
        results = run_gamma_sweep(
            run.samples, run.records, run.train_cfg, gammas=args.gammas,
            out_dir=run.out, **run.protocol,
        )
    rows = [
        [f"{g:g}", f"{_pct(r.acer_mean)}±{_pct(r.acer_std)}"]
        for g, r in sorted(results.items())
    ]
    _print_table(rows, ["gamma", "Mean ACER% ± Std"])
    return 0


def cmd_single_channel(args, cfg: dict) -> int:
    with open_run(args, cfg) as run:
        study = run_single_channel_study(
            run.samples, run.records, run.train_cfg, seeds=args.seeds,
            out_dir=run.out, **run.protocol,
        )
    rows = []
    for variant in ("bce", "cmfl"):
        for head in ("a", "b"):
            cell = f"{variant}_head_{head}"
            per_seed = ", ".join(_pct(x) for x in study["per_seed"][cell])
            rows.append([variant, head, _pct(study["median"][cell]), per_seed])
    _print_table(rows, ["loss", "head", "median ACER%", "per-seed ACER%"])
    return 0


def cmd_xdb(args, cfg: dict) -> int:
    if args.data2 is None:
        raise ConfigError("--data2 (target dataset) is required for xdb")
    target = load_dataset(args.data2)
    with open_run(args, cfg) as run:
        result = run_cross_dataset(
            (run.samples, run.records), target, run.train_cfg, out_dir=run.out,
            ratios=run.protocol["ratios"], protocol_seed=run.protocol["protocol_seed"],
        )
    _print_table(
        [
            ["intra", _pct(result["intra_hter"])],
            ["cross", _pct(result["cross_hter"])],
        ],
        ["evaluation", "HTER%"],
    )
    print(f"threshold rule: {result['threshold_rule']} (dev EER {_pct(result['dev_eer'])}%)")
    return 0


def cmd_report(args, cfg: dict) -> int:
    with open_run(args, cfg, with_split=True) as run:
        result = dump_score_distributions(
            run.params, run.split, by_id(run.samples), out_dir=run.out
        )
        emit_loss_curves(gammas=(cfg["loss"]["gamma"],), out_path=run.out / "losscurve.tsv")
    rows = [
        [head, f"{result['overlap'][head]:.4f}"] for head in ("a", "b", "joint")
    ]
    _print_table(rows, ["head", "bonafide/attack overlap"])
    print(f"histograms and loss curves written to {run.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, needs_data=True, trains=True) -> None:
    p.add_argument("--config", help="JSON config file (overrides built-in defaults)")
    p.add_argument("--out", help="output root for run directories")
    p.add_argument("--name", help="run directory name (default: subcommand)")
    p.add_argument("--force", action="store_true", help="overwrite non-empty output")
    p.add_argument("--seed", type=int, help="master seed override")
    if needs_data:
        p.add_argument("--data", help="dataset directory (from gen-data)")
    if needs_data and trains:
        p.add_argument("--epochs", type=int, help="training epochs override")


def _comma_list(kind: type, minimum: float = -math.inf):
    """An argparse type that reads a non-empty comma-separated list of
    finite `kind` values, none below `minimum`."""
    def parse(text: str) -> list:
        try:
            values = [kind(x) for x in text.split(",") if x != ""]
        except ValueError:
            values = []
        if not values or not all(math.isfinite(v) and v >= minimum for v in values):
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list: {text!r}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmpad",
        description="Two-channel presentation-attack detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    _add_common(p, needs_data=False)
    p.add_argument("out_dir", help="dataset directory to create")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on the grandtest protocol")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p, trains=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--head", choices=("a", "b", "joint"), default="joint")
    p.add_argument("--rule", choices=("bpcer", "eer"), default="bpcer")
    p.add_argument("--attack", help="evaluate the leave-one-out split for this attack")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loo", help="leave-one-out unseen-attack table")
    _add_common(p)
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("sweep-gamma", help="focusing-exponent ablation")
    _add_common(p)
    p.add_argument(
        "--gammas", type=_comma_list(float, minimum=0.0), default=[0.0, 1.0, 2.0, 3.0, 4.0],
        help="comma-separated gamma grid, each >= 0 (default 0,1,2,3,4)",
    )
    p.set_defaults(func=cmd_sweep_gamma)

    p = sub.add_parser("single-channel", help="single-channel deployment study")
    _add_common(p)
    p.add_argument(
        "--seeds", type=_comma_list(int), default=[0, 1, 2, 3, 4],
        help="comma-separated training seeds (default 0,1,2,3,4)",
    )
    p.set_defaults(func=cmd_single_channel)

    p = sub.add_parser("xdb", help="cross-dataset evaluation")
    _add_common(p)
    p.add_argument("--data2", help="target dataset directory")
    p.set_defaults(func=cmd_xdb)

    p = sub.add_parser("report", help="score distributions and loss curves")
    _add_common(p, trains=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attack", help="report on the leave-one-out split for this attack")
    p.set_defaults(func=cmd_report)

    return parser


def _overrides_from_args(args) -> dict:
    """Map explicit CLI flags onto config keys (flag > file > default)."""
    overrides: dict = {}
    if getattr(args, "out", None) is not None:
        overrides["out_root"] = args.out
    if getattr(args, "seed", None) is not None:
        if args.command == "gen-data":
            overrides.setdefault("generator", {})["seed"] = args.seed
        else:
            overrides.setdefault("train", {})["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        overrides.setdefault("train", {})["epochs"] = args.epochs
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "name", None) is None:
        args.name = args.command
    try:
        cfg = load_effective_config(args.config, _overrides_from_args(args))
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except CmpadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
