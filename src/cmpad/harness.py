"""Experiment orchestration: training, protocol runs, and report artifacts.

One master seed fans out to separate init/shuffle/augment streams via
fixed labels, so toggling augmentation never perturbs initialization and
a full run is bit-reproducible. Each protocol leg writes score files and
a JSON report under its run directory; volatile metadata (wall time)
goes to a separate run_meta.json so reports stay byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .datagen import BONAFIDE, MultiModalSample
from .datasets import ManifestRecord, ProtocolSplit, make_grandtest, make_loo, validate_split
from .errors import DataError
from .losses import LossParams, binary_ce, cmfl
from .metrics import (
    MetricsReport,
    ScoreRecord,
    apcer_bpcer_acer,
    eer_threshold,
    threshold_at_bpcer,
    write_report,
    write_score_file,
)
from .network import (
    HEAD_BRANCHES,
    NetworkConfig,
    OptimizerConfig,
    ParameterSet,
    Workspace,
    _forward,
    adam_step,
    backward,
    init_network,
    save_checkpoint,
)

_STREAM_LABELS = {"init": 11, "shuffle": 23, "augment": 37}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    The master `seed` drives initialization, shuffling, and augmentation
    through separate derived streams; the seed inside `network` is
    overridden by the derived init stream during training.
    """

    network: NetworkConfig = field(default_factory=NetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    loss: LossParams = field(default_factory=LossParams)
    epochs: int = 10
    batch_size: int = 32
    hflip_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("epochs", "batch_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"train.{key} must be >= 1, got {getattr(self, key)!r}")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError(f"train.hflip_prob must be in [0, 1], got {self.hflip_prob!r}")


@dataclass(frozen=True)
class ProtocolOutcome:
    protocol: str
    attack: str | None
    report: MetricsReport


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ProtocolOutcome, ...]
    acer_mean: float
    acer_std: float  # population (N-denominator) standard deviation
    config_hash: str
    seed: int
    wall_time_s: float


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _derived_seed(master: int, label: str, *index: int) -> int:
    ss = np.random.SeedSequence(
        [master & 0x7FFFFFFF, _STREAM_LABELS[label], *index]
    )
    return int(ss.generate_state(1)[0])


def _stream(master: int, label: str, *index: int) -> np.random.Generator:
    return np.random.default_rng(_derived_seed(master, label, *index))


def by_id(samples: Sequence[MultiModalSample]) -> dict[str, MultiModalSample]:
    return {s.id: s for s in samples}


def _rasters(
    samples: Sequence[MultiModalSample], channel: str, net: NetworkConfig
) -> list[np.ndarray]:
    """The samples' own `channel` arrays, checked against the network's input shape."""
    arrays = [s.x_a if channel == "a" else s.x_b for s in samples]
    if any(a is None for a in arrays):
        raise DataError(f"channel {channel} not loaded for some samples")
    depth = net.channels_a if channel == "a" else net.channels_b
    want = (depth, net.input_height, net.input_width)
    wrong = {a.shape for a in arrays} - {want}
    if wrong:
        raise DataError(
            f"incompatible shapes: channel {channel} rasters are {sorted(wrong)}, "
            f"the network config expects {want}"
        )
    return arrays


# ---------------------------------------------------------------------------
# training


def train(
    split: ProtocolSplit,
    samples: dict[str, MultiModalSample],
    cfg: TrainConfig,
) -> tuple[ParameterSet, list[float]]:
    """Train on the split's train fold; returns (params, per-epoch losses).

    Deterministic given cfg.seed: sample order is a seeded permutation
    per epoch and horizontal flips (applied jointly to both channels of
    a sample) come from their own seeded stream. Each step hands the network
    the samples' own rasters (a flip is a reversed view), as `score_samples` does.
    """
    train_samples = [samples[sid] for sid in split.train]
    labels = {s.label for s in train_samples}
    if not train_samples or labels != {0, 1}:
        raise DataError(f"degenerate split {split.name}: need both classes in train")

    net_cfg = replace(cfg.network, seed=_derived_seed(cfg.seed, "init"))
    params = init_network(net_cfg)

    ys = np.array([s.label for s in train_samples])
    n = len(train_samples)

    workspace = Workspace()  # one set of conv transients for every step of the run
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = _stream(cfg.seed, "shuffle", epoch).permutation(n)
        flips = _stream(cfg.seed, "augment", epoch).random(n) < cfg.hflip_prob
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = [train_samples[i] for i in idx]
            batch_a, batch_b = (_rasters(batch, c, net_cfg) for c in "ab")
            for j in np.flatnonzero(flips[idx]):
                batch_a[j], batch_b[j] = batch_a[j][..., ::-1], batch_b[j][..., ::-1]
            grads, lv, _ = backward(params, batch_a, batch_b, ys[idx], cfg.loss, workspace)
            params = adam_step(params, grads, cfg.optimizer)
            losses.append(lv.value)
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        epoch_losses.append(mean_loss)
    return params, epoch_losses


# ---------------------------------------------------------------------------
# scoring and evaluation


def score_samples(
    params: ParameterSet, group: Sequence[MultiModalSample]
) -> list[ScoreRecord]:
    """ScoreRecords for a sample group from every channel it has loaded; a
    head whose channels are not all loaded is NaN. No backward caches are
    kept."""
    x_a = _rasters(group, "a", params.config) if all(s.x_a is not None for s in group) else None
    x_b = _rasters(group, "b", params.config) if all(s.x_b is not None for s in group) else None
    out, _ = _forward(params, x_a, x_b)
    return [
        ScoreRecord(
            sample_id=s.id, label=s.label, attack_type=s.attack_type,
            score_p=float(out.p[i]), score_q=float(out.q[i]), score_r=float(out.r[i]),
        )
        for i, s in enumerate(group)
    ]


def evaluate(
    params: ParameterSet,
    split: ProtocolSplit,
    samples: dict[str, MultiModalSample],
    head: str = "joint",
    threshold_rule: str = "bpcer",
    bpcer_target: float = 0.01,
    out_dir: str | Path | None = None,
) -> tuple[MetricsReport, list[ScoreRecord], list[ScoreRecord]]:
    """Score dev and eval folds, pick the threshold on dev, report on eval.

    `head` needs only its own channels loaded, but every head the loaded
    channels allow is scored (`score_samples`); the score files carry NaN
    for the others. With only channel A loaded, only branch A runs.
    """
    if head not in HEAD_BRANCHES:
        raise ValueError(f"unknown head {head!r}")
    dev_group = [samples[sid] for sid in split.dev]
    eval_group = [samples[sid] for sid in split.eval]
    group = dev_group + eval_group
    if any(getattr(s, f"x_{b}") is None for b in HEAD_BRANCHES[head] for s in group):
        raise DataError(f"head {head!r} needs channels that are not loaded")
    dev_records = score_samples(params, dev_group)
    eval_records = score_samples(params, eval_group)

    if threshold_rule == "bpcer":
        tau = threshold_at_bpcer(dev_records, target=bpcer_target, head=head)
        rule_name = "BPCER_AT_TARGET"
    elif threshold_rule == "eer":
        tau, _ = eer_threshold(dev_records, head=head)
        rule_name = "EER"
    else:
        raise ValueError(f"unknown threshold rule {threshold_rule!r}")
    report = apcer_bpcer_acer(eval_records, tau, head=head, threshold_rule=rule_name)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_score_file(out_dir / f"scores_dev_{head}.tsv", dev_records)
        write_score_file(out_dir / f"scores_eval_{head}.tsv", eval_records)
        write_report(
            out_dir / f"report_{split.name}.json",
            report,
            {
                "protocol": split.name,
                "head": head,
                "threshold_rule": rule_name,
                "excluded_attack": split.excluded_attack,
            },
        )
    return report, dev_records, eval_records


# ---------------------------------------------------------------------------
# experiment designs


def protocol_split(
    records: Sequence[ManifestRecord],
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    protocol_seed: int = 0,
    attack: str | None = None,
) -> ProtocolSplit:
    """The validated grandtest split, or the leave-one-out split holding out
    `attack`."""
    if attack is None:
        split = make_grandtest(records, ratios=ratios, seed=protocol_seed)
    else:
        split = make_loo(records, attack, ratios=ratios, seed=protocol_seed)
    validate_split(records, split)
    return split


def run_leg(
    split: ProtocolSplit,
    pool: dict[str, MultiModalSample],
    cfg: TrainConfig,
    head: str = "joint",
    threshold_rule: str = "bpcer",
    bpcer_target: float = 0.01,
    out_dir: str | Path | None = None,
) -> tuple[ParameterSet, MetricsReport, list[ScoreRecord], list[ScoreRecord]]:
    """Train on a split from `protocol_split`, then `evaluate` `head` once:
    returns the parameters, the report and the dev and eval records.

    The records carry every head the loaded channels allow, so another
    head can be thresholded from them without scoring again. With
    `out_dir` the score files, report and checkpoint go there.
    """
    params, _ = train(split, pool, cfg)
    report, dev_records, eval_records = evaluate(
        params, split, pool, head=head, threshold_rule=threshold_rule,
        bpcer_target=bpcer_target, out_dir=out_dir,
    )
    if out_dir is not None:
        save_checkpoint(params, Path(out_dir) / "checkpoint.bin")
    return params, report, dev_records, eval_records


def run_loo(
    samples: Sequence[MultiModalSample],
    records: Sequence[ManifestRecord],
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    protocol_seed: int = 0,
    bpcer_target: float = 0.01,
) -> ExperimentResult:
    """One leg per attack type, leave-one-out; aggregates ACER."""
    t0 = time.monotonic()
    attacks = sorted({r.attack_type for r in records if r.attack_type != BONAFIDE})
    if len(attacks) < 2:
        raise DataError(f"need at least 2 attack types for leave-one-out, got {attacks}")
    pool = by_id(samples)
    rows = []
    for attack in attacks:
        split = protocol_split(records, ratios, protocol_seed, attack=attack)
        leg_dir = Path(out_dir) / split.name if out_dir is not None else None
        _, report, _, _ = run_leg(split, pool, cfg, bpcer_target=bpcer_target, out_dir=leg_dir)
        rows.append(ProtocolOutcome(split.name, attack, report))
    acers = np.array([r.report.acer for r in rows])
    result = ExperimentResult(
        rows=tuple(rows),
        acer_mean=float(acers.mean()),
        acer_std=float(acers.std(ddof=0)),
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        wall_time_s=time.monotonic() - t0,
    )
    if out_dir is not None:
        _write_experiment_summary(Path(out_dir), result)
    return result


def _write_experiment_summary(out_dir: Path, result: ExperimentResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "rows": [
            {"protocol": r.protocol, "attack": r.attack, **asdict(r.report)}
            for r in result.rows
        ],
        "acer_mean": result.acer_mean,
        "acer_std": result.acer_std,
        "config_hash": result.config_hash,
        "seed": result.seed,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "run_meta.json").write_text(
        json.dumps({"wall_time_s": result.wall_time_s}) + "\n"
    )


def run_gamma_sweep(
    samples: Sequence[MultiModalSample],
    records: Sequence[ManifestRecord],
    cfg: TrainConfig,
    gammas: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
    out_dir: str | Path | None = None,
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    protocol_seed: int = 0,
    bpcer_target: float = 0.01,
) -> dict[float, ExperimentResult]:
    """Full leave-one-out run per focusing exponent; gamma 0 is the
    plain-BCE baseline by construction."""
    if len(gammas) == 0:
        raise ValueError("gamma list must be non-empty")
    legs = [f"gamma_{float(gamma):g}" for gamma in gammas]  # 6 significant digits
    if len(set(legs)) != len(legs):
        raise ValueError(f"repeated gamma in {list(gammas)}: leg directories {legs} collide")
    results = {}
    for gamma, leg in zip(gammas, legs):
        sweep_cfg = replace(cfg, loss=replace(cfg.loss, gamma=float(gamma)))
        leg_out = Path(out_dir) / leg if out_dir is not None else None
        results[float(gamma)] = run_loo(
            samples, records, sweep_cfg, out_dir=leg_out, ratios=ratios,
            protocol_seed=protocol_seed, bpcer_target=bpcer_target,
        )
    return results


def run_single_channel_study(
    samples: Sequence[MultiModalSample],
    records: Sequence[ManifestRecord],
    cfg: TrainConfig,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    out_dir: str | Path | None = None,
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    protocol_seed: int = 0,
    bpcer_target: float = 0.01,
) -> dict:
    """2x2 design: {BCE (gamma 0), cross-modal focal (cfg.loss.gamma)} x {head a, b}.

    Trains and scores each loss variant once per seed on the grandtest
    protocol, then thresholds each head on dev separately. Reports
    per-seed ACERs and the across-seed median per cell.
    """
    if len(seeds) == 0:
        raise ValueError("seed list must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seed in {list(seeds)}")
    split = protocol_split(records, ratios, protocol_seed)
    pool = by_id(samples)
    variants = {"bce": 0.0, "cmfl": float(cfg.loss.gamma)}
    per_seed: dict[str, list[float]] = {
        f"{variant}_head_{head}": [] for variant in variants for head in ("a", "b")
    }
    for seed in seeds:
        for variant, gamma in variants.items():
            run_cfg = replace(cfg, seed=seed, loss=replace(cfg.loss, gamma=gamma))
            _, report_a, dev, eval_ = run_leg(
                split, pool, run_cfg, "a", bpcer_target=bpcer_target
            )
            tau_b = threshold_at_bpcer(dev, target=bpcer_target, head="b")
            per_seed[f"{variant}_head_a"].append(report_a.acer)
            per_seed[f"{variant}_head_b"].append(apcer_bpcer_acer(eval_, tau_b, head="b").acer)
    study = {
        "per_seed": per_seed,
        "median": {cell: float(np.median(accs)) for cell, accs in per_seed.items()},
        "seeds": list(seeds),
        "protocol": split.name,
        "gamma_focal": variants["cmfl"],
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "single_channel_study.json").write_text(
            json.dumps(study, indent=2, sort_keys=True) + "\n"
        )
    return study


def run_cross_dataset(
    source: tuple[Sequence[MultiModalSample], Sequence[ManifestRecord]],
    target: tuple[Sequence[MultiModalSample], Sequence[ManifestRecord]],
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    protocol_seed: int = 0,
) -> dict:
    """Train on the source grandtest protocol, pick the EER threshold on the
    source dev fold, and report HTER on the target eval fold (plus the
    intra-dataset HTER for reference)."""
    src_samples, src_records = source
    tgt_samples, tgt_records = target
    for role, ss in (("source", src_samples), ("target", tgt_samples)):
        if not ss:
            raise DataError(f"{role} dataset is empty: its manifest lists no samples")
    shape_of = lambda ss: (ss[0].x_a.shape, ss[0].x_b.shape)
    if shape_of(src_samples) != shape_of(tgt_samples):
        raise DataError(
            f"incompatible shapes between datasets: "
            f"{shape_of(src_samples)} vs {shape_of(tgt_samples)}"
        )
    src_split = protocol_split(src_records, ratios, protocol_seed)
    tgt_split = protocol_split(tgt_records, ratios, protocol_seed)
    tgt_pool = by_id(tgt_samples)
    params, intra, dev_records, intra_records = run_leg(
        src_split, by_id(src_samples), cfg, threshold_rule="eer"
    )
    tau = intra.threshold
    cross_records = score_samples(params, [tgt_pool[i] for i in tgt_split.eval])
    cross = apcer_bpcer_acer(cross_records, tau, head="joint", threshold_rule="EER")
    result = {
        "threshold": tau,
        "threshold_rule": "EER",
        "dev_eer": eer_threshold(dev_records, head="joint")[1],
        "intra_hter": intra.hter,
        "cross_hter": cross.hter,
        "intra": asdict(intra),
        "cross": asdict(cross),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_score_file(out_dir / "scores_dev_joint.tsv", dev_records)
        write_score_file(out_dir / "scores_eval_intra_joint.tsv", intra_records)
        write_score_file(out_dir / "scores_eval_cross_joint.tsv", cross_records)
        (out_dir / "cross_dataset.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
    return result


# ---------------------------------------------------------------------------
# figures-as-tables


def dump_score_distributions(
    params: ParameterSet,
    split: ProtocolSplit,
    samples: dict[str, MultiModalSample],
    out_dir: str | Path | None = None,
) -> dict:
    """Per-head, per-class score histograms in 64 bins over [0, 1] for the
    eval fold, emitted as plot-ready tables, plus the per-head class
    overlap (shared bin mass, 0 = disjoint, 1 = identical)."""
    eval_group = [samples[sid] for sid in split.eval]
    records = score_samples(params, eval_group)
    edges = np.linspace(0.0, 1.0, 65)
    table: dict[str, dict[str, np.ndarray]] = {}
    overlap: dict[str, float] = {}
    for head in ("a", "b", "joint"):
        scores = np.array([r.score(head) for r in records])
        labels = np.array([r.label for r in records])
        hist = {}
        for cls, name in ((1, "bonafide"), (0, "attack")):
            hist[name], _ = np.histogram(scores[labels == cls], bins=edges)
        table[head] = hist
        p_bona = hist["bonafide"] / max(hist["bonafide"].sum(), 1)
        p_att = hist["attack"] / max(hist["attack"].sum(), 1)
        overlap[head] = float(np.minimum(p_bona, p_att).sum())

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_score_file(out_dir / "scores_eval.tsv", records)
        lines = ["head\tclass\tbin_lo\tbin_hi\tcount"]
        for head, hist in table.items():
            for cls_name, counts in hist.items():
                for b in range(len(counts)):
                    lines.append(
                        f"{head}\t{cls_name}\t{edges[b]:.6f}\t{edges[b + 1]:.6f}\t{counts[b]}"
                    )
        (out_dir / "histograms.tsv").write_text("\n".join(lines) + "\n")
    return {"histograms": table, "overlap": overlap, "bin_edges": edges}


def emit_loss_curves(
    gammas: Sequence[float] = (3.0,),
    q_values: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    out_path: str | Path | None = None,
) -> dict:
    """Tabulate the cross-modal focal loss over the target-probability grid
    for each (gamma, other-branch confidence q) pair, next to plain CE.

    The q = 0 column reproduces the CE column exactly and columns are
    pointwise non-increasing in q.
    """
    p_grid = np.round(np.arange(0.01, 0.995, 0.01), 10)
    ce = binary_ce(p_grid).value
    q_col = np.array(q_values, dtype=np.float64)[:, None]
    curves: dict[tuple[float, float], np.ndarray] = {}
    for gamma in gammas:
        table = cmfl(p_grid, q_col, 1.0, gamma).value  # (len(q_values), len(p_grid))
        for q, row in zip(q_values, table):
            curves[(float(gamma), float(q))] = row
    if out_path is not None:
        header = ["p_t", "ce"] + [f"g{g:g}_q{q:g}" for (g, q) in curves]
        lines = ["\t".join(header)]
        for i, p in enumerate(p_grid):
            row = [f"{p:.2f}", f"{ce[i]:.12g}"] + [
                f"{col[i]:.12g}" for col in curves.values()
            ]
            lines.append("\t".join(row))
        Path(out_path).write_text("\n".join(lines) + "\n")
    return {"p": p_grid, "ce": ce, "curves": curves}
