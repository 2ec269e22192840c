"""Evaluation metrics for binary attack-vs-bonafide scoring.

Decision convention, fixed so golden files stay stable: a sample is
accepted as bonafide when its score is >= the threshold (ties go
bonafide). Candidate thresholds are the midpoints between adjacent
sorted unique scores plus -inf/+inf sentinels, which makes every
threshold rule exact and checkable against `brute_force_sweep`.

Error-rate names: APCER is the fraction of attacks accepted, BPCER the
fraction of bonafide rejected; ACER is their average. FAR/FRR are the
same quantities under the cross-dataset naming convention, and HTER is
their average at a threshold carried over from a development set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ScoreRecord:
    """Per-sample scores from the three heads; higher means more bonafide."""

    sample_id: str
    label: int
    attack_type: str
    score_p: float
    score_q: float
    score_r: float

    def score(self, head: str) -> float:
        return {"a": self.score_p, "b": self.score_q, "joint": self.score_r}[head]


@dataclass(frozen=True)
class MetricsReport:
    threshold: float
    threshold_rule: str  # "BPCER_AT_TARGET" or "EER"
    apcer: float
    bpcer: float
    acer: float
    far: float
    frr: float
    hter: float
    n_attack: int
    n_bonafide: int


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    far: float
    frr: float
    apcer: float
    bpcer: float


def _split_scores(records: Sequence[ScoreRecord] | Sequence[tuple[float, int]],
                  head: str = "joint") -> tuple[np.ndarray, np.ndarray]:
    """Return (attack_scores, bonafide_scores) as float arrays."""
    attacks, bonafide = [], []
    for rec in records:
        if isinstance(rec, ScoreRecord):
            s, y = rec.score(head), rec.label
        else:
            s, y = rec
        if not math.isfinite(s):
            raise ValueError(f"non-finite score {s!r}")
        (bonafide if y == 1 else attacks).append(s)
    return np.asarray(attacks, dtype=np.float64), np.asarray(bonafide, dtype=np.float64)


def candidate_thresholds(scores: Iterable[float]) -> np.ndarray:
    """Midpoints between adjacent sorted unique scores, with +-inf sentinels."""
    uniq = np.unique(np.asarray(list(scores), dtype=np.float64))
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


def apcer_bpcer_acer(records: Sequence[ScoreRecord] | Sequence[tuple[float, int]],
                     threshold: float,
                     head: str = "joint",
                     threshold_rule: str = "BPCER_AT_TARGET") -> MetricsReport:
    attacks, bonafide = _split_scores(records, head)
    if len(attacks) == 0 or len(bonafide) == 0:
        raise ValueError("both classes must be present")
    # the >=-accepts convention: a score at the threshold is accepted as bonafide
    apcer = float(np.count_nonzero(attacks >= threshold)) / len(attacks)
    bpcer = float(np.count_nonzero(bonafide < threshold)) / len(bonafide)
    return MetricsReport(
        threshold=threshold,
        threshold_rule=threshold_rule,
        apcer=apcer,
        bpcer=bpcer,
        acer=(apcer + bpcer) / 2.0,
        far=apcer,
        frr=bpcer,
        hter=(apcer + bpcer) / 2.0,
        n_attack=len(attacks),
        n_bonafide=len(bonafide),
    )


def threshold_at_bpcer(dev_records: Sequence[ScoreRecord] | Sequence[tuple[float, int]],
                       target: float = 0.01,
                       head: str = "joint") -> float:
    """Tightest candidate threshold whose dev-set BPCER stays <= target.

    BPCER is monotone non-decreasing in the threshold. The rule walks the
    candidate grid upward and returns the last candidate before BPCER
    first exceeds the target; with fewer than 1/target bonafide samples
    this lands just below the minimum bonafide score (BPCER pinned to
    zero). When no candidate violates (target = 1), the bottom sentinel
    is returned.
    """
    attacks, bonafide = _split_scores(dev_records, head)
    if len(bonafide) == 0:
        raise ValueError("at least one bonafide record required")
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must be in [0, 1]")
    cands = candidate_thresholds(np.concatenate((attacks, bonafide)))
    sorted_bona = np.sort(bonafide)
    # BPCER(tau) = fraction of bonafide strictly below tau
    bpcer = np.searchsorted(sorted_bona, cands, side="left") / len(sorted_bona)
    violating = np.nonzero(bpcer > target)[0]
    if len(violating) == 0:
        return float(cands[0])
    return float(cands[violating[0] - 1])


def eer_threshold(dev_records: Sequence[ScoreRecord] | Sequence[tuple[float, int]],
                  head: str = "joint") -> tuple[float, float]:
    """Threshold minimizing |FAR - FRR| over the candidate grid, ties broken
    toward the smaller threshold; returns (threshold, (FAR+FRR)/2 there)."""
    attacks, bonafide = _split_scores(dev_records, head)
    if len(attacks) == 0 or len(bonafide) == 0:
        raise ValueError("both classes must be present")
    cands = candidate_thresholds(np.concatenate((attacks, bonafide)))
    sorted_att = np.sort(attacks)
    sorted_bona = np.sort(bonafide)
    # FAR(tau) = fraction of attacks >= tau; FRR(tau) = fraction bonafide < tau.
    # Rates are kept as count/total so they match brute force to the last bit.
    below_att = np.searchsorted(sorted_att, cands, side="left")
    far = (len(sorted_att) - below_att) / len(sorted_att)
    frr = np.searchsorted(sorted_bona, cands, side="left") / len(sorted_bona)
    gaps = np.abs(far - frr)
    idx = int(np.argmin(gaps))  # argmin takes the first (smallest tau) on ties
    return float(cands[idx]), float((far[idx] + frr[idx]) / 2.0)


def brute_force_sweep(records: Sequence[ScoreRecord] | Sequence[tuple[float, int]],
                      head: str = "joint") -> list[SweepRow]:
    """Exhaustive (threshold, FAR, FRR, APCER, BPCER) table computed the slow,
    obvious way. Every threshold rule in this module must agree with it
    exactly; it is the oracle, so it deliberately shares no code with them."""
    pairs = []
    for rec in records:
        if isinstance(rec, ScoreRecord):
            pairs.append((rec.score(head), rec.label))
        else:
            pairs.append((float(rec[0]), int(rec[1])))
    if not pairs:
        raise ValueError("no records")
    uniq = sorted({s for s, _ in pairs})
    cands = [-math.inf]
    for a, b in zip(uniq, uniq[1:]):
        cands.append((a + b) / 2.0)
    cands.append(math.inf)

    rows = []
    n_att = sum(1 for _, y in pairs if y == 0)
    n_bona = sum(1 for _, y in pairs if y == 1)
    for tau in cands:
        fa = sum(1 for s, y in pairs if y == 0 and s >= tau)
        fr = sum(1 for s, y in pairs if y == 1 and s < tau)
        far = fa / n_att if n_att else 0.0
        frr = fr / n_bona if n_bona else 0.0
        rows.append(SweepRow(threshold=tau, far=far, frr=frr, apcer=far, bpcer=frr))
    return rows


# ---------------------------------------------------------------------------
# score and report files


SCORE_HEADER = ["sample_id", "label", "attack_type", "score_p", "score_q", "score_r"]


def _fmt_score(x: float) -> str:
    return f"{x:.9g}"


def write_score_file(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    lines = ["\t".join(SCORE_HEADER)]
    for r in records:
        lines.append(
            "\t".join(
                [
                    r.sample_id,
                    str(r.label),
                    r.attack_type,
                    _fmt_score(r.score_p),
                    _fmt_score(r.score_q),
                    _fmt_score(r.score_r),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_score_file(path: str | Path) -> list[ScoreRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split("\t") != SCORE_HEADER:
        raise ValueError(f"bad score file header in {path}")
    out = []
    for line in lines[1:]:
        sid, label, attack_type, sp, sq, sr = line.split("\t")
        out.append(
            ScoreRecord(sid, int(label), attack_type, float(sp), float(sq), float(sr))
        )
    return out


def _spell_non_finite(value):
    """`value` with each non-finite float spelled "inf", "-inf" or "nan", as
    the score files spell it."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _spell_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(v) for v in value]
    return value


def write_json(path: str | Path, payload: dict) -> None:
    """`payload` as strict JSON (indented, keys sorted); a threshold sentinel
    or other non-finite float becomes a string (`_spell_non_finite`)."""
    text = json.dumps(_spell_non_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_report(path: str | Path, report: MetricsReport, provenance: dict) -> None:
    """Report file: all metric fields plus provenance (protocol, head, rule)."""
    write_json(path, {"metrics": asdict(report), "provenance": dict(provenance)})
