import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpad.metrics import (
    MetricsReport,
    ScoreRecord,
    apcer_bpcer_acer,
    brute_force_sweep,
    candidate_thresholds,
    eer_threshold,
    read_score_file,
    threshold_at_bpcer,
    write_report,
    write_score_file,
)


def recs(attacks, bonafide):
    out = [(s, 0) for s in attacks] + [(s, 1) for s in bonafide]
    return out


class TestApcerBpcerAcer:
    def test_perfect_separation(self):
        rep = apcer_bpcer_acer(recs([0.1, 0.2], [0.8, 0.9]), 0.5)
        assert rep.apcer == 0.0 and rep.bpcer == 0.0 and rep.acer == 0.0

    def test_all_scores_equal(self):
        rep = apcer_bpcer_acer(recs([0.5, 0.5], [0.5, 0.5]), 0.5)
        assert rep.apcer == 1.0 and rep.bpcer == 0.0 and rep.acer == 0.5

    def test_interleaved(self):
        rep = apcer_bpcer_acer(recs([0.2, 0.6], [0.4, 0.8]), 0.5)
        assert rep.apcer == 0.5 and rep.bpcer == 0.5 and rep.acer == 0.5

    def test_class_absent(self):
        with pytest.raises(ValueError):
            apcer_bpcer_acer([(0.5, 0)], 0.5)

    def test_acer_identity_exact(self):
        rep = apcer_bpcer_acer(recs([0.1, 0.4, 0.6], [0.3, 0.7]), 0.45)
        assert rep.acer == (rep.apcer + rep.bpcer) / 2.0


class TestThresholdAtBpcer:
    BONA = [0.6, 0.7, 0.8, 0.9]

    def test_unattainable_target_lands_below_min_bonafide(self):
        tau = threshold_at_bpcer(recs([0.1, 0.5], self.BONA), target=0.01)
        assert tau < 0.6
        # and BPCER there is zero
        assert all(b >= tau for b in self.BONA)

    def test_quarter_target(self):
        tau = threshold_at_bpcer(recs([0.1, 0.5], self.BONA), target=0.25)
        assert 0.6 < tau <= 0.7
        bpcer = sum(1 for b in self.BONA if b < tau) / len(self.BONA)
        assert bpcer == 0.25

    def test_target_one_returns_bottom(self):
        tau = threshold_at_bpcer(recs([0.1], self.BONA), target=1.0)
        assert tau == -math.inf

    def test_no_bonafide(self):
        with pytest.raises(ValueError):
            threshold_at_bpcer([(0.5, 0)], target=0.01)


class TestEerThreshold:
    def test_perfect_separation(self):
        tau, eer = eer_threshold(recs([0.1, 0.2], [0.8, 0.9]))
        assert eer == 0.0
        assert 0.2 < tau < 0.8

    def test_identical_distributions(self):
        scores = [0.2, 0.4, 0.6, 0.8]
        tau, eer = eer_threshold(recs(scores, scores))
        assert abs(eer - 0.5) <= 0.25  # within one candidate step

    def test_interleaved_pairs(self):
        tau, eer = eer_threshold(recs([0.1, 0.3], [0.2, 0.4]))
        assert 0.2 < tau < 0.3
        assert eer == 0.5

    def test_class_absent(self):
        with pytest.raises(ValueError):
            eer_threshold([(0.5, 1)])


class TestHter:
    def test_threshold_below_everything(self):
        rep = apcer_bpcer_acer(recs([0.2, 0.6], [0.4, 0.8]), -math.inf)
        assert rep.far == 1.0 and rep.frr == 0.0 and rep.hter == 0.5

    def test_perfect(self):
        rep = apcer_bpcer_acer(recs([0.1], [0.9]), 0.5)
        assert rep.hter == 0.0

    def test_interleaved(self):
        rep = apcer_bpcer_acer(recs([0.2, 0.6], [0.4, 0.8]), 0.5)
        assert rep.hter == 0.5
        assert rep.hter == (rep.far + rep.frr) / 2.0


class TestBruteForceSweep:
    def test_row_count_bound(self):
        rows = brute_force_sweep(recs([0.1, 0.2, 0.3], [0.4, 0.5]))
        assert len(rows) <= 5 + 1

    def test_monotone_rates(self):
        rows = brute_force_sweep(recs([0.1, 0.5, 0.3], [0.2, 0.8, 0.5]))
        fars = [r.far for r in rows]
        frrs = [r.frr for r in rows]
        assert all(b <= a for a, b in zip(fars, fars[1:]))
        assert all(b >= a for a, b in zip(frrs, frrs[1:]))

    def test_candidate_grid_matches_fast_path(self):
        scores = [0.1, 0.5, 0.3, 0.2, 0.8, 0.5]
        rows = brute_force_sweep(recs(scores[:3], scores[3:]))
        assert [r.threshold for r in rows] == list(candidate_thresholds(scores))


score_sets = st.lists(
    st.tuples(
        st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 2)),
        st.integers(0, 1),
    ),
    min_size=2,
    max_size=200,
).filter(lambda rs: any(y == 0 for _, y in rs) and any(y == 1 for _, y in rs))


@given(records=score_sets, target=st.sampled_from([0.01, 0.1, 0.25, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_threshold_at_bpcer_agrees_with_sweep(records, target):
    tau = threshold_at_bpcer(records, target=target)
    rows = brute_force_sweep(records)
    admissible = [r.threshold for r in rows if r.bpcer <= target]
    violating = [r.threshold for r in rows if r.bpcer > target]
    if violating:
        expected = max(t for t in admissible if t < min(violating))
    else:
        expected = rows[0].threshold
    assert tau == expected


@given(records=score_sets)
@settings(max_examples=300, deadline=None)
def test_eer_agrees_with_sweep(records, ):
    tau, eer = eer_threshold(records)
    rows = brute_force_sweep(records)
    best = min(rows, key=lambda r: (abs(r.far - r.frr), r.threshold))
    assert tau == best.threshold
    assert eer == (best.far + best.frr) / 2.0


@given(records=score_sets, tau=st.floats(-6, 6, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_report_rates_agree_with_direct_count(records, tau):
    rep = apcer_bpcer_acer(records, tau)
    n_att = sum(1 for _, y in records if y == 0)
    n_bona = sum(1 for _, y in records if y == 1)
    assert rep.apcer == sum(1 for s, y in records if y == 0 and s >= tau) / n_att
    assert rep.bpcer == sum(1 for s, y in records if y == 1 and s < tau) / n_bona


@given(records=score_sets)
@settings(max_examples=100, deadline=None)
def test_order_invariance(records):
    rev = list(reversed(records))
    assert threshold_at_bpcer(records, 0.1) == threshold_at_bpcer(rev, 0.1)
    assert eer_threshold(records) == eer_threshold(rev)


@given(records=score_sets, lo=st.floats(-6, 6), hi=st.floats(-6, 6))
@settings(max_examples=100, deadline=None)
def test_monotone_threshold_response(records, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    a = apcer_bpcer_acer(records, lo)
    b = apcer_bpcer_acer(records, hi)
    assert b.apcer <= a.apcer
    assert b.bpcer >= a.bpcer


class TestScoreFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        records = [
            ScoreRecord("s0", 1, "bonafide", 0.123456789, 0.5, 0.987654321),
            ScoreRecord("s1", 0, "texture_a", 0.25, 1e-4, 0.75),
        ]
        path = tmp_path / "scores.tsv"
        write_score_file(path, records)
        back = read_score_file(path)
        assert back == records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_score_file(path)

    def test_report_roundtrip(self, tmp_path):
        rep = apcer_bpcer_acer(recs([0.2], [0.8]), 0.5)
        path = tmp_path / "report.json"
        write_report(path, rep, {"protocol": "demo", "head": "joint", "rule": "EER"})
        data = json.loads(path.read_text())
        assert data["metrics"]["acer"] == 0.0
        assert data["provenance"]["protocol"] == "demo"
