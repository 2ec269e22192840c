import inspect
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmpad import harness, network
from cmpad.datagen import GeneratorSpec, MultiModalSample, generate
from cmpad.datasets import make_grandtest, make_loo
from cmpad.errors import DataError
from cmpad.harness import (
    Protocol,
    TrainConfig,
    by_id,
    config_hash,
    dump_score_distributions,
    emit_loss_curves,
    evaluate,
    protocol_split,
    run_cross_dataset,
    run_gamma_sweep,
    run_loo,
    run_single_channel_study,
    score_samples,
    train,
)
from cmpad.losses import LossParams, binary_ce
from cmpad.metrics import read_score_file
from cmpad.network import (
    NetworkConfig, backward, backward_from_head_grads, forward_cached, init_network,
    save_checkpoint,
)
from tests.conftest import TINY_SPEC, TINY_TRAIN


@pytest.fixture(scope="session")
def grandtest(tiny_records):
    return make_grandtest(tiny_records, seed=2)


class TestProtocol:
    @pytest.mark.parametrize("kwargs, key", [
        ({"ratios": [0.5, 0.5]}, "protocol.ratios"),
        ({"ratios": [-0.25, 0.75, 0.5]}, "protocol.ratios"),
        ({"ratios": [0.5, 0.2, 0.2]}, "protocol.ratios"),  # sums to 0.9
        ({"ratios": [True, 0, 0]}, "protocol.ratios"),  # a bool is not a fraction
        ({"bpcer_target": 1.5}, "protocol.bpcer_target"),
        ({"bpcer_target": float("nan")}, "protocol.bpcer_target"),
        ({"seed": -1}, "protocol.seed"),
        ({"seed": 2**31}, "protocol.seed"),
    ])
    def test_rejects_naming_the_key(self, kwargs, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            Protocol(**kwargs)

    def test_ratios_are_stored_as_a_tuple(self):
        assert Protocol(ratios=[0.5, 0.25, 0.25]) == Protocol()

    @pytest.mark.parametrize("design", [
        protocol_split, run_loo, run_gamma_sweep, run_single_channel_study, run_cross_dataset,
    ])
    def test_designs_take_one_protocol_value(self, design):
        parameters = set(inspect.signature(design).parameters)
        assert "protocol" in parameters
        assert not parameters & {"ratios", "protocol_seed", "bpcer_target"}


class TestTrain:
    def test_deterministic_checkpoint(self, grandtest, tiny_samples, tiny_cfg, tmp_path):
        pool = by_id(tiny_samples)
        params1, log1 = train(grandtest, pool, tiny_cfg)
        params2, log2 = train(grandtest, pool, tiny_cfg)
        assert log1 == log2
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params1, p1)
        save_checkpoint(params2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_log_finite(self, grandtest, tiny_samples, tiny_cfg):
        _, log = train(grandtest, by_id(tiny_samples), tiny_cfg)
        assert len(log) == tiny_cfg.epochs
        assert all(math.isfinite(x) for x in log)

    def test_decreasing_trend_majority_of_seeds(self, grandtest, tiny_samples, tiny_cfg):
        pool = by_id(tiny_samples)
        wins = 0
        for seed in range(5):
            _, log = train(grandtest, pool, replace(tiny_cfg, seed=seed))
            wins += log[-1] < log[0]
        assert wins >= 3

    def test_augmentation_does_not_perturb_init(self, grandtest, tiny_samples, tiny_cfg):
        pool = by_id(tiny_samples)
        one_epoch = replace(tiny_cfg, epochs=1, hflip_prob=0.0)
        with_flip = replace(tiny_cfg, epochs=1, hflip_prob=1.0)
        from cmpad.network import init_network

        # both configs must start from the same derived init
        p0, _ = train(grandtest, pool, one_epoch)
        p1, _ = train(grandtest, pool, with_flip)
        assert p0.config == p1.config  # same derived init seed

    def test_no_flip_is_deterministic_across_calls(self, grandtest, tiny_samples, tiny_cfg):
        pool = by_id(tiny_samples)
        cfg = replace(tiny_cfg, hflip_prob=0.0)
        _, log1 = train(grandtest, pool, cfg)
        _, log2 = train(grandtest, pool, cfg)
        assert log1 == log2

    def test_each_step_stacks_only_its_batch(self, grandtest, tiny_samples, tiny_cfg,
                                             monkeypatch):
        cfg = replace(tiny_cfg, batch_size=5)
        sizes = []
        real = harness._rasters

        def spy(samples, channel, net):
            sizes.append(len(samples))
            return real(samples, channel, net)

        monkeypatch.setattr(harness, "_rasters", spy)
        train(grandtest, by_id(tiny_samples), cfg)
        n = len(grandtest.train)
        assert n > cfg.batch_size
        assert max(sizes) <= cfg.batch_size  # no stack of the whole fold
        assert sum(sizes) == 2 * cfg.epochs * n  # each sample once per channel and epoch

    def test_batches_are_the_shuffled_flipped_samples(self, grandtest, tiny_samples, tiny_cfg,
                                                      monkeypatch):
        cfg = replace(tiny_cfg, batch_size=5, hflip_prob=0.5)
        seen = []
        real = harness.backward

        def spy(params, x_a, x_b, ys, *rest):
            seen.append((np.stack(x_a), np.stack(x_b), ys.copy()))
            return real(params, x_a, x_b, ys, *rest)

        monkeypatch.setattr(harness, "backward", spy)
        pool = by_id(tiny_samples)
        train(grandtest, pool, cfg)

        # the reference batches, built as acceptance criterion 05 builds them
        fold = [pool[sid] for sid in grandtest.train]
        n, want, flipped = len(fold), [], 0
        for epoch in range(cfg.epochs):
            order = harness._stream(cfg.seed, "shuffle", epoch).permutation(n)
            flips = harness._stream(cfg.seed, "augment", epoch).random(n) < cfg.hflip_prob
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xa = np.stack([fold[i].x_a for i in idx])
                xb = np.stack([fold[i].x_b for i in idx])
                flip = flips[idx]
                xa[flip] = xa[flip][..., ::-1]
                xb[flip] = xb[flip][..., ::-1]
                want.append((xa, xb, np.array([fold[i].label for i in idx])))
                flipped += int(flip.sum())
        assert 0 < flipped < cfg.epochs * n  # both flipped and unflipped rows occur
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and g.shape == r.shape
                assert g.tobytes() == r.tobytes()

    def test_batches_are_views_of_the_samples(self, grandtest, tiny_samples, tiny_cfg,
                                              monkeypatch):
        # the network's padded buffer is the only copy a step makes of its pixels
        cfg = replace(tiny_cfg, batch_size=5, hflip_prob=0.5)
        pool = by_id(tiny_samples)
        fold = [pool[sid] for sid in grandtest.train]
        seen = []
        real = harness.backward

        def spy(params, x_a, x_b, ys, *rest):
            seen.append((list(x_a), list(x_b)))
            return real(params, x_a, x_b, ys, *rest)

        monkeypatch.setattr(harness, "backward", spy)
        train(grandtest, pool, cfg)
        n, flipped, k = len(fold), 0, 0
        for epoch in range(cfg.epochs):
            order = harness._stream(cfg.seed, "shuffle", epoch).permutation(n)
            for start in range(0, n, cfg.batch_size):
                xs_a, xs_b = seen[k]
                k += 1
                for i, x_a, x_b in zip(order[start : start + cfg.batch_size], xs_a, xs_b):
                    assert np.shares_memory(x_a, fold[i].x_a)
                    assert np.shares_memory(x_b, fold[i].x_b)
                    flipped += x_a is not fold[i].x_a
        assert k == len(seen)
        assert 0 < flipped < cfg.epochs * n  # flipped rows are views too

    def test_degenerate_split_rejected(self, grandtest, tiny_samples, tiny_cfg):
        pool = by_id(tiny_samples)
        bona_only = [
            sid for sid in grandtest.train if pool[sid].attack_type == "bonafide"
        ]
        degenerate = replace(grandtest, train=tuple(bona_only))
        with pytest.raises(DataError, match="degenerate"):
            train(degenerate, pool, tiny_cfg)


@pytest.fixture(scope="session")
def trained(grandtest, tiny_samples):
    params, _ = train(grandtest, by_id(tiny_samples), TINY_TRAIN)
    return params


class TestEvaluate:

    def test_report_and_files(self, trained, grandtest, tiny_samples, tmp_path):
        report, dev, evl = evaluate(
            trained, grandtest, by_id(tiny_samples), out_dir=tmp_path
        )
        assert 0.0 <= report.acer <= 1.0
        assert (tmp_path / "scores_dev_joint.tsv").exists()
        assert (tmp_path / "scores_eval_joint.tsv").exists()
        data = json.loads((tmp_path / f"report_{grandtest.name}.json").read_text())
        assert data["provenance"]["head"] == "joint"
        assert data["provenance"]["threshold_rule"] == "BPCER_AT_TARGET"
        back = read_score_file(tmp_path / "scores_eval_joint.tsv")
        assert len(back) == len(grandtest.eval)

    def test_single_channel_evaluation_nan_columns(self, trained, grandtest, tiny_samples, tmp_path):
        pool = by_id(tiny_samples)
        stripped = {
            sid: replace(s, x_a=None) for sid, s in pool.items()
        }
        report, dev, evl = evaluate(
            trained, grandtest, stripped, head="b", out_dir=tmp_path
        )
        assert 0.0 <= report.acer <= 1.0
        assert all(math.isnan(r.score_p) and math.isnan(r.score_r) for r in evl)
        assert all(math.isfinite(r.score_q) for r in evl)

    def test_missing_channel_for_head_errors(self, trained, grandtest, tiny_samples):
        pool = by_id(tiny_samples)
        stripped = {sid: replace(s, x_b=None) for sid, s in pool.items()}
        with pytest.raises(DataError, match="head"):
            evaluate(trained, grandtest, stripped, head="joint")

    def test_eer_rule_recorded(self, trained, grandtest, tiny_samples, tmp_path):
        report, _, _ = evaluate(
            trained, grandtest, by_id(tiny_samples),
            threshold_rule="eer", out_dir=tmp_path,
        )
        assert report.threshold_rule == "EER"


class TestRunLoo:
    def test_rows_and_aggregate(self, tiny_samples, tiny_records, tiny_cfg, tmp_path):
        result = run_loo(
            tiny_samples, tiny_records, tiny_cfg, out_dir=tmp_path
        )
        assert len(result.rows) == 3
        acers = [r.report.acer for r in result.rows]
        assert abs(result.acer_mean - np.mean(acers)) <= 1e-12
        assert abs(result.acer_std - np.std(acers)) <= 1e-12
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["rows"]) == 3
        for row in result.rows:
            assert (tmp_path / row.protocol / f"report_{row.protocol}.json").exists()
            assert (tmp_path / row.protocol / "checkpoint.bin").exists()

    def test_byte_identical_reruns(self, tiny_samples, tiny_records, tiny_cfg, tmp_path):
        run_loo(tiny_samples, tiny_records, tiny_cfg, out_dir=tmp_path / "r1")
        run_loo(tiny_samples, tiny_records, tiny_cfg, out_dir=tmp_path / "r2")
        files1 = sorted((tmp_path / "r1").rglob("*"))
        files2 = sorted((tmp_path / "r2").rglob("*"))
        names1 = [p.relative_to(tmp_path / "r1") for p in files1 if p.is_file()]
        names2 = [p.relative_to(tmp_path / "r2") for p in files2 if p.is_file()]
        assert names1 == names2
        for rel in names1:
            if rel.name == "run_meta.json":
                continue  # wall time is volatile by design
            assert (tmp_path / "r1" / rel).read_bytes() == (tmp_path / "r2" / rel).read_bytes(), rel

    def test_needs_two_attacks(self, tiny_cfg, tmp_path):
        spec = GeneratorSpec(
            image_size=16, n_identities=6, samples_per_identity=2,
            attack_types=("A_VISIBLE",), seed=3,
        )
        samples = generate(spec)
        from cmpad.datasets import save_dataset

        records = save_dataset(samples, tmp_path / "ds", force=True)
        with pytest.raises(DataError, match="at least 2 attack types"):
            run_loo(samples, records, tiny_cfg)


class TestGammaSweep:
    def test_two_gammas(self, tiny_samples, tiny_records, tiny_cfg):
        results = run_gamma_sweep(
            tiny_samples, tiny_records, tiny_cfg, gammas=(0.0, 3.0)
        )
        assert set(results) == {0.0, 3.0}
        for result in results.values():
            assert len(result.rows) == 3

    def test_negative_gamma_rejected(self, tiny_samples, tiny_records, tiny_cfg):
        with pytest.raises(ValueError, match="gamma"):
            run_gamma_sweep(
                tiny_samples, tiny_records, tiny_cfg, gammas=(-1.0,)
            )

    def test_gamma_zero_first_batch_matches_independent_bce(self, grandtest, tiny_samples, tiny_cfg):
        # independently coded per-head BCE + joint BCE objective
        pool = by_id(tiny_samples)
        batch = [pool[sid] for sid in sorted(grandtest.train)[: tiny_cfg.batch_size]]
        xa = np.stack([s.x_a for s in batch])
        xb = np.stack([s.x_b for s in batch])
        ys = np.array([s.label for s in batch])
        lp = LossParams(gamma=0.0, mix_lambda=0.5)

        from cmpad.network import init_network

        params = init_network(tiny_cfg.network)
        grads, batch_loss, out = backward(params, xa, xb, ys, lp)

        eps = 1e-7
        def bce_term(prob, y):
            pt = prob if y == 1 else 1.0 - prob
            pt = min(max(pt, eps), 1 - eps)
            val = -math.log(pt)
            d_raw = (-1.0 / pt) * (1.0 if y == 1 else -1.0)
            return val, d_raw

        vals, dps, dqs, drs = [], [], [], []
        for i in range(len(batch)):
            vp, dp = bce_term(out.p[i], ys[i])
            vq, dq = bce_term(out.q[i], ys[i])
            vr, dr = bce_term(out.r[i], ys[i])
            vals.append(0.5 * vr + 0.5 * (vp + vq))
            dps.append(0.5 * dp)
            dqs.append(0.5 * dq)
            drs.append(0.5 * dr)
        assert abs(batch_loss.value - np.mean(vals)) <= 1e-12

        _, caches = forward_cached(params, xa, xb)
        ref = backward_from_head_grads(
            params, out, caches, np.array(dps), np.array(dqs), np.array(drs)
        )
        for name in grads:
            assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12, name


def traced_peak(fn):
    """(fn(), peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoringKeepsNoCaches:
    def test_bit_equal_to_forward_cached_at_lower_peak(self):
        desk = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk.json").read_text())
        cfg = NetworkConfig(**desk["network"])
        params = init_network(cfg)
        rng = np.random.default_rng(3)
        n, size = 144, (cfg.input_height, cfg.input_width)
        xa, xb = rng.random((n, cfg.channels_a, *size)), rng.random((n, cfg.channels_b, *size))
        group = [
            MultiModalSample(id=f"s{i}", identity="i0", x_a=xa[i], x_b=xb[i], label=i % 2,
                             attack_type="bonafide" if i % 2 else "A_VISIBLE")
            for i in range(n)
        ]

        records, score_peak = traced_peak(lambda: score_samples(params, group))
        (out, _), cached_peak = traced_peak(lambda: forward_cached(params, xa, xb))
        for field_name, probs in (("score_p", out.p), ("score_q", out.q), ("score_r", out.r)):
            np.testing.assert_array_equal([getattr(r, field_name) for r in records], probs)
        # neither pass copies its inputs outside the layer-0 padded buffer
        assert score_peak <= 0.6 * cached_peak, (score_peak, cached_peak)

    def test_network_reads_the_samples_own_rasters(self, grandtest, tiny_samples, tiny_cfg,
                                                   monkeypatch):
        params = init_network(tiny_cfg.network)
        group = [by_id(tiny_samples)[sid] for sid in grandtest.eval]
        seen = []
        real = harness._forward

        def spy(params, x_a, x_b, *rest, **kw):
            seen.append((x_a, x_b))
            return real(params, x_a, x_b, *rest, **kw)

        monkeypatch.setattr(harness, "_forward", spy)
        score_samples(params, group)
        ((x_a, x_b),) = seen
        assert len(x_a) == len(x_b) == len(group)
        for s, a, b in zip(group, x_a, x_b):
            assert a is s.x_a and b is s.x_b


class TestChunkedScoring:
    def test_desk_group_bit_equal_to_one_pass_at_a_quarter_of_its_peak(self, monkeypatch):
        cfg = NetworkConfig()  # the desk geometry
        params = init_network(cfg)
        rng = np.random.default_rng(5)
        n, size = 576, (cfg.input_height, cfg.input_width)
        group = [
            MultiModalSample(id=f"s{i}", identity="i0", x_a=rng.random((cfg.channels_a, *size)),
                             x_b=rng.random((cfg.channels_b, *size)), label=i % 2,
                             attack_type="bonafide" if i % 2 else "A_VISIBLE")
            for i in range(n)
        ]

        chunked, chunked_peak = traced_peak(lambda: score_samples(params, group))
        monkeypatch.setattr(network, "_slice_len", lambda cfg: n)  # one pass, as unchunked
        whole, whole_peak = traced_peak(lambda: score_samples(params, group))
        assert chunked == whole  # every score bit-equal
        assert chunked_peak <= 0.25 * whole_peak, (chunked_peak, whole_peak)


class TestSingleChannelStudy:
    def test_cells_and_medians(self, tiny_samples, tiny_records, tiny_cfg, tmp_path):
        study = run_single_channel_study(
            tiny_samples, tiny_records, tiny_cfg,
            seeds=(0, 1), out_dir=tmp_path,
        )
        assert set(study["per_seed"]) == {
            "bce_head_a", "bce_head_b", "cmfl_head_a", "cmfl_head_b"
        }
        for accs in study["per_seed"].values():
            assert len(accs) == 2
        assert (tmp_path / "single_channel_study.json").exists()

    def test_each_leg_scored_once(self, tiny_samples, tiny_records, tiny_cfg, tmp_path,
                                  monkeypatch):
        calls = []
        real = harness._forward

        def spy(params, x_a, x_b, cached=False):
            calls.append((x_a is not None, x_b is not None, cached))
            return real(params, x_a, x_b, cached)

        monkeypatch.setattr(harness, "_forward", spy)
        studies = []
        for run in ("r1", "r2"):
            calls.clear()
            run_single_channel_study(
                tiny_samples, tiny_records, tiny_cfg, seeds=(0,), out_dir=tmp_path / run
            )
            # 2 legs (bce, cmfl), each scored on dev and on eval, both channels at
            # once and without backward caches
            assert calls == [(True, True, False)] * 4
            studies.append((tmp_path / run / "single_channel_study.json").read_bytes())
        assert studies[0] == studies[1]


class TestCrossDataset:
    def test_source_equals_target_degenerate(self, tiny_samples, tiny_records, tiny_cfg):
        result = run_cross_dataset(
            (tiny_samples, tiny_records),
            (tiny_samples, tiny_records),
            tiny_cfg,
        )
        assert result["cross_hter"] == result["intra_hter"]
        assert result["threshold_rule"] == "EER"

    def test_shape_mismatch_rejected(self, tiny_samples, tiny_records, tiny_cfg):
        other = generate(GeneratorSpec(image_size=32, n_identities=6, samples_per_identity=2, seed=1))
        with pytest.raises(DataError, match="incompatible shapes"):
            run_cross_dataset(
                (tiny_samples, tiny_records), (other, []), tiny_cfg
            )

    def test_sensor_mismatch_degrades_cross_hter(self, tiny_cfg):
        # noisier target emulates a sensor change; degradation must show in
        # a majority-of-seeds sense, never judged from a single run
        from cmpad.datasets import ManifestRecord

        def mk(noise, seed):
            spec = GeneratorSpec(
                image_size=16, n_identities=8, samples_per_identity=8,
                noise_sigma=noise, seed=seed,
            )
            samples = generate(spec)
            records = [
                ManifestRecord(s.id, "", "", s.label, s.attack_type, s.identity)
                for s in samples
            ]
            return samples, records

        source = mk(0.05, 7)
        target = mk(0.15, 21)
        from cmpad.network import NetworkConfig

        cfg = replace(
            tiny_cfg,
            network=NetworkConfig(
                input_height=16, input_width=16, blocks_per_branch=2,
                base_filters=8, embedding_dim=16,
            ),
            epochs=6, batch_size=32,
        )
        wins = 0
        for seed in range(5):
            result = run_cross_dataset(
                source, target, replace(cfg, seed=seed), protocol=Protocol(seed=0)
            )
            wins += result["cross_hter"] >= result["intra_hter"]
        assert wins >= 4


class TestScoreDistributions:
    def test_histogram_conservation(self, grandtest, tiny_samples, tiny_cfg, tmp_path):
        pool = by_id(tiny_samples)
        params, _ = train(grandtest, pool, tiny_cfg)
        result = dump_score_distributions(params, grandtest, pool, out_dir=tmp_path)
        n_bona = sum(pool[sid].label == 1 for sid in grandtest.eval)
        n_att = len(grandtest.eval) - n_bona
        for head, hist in result["histograms"].items():
            assert hist["bonafide"].sum() == n_bona
            assert hist["attack"].sum() == n_att
        assert (tmp_path / "histograms.tsv").exists()
        assert (tmp_path / "scores_eval.tsv").exists()
        assert not list(tmp_path.glob("scores_eval_*.tsv"))

    def test_overlap_in_unit_range(self, grandtest, tiny_samples, tiny_cfg):
        pool = by_id(tiny_samples)
        params, _ = train(grandtest, pool, tiny_cfg)
        result = dump_score_distributions(params, grandtest, pool)
        for head, val in result["overlap"].items():
            assert 0.0 <= val <= 1.0


class TestLossCurves:
    def test_q_zero_column_equals_ce(self, tmp_path):
        result = emit_loss_curves(gammas=(3.0,), q_values=(0.0, 0.5, 1.0),
                                  out_path=tmp_path / "losscurve.tsv")
        np.testing.assert_allclose(
            result["curves"][(3.0, 0.0)], result["ce"], rtol=0, atol=1e-12
        )
        assert (tmp_path / "losscurve.tsv").exists()

    def test_columns_non_increasing_in_q(self):
        result = emit_loss_curves(gammas=(3.0,), q_values=(0.0, 0.3, 0.6, 0.9))
        qs = [0.0, 0.3, 0.6, 0.9]
        for lo, hi in zip(qs, qs[1:]):
            assert np.all(
                result["curves"][(3.0, hi)] <= result["curves"][(3.0, lo)] + 1e-15
            )

    def test_spot_value(self):
        result = emit_loss_curves(gammas=(3.0,), q_values=(1.0,))
        grid = result["p"]
        idx = int(np.argmin(np.abs(grid - 0.5)))
        assert grid[idx] == pytest.approx(0.5, abs=1e-9)
        expected = (1.0 / 3.0) ** 3 * math.log(2)
        assert result["curves"][(3.0, 1.0)][idx] == pytest.approx(expected, abs=1e-12)
        assert result["curves"][(3.0, 1.0)][idx] == pytest.approx(0.025672, abs=1e-6)

    def test_grid_covers_unit_interval(self):
        result = emit_loss_curves()
        assert result["p"][0] == pytest.approx(0.01)
        assert result["p"][-1] == pytest.approx(0.99)
        assert len(result["p"]) == 99


def test_config_hash_stable_and_sensitive(tiny_cfg):
    assert config_hash(tiny_cfg) == config_hash(tiny_cfg)
    assert config_hash(tiny_cfg) != config_hash(replace(tiny_cfg, seed=tiny_cfg.seed + 1))


def test_converged_run_directional_properties():
    """Majority-of-5-seeds checks on converged desk-scale grandtest runs:
    the joint head's class overlap never exceeds either single head's, and
    the train split scores no worse than the eval split."""
    from cmpad.cli import DEFAULT_CONFIG, build_generator_spec, build_train_config
    from cmpad.datasets import ManifestRecord

    samples = generate(build_generator_spec(DEFAULT_CONFIG))
    records = [
        ManifestRecord(s.id, "", "", s.label, s.attack_type, s.identity)
        for s in samples
    ]
    split = make_grandtest(records, seed=DEFAULT_CONFIG["protocol"]["seed"])
    pool = by_id(samples)
    cfg = build_train_config(DEFAULT_CONFIG)

    overlap_wins = acer_wins = 0
    for seed in range(5):
        params, _ = train(split, pool, replace(cfg, seed=seed))
        overlap = dump_score_distributions(params, split, pool)["overlap"]
        overlap_wins += (
            overlap["joint"] <= overlap["a"] and overlap["joint"] <= overlap["b"]
        )
        rep_eval, _, _ = evaluate(params, split, pool)
        rep_train, _, _ = evaluate(params, replace(split, eval=split.train), pool)
        acer_wins += rep_train.acer <= rep_eval.acer
    assert overlap_wins >= 3
    assert acer_wins >= 4
