"""Acceptance gate: every criterion as one test, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

The trained-model criteria use the built-in desk-scale defaults (the
same configuration the CLI ships with) and pinned seeds, so the whole
module is deterministic.
"""

import functools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cmpad.cli import DEFAULT_CONFIG, build_generator_spec, build_train_config
from cmpad.datagen import generate
from cmpad.datasets import load_dataset, make_grandtest, make_loo, save_dataset, validate_split
from cmpad.harness import (
    Protocol,
    _stream,
    by_id,
    evaluate,
    emit_loss_curves,
    run_loo,
    run_single_channel_study,
    train,
)
from cmpad.losses import (
    EPS,
    LossParams,
    alpha_balanced_ce,
    binary_ce,
    cmfl,
    combined_loss,
    finite_diff_check,
    focal_loss,
)
from cmpad.metrics import (
    apcer_bpcer_acer,
    brute_force_sweep,
    eer_threshold,
    threshold_at_bpcer,
)
from cmpad.network import backward, backward_from_head_grads, forward_cached, init_network
from cmpad.preprocessing import mad_normalize


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:02d}] FAIL  {desc}")
                raise
            print(f"\n[criterion {num:02d}] PASS  {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    """Default generator dataset, written to disk and loaded back."""
    root = tmp_path_factory.mktemp("deskds")
    samples = generate(build_generator_spec(DEFAULT_CONFIG))
    save_dataset(samples, root, force=True)
    return load_dataset(root)


@pytest.fixture(scope="module")
def desk_cfg():
    return build_train_config(DEFAULT_CONFIG)


GRID = np.linspace(0.01, 0.99, 101)


@criterion(1, "loss reductions to weighted CE on the 101x101 grid (<= 1e-12)")
def test_criterion_01_loss_reductions():
    start = time.monotonic()
    for alpha in (1.0, 2.0):
        for p in GRID:
            ce = alpha_balanced_ce(p, alpha).value
            for q in GRID:
                assert abs(cmfl(p, q, alpha, 0.0).value - ce) <= 1e-12
            assert abs(cmfl(p, 0.0, alpha, 3.0).value - ce) <= 1e-12
    assert time.monotonic() - start < 1.0


@criterion(2, "loss-curve table: q=0 equals CE, damping monotone, spot value")
def test_criterion_02_loss_curves(tmp_path):
    start = time.monotonic()
    qs = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    result = emit_loss_curves(gammas=(3.0,), q_values=qs, out_path=tmp_path / "losscurve.tsv")
    np.testing.assert_allclose(result["curves"][(3.0, 0.0)], result["ce"], rtol=0, atol=1e-12)
    for lo, hi in zip(qs, qs[1:]):
        assert np.all(result["curves"][(3.0, hi)] <= result["curves"][(3.0, lo)] + 1e-15)
    idx = int(np.argmin(np.abs(result["p"] - 0.5)))
    assert abs(result["curves"][(3.0, 1.0)][idx] - 0.025672) <= 1e-6
    assert (tmp_path / "losscurve.tsv").exists()
    assert time.monotonic() - start < 1.0


@criterion(3, "analytic gradients match central differences (1e-4 / 1e-5)")
def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(20240201)
    params_lp = LossParams()
    worst = 0.0
    for _ in range(1000):
        p, q, r = rng.uniform(0.02, 0.98, size=3)
        gamma = float(rng.choice([0.5, 1.0, 2.0, 3.0, 4.0]))
        y = int(rng.integers(0, 2))
        rep = finite_diff_check(lambda x: focal_loss(x[0], 1.0, gamma), [p])
        worst = max(worst, rep.max_rel_error)
        rep = finite_diff_check(lambda x: cmfl(x[0], x[1], 1.0, gamma), [p, q])
        worst = max(worst, rep.max_rel_error)
        rep = finite_diff_check(
            lambda x: combined_loss(x[0], x[1], x[2], y, params_lp), [p, q, r]
        )
        worst = max(worst, rep.max_rel_error)
    assert worst <= 1e-4

    # network backward against central differences on sampled parameters
    net = replace(
        build_train_config(DEFAULT_CONFIG).network,
        input_height=16, input_width=16, blocks_per_branch=2, seed=77,
    )
    ps = init_network(net)
    xa = rng.random((5, net.channels_a, 16, 16))
    xb = rng.random((5, net.channels_b, 16, 16))
    ys = np.array([1, 0, 0, 1, 0])
    grads, _, _ = backward(ps, xa, xb, ys, params_lp)
    names = sorted(ps.params)
    h = 1e-6
    worst_net = 0.0
    for _ in range(20):
        name = names[rng.integers(len(names))]
        arr = ps.params[name]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape) if arr.ndim else ()
        vals = {}
        for sign in (+1, -1):
            probe = ps.copy()
            probe.params[name][idx] += sign * h
            _, lv, _ = backward(probe, xa, xb, ys, params_lp)
            vals[sign] = lv.value
        numeric = (vals[+1] - vals[-1]) / (2 * h)
        analytic = grads[name][idx]
        denom = max(abs(numeric), abs(analytic))
        if denom > 1e-7:
            worst_net = max(worst_net, abs(numeric - analytic) / denom)
    assert worst_net <= 1e-5
    assert time.monotonic() - start < 30.0


@criterion(4, "threshold rules agree exactly with the brute-force sweep")
def test_criterion_04_metrics_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240202)
    targets = [0.01, 0.1, 0.25, 0.5, 1.0]
    for case in range(1000):
        n = int(rng.integers(2, 201))
        # coarse rounding injects plenty of ties
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1  # both classes present
        records = list(zip(scores.tolist(), labels.tolist()))
        rows = brute_force_sweep(records)

        target = targets[case % len(targets)]
        tau = threshold_at_bpcer(records, target=target)
        violating = [r.threshold for r in rows if r.bpcer > target]
        if violating:
            expected = max(r.threshold for r in rows if r.threshold < min(violating))
        else:
            expected = rows[0].threshold
        assert tau == expected

        tau_eer, eer = eer_threshold(records)
        best = min(rows, key=lambda r: (abs(r.far - r.frr), r.threshold))
        assert tau_eer == best.threshold
        assert eer == (best.far + best.frr) / 2.0

        # full report agrees with the sweep row at a sampled threshold
        row = rows[int(rng.integers(len(rows)))]
        rep = apcer_bpcer_acer(records, row.threshold)
        assert rep.apcer == row.apcer and rep.bpcer == row.bpcer
        assert rep.far == row.far and rep.frr == row.frr
        assert rep.acer == (row.apcer + row.bpcer) / 2.0
        assert rep.hter == (row.far + row.frr) / 2.0
    assert time.monotonic() - start < 30.0


@criterion(5, "gamma=0 objective identical to independent per-head BCE (1e-12)")
def test_criterion_05_gamma_zero_bce_identity(desk_dataset, desk_cfg):
    samples, records = desk_dataset
    split = make_grandtest(records, seed=DEFAULT_CONFIG["protocol"]["seed"])
    pool = by_id(samples)
    cfg = replace(desk_cfg, loss=LossParams(gamma=0.0, mix_lambda=0.5), seed=0)

    # reproduce the trainer's exact first batch (epoch-0 shuffle + flips)
    from cmpad.harness import _derived_seed

    net_cfg = replace(cfg.network, seed=_derived_seed(cfg.seed, "init"))
    params = init_network(net_cfg)
    train_samples = [pool[sid] for sid in split.train]
    order = _stream(cfg.seed, "shuffle", 0).permutation(len(train_samples))
    flips = _stream(cfg.seed, "augment", 0).random(len(train_samples)) < cfg.hflip_prob
    idx = order[: cfg.batch_size]
    xa = np.stack([train_samples[i].x_a for i in idx])
    xb = np.stack([train_samples[i].x_b for i in idx])
    flip = flips[idx]
    xa[flip] = xa[flip][..., ::-1]
    xb[flip] = xb[flip][..., ::-1]
    ys = np.array([train_samples[i].label for i in idx])

    grads, batch_lv, out = backward(params, xa, xb, ys, cfg.loss)

    # independently coded BCE-per-head plus joint-BCE objective
    eps = 1e-7
    def bce(prob, y):
        pt = prob if y == 1 else 1.0 - prob
        pt = min(max(pt, eps), 1.0 - eps)
        return -math.log(pt), (-1.0 / pt) * (1.0 if y == 1 else -1.0)

    lam = 0.5
    vals, d_p, d_q, d_r = [], [], [], []
    for i in range(len(ys)):
        vp, gp = bce(out.p[i], ys[i])
        vq, gq = bce(out.q[i], ys[i])
        vr, gr = bce(out.r[i], ys[i])
        vals.append((1 - lam) * vr + lam * (vp + vq))
        d_p.append(lam * gp)
        d_q.append(lam * gq)
        d_r.append((1 - lam) * gr)
    assert abs(batch_lv.value - float(np.mean(vals))) <= 1e-12

    _, caches = forward_cached(params, xa, xb)
    ref = backward_from_head_grads(
        params, out, caches, np.array(d_p), np.array(d_q), np.array(d_r)
    )
    for name in grads:
        assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12, name


@criterion(6, "desk-scale grandtest joint ACER <= 5% in >= 4 of 5 seeds")
def test_criterion_06_grandtest_performance(desk_dataset, desk_cfg):
    samples, records = desk_dataset
    cpu_start = time.process_time()
    split = make_grandtest(records, ratios=(0.5, 0.25, 0.25),
                           seed=DEFAULT_CONFIG["protocol"]["seed"])
    validate_split(records, split)
    pool = by_id(samples)
    assert desk_cfg.epochs <= 10
    assert desk_cfg.network.input_height == desk_cfg.network.input_width == 32
    acers = []
    for seed in range(5):
        params, _ = train(split, pool, replace(desk_cfg, seed=seed))
        report, _, _ = evaluate(
            params, split, pool, head="joint",
            threshold_rule="bpcer", bpcer_target=0.01,
        )
        acers.append(report.acer)
    passed = sum(a <= 0.05 for a in acers)
    print(f"\n  joint ACERs: {[f'{a:.4f}' for a in acers]} ({passed}/5 <= 5%)")
    assert passed >= 4
    assert time.process_time() - cpu_start <= 600.0


@criterion(7, "single-channel trend: head-A median ACER, focal <= BCE")
def test_criterion_07_single_channel_trend(desk_dataset, desk_cfg, tmp_path):
    samples, records = desk_dataset
    cpu_start = time.process_time()
    cfg = replace(desk_cfg, epochs=25)
    study = run_single_channel_study(
        samples, records, cfg, seeds=(0, 1, 2, 3, 4),
        out_dir=tmp_path, protocol=Protocol(seed=DEFAULT_CONFIG["protocol"]["seed"]),
    )
    report_path = tmp_path / "single_channel_study.json"
    assert report_path.exists()
    emitted = json.loads(report_path.read_text())
    assert len(emitted["per_seed"]["cmfl_head_a"]) == 5
    print(
        f"\n  head-A medians: focal {study['median']['cmfl_head_a']:.4f} "
        f"vs BCE {study['median']['bce_head_a']:.4f}"
    )
    assert study["median"]["cmfl_head_a"] <= study["median"]["bce_head_a"]
    assert time.process_time() - cpu_start <= 1800.0


@criterion(8, "leave-one-out table shape, aggregate identity, exclusion")
def test_criterion_08_loo_shape(desk_dataset, desk_cfg, tmp_path):
    samples, records = desk_dataset
    result = run_loo(
        samples, records, replace(desk_cfg, epochs=4), out_dir=tmp_path / "loo",
        protocol=Protocol(seed=DEFAULT_CONFIG["protocol"]["seed"]),
    )
    attacks = sorted({r.attack_type for r in records if r.attack_type != "bonafide"})
    assert [row.attack for row in result.rows] == attacks
    acers = [row.report.acer for row in result.rows]
    assert abs(result.acer_mean - float(np.mean(acers))) <= 1e-12
    assert abs(result.acer_std - float(np.std(acers))) <= 1e-12
    by_sample = {r.id: r for r in records}
    for attack in attacks:
        split = make_loo(records, attack, seed=DEFAULT_CONFIG["protocol"]["seed"])
        validate_split(records, split)
        for fold in (split.train, split.dev):
            assert all(by_sample[sid].attack_type != attack for sid in fold)


@criterion(9, "repeated leave-one-out runs are byte-identical")
def test_criterion_09_determinism(desk_dataset, desk_cfg, tmp_path):
    samples, records = desk_dataset
    cfg = replace(desk_cfg, epochs=4)
    for name in ("r1", "r2"):
        run_loo(
            samples, records, cfg, out_dir=tmp_path / name,
            protocol=Protocol(seed=DEFAULT_CONFIG["protocol"]["seed"]),
        )
    files1 = sorted(
        p.relative_to(tmp_path / "r1")
        for p in (tmp_path / "r1").rglob("*")
        if p.is_file() and p.name != "run_meta.json"
    )
    assert any(p.name.startswith("scores_") for p in files1)
    assert any(p.name.startswith("report_") for p in files1)
    for rel in files1:
        b1 = (tmp_path / "r1" / rel).read_bytes()
        b2 = (tmp_path / "r2" / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between identical runs"


@criterion(10, "robust depth normalization: exact example and affine invariance")
def test_criterion_10_mad_normalization():
    depth = np.array([[8, 9, 10, 11, 12]], dtype=np.int64)
    out = mad_normalize(depth, k=1.0)
    np.testing.assert_array_equal(out * 255, [[0, 0, 128, 255, 255]])

    rng = np.random.default_rng(20240203)
    for _ in range(100):
        base = rng.integers(1, 3000, size=(12, 12))
        a = int(rng.integers(1, 8))
        b = int(rng.integers(0, 100))
        lhs = mad_normalize(base)
        rhs = mad_normalize(a * base + b)
        assert np.max(np.abs(lhs - rhs)) <= 1.0 / 255.0 + 1e-12
