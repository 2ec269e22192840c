import numpy as np
import pytest

from cmpad import network
from cmpad.errors import (
    BadCheckpointFormat,
    CheckpointShapeMismatch,
    CheckpointVersionMismatch,
    TruncatedCheckpoint,
)
from cmpad.datasets import read_channel, write_raster_8bit
from cmpad.losses import LossParams, combined_loss
from cmpad.network import (
    _avgpool2,
    _avgpool2_backward,
    _conv2d_backward,
    _conv2d_forward,
    _forward,
    _padded,
    _slice_len,
    ForwardOutput,
    NetworkConfig,
    OptimizerConfig,
    Workspace,
    adam_step,
    backward,
    backward_from_head_grads,
    forward_cached,
    init_network,
    load_checkpoint,
    parameter_shapes,
    predict_score,
    save_checkpoint,
)

CFG = NetworkConfig(
    input_height=16, input_width=16, blocks_per_branch=2, base_filters=4,
    embedding_dim=8, seed=11,
)


def rand_batch(n=4, cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    xa = rng.random((n, cfg.channels_a, cfg.input_height, cfg.input_width))
    xb = rng.random((n, cfg.channels_b, cfg.input_height, cfg.input_width))
    ys = rng.integers(0, 2, size=n)
    return xa, xb, ys


class TestInit:
    def test_deterministic(self):
        a = init_network(CFG)
        b = init_network(CFG)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_weights(self):
        a = init_network(CFG)
        b = init_network(NetworkConfig(**{**CFG.__dict__, "seed": 12}))
        assert any(
            not np.array_equal(a.params[n], b.params[n]) for n in a.params
        )

    def test_biases_zero(self):
        ps = init_network(CFG)
        for name, arr in ps.params.items():
            if name.endswith("/b"):
                assert not arr.any()

    def test_geometry_error(self):
        # 10**12 blocks must be rejected without computing 2**(10**12)
        for bad in (dict(input_height=30), dict(input_width=0), dict(base_filters=0),
                    dict(channels_b=0), dict(embedding_dim=0), dict(blocks_per_branch=10**12)):
            with pytest.raises(ValueError, match="incompatible geometry"):
                NetworkConfig(**{"input_height": 32, "input_width": 32,
                                 "blocks_per_branch": 3, **bad})

    def test_spatial_size_before_gap(self):
        cfg = NetworkConfig(input_height=32, input_width=32, blocks_per_branch=3,
                            base_filters=4, embedding_dim=8)
        ps = init_network(cfg)
        xa, xb, _ = rand_batch(2, cfg)
        _, (cache_a, _) = forward_cached(ps, xa, xb)
        assert cache_a.gap_in.shape[1:3] == (4, 4)  # 32 / 2^3


def conv_reference(x, w, b):
    """Direct same-padding 3x3 convolution of a batch-innermost batch (C, H, W, N)."""
    _, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((w.shape[0],) + x.shape[1:])
    for dy in range(3):
        for dx in range(3):
            out += np.einsum("fc,chwn->fhwn", w[:, :, dy, dx], xp[:, dy : dy + h, dx : dx + wd])
    return out + b[:, None, None, None]


def padded_input(x):
    """x (C, H, W, N) in the zero-bordered buffer the conv primitives take."""
    xp = _padded(*x.shape)
    xp[:, 1:-1, 1:-1] = x
    return xp


# (C, H, W, N). Square cases keep their "C-N-H" ids; in the non-square ones
# H != W and N = 5 is neither, so a misread or swapped axis fails.
PRIMITIVE_SHAPES = [
    pytest.param(c, h, h, n, id=f"{c}-{n}-{h}") for c in (1, 3, 8) for n in (1, 5) for h in (4, 8)
] + [
    pytest.param(c, h, w, n, id=f"{c}-{h}x{w}-{n}")
    for c in (1, 3, 8) for h, w in ((4, 6), (6, 2)) for n in (1, 5)
]


class TestPrimitives:
    @pytest.mark.parametrize("c,h,w,n", PRIMITIVE_SHAPES)
    def test_conv_forward_matches_direct_convolution(self, c, h, w, n):
        rng = np.random.default_rng(c * 1000 + h * 100 + w * 10 + n)
        x, wt, b = rng.random((c, h, w, n)), rng.normal(size=(4, c, 3, 3)), rng.normal(size=4)
        xp = padded_input(x)
        out = _conv2d_forward(xp, wt, b, Workspace())
        assert out.shape == (4, h, w, n) and xp.shape == (c, h + 2, w + 2, n)
        np.testing.assert_allclose(out, conv_reference(x, wt, b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c,h,w,n", PRIMITIVE_SHAPES)
    def test_conv_backward_is_adjoint(self, c, h, w, n):
        rng = np.random.default_rng(c * 1000 + h * 100 + w * 10 + n + 1)
        x, wt, b = rng.normal(size=(c, h, w, n)), rng.normal(size=(4, c, 3, 3)), rng.normal(size=4)
        dout = rng.normal(size=(4, h, w, n))
        xp, ws = padded_input(x), Workspace()  # one workspace, reused by every call below
        out = _conv2d_forward(xp, wt, np.zeros(4), ws)
        dx, dw, db = _conv2d_backward(dout, xp, wt, need_dx=True, ws=ws)
        assert dx.shape == x.shape
        inner = np.vdot(dout, out)
        for other in (np.vdot(dx, x), np.vdot(dw, wt)):
            assert abs(inner - other) <= 1e-12 * abs(inner)
        with_bias = _conv2d_forward(xp, wt, b, ws)
        bias_part = np.vdot(dout, with_bias) - inner
        assert abs(bias_part - np.vdot(db, b)) <= 1e-12 * np.abs(dout).sum() * np.abs(b).max()
        no_dx, dw2, db2 = _conv2d_backward(dout, xp, wt, need_dx=False, ws=ws)
        assert no_dx is None
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)

    @pytest.mark.parametrize("c,h,w,n", PRIMITIVE_SHAPES)
    def test_pool_backward_is_adjoint(self, c, h, w, n):
        rng = np.random.default_rng(c * 1000 + h * 100 + w * 10 + n + 2)
        x, y = rng.normal(size=(c, h, w, n)), rng.normal(size=(c, h // 2, w // 2, n))
        pooled = _avgpool2(x)
        np.testing.assert_allclose(
            pooled, x.reshape(c, h // 2, 2, w // 2, 2, n).mean(axis=(2, 4)), rtol=0, atol=1e-15
        )
        # a workspace per call: back must outlive the second call's take
        back = _avgpool2_backward(y, np.ones(x.shape, dtype=bool), Workspace())
        scale = np.abs(x).sum() * np.abs(y).max()
        assert abs(np.vdot(pooled, y) - np.vdot(x, back)) <= 1e-12 * scale
        mask = rng.random(x.shape) < 0.5
        np.testing.assert_array_equal(_avgpool2_backward(y, mask, Workspace()), back * mask)


class TestForward:
    def test_probabilities_in_range(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(6)
        out, _ = forward_cached(ps, xa, xb)
        for arr in (out.p, out.q, out.r):
            assert np.all(arr > 0) and np.all(arr < 1)

    def test_empty_batch_rejected(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(0)
        for call in (lambda: forward_cached(ps, xa, xb), lambda: predict_score(ps, xa, xb)):
            with pytest.raises(ValueError, match="empty batch"):
                call()

    def test_zero_head_weights_give_half(self):
        ps = init_network(CFG)
        for head in ("a", "b", "joint"):
            ps.params[f"head_{head}/W"][:] = 0
            ps.params[f"head_{head}/b"][...] = 0
        xa, xb, _ = rand_batch(3)
        out, _ = forward_cached(ps, xa, xb)
        np.testing.assert_array_equal(out.p, 0.5)
        np.testing.assert_array_equal(out.q, 0.5)
        np.testing.assert_array_equal(out.r, 0.5)

    def test_joint_embedding_is_concat(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(3)
        out, _ = forward_cached(ps, xa, xb)
        d = CFG.embedding_dim
        np.testing.assert_array_equal(out.e_r[:, :d], out.e_p)
        np.testing.assert_array_equal(out.e_r[:, d:], out.e_q)

    def test_shape_mismatch(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(2)
        with pytest.raises(ValueError, match="incompatible"):
            forward_cached(ps, xa[:, :, :8, :], xb)

    def test_heads_follow_channels_given(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(3)
        full, _ = forward_cached(ps, xa, xb)
        for cached in (False, True):
            out, caches = _forward(ps, xa, None, cached=cached)
            np.testing.assert_array_equal(out.p, full.p)
            np.testing.assert_array_equal(out.e_p, full.e_p)
            assert np.isnan(out.q).all() and np.isnan(out.r).all() and np.isnan(out.e_q).all()
            assert set(caches) == ({"a"} if cached else set())
        out, _ = _forward(ps, None, xb)
        np.testing.assert_array_equal(out.q, full.q)
        assert np.isnan(out.p).all() and np.isnan(out.r).all()
        with pytest.raises(ValueError, match="no channel"):
            _forward(ps, None, None)
        with pytest.raises(ValueError, match="both channels"):
            forward_cached(ps, xa, None)
        with pytest.raises(ValueError, match="unknown head"):
            predict_score(ps, xa, xb, head="c")

    def test_saturating_logits_stay_inside_unit_interval(self):
        ps = init_network(CFG)
        ps.params["head_a/W"][:] = 0.0
        xa, xb, _ = rand_batch(2)
        for bias in (500.0, -500.0):
            ps.params["head_a/b"][...] = bias
            out, _ = forward_cached(ps, xa, xb)
            assert np.all(out.p > 0) and np.all(out.p < 1)


class TestBackward:
    def test_finite_difference_on_sampled_parameters(self):
        # 4-point central stencil: truncation error O(h^4), round-off about
        # 1e-16 * loss / h, both far below the bound at h = 1e-4
        ps = init_network(CFG)
        xa, xb, ys = rand_batch(5, seed=3)
        lp = LossParams()
        grads, _, _ = backward(ps, xa, xb, ys, lp)

        def loss_and_masks(params):
            out, caches = forward_cached(params, xa, xb)
            loss = combined_loss(out.p, out.q, out.r, ys, lp).value.mean()
            return loss, [m for cache in caches for m in cache.relu_masks]

        _, masks = loss_and_masks(ps)
        rng = np.random.default_rng(99)
        names = sorted(ps.params)
        h = 1e-4
        worst, checked = 0.0, 0
        for _ in range(200):
            name = names[rng.integers(len(names))]
            flat_idx = int(rng.integers(ps.params[name].size))
            idx = np.unravel_index(flat_idx, ps.params[name].shape) if ps.params[name].ndim else ()
            f = {}
            for step in (-2, -1, 1, 2):
                probe = ps.copy()
                probe.params[name][idx] += step * h
                f[step], probe_masks = loss_and_masks(probe)
                if not all(map(np.array_equal, probe_masks, masks)):
                    break  # the stencil straddles a ReLU kink
            else:
                numeric = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
                analytic = grads[name][idx]
                denom = max(abs(numeric), abs(analytic))
                if denom > 1e-7:
                    worst = max(worst, abs(numeric - analytic) / denom)
                    checked += 1
                    if checked == 20:
                        break
        assert checked == 20
        assert worst <= 1e-5

    def test_gamma_zero_lambda_one_decouples_joint_head(self):
        # with all weight on the per-branch terms, the joint head and the
        # cross-branch routing contribute nothing
        ps = init_network(CFG)
        xa, xb, ys = rand_batch(4, seed=5)
        lp = LossParams(gamma=0.0, mix_lambda=1.0)
        grads, _, out = backward(ps, xa, xb, ys, lp)
        assert not grads["head_joint/W"].any()
        assert not grads["head_joint/b"].any()

        # independent per-branch BCE heads: gradient into branch A depends
        # only on d_p; rebuild it through the head-grad entry point
        _, caches = forward_cached(ps, xa, xb)
        tgt = np.where(ys == 1, out.p, 1 - out.p)
        d_p = np.where(ys == 1, -1 / tgt, 1 / (tgt))  # d(-log p_t)/dp
        tgt_q = np.where(ys == 1, out.q, 1 - out.q)
        d_q = np.where(ys == 1, -1 / tgt_q, 1 / tgt_q)
        ref = backward_from_head_grads(ps, out, caches, d_p, d_q, np.zeros_like(d_p))
        for name in grads:
            np.testing.assert_allclose(grads[name], ref[name], atol=1e-12)

    def test_frozen_branch_b_still_receives_cross_modal_gradient(self):
        ps = init_network(CFG)
        xa, xb, ys = rand_batch(4, seed=6)
        xb_const = np.zeros_like(xb)
        lp = LossParams(gamma=3.0, mix_lambda=1.0)
        grads, _, _ = backward(ps, xa, xb_const, ys, lp)
        bnames = [n for n in grads if n.startswith("branch_b/") or n.startswith("head_b/")]
        assert any(np.abs(grads[n]).max() > 0 for n in bnames)

        # with the weight detached, branch B sees gradient only from its own
        # head; the joint head is off (lambda=1) so cutting d_q removes it
        lp_detached = LossParams(gamma=3.0, mix_lambda=1.0, detach_weight=True)
        out, caches = forward_cached(ps, xa, xb_const)
        from cmpad.losses import combined_loss

        d = np.array(
            [
                [
                    combined_loss(p, q, r, int(y), lp_detached).d_p,
                    0.0,  # drop the own-head BCE path into branch B
                    combined_loss(p, q, r, int(y), lp_detached).d_r,
                ]
                for p, q, r, y in zip(out.p, out.q, out.r, ys)
            ]
        )
        only_cross = backward_from_head_grads(ps, out, caches, d[:, 0], d[:, 1], d[:, 2])
        for n in bnames:
            assert not only_cross[n].any()


class TestWorkspace:
    @pytest.mark.parametrize("shared", [False, True])
    def test_interleaved_forward_passes_keep_independent_caches(self, shared):
        ps = init_network(CFG)
        lp = LossParams()
        batches = [rand_batch(4, seed=s) for s in (1, 2)]
        ws = Workspace() if shared else None
        alone = [backward(ps, xa, xb, ys, lp)[0] for xa, xb, ys in batches]
        passes = [forward_cached(ps, xa, xb, ws) for xa, xb, _ in batches]
        for (out, caches), (_, _, ys), ref in zip(passes, batches, alone):
            lv = combined_loss(out.p, out.q, out.r, ys, lp)
            grads = backward_from_head_grads(ps, out, caches, lv.d_p, lv.d_q, lv.d_r, ws)
            for name in ref:
                np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)

    def test_ten_steps_bit_equal_with_and_without_workspace(self):
        lp, opt = LossParams(), OptimizerConfig()
        xa, xb, ys = rand_batch(77, seed=4)
        ps, ws = init_network(CFG), Workspace()
        for step in range(10):  # nine batches of 8, then the last 5 samples
            idx = slice(8 * step, 8 * step + 8)
            fresh, lv_fresh, _ = backward(ps, xa[idx], xb[idx], ys[idx], lp)
            reused, lv_reused, _ = backward(ps, xa[idx], xb[idx], ys[idx], lp, workspace=ws)
            assert lv_reused.value == lv_fresh.value
            for name in fresh:
                np.testing.assert_array_equal(reused[name], fresh[name], err_msg=name)
            ps = adam_step(ps, reused, opt)
        assert xa[idx].shape[0] == 5


class TestScoreChunks:
    def test_chunk_from_byte_budget(self):
        assert _slice_len(NetworkConfig()) == 37  # 221,184 B of layer-0 columns per sample
        full = NetworkConfig(input_height=224, input_width=224, blocks_per_branch=5)
        assert _slice_len(full) == 1  # 10.8 MB per sample, over the budget alone

    def test_chunked_scores_equal_one_pass(self, monkeypatch):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(50)
        whole, _ = forward_cached(ps, xa, xb)
        monkeypatch.setattr(network, "_slice_len", lambda cfg: 7)  # 8 slices, the last of 1
        chunked, _ = _forward(ps, xa, xb)
        for name in ("e_p", "e_q", "p", "q", "r"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))


class TestSlicedSteps:
    def test_step_workspace_does_not_grow_with_the_batch(self):
        cfg = NetworkConfig()  # the desk geometry: slices of 37
        ps, sizes = init_network(cfg), []
        for n in (40, 120):  # 2 and 4 slices
            ws = Workspace()
            backward(ps, *rand_batch(n, cfg, seed=n), LossParams(), workspace=ws)
            sizes.append(sum(buf.nbytes for buf in ws._flat.values()))
        assert sizes[0] == sizes[1], sizes

    def test_sliced_step_equals_one_slice(self, monkeypatch):
        ps, lp = init_network(CFG), LossParams()
        xa, xb, ys = rand_batch(50, seed=8)
        whole_grads, whole_loss, whole = backward(ps, xa, xb, ys, lp)
        monkeypatch.setattr(network, "_slice_len", lambda cfg: 7)  # 8 slices, the last of 1
        runs = [backward(ps, xa, xb, ys, lp) for _ in range(2)]
        _, (cache_a, _) = forward_cached(ps, xa, xb)
        assert len(cache_a.padded) == 8 * CFG.blocks_per_branch
        for grads, loss, out in runs:
            assert loss.value == whole_loss.value
            for name in ("e_p", "e_q", "p", "q", "r"):
                np.testing.assert_array_equal(getattr(out, name), getattr(whole, name))
            for name in whole_grads:
                np.testing.assert_allclose(grads[name], whole_grads[name], rtol=1e-12,
                                           err_msg=name)
        for name in whole_grads:
            assert runs[0][0][name].tobytes() == runs[1][0][name].tobytes(), name


class TestAdam:
    def test_zero_grad_zero_decay_is_identity(self):
        ps = init_network(CFG)
        zeros = {k: np.zeros_like(v) for k, v in ps.params.items()}
        out = adam_step(ps, zeros, OptimizerConfig(weight_decay=0.0))
        for name in ps.params:
            np.testing.assert_array_equal(out.params[name], ps.params[name])
        assert out.step == 1

    def test_first_step_is_signlike(self):
        ps = init_network(CFG)
        grads = {k: np.full_like(v, 0.25) for k, v in ps.params.items()}
        opt = OptimizerConfig(learning_rate=1e-3, weight_decay=0.0)
        out = adam_step(ps, grads, opt)
        # from zero moments, bias-corrected m/sqrt(v) = g/|g| up to eps
        expected = ps.params["head_a/W"] - 1e-3 * (0.25 / (0.25 + opt.eps))
        np.testing.assert_allclose(out.params["head_a/W"], expected, atol=1e-12)

    def test_pure_and_deterministic(self):
        ps = init_network(CFG)
        grads = {k: np.random.default_rng(0).normal(size=v.shape) for k, v in ps.params.items()}
        opt = OptimizerConfig()
        a = adam_step(ps, grads, opt)
        b = adam_step(ps, grads, opt)
        for name in ps.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert ps.step == 0  # input untouched

    def test_weight_decay_shrinks(self):
        ps = init_network(CFG)
        zeros = {k: np.zeros_like(v) for k, v in ps.params.items()}
        opt = OptimizerConfig(learning_rate=0.1, weight_decay=0.5)
        out = adam_step(ps, zeros, opt)
        np.testing.assert_allclose(
            out.params["head_a/W"], ps.params["head_a/W"] * 0.95, atol=1e-15
        )


class TestPredictScore:
    def test_joint_equals_forward_r(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(3)
        out, _ = forward_cached(ps, xa, xb)
        np.testing.assert_array_equal(predict_score(ps, xa, xb, head="joint"), out.r)

    def test_head_a_works_without_channel_b(self):
        ps = init_network(CFG)
        xa, _, _ = rand_batch(3)
        scores = predict_score(ps, x_a=xa, head="a")
        assert scores.shape == (3,)

    def test_joint_without_channel_b_errors(self):
        ps = init_network(CFG)
        xa, _, _ = rand_batch(2)
        with pytest.raises(ValueError, match="channel unavailable for head"):
            predict_score(ps, x_a=xa, head="joint")

    def test_head_a_independent_of_branch_b_weights(self):
        ps = init_network(CFG)
        xa, _, _ = rand_batch(3)
        base = predict_score(ps, x_a=xa, head="a")
        perturbed = ps.copy()
        for name in perturbed.params:
            if name.startswith("branch_b/") or name.startswith("head_b/"):
                perturbed.params[name] += 10.0
        np.testing.assert_array_equal(predict_score(perturbed, x_a=xa, head="a"), base)

    def test_single_sample_matches_batch_row_at_desk_geometry(self):
        # a batch folds all samples into one GEMM per conv layer; alone, a
        # sample must score as its batch row does
        cfg = NetworkConfig(base_filters=8, embedding_dim=16)  # configs/desk.json
        ps = init_network(cfg)
        xa, xb, _ = rand_batch(5, cfg, seed=4)
        out, _ = forward_cached(ps, xa, xb)
        for head, batch in (("a", out.p), ("b", out.q), ("joint", out.r)):
            for i in range(5):
                assert abs(predict_score(ps, xa[i], xb[i], head=head) - batch[i]) <= 1e-12

    def test_single_sample_returns_float(self):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(1)
        score = predict_score(ps, xa[0], xb[0], head="joint")
        assert isinstance(score, float)


class TestRasterLists:
    """A batch may be a list of (C, H, W) rasters, read where they lie."""

    @pytest.fixture()
    def rasters(self, tmp_path):
        xa, xb, ys = rand_batch(5, seed=6)
        xa, xb = np.round(xa * 255) / 255, np.round(xb * 255) / 255
        write_raster_8bit(tmp_path / "x.ppm", xa[0])
        list_a = [read_channel(tmp_path / "x.ppm"), xa[1][..., ::-1], *xa[2:]]
        list_b = [xb[0], xb[1][..., ::-1], *xb[2:]]
        assert not list_a[0].flags.c_contiguous  # channel-last strides, as PPM data loads
        return list_a, list_b, ys

    def test_predict_score_same_bytes_as_the_stack(self, rasters):
        ps = init_network(CFG)
        list_a, list_b, _ = rasters
        stack_a, stack_b = np.stack(list_a), np.stack(list_b)
        for head in ("a", "b", "joint"):
            batch = predict_score(ps, list_a, list_b, head=head)
            assert batch.tobytes() == predict_score(ps, stack_a, stack_b, head=head).tobytes()
            for i in range(len(list_a)):
                single = predict_score(ps, list_a[i], list_b[i], head=head)
                assert isinstance(single, float)
                assert single == predict_score(ps, stack_a[i], stack_b[i], head=head)

    def test_backward_same_bytes_as_the_stack(self, rasters):
        ps = init_network(CFG)
        list_a, list_b, ys = rasters
        grads, loss, out = backward(ps, list_a, list_b, ys, LossParams())
        want_grads, want_loss, want_out = backward(ps, np.stack(list_a), np.stack(list_b), ys,
                                                   LossParams())
        assert loss.value == want_loss.value
        assert out.r.tobytes() == want_out.r.tobytes()
        for name in want_grads:
            assert grads[name].tobytes() == want_grads[name].tobytes(), name

    def test_wrong_raster_in_a_list_names_the_shapes(self, rasters):
        ps = init_network(CFG)
        list_a, list_b, _ = rasters
        list_a[3] = list_a[3][:, :, :8]
        with pytest.raises(ValueError, match=r"\(3, 16, 8\).*\(3, 16, 16\)"):
            predict_score(ps, list_a, list_b)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        ps = init_network(CFG)
        xa, xb, ys = rand_batch(3)
        grads, _, _ = backward(ps, xa, xb, ys, LossParams())
        ps = adam_step(ps, grads, OptimizerConfig())
        path = tmp_path / "model.bin"
        save_checkpoint(ps, path)
        back = load_checkpoint(path)
        assert back.config == ps.config
        assert back.step == ps.step
        for name in ps.params:
            np.testing.assert_array_equal(back.params[name], ps.params[name])
            np.testing.assert_array_equal(back.adam_m[name], ps.adam_m[name])
            np.testing.assert_array_equal(back.adam_v[name], ps.adam_v[name])

    def test_save_load_save_identical_bytes(self, tmp_path):
        ps = init_network(CFG)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(ps, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_roundtrip(self, tmp_path):
        ps = init_network(CFG)
        xa, xb, _ = rand_batch(4)
        before, _ = forward_cached(ps, xa, xb)
        save_checkpoint(ps, tmp_path / "m.bin")
        after, _ = forward_cached(load_checkpoint(tmp_path / "m.bin"), xa, xb)
        np.testing.assert_array_equal(before.r, after.r)
        np.testing.assert_array_equal(before.p, after.p)

    def test_bad_magic(self, tmp_path):
        # and every other field that does not decode to a valid network
        path = tmp_path / "m.bin"
        save_checkpoint(init_network(CFG), path)
        good = path.read_bytes()
        cfg_end = 16 + int.from_bytes(good[12:16], "little")
        cfg = good[16:cfg_end]
        name_at = cfg_end + 8 + 4 + 2  # after step, record count, name length
        dtype_at = name_at + int.from_bytes(good[name_at - 2 : name_at], "little")
        bad_cfg = lambda old, new: good[:16] + cfg.replace(old, new) + good[cfg_end:]
        corrupted = [
            b"XXXX" + good[4:],
            good[:17] + b"\xff" + good[18:],  # config not UTF-8
            bad_cfg(b'"seed"', b'"sEEd"'),  # unknown config key
            bad_cfg(b'"blocks_per_branch": 2', b'"blocks_per_branch": 0'),  # geometry
            good[:name_at] + b"\xff" + good[name_at + 1 :],  # array name not UTF-8
            good[:name_at] + b"x" + good[name_at + 1 :],  # record group "x"
            good[:dtype_at] + b"\x02" + good[dtype_at + 1 :],  # the retired f4 tag
            good[:dtype_at] + b"\x00" + good[dtype_at + 1 :],  # no such dtype
        ]
        for bad_value in (np.nan, np.inf):
            ps = init_network(CFG)
            ps.params["head_a/b"][...] = bad_value
            save_checkpoint(ps, path)
            corrupted.append(path.read_bytes())
        for data in corrupted:
            assert len(data) == len(good)
            path.write_bytes(data)
            with pytest.raises(BadCheckpointFormat, match="bad checkpoint format"):
                load_checkpoint(path)

    def test_repeated_record(self, tmp_path):
        # one more p/head_a/b record holding 42.0, counted in the header
        path = tmp_path / "m.bin"
        save_checkpoint(init_network(CFG), path)
        good = path.read_bytes()
        count_at = 16 + int.from_bytes(good[12:16], "little") + 8
        n_records = int.from_bytes(good[count_at : count_at + 4], "little")
        name = b"p/head_a/b"
        extra = (len(name).to_bytes(2, "little") + name + b"\x01\x00"
                 + np.float64(42.0).tobytes())  # tag f8, 0 dims: a scalar
        path.write_bytes(good[:count_at] + (n_records + 1).to_bytes(4, "little")
                         + good[count_at + 4 :] + extra)
        with pytest.raises(BadCheckpointFormat, match="bad checkpoint format: repeated record"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(init_network(CFG), path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(BadCheckpointFormat, match="bad checkpoint format: bytes after"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(init_network(CFG), path)
        data = bytearray(path.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionMismatch):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(init_network(CFG), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedCheckpoint):
            load_checkpoint(path)

    def test_shape_disagreement(self, tmp_path):
        # craft a checkpoint whose embedded config disagrees with its arrays
        ps = init_network(CFG)
        path = tmp_path / "m.bin"
        save_checkpoint(ps, path)
        data = bytearray(path.read_bytes())
        cfg_len = int.from_bytes(data[12:16], "little")
        cfg = bytes(data[16 : 16 + cfg_len]).decode()
        swapped = cfg.replace('"embedding_dim": 8', '"embedding_dim": 6')
        assert len(swapped) == len(cfg)
        data[16 : 16 + cfg_len] = swapped.encode()
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointShapeMismatch):
            load_checkpoint(path)


def test_parameter_shapes_cover_all_params():
    ps = init_network(CFG)
    shapes = parameter_shapes(CFG)
    assert set(shapes) == set(ps.params)
    for name, shape in shapes.items():
        assert ps.params[name].shape == shape
