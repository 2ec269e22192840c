import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpad.losses import (
    EPS,
    GradCheckReport,
    LossParams,
    LossValue,
    NonDifferentiablePointError,
    alpha_balanced_ce,
    binary_ce,
    cmfl,
    combined_loss,
    cross_modal_weight,
    finite_diff_check,
    focal_loss,
    target_prob,
)

# Independent scalar evaluators used as oracles. These deliberately
# re-derive every formula from scratch instead of calling the module.


def oracle_w(p, q):
    return q * (2.0 * p * q) / (p + q) if p + q > 0 else 0.0


def oracle_cmfl(p_t, q_t, alpha=1.0, gamma=3.0):
    pc = min(max(p_t, EPS), 1 - EPS)
    return -alpha * (1.0 - oracle_w(p_t, q_t)) ** gamma * math.log(pc)


def oracle_combined(p, q, r, y, alpha=1.0, gamma=3.0, lam=0.5):
    def t(x):
        return x if y == 1 else 1.0 - x

    rc = min(max(t(r), EPS), 1 - EPS)
    return (1 - lam) * -math.log(rc) + lam * (
        oracle_cmfl(t(p), t(q), alpha, gamma) + oracle_cmfl(t(q), t(p), alpha, gamma)
    )


PROB_GRID = np.linspace(0.01, 0.99, 101)


class TestTargetProb:
    def test_attack_complement(self):
        assert target_prob(0.3, 0) == 0.7

    def test_bonafide_identity(self):
        assert target_prob(0.3, 1) == 0.3

    def test_boundary(self):
        assert target_prob(1.0, 0) == 0.0

    def test_bad_label(self):
        with pytest.raises(ValueError):
            target_prob(0.5, 2)


class TestBinaryCE:
    def test_perfect_prediction(self):
        assert binary_ce(1.0).value == pytest.approx(-math.log(1 - EPS), abs=1e-12)
        assert binary_ce(1.0).value < 1e-6

    def test_half(self):
        assert binary_ce(0.5).value == pytest.approx(math.log(2), abs=1e-12)

    def test_clamp_active(self):
        # below the clamp the value saturates at -log(EPS)
        assert binary_ce(1e-9).value == pytest.approx(-math.log(1e-7), abs=1e-9)

    def test_derivative_at_half_is_minus_two(self):
        assert binary_ce(0.5).d_p == pytest.approx(-2.0, abs=1e-12)


class TestAlphaBalancedCE:
    def test_alpha_one_reduces_to_ce(self):
        assert alpha_balanced_ce(0.5, 1.0).value == binary_ce(0.5).value

    def test_alpha_zero(self):
        assert alpha_balanced_ce(0.5, 0.0).value == 0.0

    def test_quarter_alpha_two(self):
        assert alpha_balanced_ce(0.25, 2.0).value == pytest.approx(
            2 * math.log(4), abs=1e-12
        )


class TestFocalLoss:
    def test_perfect_prediction(self):
        assert focal_loss(1.0, 1.0, 3.0).value == pytest.approx(0.0, abs=1e-12)

    def test_gamma_zero_is_ce(self):
        assert focal_loss(0.5, 1.0, 0.0).value == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_half_gamma_three(self):
        assert focal_loss(0.5, 1.0, 3.0).value == pytest.approx(
            0.125 * math.log(2), abs=1e-14
        )

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(0.5, 1.0, -1.0)


class TestCrossModalWeight:
    def test_other_branch_zero(self):
        for p in PROB_GRID:
            assert cross_modal_weight(p, 0.0) == 0.0

    def test_both_certain(self):
        assert cross_modal_weight(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_spot_value(self):
        assert cross_modal_weight(0.5, 0.9) == pytest.approx(
            0.9 * (2 * 0.45 / 1.4), abs=1e-12
        )

    def test_asymmetry_witness(self):
        w_pq = cross_modal_weight(0.5, 0.9)
        w_qp = cross_modal_weight(0.9, 0.5)
        assert w_qp == pytest.approx(0.5 * (2 * 0.45 / 1.4), abs=1e-12)
        assert w_pq != w_qp

    def test_degenerate_corner(self):
        assert cross_modal_weight(0.0, 0.0) == 0.0

    def test_range_and_monotone_in_q(self):
        for p in PROB_GRID[::10]:
            ws = [cross_modal_weight(p, q) for q in PROB_GRID]
            assert all(0.0 <= w <= 1.0 for w in ws)
            assert all(b >= a - 1e-15 for a, b in zip(ws, ws[1:]))

    def test_asymmetry_factored_identity(self):
        # w(p,q) - w(q,p) == (q - p) * harmonic_mean(p, q) on the grid
        for p in PROB_GRID[::5]:
            for q in PROB_GRID[::5]:
                hm = 2 * p * q / (p + q)
                lhs = cross_modal_weight(p, q) - cross_modal_weight(q, p)
                assert lhs == pytest.approx((q - p) * hm, abs=1e-12)


class TestCmfl:
    def test_q_zero_equals_ce(self):
        assert cmfl(0.5, 0.0, 1.0, 3.0).value == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_gamma_zero_equals_ce_for_all_q(self):
        for q in PROB_GRID[::10]:
            assert cmfl(0.5, q, 1.0, 0.0).value == pytest.approx(
                binary_ce(0.5).value, abs=1e-14
            )

    def test_spot_value(self):
        expected = (1 - 0.5785714285714286) ** 3 * math.log(2)
        assert cmfl(0.5, 0.9, 1.0, 3.0).value == pytest.approx(expected, abs=1e-12)
        assert cmfl(0.5, 0.9, 1.0, 3.0).value == pytest.approx(
            oracle_cmfl(0.5, 0.9), abs=1e-14
        )

    def test_reduction_gamma_zero_on_grid(self):
        for p in PROB_GRID:
            for q in PROB_GRID[::10]:
                diff = abs(cmfl(p, q, 1.3, 0.0).value - alpha_balanced_ce(p, 1.3).value)
                assert diff <= 1e-12

    def test_reduction_q_zero_on_grid(self):
        for p in PROB_GRID:
            diff = abs(cmfl(p, 0.0, 1.3, 3.0).value - alpha_balanced_ce(p, 1.3).value)
            assert diff <= 1e-12

    def test_monotone_damping_in_q(self):
        for p in PROB_GRID[::10]:
            vals = [cmfl(p, q, 1.0, 3.0).value for q in PROB_GRID]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_ce(self):
        for p in PROB_GRID[::5]:
            for q in PROB_GRID[::5]:
                v = cmfl(p, q, 1.0, 3.0).value
                assert 0.0 <= v <= binary_ce(p).value + 1e-15

    def test_detach_weight_zeroes_cross_gradient(self):
        lv = cmfl(0.5, 0.9, 1.0, 3.0, detach_weight=True)
        assert lv.d_q == 0.0
        assert lv.value == cmfl(0.5, 0.9, 1.0, 3.0).value


class TestCombinedLoss:
    def test_all_heads_perfect(self):
        lv = combined_loss(1.0, 1.0, 1.0, 1, LossParams())
        assert lv.value == pytest.approx(0.0, abs=1e-6)

    def test_lambda_zero_is_joint_ce_only(self):
        params = LossParams(mix_lambda=0.0)
        lv = combined_loss(0.3, 0.7, 0.8, 1, params)
        assert lv.value == pytest.approx(-math.log(0.8), abs=1e-12)
        assert lv.d_p == 0.0 and lv.d_q == 0.0

    def test_worked_example(self):
        lv = combined_loss(0.5, 0.9, 0.8, 1, LossParams())
        assert lv.value == pytest.approx(
            oracle_combined(0.5, 0.9, 0.8, 1), abs=1e-14
        )
        # frozen from the oracle above (confirmed at 30 digits with mpmath)
        assert lv.value == pytest.approx(0.153971802426119, abs=1e-12)

    def test_swap_symmetry(self):
        params = LossParams()
        for y in (0, 1):
            a = combined_loss(0.3, 0.8, 0.6, y, params)
            b = combined_loss(0.8, 0.3, 0.6, y, params)
            assert a.value == pytest.approx(b.value, abs=1e-14)
            assert a.d_p == pytest.approx(b.d_q, abs=1e-14)

    def test_attack_label_flips_gradient_sign_path(self):
        lv = combined_loss(0.2, 0.1, 0.15, 0, LossParams())
        # pushing raw probabilities up must increase the loss for attacks
        assert lv.d_p > 0 and lv.d_q > 0 and lv.d_r > 0


class TestBatchedLoss:
    """The same functions applied elementwise to (N,) batches."""

    def test_mixed_label_batch_matches_oracle(self):
        rng = np.random.default_rng(7)
        p, q, r = rng.uniform(0.01, 0.99, size=(3, 64))
        p[:3], q[:3] = (0.0, 1.0, 1e-9), (0.0, 1.0, 0.5)  # corner, saturated w, clamp
        ys = np.arange(64) % 2
        params = LossParams(alpha_attack=1.7)
        lv = combined_loss(p, q, r, ys, params)
        assert lv.value.shape == lv.d_p.shape == lv.d_q.shape == lv.d_r.shape == (64,)
        for i in range(64):
            ref = oracle_combined(p[i], q[i], r[i], ys[i], alpha=1.7 if ys[i] == 0 else 1.0)
            assert abs(lv.value[i] - ref) <= 1e-12
            one = combined_loss(float(p[i]), float(q[i]), float(r[i]), int(ys[i]), params)
            for slot in ("d_p", "d_q", "d_r"):
                assert abs(getattr(lv, slot)[i] - getattr(one, slot)) <= 1e-12

    def test_bad_label_inside_batch_rejected(self):
        half = np.full(3, 0.5)
        with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
            combined_loss(half, half, half, np.array([1, 2, 0]), LossParams())

    def test_backward_rejects_empty_batch(self):
        from cmpad.network import NetworkConfig, backward, init_network

        cfg = NetworkConfig(input_height=8, input_width=8, blocks_per_branch=1,
                            base_filters=2, embedding_dim=2)
        empty_a = np.zeros((0, cfg.channels_a, 8, 8))
        empty_b = np.zeros((0, cfg.channels_b, 8, 8))
        with pytest.raises(ValueError, match="empty batch"):
            backward(init_network(cfg), empty_a, empty_b, [], LossParams())


class TestFiniteDiffCheck:
    def test_binary_ce_slope(self):
        report = finite_diff_check(lambda x: binary_ce(x[0]), [0.5])
        assert report.analytic[0] == -2.0
        assert report.max_rel_error < 1e-8

    def test_cmfl_gradcheck(self):
        report = finite_diff_check(
            lambda x: cmfl(x[0], x[1], 1.0, 3.0), [0.5, 0.9]
        )
        assert report.max_rel_error < 1e-5

    def test_combined_gradcheck(self):
        params = LossParams()
        report = finite_diff_check(
            lambda x: combined_loss(x[0], x[1], x[2], 1, params), [0.5, 0.9, 0.8]
        )
        assert report.max_rel_error < 1e-5

    def test_boundary_point_rejected(self):
        with pytest.raises(NonDifferentiablePointError):
            finite_diff_check(lambda x: binary_ce(x[0]), [EPS / 2])

    @pytest.mark.parametrize("y", [0, 1])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 3.0, 4.0])
    def test_gradients_across_gammas_and_labels(self, gamma, y):
        params = LossParams(gamma=gamma)
        rng = np.random.default_rng(20240817 + y + int(gamma))
        for _ in range(50):
            p, q, r = rng.uniform(0.02, 0.98, size=3)
            report = finite_diff_check(
                lambda x: combined_loss(x[0], x[1], x[2], y, params), [p, q, r]
            )
            assert report.max_rel_error <= 1e-4


@given(
    p=st.floats(0.01, 0.99),
    q=st.floats(0.01, 0.99),
    alpha=st.floats(0.1, 3.0),
    gamma=st.floats(0.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_cmfl_never_exceeds_weighted_ce(p, q, alpha, gamma):
    assert 0.0 <= cmfl(p, q, alpha, gamma).value <= alpha_balanced_ce(p, alpha).value + 1e-12


@given(
    p=st.floats(0.01, 0.99),
    q=st.floats(0.01, 0.99),
    r=st.floats(0.01, 0.99),
    y=st.sampled_from([0, 1]),
)
@settings(max_examples=200, deadline=None)
def test_combined_loss_nonnegative_and_finite(p, q, r, y):
    lv = combined_loss(p, q, r, y, LossParams())
    assert lv.value >= 0.0
    for d in (lv.value, lv.d_p, lv.d_q, lv.d_r):
        assert math.isfinite(d)
