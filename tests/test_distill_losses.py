"""Unit tests for every distillation loss and its hand-written gradient."""
import math

import numpy as np
import pytest

from tkgd.distill import (
    DistillConfig,
    bkd_loss,
    fitnet_hint_loss,
    huber_alignment_loss,
    kd_soft_loss,
    minmax_normalize,
    rkd_loss,
    supervised_loss,
)
from tkgd.numerics import finite_diff_check, log_softmax_with_temperature, softmax_with_temperature

# Independently derived reference values.
#
# KL between softmax([2, 0]) and the uniform pair (student scores equal):
# p = (e^2 / (e^2 + 1), 1 / (e^2 + 1)), KL(p || (.5, .5)) evaluated in
# high-precision arithmetic.
KL_2_0_VS_UNIFORM = 0.327813325472737701
# tau^2 * KL(softmax([1,0]/tau) || softmax([0,1]/tau)) at tau = 7 reduces to
# 7 * tanh(1/14).
BKD_FLIPPED_PAIR_TAU7 = 0.49915139167560224


class TestKdSoft:
    def test_identical_scores_alpha_one_is_exactly_zero(self):
        s = np.array([0.3, -1.2, 4.0, 0.0])
        loss, grad = kd_soft_loss(s, s.copy(), gt_index=2, tau=7.0, alpha_kd=1.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_frozen_kl_value(self):
        loss, _ = kd_soft_loss(
            np.array([2.0, 0.0]), np.array([0.0, 0.0]), gt_index=0, tau=1.0, alpha_kd=1.0
        )
        assert loss == pytest.approx(KL_2_0_VS_UNIFORM, abs=1e-12)

    def test_alpha_zero_is_plain_cross_entropy(self):
        t = np.array([5.0, 5.0, 5.0])
        s = np.array([0.4, -0.3, 1.1])
        loss, grad = kd_soft_loss(t, s, gt_index=1, tau=3.0, alpha_kd=0.0)
        want = -float(log_softmax_with_temperature(s, 1.0)[1])
        assert loss == pytest.approx(want, abs=1e-12)
        q = softmax_with_temperature(s, 1.0)
        q[1] -= 1.0
        assert np.allclose(grad, q, atol=1e-12)

    def test_soft_gradient_formula(self):
        t = np.array([1.0, -2.0, 0.5])
        s = np.array([0.0, 1.0, -1.0])
        tau = 4.0
        _, grad = kd_soft_loss(t, s, gt_index=0, tau=tau, alpha_kd=1.0)
        p = softmax_with_temperature(t, tau)
        q = softmax_with_temperature(s, tau)
        assert np.allclose(grad, tau * (q - p), atol=1e-12)

    def test_shift_invariance(self):
        t = np.array([1.0, 0.0, -1.0])
        s = np.array([0.2, 0.4, 0.1])
        a, _ = kd_soft_loss(t, s, 0, tau=2.0, alpha_kd=0.7)
        b, _ = kd_soft_loss(t + 100.0, s - 3.0, 0, tau=2.0, alpha_kd=0.7)
        assert b == pytest.approx(a, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_gradient_matches_finite_differences(self, alpha, rng):
        t = rng.normal(size=6)
        s = rng.normal(size=6)
        _, grad = kd_soft_loss(t, s, gt_index=3, tau=2.5, alpha_kd=alpha)
        err = finite_diff_check(lambda: kd_soft_loss(t, s, 3, 2.5, alpha)[0], s, grad)
        assert err < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kd_soft_loss(np.array([1.0]), np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError):
            kd_soft_loss(np.array([]), np.array([]), 0)
        with pytest.raises(ValueError):
            kd_soft_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 5)
        with pytest.raises(ValueError):
            kd_soft_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0, alpha_kd=1.5)


class TestBkd:
    def test_equals_kd_soft_at_alpha_one(self, rng):
        t = rng.normal(size=8)
        s = rng.normal(size=8)
        loss_b, grad_b = bkd_loss(t, s, tau=7.0)
        loss_k, grad_k = kd_soft_loss(t, s, gt_index=0, tau=7.0, alpha_kd=1.0)
        assert loss_b == loss_k
        assert np.array_equal(grad_b, grad_k)

    def test_frozen_value_and_closed_form(self):
        loss, _ = bkd_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), tau=7.0)
        assert loss == pytest.approx(BKD_FLIPPED_PAIR_TAU7, abs=1e-12)
        assert loss == pytest.approx(7.0 * math.tanh(1.0 / 14.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        t = rng.normal(size=5)
        s = rng.normal(size=5)
        _, grad = bkd_loss(t, s, tau=7.0)
        err = finite_diff_check(lambda: bkd_loss(t, s, 7.0)[0], s, grad)
        assert err < 1e-6


class TestHuberAlignment:
    def test_identical_is_zero(self):
        v = np.array([0.1, 0.5, 0.9])
        loss, grad = huber_alignment_loss(v, v.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_known_linear_branch_value(self):
        # residual 2 with delta 1: 1 * 2 - 0.5 = 1.5
        loss, grad = huber_alignment_loss(np.array([2.0]), np.array([0.0]), delta=1.0)
        assert loss == 1.5
        assert grad[0] == -1.0  # clipped at delta

    def test_mean_over_elements(self):
        loss, _ = huber_alignment_loss(np.array([2.0, 0.0]), np.array([0.0, 0.0]), delta=1.0)
        assert loss == 0.75

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_branch_continuity_at_delta(self, delta):
        at, _ = huber_alignment_loss(np.array([delta]), np.array([0.0]), delta=delta)
        assert at == pytest.approx(0.5 * delta * delta, abs=1e-12)
        h = 1e-7
        above, _ = huber_alignment_loss(np.array([delta + h]), np.array([0.0]), delta=delta)
        below, _ = huber_alignment_loss(np.array([delta - h]), np.array([0.0]), delta=delta)
        assert abs(above - at) < 2 * delta * h
        assert abs(at - below) < 2 * delta * h
        assert abs(above - below) < 3 * delta * h

    def test_gradient_clipped_outside_delta(self):
        loss_grad = huber_alignment_loss(np.array([10.0, -10.0]), np.array([0.0, 0.0]), delta=1.0)[1]
        assert np.array_equal(loss_grad, np.array([-0.5, 0.5]))

    def test_gradient_matches_finite_differences(self, rng):
        llm = rng.uniform(size=7)
        stu = rng.uniform(size=7)
        # keep residuals away from the kink at |r| = delta
        delta = 0.5
        resid = np.abs(llm - stu)
        llm = np.where(np.abs(resid - delta) < 0.05, llm + 0.1, llm)
        _, grad = huber_alignment_loss(llm, stu, delta=delta)
        err = finite_diff_check(lambda: huber_alignment_loss(llm, stu, delta)[0], stu, grad)
        assert err < 1e-6

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            huber_alignment_loss(np.array([1.0]), np.array([0.0]), delta=0.0)


class TestSupervised:
    def test_uniform_two_candidates(self):
        loss, _ = supervised_loss(np.array([0.0, 0.0]), gt_index=0)
        assert loss == 0.25

    def test_saturated_correct_prediction(self):
        loss, grad = supervised_loss(np.array([1000.0, 0.0]), gt_index=0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_sums_to_zero(self, rng):
        s = rng.normal(size=9)
        _, grad = supervised_loss(s, gt_index=4)
        assert abs(float(grad.sum())) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        s = rng.normal(size=6)
        _, grad = supervised_loss(s, gt_index=2)
        err = finite_diff_check(lambda: supervised_loss(s, 2)[0], s, grad)
        assert err < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            supervised_loss(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            supervised_loss(np.array([1.0]), 1)


class TestMinmaxNormalize:
    def test_basic_mapping(self):
        normed, slope = minmax_normalize(np.array([0.0, 5.0, 10.0]))
        assert np.allclose(normed, [0.0, 0.5, 1.0], atol=1e-15)
        assert slope == pytest.approx(0.1, abs=1e-15)

    def test_constant_vector(self):
        normed, slope = minmax_normalize(np.array([3.0, 3.0, 3.0]))
        assert np.all(normed == 0.5)
        assert slope == 0.0

    def test_shift_invariant(self, rng):
        s = rng.normal(size=5)
        a, slope_a = minmax_normalize(s)
        b, slope_b = minmax_normalize(s + 42.0)
        assert np.allclose(a, b, atol=1e-12)
        assert slope_a == pytest.approx(slope_b, abs=1e-12)

    def test_does_not_mutate_input(self):
        s = np.array([1.0, 2.0])
        minmax_normalize(s)
        assert s.tolist() == [1.0, 2.0]


# Each per-query loss as (per-row value, per-row array) of (teacher or llm, student, truth) inputs.
BLOCK_LOSSES = {
    "kd_soft_alpha0": lambda t, s, gt: kd_soft_loss(t, s, gt, tau=3.0, alpha_kd=0.0),
    "kd_soft_alpha04": lambda t, s, gt: kd_soft_loss(t, s, gt, tau=3.0, alpha_kd=0.4),
    "kd_soft_alpha1": lambda t, s, gt: kd_soft_loss(t, s, gt, tau=3.0, alpha_kd=1.0),
    "bkd": lambda t, s, gt: bkd_loss(t, s, tau=7.0),
    "supervised": lambda t, s, gt: supervised_loss(s, gt),
    "huber": lambda t, s, gt: huber_alignment_loss(t, s, delta=0.5),
    "minmax": lambda t, s, gt: minmax_normalize(s)[::-1],
}


class TestBlocks:
    """An (m, n) block gives, row by row, the bytes of the (n,) call on that row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(BLOCK_LOSSES))
    def test_rows_equal_vector_calls(self, name, dtype):
        rng = np.random.default_rng(3)
        m, n = 7, 11
        t = rng.normal(0.0, 2.0, (m, n)).astype(dtype)
        s = rng.normal(0.0, 2.0, (m, n)).astype(dtype)
        s[2] = s[2, 0]  # a flat row
        t[4] = s[4]  # a row where teacher and student agree
        gt = rng.integers(0, n, m)
        fn = BLOCK_LOSSES[name]
        per_row, block = fn(t, s, gt)
        assert per_row.shape == (m,) and block.shape == (m, n)
        for i in range(m):
            value, row = fn(t[i], s[i], gt[i])
            assert isinstance(value, float)
            assert value == float(per_row[i]), (name, i)
            assert row.dtype == block.dtype and row.tobytes() == block[i].tobytes(), (name, i)

    @pytest.mark.parametrize("name", ["huber", "minmax"])
    def test_empty_block(self, name):
        """The alignment step meets a block of no rows when no query of a batch got usable scores."""
        per_row, block = BLOCK_LOSSES[name](np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        assert per_row.shape == (0,) and block.shape == (0, 4)

    @pytest.mark.parametrize(
        "name,t_shape,s_shape",
        [
            (name, t_shape, s_shape)
            for name in sorted(BLOCK_LOSSES)
            for t_shape, s_shape in [
                ((3, 4), (3, 5)), ((2, 4), (3, 4)), ((2, 3, 4), (2, 3, 4)), ((), ()), ((3, 0), (3, 0)), ((0,), (0,))
            ]
            if t_shape == s_shape or name not in ("supervised", "minmax")  # these two take one score input
        ],
    )
    def test_bad_shapes_rejected(self, name, t_shape, s_shape):
        gt = np.zeros(s_shape[:1] if len(s_shape) == 2 else (), dtype=np.int64)
        with pytest.raises(ValueError):
            BLOCK_LOSSES[name](np.ones(t_shape), np.ones(s_shape), gt)

    @pytest.mark.parametrize("loss", ["kd_soft", "supervised"])
    @pytest.mark.parametrize(
        "gt",
        [
            0,  # a scalar for a block
            np.array([0, 1]),  # too few rows
            np.array([[0], [1], [2]]),
            np.array([0, 4, 1]),  # past the row
            np.array([0, -1, 1]),
            np.array([0.0, 1.0, 2.0]),
            np.array([True, False, True]),
        ],
    )
    def test_bad_truth_rows_rejected(self, loss, gt):
        t, s = np.ones((3, 4)), np.zeros((3, 4))
        with pytest.raises(ValueError):
            if loss == "kd_soft":
                kd_soft_loss(t, s, gt)
            else:
                supervised_loss(s, gt)


class TestFitnetHint:
    def test_exact_mapping_is_zero(self, rng):
        s = rng.normal(size=(4, 2))
        r = rng.normal(size=(2, 5))
        t = s @ r
        loss, g_s, g_r = fitnet_hint_loss(s, t, r)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(g_s, 0.0, atol=1e-12)
        assert np.allclose(g_r, 0.0, atol=1e-12)

    def test_zero_regressor_reduces_to_teacher_energy(self, rng):
        s = rng.normal(size=(3, 2))
        t = rng.normal(size=(3, 4))
        loss, _, _ = fitnet_hint_loss(s, t, np.zeros((2, 4)))
        assert loss == pytest.approx(float(np.sum(t * t) / 3), abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        s = rng.normal(size=(3, 2))
        t = rng.normal(size=(3, 4))
        r = rng.normal(size=(2, 4))
        _, g_s, g_r = fitnet_hint_loss(s, t, r)
        err = finite_diff_check(
            lambda: fitnet_hint_loss(s, t, r)[0], {"s": s, "r": r}, {"s": g_s, "r": g_r}
        )
        assert err < 1e-6

    def test_rejects_shape_mismatches(self):
        with pytest.raises(ValueError):
            fitnet_hint_loss(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            fitnet_hint_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((3, 5)))


def _rkd_reference(x, y):
    """Independent recomputation: plain loops, no shared code with the library."""
    b = len(x)

    def huber(r):
        a = abs(r)
        return 0.5 * r * r if a <= 1.0 else a - 0.5

    def dist(e, i, j):
        return math.sqrt(sum((e[i][k] - e[j][k]) ** 2 for k in range(len(e[i]))))

    def mean_offdiag(e):
        vals = [dist(e, i, j) for i in range(b) for j in range(b) if i != j]
        return sum(vals) / len(vals)

    mu_x, mu_y = mean_offdiag(x), mean_offdiag(y)
    loss_d = 0.0
    for i in range(b):
        for j in range(b):
            if i != j:
                loss_d += huber(dist(x, i, j) / mu_x - dist(y, i, j) / mu_y)
    loss_d /= b * (b - 1)

    def cosine(e, a, v, c):
        ua = [(e[a][k] - e[v][k]) / dist(e, a, v) for k in range(len(e[a]))]
        uc = [(e[c][k] - e[v][k]) / dist(e, c, v) for k in range(len(e[c]))]
        return sum(pa * pc for pa, pc in zip(ua, uc))

    loss_a = 0.0
    for a in range(b):
        for v in range(b):
            for c in range(b):
                if a != v and c != v and a != c:
                    loss_a += huber(cosine(x, a, v, c) - cosine(y, a, v, c))
    loss_a /= b * (b - 1) * (b - 2)
    return loss_d + 2.0 * loss_a


class TestRkd:
    def test_similarity_transform_is_zero(self, rng):
        x = rng.normal(size=(5, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        y = 2.5 * (x @ q) + np.array([1.0, -2.0, 0.5])
        loss, grad = rkd_loss(x, y)
        assert loss < 1e-12
        assert np.max(np.abs(grad)) < 1e-7

    def test_structure_mismatch_is_positive(self):
        x = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, -0.1], [3.0, 0.2]])
        y = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # collinear
        loss, _ = rkd_loss(x, y)
        assert loss > 1e-4

    @pytest.mark.parametrize("b", [3, 4, 5, 6, 7, 8])
    def test_matches_loop_reference(self, b, rng):
        x = rng.normal(size=(b, 3))
        y = rng.normal(size=(b, 4))
        loss, _ = rkd_loss(x, y)
        assert loss == pytest.approx(_rkd_reference(x.tolist(), y.tolist()), abs=1e-8)

    def test_invariances(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        base, _ = rkd_loss(x, y)
        scaled, _ = rkd_loss(3.0 * x, y)
        shifted, _ = rkd_loss(x + 7.0, 0.1 * y)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated, _ = rkd_loss(x @ q, y)
        for variant in (scaled, shifted, rotated):
            assert variant == pytest.approx(base, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        _, grad = rkd_loss(x, y)
        err = finite_diff_check(lambda: rkd_loss(x, y)[0], x, grad)
        assert err < 1e-5

    def test_rejects_small_or_degenerate_batches(self):
        with pytest.raises(ValueError):
            rkd_loss(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            rkd_loss(np.ones((4, 3)), np.random.default_rng(0).normal(size=(4, 3)))


class TestDistillConfig:
    def test_defaults(self):
        cfg = DistillConfig(phase1_epochs=8, phase2_epochs=2)
        assert cfg.tau == 7.0
        assert cfg.alpha_kd == 0.9
        assert cfg.lambda_llm == 0.5
        assert cfg.beta == 0.1
        assert cfg.llm_topk == 10
        assert cfg.method == "ours"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "dkd"},
            {"phase1_epochs": -1},
            {"tau": 0.0},
            {"alpha_kd": -0.1},
            {"alpha_kd": 1.1},
            {"lambda_llm": -1.0},
            {"delta": 0.0},
            {"llm_topk": 0},
            {"llm_topk": 51},
        ],
    )
    def test_validation(self, kwargs):
        base = {"phase1_epochs": 1, "phase2_epochs": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            DistillConfig(**base)
