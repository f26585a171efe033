import re

import numpy as np
import pytest

from tkgd.numerics import (
    ParamTensor,
    adagrad_step,
    finite_diff_check,
    log_softmax_with_temperature,
    scatter_add_rows,
    softmax_with_temperature,
    sorted_unique,
)


class TestParamTensor:
    def test_accumulator_defaults_to_zero(self):
        t = ParamTensor(np.ones((2, 3)))
        assert t.accum.shape == (2, 3)
        assert not t.accum.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor(np.ones(3), np.zeros(4))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor(np.array([1.0, np.nan]))

    def test_negative_accumulator_rejected(self):
        with pytest.raises(ValueError):
            ParamTensor(np.ones(2), np.array([0.0, -1.0]))

    def test_copy_is_independent(self):
        t = ParamTensor(np.ones(3))
        c = t.copy()
        c.values[0] = 9.0
        assert t.values[0] == 1.0


class TestSoftmax:
    def test_uniform_logits_any_temperature(self):
        out = softmax_with_temperature(np.array([1.0, 1.0, 1.0]), tau=7.0)
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_two_logit_reference_value(self):
        # e^2/(e^2+1) and 1/(e^2+1), evaluated independently
        e2 = np.exp(2.0)
        expected = np.array([e2 / (e2 + 1.0), 1.0 / (e2 + 1.0)])
        out = softmax_with_temperature(np.array([2.0, 0.0]), tau=1.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [0.880797, 0.119203], atol=1e-5)

    def test_high_temperature_flattens(self):
        out = softmax_with_temperature(np.array([3.0, 3.0 + 17.0]), tau=1e9)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-6)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0, 0.0])
        np.testing.assert_allclose(
            softmax_with_temperature(z), softmax_with_temperature(z + 123.456), atol=1e-7
        )

    def test_permutation_equivariance(self):
        z = np.array([0.5, 2.0, -3.0, 1.0])
        perm = np.array([2, 0, 3, 1])
        np.testing.assert_allclose(
            softmax_with_temperature(z)[perm], softmax_with_temperature(z[perm]), atol=1e-15
        )

    def test_temperature_equals_prescaling(self):
        z = np.array([1.0, -0.5, 2.5])
        np.testing.assert_allclose(
            softmax_with_temperature(z, tau=3.0), softmax_with_temperature(z / 3.0, tau=1.0), atol=1e-12
        )

    def test_rows_sum_to_one(self):
        z = np.linspace(-5, 5, 12).reshape(3, 4)
        out = softmax_with_temperature(z, tau=2.0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_log_softmax_consistent(self):
        z = np.array([0.1, 1.7, -2.0])
        np.testing.assert_allclose(
            np.exp(log_softmax_with_temperature(z, 1.5)), softmax_with_temperature(z, 1.5), atol=1e-12
        )

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
    def test_bad_temperature_rejected(self, tau):
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([1.0, 2.0]), tau=tau)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([]))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([1.0, np.inf]))

    def test_extreme_logits_do_not_overflow(self):
        out = softmax_with_temperature(np.array([1e4, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)


class TestAdagrad:
    def test_single_step_arithmetic(self):
        p = ParamTensor(np.zeros(1))
        adagrad_step(p, np.array([2.0]), lr=0.1, eps=1e-8)
        assert p.accum[0] == 4.0
        assert p.values[0] == pytest.approx(-0.1 * 2.0 / (2.0 + 1e-8), abs=1e-15)

    def test_zero_gradient_is_noop(self):
        p = ParamTensor(np.array([1.5, -2.0]), np.array([0.3, 0.0]))
        before_v = p.values.copy()
        before_a = p.accum.copy()
        adagrad_step(p, np.zeros(2), lr=0.1, eps=1e-8)
        np.testing.assert_array_equal(p.values, before_v)
        np.testing.assert_array_equal(p.accum, before_a)

    def test_two_steps_closed_form(self):
        # with unit gradients, lr=1 and eps=0 the trajectory is -1, -1-1/sqrt(2)
        p = ParamTensor(np.zeros(1))
        adagrad_step(p, np.ones(1), lr=1.0, eps=0.0)
        assert p.values[0] == pytest.approx(-1.0, abs=1e-15)
        adagrad_step(p, np.ones(1), lr=1.0, eps=0.0)
        assert p.values[0] == pytest.approx(-1.0 - 1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_eps_zero_grad_coordinate_untouched(self):
        p = ParamTensor(np.array([1.0, 1.0]))
        adagrad_step(p, np.array([1.0, 0.0]), lr=1.0, eps=0.0)
        assert p.values[1] == 1.0 and np.isfinite(p.values).all()

    def test_sparse_rows_leave_others_bit_identical(self, rng):
        vals = rng.normal(size=(6, 3))
        p = ParamTensor(vals.copy())
        g = rng.normal(size=(2, 3))
        adagrad_step(p, g, lr=0.1, eps=1e-8, rows=np.array([1, 4]))
        untouched = [0, 2, 3, 5]
        np.testing.assert_array_equal(p.values[untouched], vals[untouched])
        assert not p.accum[untouched].any()
        assert (p.values[[1, 4]] != vals[[1, 4]]).any()

    def test_accumulator_monotone(self, rng):
        p = ParamTensor(np.zeros(4))
        prev = p.accum.copy()
        for _ in range(5):
            adagrad_step(p, rng.normal(size=4), lr=0.05, eps=1e-8)
            assert (p.accum >= prev).all()
            prev = p.accum.copy()

    def test_second_identical_step_is_smaller(self):
        p = ParamTensor(np.zeros(1))
        adagrad_step(p, np.ones(1), lr=0.5, eps=1e-8)
        first = abs(p.values[0])
        before = p.values[0]
        adagrad_step(p, np.ones(1), lr=0.5, eps=1e-8)
        assert abs(p.values[0] - before) < first

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adagrad_step(ParamTensor(np.zeros(3)), np.zeros(4), lr=0.1, eps=1e-8)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(ValueError):
            adagrad_step(ParamTensor(np.zeros(2)), np.array([1.0, np.nan]), lr=0.1, eps=1e-8)


class TestScatterAddRows:
    """scatter_add_rows must give the same bytes as the row-wise np.add.at."""

    @staticmethod
    def _assert_same_as_row_wise(start, rows, grads):
        want, got = start.copy(), start.copy()
        np.add.at(want, rows, grads)
        scatter_add_rows(got, rows, grads)
        # NaN stays NaN; its payload bits are not part of the contract
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_rows,d,m", [(5, 1, 40), (50, 32, 1408), (7, 3, 0), (1, 4, 9), (6, 2, 0), (9, 5, 77), (9, 6, 77)])
    def test_bytes_equal_row_wise_add_at(self, rng, dtype, n_rows, d, m):
        start = rng.normal(size=(n_rows, d)).astype(dtype)
        want, got = start.copy(), start.copy()
        # two successive calls onto a nonzero buffer, rows repeating
        for scale in (1.0, 1e-3):
            rows = rng.integers(0, n_rows, size=m)
            grads = (rng.normal(size=(m, d)) * scale).astype(dtype)
            np.add.at(want, rows, grads)
            scatter_add_rows(got, rows, grads)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 32])
    def test_float64_grads_keep_promoted_arithmetic(self, rng, d):
        # a float32 buffer takes float64 gradients as each sum in float64, rounded once to float32
        start = rng.normal(size=(4, d)).astype(np.float32)
        grads = rng.normal(size=(4, d)) * 1e-4
        got = self._assert_same_as_row_wise(start, np.arange(4), grads)
        assert got.tobytes() == (start.astype(np.float64) + grads).astype(np.float32).tobytes()
        # 1 + (2**-24 + 2**-50) is exact in float64 and rounds up to 1 + 2**-23; in
        # float32 the gradient rounds to 2**-24 and the tie rounds to even, 1.0
        got = self._assert_same_as_row_wise(np.ones((1, d), np.float32), np.array([0]), np.full((1, d), 2.0**-24 + 2.0**-50))
        assert (got == np.float32(1 + 2.0**-23)).all()
        # with repeated rows too
        self._assert_same_as_row_wise(start, rng.integers(0, 4, size=30), rng.normal(size=(30, d)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_signed_zeros_and_infinities(self, rng, dtype, d):
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.5], dtype=dtype)
        start = rng.choice(specials, size=(5, d))
        rows = rng.integers(0, 5, size=40)
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = self._assert_same_as_row_wise(start, rows, rng.choice(specials, size=(40, d)))
        assert np.isnan(got).any()
        # -0.0 + -0.0 stays -0.0, and +0.0 wins once it is added
        zeros = np.full((1, d), -0.0, dtype=dtype)
        got = self._assert_same_as_row_wise(zeros, np.array([0, 0]), np.full((2, d), -0.0, dtype=dtype))
        assert np.signbit(got).all()
        got = self._assert_same_as_row_wise(zeros, np.array([0]), np.zeros((1, d), dtype=dtype))
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [3, 4, 32])
    def test_non_contiguous_grads(self, rng, dtype, d):
        start = rng.normal(size=(8, d)).astype(dtype)
        rows = rng.integers(0, 8, size=50)
        transposed = rng.normal(size=(d, 50)).astype(dtype).T
        assert not transposed.flags.c_contiguous
        self._assert_same_as_row_wise(start, rows, transposed)
        strided = rng.normal(size=(100, 2 * d)).astype(dtype)[::2, ::2]
        self._assert_same_as_row_wise(start, rows, strided)

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_non_native_byte_order(self, rng, dtype):
        start = rng.normal(size=(6, 4)).astype(dtype)
        self._assert_same_as_row_wise(start, rng.integers(0, 6, size=20), rng.normal(size=(20, 4)).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_empty_rows_leave_buffer_unchanged(self, rng, dtype, d):
        start = rng.normal(size=(3, d)).astype(dtype)
        got = self._assert_same_as_row_wise(start, np.array([], dtype=np.int64), np.zeros((0, d), dtype=dtype))
        assert got.tobytes() == start.tobytes()

    @pytest.mark.parametrize(
        "rows,grads_shape",
        [([0, 2], (1, 1)), ([0, 2], (2, 1)), ([0, 2], (1, 4)), ([0, 2], (8,)), ([0, 2], (2, 4, 1)), ([[0, 2]], (1, 4))],
    )
    def test_mismatched_grads_rejected(self, rows, grads_shape):
        # a broadcast would spread one value over whole rows
        buf = np.zeros((3, 4))
        rows = np.array(rows)
        with pytest.raises(ValueError, match=re.escape(str(grads_shape)) + ".*" + re.escape(str(rows.shape))):
            scatter_add_rows(buf, rows, np.full(grads_shape, 5.0))
        assert not buf.any()

    def test_repeated_rows_all_count(self):
        buf = np.ones((3, 2))
        scatter_add_rows(buf, np.array([2, 0, 2]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(buf, [[4.0, 5.0], [1.0, 1.0], [7.0, 9.0]])

    def test_non_contiguous_buffer_rejected(self):
        # a flattened copy would swallow the update silently
        with pytest.raises(ValueError):
            scatter_add_rows(np.zeros((4, 6))[:, ::2], np.array([0]), np.ones((1, 3)))


class TestSortedUnique:
    """sorted_unique must return the very array the values-only np.unique does."""

    EXTREMES = np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0, -1, np.iinfo(np.int64).max])

    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([42]),
            np.full(9, -3),
            np.array([-5, 3, -5, -1, 0, 3, -7]),
            EXTREMES,
            np.array([[4, 1], [1, 9], [4, 4]]),  # 2-D input is flattened, as np.unique does
        ],
    )
    def test_fixed_cases(self, values):
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        high = (4, 100, 2**62)[seed % 3]  # many, some and almost no repeats
        values = rng.integers(-high, high, size=int(rng.integers(1, 3000)))
        np.testing.assert_array_equal(sorted_unique(values), np.unique(values))

    def test_input_untouched(self):
        values = np.array([3, 1, 3, 2])
        sorted_unique(values)
        np.testing.assert_array_equal(values, [3, 1, 3, 2])


class TestFiniteDiff:
    def test_quadratic_gradient_accepted(self):
        x = np.array([0.7, -1.3, 2.1])

        def loss():
            return 0.5 * float(np.sum(x * x))

        err = finite_diff_check(loss, x, x.copy(), h=1e-5)
        assert err < 1e-9

    def test_factor_two_bug_detected(self):
        x = np.array([0.7, -1.3, 2.1])

        def loss():
            return 0.5 * float(np.sum(x * x))

        err = finite_diff_check(loss, x, 2.0 * x, h=1e-5)
        assert err == pytest.approx(0.5, abs=0.05)

    def test_dict_of_params(self):
        a = np.array([1.0, 2.0])
        b = np.array([[3.0], [4.0]])

        def loss():
            return float(np.sum(a**2) + np.sum(b**3))

        err = finite_diff_check(loss, {"a": a, "b": b}, {"a": 2 * a, "b": 3 * b**2}, h=1e-6)
        assert err < 1e-7

    def test_subsampling_large_arrays(self, rng):
        x = rng.normal(size=200)

        def loss():
            return float(np.sum(np.sin(x)))

        err = finite_diff_check(loss, x, np.cos(x), h=1e-6, max_coords_per_array=16, rng=rng)
        assert err < 1e-8

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda: 0.0, {"a": np.ones(1)}, {"b": np.ones(1)})
