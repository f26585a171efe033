"""Tests for the scoring backbones: init, tokenization, LSTM, scores, gradients."""
import re

import numpy as np
import pytest

import tkgd.models as models
from tkgd.graph import Vocabulary, build_candidates, sample_negatives
from tkgd.models import (
    GATES,
    GradAccum,
    TADistMultParams,
    TTransEParams,
    _encode_pairs,
    _ttranse_distances,
    _ttranse_fixed_part,
    batch_candidate_backprop,
    batch_candidate_scores,
    encode_queries,
    init_params,
    lstm_backward,
    lstm_forward,
    score_candidates,
    score_quadruple,
    supervised_gradients,
    ta_tokenize,
)
from tkgd.numerics import ParamTensor, finite_diff_check, scatter_add_rows


def _vocab(n_entities, n_relations, years):
    return Vocabulary(
        [f"e{i}" for i in range(n_entities)],
        [f"r{j}" for j in range(n_relations)],
        list(years),
    )


def _tensor(rows):
    return ParamTensor(np.asarray(rows, dtype=np.float64))


def _scores(params, vocab, quads, slot):
    """batch_candidate_scores through a fresh encode_queries record."""
    return batch_candidate_scores(params, encode_queries(params, vocab, quads), slot)


def _backprop(params, vocab, quads, slot, dscores, grads):
    """batch_candidate_backprop through a fresh encode_queries record."""
    batch_candidate_backprop(params, encode_queries(params, vocab, quads), slot, dscores, grads)


def _zeroed_lstm(params: TADistMultParams) -> TADistMultParams:
    """Zero every gate block of w, u and b, including the forget bias."""
    out = params.copy()
    for tensor in (out.w, out.u, out.b):
        for block in np.split(tensor.values, len(GATES)):
            block[:] = 0.0
    return out


class TestInit:
    def test_shapes_ttranse(self):
        p = init_params("ttranse", 8, 11, 4, 5, seed=0)
        assert p.entity_emb.shape == (11, 8)
        assert p.relation_emb.shape == (4, 8)
        assert p.time_emb.shape == (5, 8)
        assert p.dim == 8

    def test_shapes_tadistmult(self):
        p = init_params("tadistmult", 6, 7, 3, 4, seed=0)
        assert p.entity_emb.shape == (7, 6)
        assert p.token_emb.shape == (3 + 10, 6)
        for tensor in (p.w, p.u):
            assert tensor.shape == (4 * 6, 6)
            for block in np.split(tensor.values, len(GATES)):
                assert block.shape == (6, 6)
        assert p.b.shape == (4 * 6,)
        for block in np.split(p.b.values, len(GATES)):
            assert block.shape == (6,)
        assert p.n_relations == 3

    def test_embedding_rows_unit_norm(self):
        for backbone in ("ttranse", "tadistmult"):
            p = init_params(backbone, 16, 30, 5, 6, seed=3)
            for name, t in p.tables().items():
                if not name.endswith("_emb"):
                    continue
                norms = np.linalg.norm(t.values, axis=1)
                assert np.allclose(norms, 1.0, atol=1e-5), name

    def test_forget_bias_one_other_biases_zero(self):
        p = init_params("tadistmult", 5, 4, 2, 3, seed=9)
        bias = dict(zip(GATES, np.split(p.b.values, len(GATES))))
        assert np.all(bias["forget"] == 1.0)
        for gate in ("input", "cell", "output"):
            assert np.all(bias[gate] == 0.0)

    def test_same_seed_same_params(self):
        a = init_params("tadistmult", 4, 6, 2, 3, seed=42)
        b = init_params("tadistmult", 4, 6, 2, 3, seed=42)
        for name in a.tables():
            assert np.array_equal(a.tables()[name].values, b.tables()[name].values), name

    def test_different_seed_differs(self):
        a = init_params("ttranse", 4, 6, 2, 3, seed=1)
        b = init_params("ttranse", 4, 6, 2, 3, seed=2)
        assert not np.array_equal(a.entity_emb.values, b.entity_emb.values)

    def test_dtype_and_accumulators(self):
        p = init_params("ttranse", 4, 3, 2, 2, seed=0)
        assert p.entity_emb.values.dtype == np.float32
        assert np.all(p.entity_emb.accum == 0.0)
        p64 = init_params("ttranse", 4, 3, 2, 2, seed=0, dtype=np.float64)
        assert p64.entity_emb.values.dtype == np.float64
        # same draws at either dtype, only the final cast differs
        assert np.allclose(p.entity_emb.values, p64.entity_emb.values, atol=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            init_params("transe", 4, 3, 2, 2, seed=0)
        with pytest.raises(ValueError):
            init_params("ttranse", 0, 3, 2, 2, seed=0)
        with pytest.raises(ValueError):
            init_params("ttranse", 4, 3, 0, 2, seed=0)


class TestTTransEScore:
    def test_exact_translation_scores_zero(self):
        # s + p - o + t = (1,0) + (0,1) - (1,1) + (0,0) = 0
        params = TTransEParams(
            entity_emb=_tensor([[1.0, 0.0], [1.0, 1.0]]),
            relation_emb=_tensor([[0.0, 1.0]]),
            time_emb=_tensor([[0.0, 0.0]]),
        )
        vocab = _vocab(2, 1, [1900])
        assert score_quadruple(params, (0, 0, 1, 0), vocab) == 0.0

    def test_pythagorean_residual(self):
        params = TTransEParams(
            entity_emb=_tensor([[0.0, 0.0], [3.0, 4.0]]),
            relation_emb=_tensor([[0.0, 0.0]]),
            time_emb=_tensor([[0.0, 0.0]]),
        )
        vocab = _vocab(2, 1, [1900])
        assert score_quadruple(params, (0, 0, 1, 0), vocab) == pytest.approx(-5.0, abs=1e-12)

    def test_matches_norm_formula(self, rng):
        params = init_params("ttranse", 4, 6, 3, 2, seed=8, dtype=np.float64)
        vocab = _vocab(6, 3, [1900, 1910])
        for _ in range(20):
            s, p, o, t = (
                int(rng.integers(6)),
                int(rng.integers(3)),
                int(rng.integers(6)),
                int(rng.integers(2)),
            )
            want = -np.linalg.norm(
                params.entity_emb.values[s]
                + params.relation_emb.values[p]
                - params.entity_emb.values[o]
                + params.time_emb.values[t]
            )
            got = score_quadruple(params, (s, p, o, t), vocab)
            assert got == pytest.approx(want, abs=1e-12)

    def test_rotation_invariance(self):
        # scores depend only on norms, so one orthogonal map on every table
        # leaves them unchanged
        params = init_params("ttranse", 5, 8, 3, 4, seed=11, dtype=np.float64)
        vocab = _vocab(8, 3, [1900, 1905, 1910, 1920])
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
        rotated = params.copy()
        for t in rotated.tables().values():
            t.values[:] = t.values @ q.T
        quads = [(0, 0, 1, 0), (3, 2, 7, 3), (5, 1, 5, 2)]
        for quad in quads:
            a = score_quadruple(params, quad, vocab)
            b = score_quadruple(rotated, quad, vocab)
            assert b == pytest.approx(a, abs=1e-9)


class TestTokenize:
    def test_relation_then_four_digits(self):
        vocab = _vocab(3, 4, [7, 1879])
        assert ta_tokenize(3, 1, vocab).tolist() == [3, 4 + 1, 4 + 8, 4 + 7, 4 + 9]

    def test_small_year_zero_padded(self):
        vocab = _vocab(3, 4, [7, 1879])
        assert ta_tokenize(0, 0, vocab).tolist() == [0, 4 + 0, 4 + 0, 4 + 0, 4 + 7]

    def test_negative_year_uses_absolute_value(self):
        vocab = _vocab(3, 2, [-50, 1900])
        assert ta_tokenize(1, 0, vocab).tolist() == [1, 2 + 0, 2 + 0, 2 + 5, 2 + 0]

    def test_year_past_four_digits_keeps_last_four(self):
        vocab = _vocab(3, 2, [1900, 12345])
        assert ta_tokenize(0, 1, vocab).tolist() == [0, 2 + 2, 2 + 3, 2 + 4, 2 + 5]

    def test_same_pair_same_tokens(self):
        vocab = _vocab(3, 2, [1900, 1910])
        a = ta_tokenize(1, 1, vocab)
        b = ta_tokenize(1, 1, vocab)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64


class TestEncodePairs:
    def test_tokens_and_order_match_row_wise_unique(self, rng):
        vocab = _vocab(4, 3, [-44, 7, 1999, 12345])
        params = init_params("tadistmult", 4, 4, 3, 4, seed=0, dtype=np.float64)
        every_pair = [(0, p, 1, t) for p in range(3) for t in range(4)]
        repeats = np.stack([np.zeros(30), rng.integers(0, 3, 30), np.ones(30), rng.integers(0, 4, 30)], axis=1)
        quads = np.concatenate([every_pair, repeats]).astype(np.int64)[rng.permutation(42)]
        states, cache, inverse = _encode_pairs(params, vocab, quads)
        pairs, want_inverse = np.unique(quads[:, [1, 3]], axis=0, return_inverse=True)
        want_tokens = np.stack([ta_tokenize(p, t, vocab) for p, t in pairs])
        assert cache.tokens.dtype == np.int64
        assert np.array_equal(cache.tokens, want_tokens)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        assert np.array_equal(states, lstm_forward(want_tokens, params)[0][inverse])

    @pytest.mark.parametrize("col,bad", [(1, -1), (1, 3), (3, -2), (3, 4)])
    def test_out_of_range_ids_rejected(self, col, bad):
        vocab = _vocab(4, 3, [1900, 1910, 1920, 1930])
        params = init_params("tadistmult", 4, 4, 3, 4, seed=0, dtype=np.float64)
        quads = np.array([[0, 1, 2, 1], [1, 2, 3, 0]])
        quads[1, col] = bad
        message = f"{'relation' if col == 1 else 'bucket'} id {bad} outside"
        with pytest.raises(ValueError, match=message):
            encode_queries(params, vocab, quads)
        with pytest.raises(ValueError, match=message):
            supervised_gradients(params, vocab, quads[:1], quads[1:][None])


class TestIdRangeCheck:
    """Every entity, relation and bucket id is checked on both backbones, in both entry points."""

    # (column, out-of-range id, kind) for a vocabulary of 4 entities, 3 relations and 4 buckets
    CASES = [(0, -1, "entity"), (0, 4, "entity"), (2, -1, "entity"), (2, 4, "entity"),
             (1, -1, "relation"), (1, 3, "relation"), (3, -2, "bucket"), (3, 4, "bucket")]

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("col,bad,kind", CASES)
    def test_out_of_range_id_raises_value_error(self, backbone, col, bad, kind):
        vocab = _vocab(4, 3, [1900, 1910, 1920, 1930])
        params = init_params(backbone, 4, 4, 3, 4, seed=0, dtype=np.float64)
        quads = np.array([[0, 1, 2, 1], [1, 2, 3, 0]])
        quads[1, col] = bad
        message = f"{kind} id {bad} outside"
        with pytest.raises(ValueError, match=message):
            encode_queries(params, vocab, quads)
        with pytest.raises(ValueError, match=message):
            supervised_gradients(params, vocab, quads[:1], quads[1:][None])
        with pytest.raises(ValueError, match=message):
            supervised_gradients(params, vocab, quads[1:], quads[:1][None])

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("col,bad,kind", CASES)
    def test_bad_negative_gives_the_same_message(self, backbone, col, bad, kind):
        # positives and negatives are checked as one block; a bad id in the
        # negatives is named as a check of the negatives alone would name it,
        # and one in the positives is named first
        vocab = _vocab(4, 3, [1900, 1910, 1920, 1930])
        params = init_params(backbone, 4, 4, 3, 4, seed=0, dtype=np.float64)
        positives = np.array([[0, 1, 2, 1], [1, 2, 3, 0]])
        negatives = np.array([[[0, 0, 3, 1], [2, 1, 2, 1]], [[1, 2, 0, 0], [3, 2, 3, 0]]])
        negatives[1, 0, col] = bad
        with pytest.raises(ValueError) as alone:
            encode_queries(params, vocab, negatives.reshape(-1, 4))
        with pytest.raises(ValueError) as joint:
            supervised_gradients(params, vocab, positives, negatives)
        assert str(joint.value) == str(alone.value)
        assert str(joint.value).startswith(f"{kind} id {bad} outside")
        positives[0, 1] = 7
        with pytest.raises(ValueError, match="relation id 7 outside"):
            supervised_gradients(params, vocab, positives, negatives)

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    def test_ids_at_the_bounds_pass(self, backbone):
        vocab = _vocab(4, 3, [1900, 1910, 1920, 1930])
        params = init_params(backbone, 4, 4, 3, 4, seed=0, dtype=np.float64)
        quads = np.array([[0, 0, 3, 0], [3, 2, 0, 3]])
        assert np.isfinite(_scores(params, vocab, quads, "object")).all()
        loss, _ = supervised_gradients(params, vocab, quads[:1], quads[1:][None])
        assert np.isfinite(loss)


class TestLstm:
    def test_all_zero_weights_give_zero_state(self):
        params = _zeroed_lstm(init_params("tadistmult", 4, 3, 2, 2, seed=0, dtype=np.float64))
        vocab = _vocab(3, 2, [1900, 1910])
        h, cache = lstm_forward(ta_tokenize(0, 0, vocab), params)
        # every gate sits at sigmoid(0) or tanh(0), so the cell never fills
        assert np.array_equal(h, np.zeros(4))
        assert cache.h.shape == (5, 4)
        assert score_quadruple(params, (0, 0, 1, 0), vocab) == 0.0

    def test_scalar_recurrence_matches_reference(self):
        """d=1 LSTM against an explicit step-by-step recurrence."""
        weights = {
            "w_input": 0.5, "w_forget": -0.3, "w_cell": 0.8, "w_output": 0.2,
            "u_input": 0.1, "u_forget": 0.4, "u_cell": -0.6, "u_output": 0.7,
            "b_input": 0.05, "b_forget": 1.0, "b_cell": -0.1, "b_output": 0.3,
        }
        token_rows = np.arange(12, dtype=np.float64) * 0.1 - 0.4

        def stacked(prefix):
            return np.array([weights[f"{prefix}_{gate}"] for gate in GATES])

        params = TADistMultParams(
            entity_emb=_tensor([[0.7], [-0.2]]),
            token_emb=ParamTensor(token_rows.reshape(-1, 1).copy()),
            w=_tensor(stacked("w")[:, None]),
            u=_tensor(stacked("u")[:, None]),
            b=_tensor(stacked("b")),
            n_relations=2,
        )
        vocab = _vocab(2, 2, [1879, 1900])
        tokens = ta_tokenize(1, 0, vocab)
        assert tokens.tolist() == [1, 2 + 1, 2 + 8, 2 + 7, 2 + 9]

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        h = c = 0.0
        for tok in tokens:
            x = token_rows[tok]
            i = sig(weights["w_input"] * x + weights["u_input"] * h + weights["b_input"])
            f = sig(weights["w_forget"] * x + weights["u_forget"] * h + weights["b_forget"])
            g = np.tanh(weights["w_cell"] * x + weights["u_cell"] * h + weights["b_cell"])
            o = sig(weights["w_output"] * x + weights["u_output"] * h + weights["b_output"])
            c = f * c + i * g
            h = o * np.tanh(c)

        got, cache = lstm_forward(tokens, params)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(h, abs=1e-10)
        assert cache.x.shape == (5, 1)
        assert cache.c[-1][0] == pytest.approx(c, abs=1e-10)

    def test_rejects_empty_sequence(self):
        params = init_params("tadistmult", 3, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            lstm_forward(np.array([], dtype=np.int64), params)

    def test_backward_matches_finite_differences(self):
        params = init_params("tadistmult", 3, 4, 2, 2, seed=21, dtype=np.float64)
        vocab = _vocab(4, 2, [1905, 1960])
        single = ta_tokenize(1, 1, vocab)
        cases = [
            (single, np.array([0.3, -1.1, 0.7])),
            # a (3, 5) batch whose first and last rows repeat one sequence
            (
                np.stack([single, ta_tokenize(0, 0, vocab), single]),
                np.array([[0.3, -1.1, 0.7], [-0.4, 0.2, 0.9], [1.3, 0.5, -0.8]]),
            ),
        ]
        for tokens, dh in cases:

            def loss():
                h, _ = lstm_forward(tokens, params)
                return float(np.sum(h * dh))

            _, cache = lstm_forward(tokens, params)
            # each batch row carries the same states as a 1-D run of that sequence
            for row, h_row, c_row in zip(tokens.reshape(-1, 5), cache.h.reshape(-1, 5, 3), cache.c.reshape(-1, 5, 3)):
                _, alone = lstm_forward(row, params)
                assert np.max(np.abs(h_row - alone.h)) < 1e-12
                assert np.max(np.abs(c_row - alone.c)) < 1e-12
            dx, dense = lstm_backward(params, cache, dh)
            arrays = {name: t.values for name, t in params.tables().items() if name != "entity_emb"}
            grads = dict(dense)
            token_grad = np.zeros_like(params.token_emb.values)
            np.add.at(token_grad, cache.tokens.reshape(-1), dx.reshape(-1, 3))
            grads["token_emb"] = token_grad
            err = finite_diff_check(loss, arrays, grads)
            assert err < 1e-6


class TestTADistMultScore:
    def test_zero_sequence_means_zero_score(self):
        params = _zeroed_lstm(init_params("tadistmult", 4, 5, 2, 2, seed=1, dtype=np.float64))
        vocab = _vocab(5, 2, [1900, 1910])
        for quad in [(0, 0, 1, 0), (2, 1, 4, 1), (3, 0, 3, 0)]:
            assert score_quadruple(params, quad, vocab) == 0.0

    def test_subject_object_symmetry(self):
        params = init_params("tadistmult", 4, 6, 2, 3, seed=4, dtype=np.float64)
        vocab = _vocab(6, 2, [1900, 1905, 1910])
        for quad in [(0, 1, 3, 2), (5, 0, 1, 0), (2, 1, 2, 1)]:
            s, p, o, t = quad
            assert score_quadruple(params, quad, vocab) == score_quadruple(params, (o, p, s, t), vocab)

    def test_matches_manual_trilinear(self, rng):
        params = init_params("tadistmult", 3, 5, 2, 2, seed=6, dtype=np.float64)
        vocab = _vocab(5, 2, [1900, 1910])
        for _ in range(10):
            s, p, o, t = (
                int(rng.integers(5)),
                int(rng.integers(2)),
                int(rng.integers(5)),
                int(rng.integers(2)),
            )
            pseq, _ = lstm_forward(ta_tokenize(p, t, vocab), params)
            want = float(np.sum(params.entity_emb.values[s] * params.entity_emb.values[o] * pseq))
            assert score_quadruple(params, (s, p, o, t), vocab) == pytest.approx(want, abs=1e-12)


class TestCandidateScoring:
    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("slot", ["object", "subject"])
    def test_candidate_list_matches_pointwise(self, backbone, slot):
        params = init_params(backbone, 4, 7, 3, 2, seed=2, dtype=np.float64)
        vocab = _vocab(7, 3, [1900, 1950])
        query = (2, 1, 5, 1)
        cs = build_candidates(query, slot, vocab)
        got = score_candidates(params, cs, vocab)
        for pos, cand in enumerate(cs.candidates):
            s, p, o, t = query
            quad = (s, p, int(cand), t) if slot == "object" else (int(cand), p, o, t)
            assert got[pos] == pytest.approx(score_quadruple(params, quad, vocab), abs=1e-9)

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("slot", ["object", "subject"])
    def test_batch_matches_pointwise(self, backbone, slot, rng):
        params = init_params(backbone, 3, 6, 2, 2, seed=13, dtype=np.float64)
        vocab = _vocab(6, 2, [1900, 1910])
        quads = np.stack(
            [
                rng.integers(6, size=5),
                rng.integers(2, size=5),
                rng.integers(6, size=5),
                rng.integers(2, size=5),
            ],
            axis=1,
        )
        scores = _scores(params, vocab, quads, slot)
        assert scores.shape == (5, 6)
        for row, (s, p, o, t) in enumerate(quads):
            for j in range(6):
                quad = (s, p, j, t) if slot == "object" else (j, p, o, t)
                assert scores[row, j] == pytest.approx(
                    score_quadruple(params, quad, vocab), abs=1e-9
                )

    def test_float32_close_to_float64(self):
        params32 = init_params("ttranse", 8, 12, 3, 3, seed=5)
        params64 = params32.astype(np.float64)
        vocab = _vocab(12, 3, [1900, 1910, 1920])
        quads = np.array([[0, 0, 1, 0], [4, 2, 9, 2], [11, 1, 3, 1]])
        s32 = _scores(params32, vocab, quads, "object")
        s64 = _scores(params64, vocab, quads, "object")
        assert np.max(np.abs(s32.astype(np.float64) - s64)) < 1e-5


class TestSlotCheck:
    """A slot other than "subject" or "object" is refused by both batch scorers on both backbones."""

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("slot", ["objet", "Object", "", "relation"])
    def test_misspelled_slot_raises(self, backbone, slot):
        params = init_params(backbone, 4, 4, 3, 4, seed=0, dtype=np.float64)
        encoding = encode_queries(params, _vocab(4, 3, [1900, 1910, 1920, 1930]), np.array([[0, 1, 2, 1]]))
        message = re.escape(repr(slot))
        with pytest.raises(ValueError, match=message):
            batch_candidate_scores(params, encoding, slot)
        grads = GradAccum(params)
        with pytest.raises(ValueError, match=message):
            batch_candidate_backprop(params, encoding, slot, np.ones((1, 4)), grads)
        assert all(np.all(g == 0.0) for g in grads.dense_dict().values())


class TestQueryEncoding:
    """One encode_queries record serves both slots' scores and backprops on either backbone."""

    @staticmethod
    def _setup(backbone, dtype, rng):
        params = init_params(backbone, 6, 9, 3, 4, seed=21, dtype=dtype)
        vocab = _vocab(9, 3, [1900, 1910, 1925, 2001])
        quads = np.stack([rng.integers(9, size=40), rng.integers(3, size=40),
                          rng.integers(9, size=40), rng.integers(4, size=40)], axis=1)
        return params, vocab, quads

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_on_both_slots(self, rng, dtype, backbone):
        params, vocab, quads = self._setup(backbone, dtype, rng)
        encoding = encode_queries(params, vocab, quads)
        own, shared = GradAccum(params), GradAccum(params)
        for slot in ("subject", "object"):
            scores = _scores(params, vocab, quads, slot)
            assert batch_candidate_scores(params, encoding, slot).tobytes() == scores.tobytes()
            dscores = rng.normal(size=scores.shape).astype(dtype)
            _backprop(params, vocab, quads, slot, dscores, own)
            batch_candidate_backprop(params, encoding, slot, dscores, shared)
        want, got = own.dense_dict(), shared.dense_dict()
        assert want.keys() == got.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_ttranse_distances_formed_once_per_slot(self, rng, monkeypatch):
        calls = []

        def counting(params, quads, slot):
            calls.append(slot)
            return _ttranse_distances(params, quads, slot)

        monkeypatch.setattr(models, "_ttranse_distances", counting)
        params, vocab, quads = self._setup("ttranse", np.float32, rng)
        encoding = encode_queries(params, vocab, quads)
        grads = GradAccum(params)
        for slot in ("subject", "object"):
            scores = batch_candidate_scores(params, encoding, slot)
            batch_candidate_backprop(params, encoding, slot, np.ones_like(scores), grads)
        assert calls == ["subject", "object"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ttranse_scores_are_negated_distances(self, rng, dtype):
        params, vocab, quads = self._setup("ttranse", dtype, rng)
        encoding = encode_queries(params, vocab, quads)
        for slot in ("subject", "object"):
            want = (-_ttranse_distances(params, quads, slot)[2]).astype(dtype)
            got = batch_candidate_scores(params, encoding, slot)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_record_is_immutable(self, rng):
        params, vocab, quads = self._setup("ttranse", np.float64, rng)
        encoding = encode_queries(params, vocab, quads)
        assert encoding.quads.shape == (40, 4) and encoding.quads.dtype == np.int64
        with pytest.raises(AttributeError):
            encoding.quads = quads[:1]

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    def test_out_of_range_ids_rejected(self, backbone):
        params = init_params(backbone, 3, 5, 2, 2, seed=0)
        with pytest.raises(ValueError, match="bucket id 2 outside"):
            encode_queries(params, _vocab(5, 2, [1900, 1910]), np.array([[0, 1, 2, 2]]))


class TestTTransEDistances:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slot", ["object", "subject"])
    def test_coincident_candidate(self, dtype, slot):
        # each query gets its own candidate row equal to its fixed part
        params = init_params("ttranse", 16, 12, 3, 2, seed=21, dtype=dtype)
        vocab = _vocab(12, 3, [1900, 1910])
        quads = np.array([[1, 2, 4, 1], [0, 1, 3, 0], [5, 0, 2, 1], [7, 2, 6, 0]])
        queries, coincident = np.arange(4), np.arange(8, 12)
        params.entity_emb.values[coincident] = _ttranse_fixed_part(params, quads, slot)

        scores = _scores(params, vocab, quads, slot)
        assert scores.dtype == dtype
        assert np.all(scores[queries, coincident] == 0.0)
        assert np.sum(scores < 0.0) == scores.size - len(queries)

        only_coincident = np.zeros(scores.shape)
        only_coincident[queries, coincident] = 1.0
        grads = GradAccum(params)
        _backprop(params, vocab, quads, slot, only_coincident, grads)
        for grad in grads.dense_dict().values():
            assert np.all(grad == 0.0)

        grads = GradAccum(params)
        _backprop(params, vocab, quads, slot, np.ones(scores.shape), grads)
        for grad in grads.dense_dict().values():
            assert np.all(np.isfinite(grad))

    def test_float32_scores_as_accurate_as_broadcasting(self):
        # Trained-like float32 tables: rows of norm 1-3, each query's truth a
        # short translation away, and a rival candidate 2e-4 nearer or farther
        # than the truth along the same line, so the truth's rank hinges on
        # distances 4e-6 to 1.6e-5 apart.  The reference broadcasts in float64
        # over the float32 fixed parts and table, the inputs the scorer sees.
        rng = np.random.default_rng(2024)
        n_e, n_r, n_b, d, m = 500, 8, 4, 32, 64

        def rows(n, lo, hi):
            v = rng.normal(size=(n, d))
            return v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(lo, hi, size=(n, 1))

        ent = rows(n_e, 1.0, 3.0)
        rel, tim = rows(n_r, 0.3, 0.8), rows(n_b, 0.1, 0.2)
        picks = rng.permutation(n_e)[: 4 * m].reshape(4, m)
        subj, obj = picks[0], picks[1]
        rel_ids, bucket_ids = rng.integers(n_r, size=m), rng.integers(n_b, size=m)
        ent[subj] = rows(m, 1.0, 2.0)
        ent[obj] = ent[subj] + rel[rel_ids] + tim[bucket_ids] + rows(m, 0.02, 0.08)
        params = TTransEParams(*(ParamTensor(t.astype(np.float32)) for t in (ent, rel, tim)))
        vocab = _vocab(n_e, n_r, range(1900, 1900 + n_b))
        quads = np.stack([subj, rel_ids, obj, bucket_ids], axis=1)

        for slot, truth, rivals in (("object", obj, picks[2]), ("subject", subj, picks[3])):
            fixed = _ttranse_fixed_part(params, quads, slot)
            table = params.entity_emb.values
            stretch = 1.0 + 2e-4 * rng.choice([-1.0, 1.0], size=(m, 1))
            table[rivals] = fixed + (table[truth] - fixed) * stretch

            diff = fixed.astype(np.float64)[:, None, :] - table.astype(np.float64)[None, :, :]
            reference = -np.sqrt(np.sum(diff * diff, axis=2))
            diff32 = fixed[:, None, :] - table[None, :, :]
            broadcast32 = -np.sqrt(np.sum(diff32 * diff32, axis=2))
            got = _scores(params, vocab, quads, slot)

            assert got.dtype == np.float32
            assert np.max(np.abs(got - reference)) <= np.max(np.abs(broadcast32 - reference))

            def truth_ranks(scores):
                return 1 + np.sum(scores > scores[np.arange(m), truth][:, None], axis=1)

            want = truth_ranks(reference)
            assert set(want.tolist()) == {1, 2}
            np.testing.assert_array_equal(truth_ranks(got), want)


class TestGradAccum:
    def test_row_gradients_accumulate(self):
        params = init_params("ttranse", 2, 4, 2, 2, seed=0, dtype=np.float64)
        grads = GradAccum(params)
        grads.add_rows("entity_emb", np.array([1, 1, 3]), np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        got = grads.dense_dict()["entity_emb"]
        assert np.array_equal(got, np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_untouched_rows_not_updated_by_apply(self):
        params = init_params("ttranse", 2, 4, 2, 2, seed=0, dtype=np.float64)
        before = params.entity_emb.values.copy()
        grads = GradAccum(params)
        grads.add_rows("entity_emb", np.array([2]), np.array([[1.0, -1.0]]))
        grads.apply(lr=0.1, eps=1e-8)
        changed = np.any(params.entity_emb.values != before, axis=1)
        assert changed.tolist() == [False, False, True, False]

    def test_dense_dict_full_shapes(self):
        params = init_params("tadistmult", 3, 4, 2, 2, seed=0, dtype=np.float64)
        grads = GradAccum(params)
        input_block = np.zeros((4 * 3, 3))
        input_block[:3] = 1.0
        grads.add_dense("w", input_block)
        out = grads.dense_dict()
        assert set(out) == set(params.tables())
        assert out["w"].shape == (4 * 3, 3)
        assert np.array_equal(out["w"][:3], np.ones((3, 3)))
        assert np.all(out["w"][3:] == 0.0)
        assert np.all(out["entity_emb"] == 0.0)


class TestSupervisedGradients:
    def test_zero_distance_positive_contributes_nothing(self):
        # the positive sits exactly at distance zero; its subgradient is taken
        # as zero, so only the active negative moves anything
        params = TTransEParams(
            entity_emb=_tensor([[0.0, 0.0], [0.3, 0.4]]),
            relation_emb=_tensor([[0.0, 0.0]]),
            time_emb=_tensor([[0.0, 0.0]]),
        )
        vocab = _vocab(2, 1, [1900])
        pos = np.array([[0, 0, 0, 0]])
        neg = np.array([[[0, 0, 1, 0]]])
        loss, grads = supervised_gradients(params, vocab, pos, neg, margin=1.0)
        # slack = 1 + 0 - 0.5
        assert loss == pytest.approx(0.5, abs=1e-12)
        dense = grads.dense_dict()
        # u_neg = (-0.6, -0.8); subject/relation/time rows get -u_neg, object +u_neg
        assert np.allclose(dense["entity_emb"][0], [0.6, 0.8], atol=1e-12)
        assert np.allclose(dense["entity_emb"][1], [-0.6, -0.8], atol=1e-12)
        assert np.allclose(dense["relation_emb"][0], [0.6, 0.8], atol=1e-12)
        assert np.allclose(dense["time_emb"][0], [0.6, 0.8], atol=1e-12)

    def test_satisfied_margin_is_flat(self):
        params = TTransEParams(
            entity_emb=_tensor([[0.0, 0.0], [30.0, 40.0]]),
            relation_emb=_tensor([[0.0, 0.0]]),
            time_emb=_tensor([[0.0, 0.0]]),
        )
        vocab = _vocab(2, 1, [1900])
        loss, grads = supervised_gradients(
            params, vocab, np.array([[0, 0, 0, 0]]), np.array([[[0, 0, 1, 0]]])
        )
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.dense_dict().values())

    def test_rejects_bad_negative_shape(self):
        params = init_params("ttranse", 2, 3, 1, 1, seed=0)
        vocab = _vocab(3, 1, [1900])
        with pytest.raises(ValueError):
            supervised_gradients(params, vocab, np.zeros((2, 4), dtype=np.int64), np.zeros((3, 1, 4), dtype=np.int64))

    def test_margin_loss_gradients_ttranse(self, rng):
        params = init_params("ttranse", 2, 5, 2, 3, seed=3, dtype=np.float64)
        vocab = _vocab(5, 2, [1900, 1910, 1920])
        pos = np.stack(
            [rng.integers(5, size=3), rng.integers(2, size=3), rng.integers(5, size=3), rng.integers(3, size=3)],
            axis=1,
        )
        neg = np.stack(
            [rng.integers(5, size=(3, 2)), rng.integers(2, size=(3, 2)), rng.integers(5, size=(3, 2)), rng.integers(3, size=(3, 2))],
            axis=2,
        )

        def loss():
            return supervised_gradients(params, vocab, pos, neg)[0]

        _, grads = supervised_gradients(params, vocab, pos, neg)
        arrays = {name: t.values for name, t in params.tables().items()}
        err = finite_diff_check(loss, arrays, grads.dense_dict())
        assert err < 1e-4

    def test_logistic_loss_gradients_tadistmult(self, rng):
        params = init_params("tadistmult", 3, 4, 2, 2, seed=5, dtype=np.float64)
        vocab = _vocab(4, 2, [1900, 1950])
        pos = np.stack(
            [rng.integers(4, size=2), rng.integers(2, size=2), rng.integers(4, size=2), rng.integers(2, size=2)],
            axis=1,
        )
        neg = np.stack(
            [rng.integers(4, size=(2, 2)), rng.integers(2, size=(2, 2)), rng.integers(4, size=(2, 2)), rng.integers(2, size=(2, 2))],
            axis=2,
        )

        def loss():
            return supervised_gradients(params, vocab, pos, neg)[0]

        _, grads = supervised_gradients(params, vocab, pos, neg)
        arrays = {name: t.values for name, t in params.tables().items()}
        err = finite_diff_check(loss, arrays, grads.dense_dict())
        assert err < 1e-4

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("n,k", [(0, 1), (0, 0), (2, 0)])
    def test_empty_batch_rejected(self, backbone, n, k):
        params = init_params(backbone, 2, 3, 1, 1, seed=0)
        vocab = _vocab(3, 1, [1900])
        shape = (n, k, 4)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            supervised_gradients(params, vocab, np.zeros((n, 4), dtype=np.int64), np.zeros(shape, dtype=np.int64))


def _dense_ttranse_gradients(params, positives, negatives, margin):
    """Reference translation step: every positive and negative row is scattered, zero rows included."""
    n, k = negatives.shape[:2]
    grads = GradAccum(params)
    ent = params.entity_emb.values
    rel = params.relation_emb.values
    tim = params.time_emb.values

    def diffs(quads):
        v = ent[quads[:, 0]] + rel[quads[:, 1]] - ent[quads[:, 2]] + tim[quads[:, 3]]
        return v, np.linalg.norm(v, axis=1)

    v_pos, d_pos = diffs(positives)
    flat_neg = negatives.reshape(-1, 4)
    v_neg, d_neg = diffs(flat_neg)
    d_neg = d_neg.reshape(n, k)
    slack = margin + d_pos[:, None] - d_neg
    active = slack > 0
    loss = float(np.sum(np.where(active, slack, 0.0))) / (n * k)
    u_pos = v_pos / np.where(d_pos > 0, d_pos, 1.0)[:, None]
    u_neg = (v_neg / np.where(d_neg.reshape(-1) > 0, d_neg.reshape(-1), 1.0)[:, None]).reshape(n, k, -1)
    w_pos = active.sum(axis=1).astype(u_pos.dtype) / (n * k)
    g_pos = u_pos * w_pos[:, None]
    grads.add_rows("entity_emb", positives[:, 0], g_pos)
    grads.add_rows("relation_emb", positives[:, 1], g_pos)
    grads.add_rows("time_emb", positives[:, 3], g_pos)
    grads.add_rows("entity_emb", positives[:, 2], -g_pos)
    w_neg = active.astype(u_pos.dtype) / (n * k)
    g_neg = (u_neg * w_neg[:, :, None]).reshape(n * k, -1)
    grads.add_rows("entity_emb", flat_neg[:, 0], -g_neg)
    grads.add_rows("relation_emb", flat_neg[:, 1], -g_neg)
    grads.add_rows("time_emb", flat_neg[:, 3], -g_neg)
    grads.add_rows("entity_emb", flat_neg[:, 2], g_neg)
    return loss, grads


class TestHingeSparseStep:
    """Skipping the rows without an active hinge leaves every bit of the Adagrad step unchanged."""

    E, R, B = 20, 3, 4

    def _batch(self, dtype, seed=7, n=13, k=5):
        params = init_params("ttranse", 6, self.E, self.R, self.B, seed=seed, dtype=dtype)
        vocab = _vocab(self.E, self.R, [1900 + 10 * b for b in range(self.B)])
        gen = np.random.default_rng(seed)
        positives = np.stack([gen.integers(self.E, size=n), gen.integers(self.R, size=n),
                              gen.integers(self.E, size=n), gen.integers(self.B, size=n)], axis=1)
        negatives = sample_negatives(positives, k, vocab, gen)
        return params, vocab, positives, negatives

    @staticmethod
    def _active(params, positives, negatives, margin):
        n, k = negatives.shape[:2]
        ent, rel, tim = params.entity_emb.values, params.relation_emb.values, params.time_emb.values

        def dist(quads):
            return np.linalg.norm(ent[quads[:, 0]] + rel[quads[:, 1]] - ent[quads[:, 2]] + tim[quads[:, 3]], axis=1)

        return margin + dist(positives)[:, None] - dist(negatives.reshape(-1, 4)).reshape(n, k) > 0

    def _assert_same_step(self, params, vocab, positives, negatives, margin):
        sparse_params, dense_params = params.copy(), params.copy()
        loss, grads = supervised_gradients(sparse_params, vocab, positives, negatives, margin=margin)
        want_loss, want_grads = _dense_ttranse_gradients(dense_params, positives, negatives, margin)
        assert loss == want_loss
        got_buf, want_buf = grads.dense_dict(), want_grads.dense_dict()
        for name in want_buf:
            assert got_buf[name].tobytes() == want_buf[name].tobytes(), name
        grads.apply(0.1, 1e-8)
        want_grads.apply(0.1, 1e-8)
        for name, tensor in dense_params.tables().items():
            got = sparse_params.tables()[name]
            assert got.values.tobytes() == tensor.values.tobytes(), name
            assert got.accum.tobytes() == tensor.accum.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fresh_init_almost_all_active(self, dtype):
        params, vocab, positives, negatives = self._batch(dtype)
        assert self._active(params, positives, negatives, 1.0).mean() > 0.9
        self._assert_same_step(params, vocab, positives, negatives, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_none_active(self, dtype):
        params, vocab, positives, negatives = self._batch(dtype)
        assert not self._active(params, positives, negatives, -1e3).any()
        self._assert_same_step(params, vocab, positives, negatives, -1e3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_batch(self, dtype):
        params, vocab, positives, negatives = self._batch(dtype)
        active = self._active(params, positives, negatives, -0.5)
        hits = active.sum(axis=1)
        assert 0 < active.sum() < active.size and (hits == 0).any() and (hits > 0).any()
        self._assert_same_step(params, vocab, positives, negatives, -0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_positive_at_zero_distance(self, dtype):
        params, vocab, positives, negatives = self._batch(dtype)
        s, p, o, t = positives[0]
        params.entity_emb.values[o] = params.entity_emb.values[s]
        params.relation_emb.values[p] = 0.0
        params.time_emb.values[t] = 0.0
        ent = params.entity_emb.values
        assert not np.any(ent[s] + params.relation_emb.values[p] - ent[o] + params.time_emb.values[t])
        active = self._active(params, positives, negatives, 2.5)
        assert active[0].any()
        self._assert_same_step(params, vocab, positives, negatives, 2.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_steps_stay_identical(self, dtype):
        # several steps, so later batches meet nonzero accumulators and a falling share of active hinges
        params, vocab, _, _ = self._batch(dtype)
        sparse_params, dense_params = params.copy(), params.copy()
        gen = np.random.default_rng(3)
        for _ in range(30):
            positives = np.stack([gen.integers(self.E, size=8), gen.integers(self.R, size=8),
                                  gen.integers(self.E, size=8), gen.integers(self.B, size=8)], axis=1)
            negatives = sample_negatives(positives, 4, vocab, gen)
            supervised_gradients(sparse_params, vocab, positives, negatives)[1].apply(0.1, 1e-8)
            _dense_ttranse_gradients(dense_params, positives, negatives, 1.0)[1].apply(0.1, 1e-8)
        for name, tensor in dense_params.tables().items():
            assert sparse_params.tables()[name].values.tobytes() == tensor.values.tobytes(), name
            assert sparse_params.tables()[name].accum.tobytes() == tensor.accum.tobytes(), name

    @pytest.mark.parametrize("margin", [1.0, -0.5, -1e3])
    def test_scatters_only_active_rows(self, monkeypatch, margin):
        rows = []

        def counting(buf, idx, grads):
            rows.append(len(idx))
            scatter_add_rows(buf, idx, grads)

        monkeypatch.setattr(models, "scatter_add_rows", counting)
        params, vocab, positives, negatives = self._batch(np.float32)
        active = self._active(params, positives, negatives, margin)
        supervised_gradients(params, vocab, positives, negatives, margin=margin)
        # one scatter per table: entity (s and o rows), relation, time
        assert len(rows) == 3
        assert sum(rows) == 4 * int((active.sum(axis=1) > 0).sum()) + 4 * int(active.sum())

    def test_tadistmult_scatters_once_per_table(self, monkeypatch):
        rows = []

        def counting(buf, idx, grads):
            rows.append(len(idx))
            scatter_add_rows(buf, idx, grads)

        monkeypatch.setattr(models, "scatter_add_rows", counting)
        params = init_params("tadistmult", 6, self.E, self.R, self.B, seed=7)
        _, vocab, positives, negatives = self._batch(np.float32)
        supervised_gradients(params, vocab, positives, negatives)
        all_quads = np.concatenate([positives, negatives.reshape(-1, 4)])
        n_pairs = len(np.unique(all_quads[:, [1, 3]], axis=0))
        # entity rows (s then o), pair states, tokens
        assert rows == [2 * len(all_quads), len(all_quads), n_pairs * (1 + models.YEAR_DIGITS)]


class TestBatchBackprop:
    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("slot", ["object", "subject"])
    def test_matches_finite_differences(self, backbone, slot, rng):
        params = init_params(backbone, 3, 5, 2, 2, seed=17, dtype=np.float64)
        vocab = _vocab(5, 2, [1900, 1910])
        quads = np.stack(
            [rng.integers(5, size=4), rng.integers(2, size=4), rng.integers(5, size=4), rng.integers(2, size=4)],
            axis=1,
        )
        weights = np.random.default_rng(99).normal(size=(4, 5))

        def loss():
            return float(np.sum(weights * _scores(params, vocab, quads, slot)))

        grads = GradAccum(params)
        _backprop(params, vocab, quads, slot, weights, grads)
        arrays = {name: t.values for name, t in params.tables().items()}
        err = finite_diff_check(loss, arrays, grads.dense_dict(), rng=rng)
        assert err < 1e-4
