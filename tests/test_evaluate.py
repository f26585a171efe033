"""Ranking metric tests, including the cross-check against the slow oracle."""
import importlib

import numpy as np
import pytest

from tkgd.graph import (
    DataError,
    Dataset,
    KnownFacts,
    Vocabulary,
    build_candidates,
    filter_candidates,
    generate_synthetic,
)
from tkgd.evaluate import HITS_KS, brute_force_oracle, evaluate, metrics_from_ranks, rank_of
from tkgd.models import TTransEParams, init_params
from tkgd.numerics import ParamTensor


def _tensor(rows):
    return ParamTensor(np.asarray(rows, dtype=np.float64))


def _block_rank(scores, gt, tie_policy="pessimistic"):
    """rank_of on the query stacked as the middle row of a three-row block."""
    scores = np.asarray(scores, dtype=np.float64)
    block = np.stack([scores[::-1], scores, -scores])
    return int(rank_of(block, np.array([0, gt, len(scores) - 1]), tie_policy)[1])


def _masked_block_rank(scores, gt, tie_policy="pessimistic"):
    """rank_of on a two-row block whose extra better and tied candidates are filtered out.

    The keep mask comes from filter_candidates, and the masked rank must equal
    the 1-D rank over the surviving candidates.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    padded = np.concatenate([scores, [np.inf, scores[gt]]])
    vocab = Vocabulary([f"e{i}" for i in range(n + 2)], ["r0"], [1900])
    known = KnownFacts([(0, 0, n, 0), (0, 0, n + 1, 0)])
    cs = filter_candidates(build_candidates((0, 0, gt, 0), "object", vocab), known)
    keep = np.isin(np.arange(n + 2), cs.candidates)
    ranks = rank_of(np.stack([padded, padded]), np.array([gt, gt]), tie_policy, np.stack([keep, keep]))
    assert ranks[0] == ranks[1] == rank_of(padded[cs.candidates], cs.ground_truth_index, tie_policy)
    return int(ranks[0])


# the 1-D form and the two block forms must agree on every case
RANKERS = (rank_of, _block_rank, _masked_block_rank)


class TestRankOf:
    def test_strict_winner_ranks_first(self):
        scores = np.array([0.1, 0.9, 0.3, -2.0])
        for rank in RANKERS:
            for policy in ("pessimistic", "optimistic", "mean"):
                assert rank(scores, 1, policy) == 1

    def test_strict_loser_ranks_last(self):
        scores = np.array([0.1, 0.9, 0.3, -2.0])
        for rank in RANKERS:
            assert rank(scores, 3) == 4

    def test_four_way_tie_policies(self):
        scores = np.zeros(4)
        for rank in RANKERS:
            assert rank(scores, 2, "pessimistic") == 4
            assert rank(scores, 2, "optimistic") == 1
            assert rank(scores, 2, "mean") == 2  # 1 + floor(3 / 2)

    def test_two_way_tie_mean_floor(self):
        scores = np.array([1.0, 1.0, 0.0])
        for rank in RANKERS:
            assert rank(scores, 0, "mean") == 1
            assert rank(scores, 0, "pessimistic") == 2

    def test_matches_full_sort_on_random_vectors(self, rng):
        for _ in range(50):
            scores = rng.normal(size=6)
            gt = int(rng.integers(6))
            ordered = sorted(scores.tolist(), reverse=True)
            last = 1 + max(i for i, v in enumerate(ordered) if v == scores[gt])
            first = 1 + min(i for i, v in enumerate(ordered) if v == scores[gt])
            for rank in RANKERS:
                assert rank(scores, gt, "pessimistic") == last
                assert rank(scores, gt, "optimistic") == first

    def test_affine_transform_keeps_ranks(self, rng):
        scores = rng.normal(size=8)
        for rank in RANKERS:
            for gt in range(8):
                base = rank(scores, gt)
                assert rank(2.5 * scores + 7.0, gt) == base

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rank_of(np.array([1.0, 2.0]), 0, "median")
        with pytest.raises(ValueError):
            rank_of(np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError):
            rank_of(np.array([1.0]), -1)
        with pytest.raises(ValueError):
            rank_of(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            rank_of(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            rank_of(np.zeros((2, 3)), np.array([0, 1]), keep=np.eye(2, 3, dtype=bool)[::-1])


def _rank_of_reference(scores, gt_index, tie_policy="pessimistic", keep=None):
    """rank_of as it was before its counting moved to count_nonzero, input checks left out."""
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    gt = np.asarray(gt_index, dtype=np.int64).reshape(-1)
    rows = np.arange(len(block))
    gt_scores = block[rows, gt][:, None]
    better = block > gt_scores
    tied = block == gt_scores
    if keep is not None:
        keep = np.asarray(keep, dtype=bool).reshape(block.shape)
        better &= keep
        tied &= keep
    ties = tied.sum(axis=1) - 1
    if tie_policy == "optimistic":
        ties = 0
    elif tie_policy == "mean":
        ties = ties // 2
    ranks = 1 + better.sum(axis=1) + ties
    return int(ranks[0]) if scores.ndim == 1 else ranks


class TestRankOfAgainstReference:
    """rank_of against the earlier implementation on tie-heavy blocks with non-finite scores."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 60))
        # few distinct values, so ties are everywhere
        block = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
        special = rng.random((m, n)) < 0.15
        block[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
        gt = rng.integers(0, n, size=m)
        keep = rng.random((m, n)) < 0.7
        keep[np.arange(m), gt] = True
        for policy in ("pessimistic", "optimistic", "mean"):
            for mask in (None, keep):
                got = rank_of(block, gt, policy, mask)
                want = _rank_of_reference(block, gt, policy, mask)
                assert got.shape == (m,)
                np.testing.assert_array_equal(got, want)
                for i in range(min(m, 4)):
                    one = rank_of(block[i], int(gt[i]), policy, None if mask is None else mask[i])
                    assert type(one) is int
                    assert one == _rank_of_reference(block[i], int(gt[i]), policy, None if mask is None else mask[i])

    def test_float32_and_integer_scores(self):
        rng = np.random.default_rng(3)
        for dtype in (np.float32, np.int64):
            block = rng.integers(0, 3, size=(12, 9)).astype(dtype)
            gt = rng.integers(0, 9, size=12)
            for policy in ("pessimistic", "optimistic", "mean"):
                np.testing.assert_array_equal(rank_of(block, gt, policy), _rank_of_reference(block, gt, policy))


class TestMetrics:
    def test_worked_example(self):
        mr, mrr, hits = metrics_from_ranks(np.array([1, 4]))
        assert mr == 2.5
        assert mrr == 0.625
        assert hits[1] == 0.5
        assert hits[3] == 0.5
        assert hits[10] == 1.0

    def test_all_first(self):
        mr, mrr, hits = metrics_from_ranks(np.ones(7, dtype=np.int64))
        assert (mr, mrr) == (1.0, 1.0)
        assert all(v == 1.0 for v in hits.values())

    def test_empty_rank_vector_rejected(self):
        with pytest.raises(DataError):
            metrics_from_ranks(np.array([], dtype=np.int64))

    def test_hits_cutoffs(self):
        _, _, hits = metrics_from_ranks(np.array([2, 3, 10, 11]))
        assert tuple(hits) == HITS_KS == (1, 3, 10)
        assert hits == {1: 0.0, 3: 0.5, 10: 0.75}


def _hand_built_dataset():
    vocab = Vocabulary(["e0", "e1"], ["r0"], [1900])
    train = np.array([[0, 0, 1, 0]])
    return Dataset(vocab=vocab, train=train, valid=train.copy(), test=train.copy())


class TestEvaluate:
    def test_perfect_model_scores_perfectly(self):
        # e0 + r0 lands exactly on e1, so both corruption directions rank the
        # truth first
        params = TTransEParams(
            entity_emb=_tensor([[0.0, 0.0], [1.0, 0.0]]),
            relation_emb=_tensor([[1.0, 0.0]]),
            time_emb=_tensor([[0.0, 0.0]]),
        )
        report = evaluate(params, _hand_built_dataset(), split="test")
        assert report.n_queries == 2
        assert report.mr == 1.0
        assert report.mrr == 1.0
        assert report.hits == {1: 1.0, 3: 1.0, 10: 1.0}

    def test_two_queries_per_fact(self, small_synth):
        params = init_params("ttranse", 4, small_synth.vocab.n_entities, 3, 5, seed=0)
        report = evaluate(params, small_synth, split="valid")
        assert report.n_queries == 2 * len(small_synth.valid)

    def test_empty_split_rejected(self):
        ds = _hand_built_dataset()
        ds.test = np.zeros((0, 4), dtype=np.int64)
        params = init_params("ttranse", 2, 2, 1, 1, seed=0)
        with pytest.raises(DataError):
            evaluate(params, ds, split="test")
        with pytest.raises(DataError):
            brute_force_oracle(params, ds, split="test")

    def test_unknown_mode_and_split_rejected(self, small_synth):
        params = init_params("ttranse", 2, small_synth.vocab.n_entities, 3, 5, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, small_synth, mode="semi")
        with pytest.raises(DataError):
            evaluate(params, small_synth, split="dev")

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    @pytest.mark.parametrize("mode", ["raw", "filtered"])
    def test_matches_oracle(self, backbone, mode, monkeypatch):
        module = importlib.import_module("tkgd.evaluate")
        # the default block covers each split at once; 30 scores make 3-row blocks, the last one ragged
        for block_scores in (module._BLOCK_SCORES, 30):
            monkeypatch.setattr(module, "_BLOCK_SCORES", block_scores)
            for seed in range(4):
                ds = generate_synthetic(10, 2, 3, 60, 0.8, seed=seed)
                params = init_params(backbone, 4, 10, 2, 3, seed=seed + 100, dtype=np.float64)
                fast = evaluate(params, ds, split="test", mode=mode)
                slow = brute_force_oracle(params, ds, split="test", mode=mode)
                assert fast.n_queries == slow.n_queries
                assert fast.mr == pytest.approx(slow.mr, abs=1e-9)
                assert fast.mrr == pytest.approx(slow.mrr, abs=1e-9)
                for k in (1, 3, 10):
                    assert fast.hits[k] == pytest.approx(slow.hits[k], abs=1e-9)

    @pytest.mark.parametrize("mode", ["raw", "filtered"])
    def test_one_encoder_forward_per_block(self, small_synth, mode, monkeypatch):
        evaluate_module = importlib.import_module("tkgd.evaluate")
        models_module = importlib.import_module("tkgd.models")
        n_rows, n_e = len(small_synth.test), small_synth.vocab.n_entities
        block_rows = -(-n_rows // 3)
        assert -(-n_rows // block_rows) == 3
        params = init_params("tadistmult", 4, n_e, 3, 5, seed=0)
        whole = evaluate(params, small_synth, split="test", mode=mode).as_dict()
        monkeypatch.setattr(evaluate_module, "_BLOCK_SCORES", block_rows * n_e)
        forwards = []
        original = models_module.lstm_forward

        def counted(tokens, params):
            forwards.append(len(tokens))
            return original(tokens, params)

        monkeypatch.setattr(models_module, "lstm_forward", counted)
        assert evaluate(params, small_synth, split="test", mode=mode).as_dict() == whole
        assert len(forwards) == 3  # one per block, shared by both slots

    def test_filtered_never_worse_than_raw(self):
        for seed in range(3):
            ds = generate_synthetic(8, 2, 3, 70, 0.9, seed=seed)
            params = init_params("ttranse", 3, 8, 2, 3, seed=seed, dtype=np.float64)
            raw = evaluate(params, ds, split="test", mode="raw")
            filt = evaluate(params, ds, split="test", mode="filtered")
            assert filt.mr <= raw.mr + 1e-12
            assert filt.mrr >= raw.mrr - 1e-12

    def test_metric_ranges_and_monotone_hits(self, small_synth):
        n = small_synth.vocab.n_entities
        params = init_params("ttranse", 4, n, 3, 5, seed=77)
        report = evaluate(params, small_synth, split="test")
        assert 1.0 <= report.mr <= n
        assert 1.0 / n <= report.mrr <= 1.0
        assert report.hits[1] <= report.hits[3] <= report.hits[10]

    def test_report_as_dict_round_trip(self, small_synth):
        params = init_params("ttranse", 4, small_synth.vocab.n_entities, 3, 5, seed=0)
        report = evaluate(params, small_synth, split="valid", mode="filtered", tie_policy="mean")
        d = report.as_dict()
        assert d["mode"] == "filtered"
        assert d["tie_policy"] == "mean"
        assert set(d["hits"]) == {"1", "3", "10"}
        assert d["n_queries"] == report.n_queries


class TestOracleIndependence:
    def test_filtering_does_not_read_the_dataset_index(self):
        ds = generate_synthetic(10, 2, 3, 60, 0.8, seed=5)
        params = init_params("ttranse", 4, 10, 2, 3, seed=6, dtype=np.float64)
        want = brute_force_oracle(params, ds, split="test", mode="filtered").as_dict()
        assert want != brute_force_oracle(params, ds, split="test", mode="raw").as_dict()
        ds.known = KnownFacts(np.empty((0, 4), dtype=np.int64))  # an index that filters nothing
        assert brute_force_oracle(params, ds, split="test", mode="filtered").as_dict() == want


class TestOracleGuards:
    def test_too_many_entities(self):
        ds = generate_synthetic(70, 2, 3, 120, 0.9, seed=0)
        params = init_params("ttranse", 3, 70, 2, 3, seed=0)
        with pytest.raises(DataError, match="64"):
            brute_force_oracle(params, ds)

    def test_too_many_facts(self):
        ds = generate_synthetic(20, 3, 6, 2900, 0.5, seed=1)
        assert len(ds.test) > 256
        params = init_params("ttranse", 3, 20, 3, 6, seed=0)
        with pytest.raises(DataError, match="256"):
            brute_force_oracle(params, ds)
