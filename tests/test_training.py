"""Supervised training loop: negative sampling, determinism, snapshots."""
import numpy as np
import pytest

from tkgd.evaluate import evaluate
from tkgd.graph import Vocabulary, generate_synthetic, sample_negatives
from tkgd.models import init_params
from tkgd.training import train_supervised


def _params_equal(a, b):
    return all(np.array_equal(a.tables()[n].values, b.tables()[n].values) for n in a.tables())


def _vocab(n_entities):
    return Vocabulary([f"e{i}" for i in range(n_entities)], ["r0", "r1"], [1900, 1910])


class TestCorruptBatch:
    def test_never_reproduces_the_positive(self, rng):
        positives = np.array([[3, 1, 7, 0], [2, 0, 2, 1]], dtype=np.int64)
        for _ in range(50):
            negatives = sample_negatives(positives, 4, _vocab(10), rng)
            assert negatives.shape == (2, 4, 4)
            for i in range(2):
                for j in range(4):
                    assert not np.array_equal(negatives[i, j], positives[i])

    def test_exactly_one_endpoint_changes(self, rng):
        positives = np.array([[3, 1, 7, 0]], dtype=np.int64)
        negatives = sample_negatives(positives, 200, _vocab(10), rng)
        for neg in negatives[0]:
            assert neg[1] == 1 and neg[3] == 0  # relation and time untouched
            changed = int(neg[0] != 3) + int(neg[2] != 7)
            assert changed == 1

    def test_draws_stay_in_vocabulary(self, rng):
        positives = np.array([[0, 0, 4, 0]], dtype=np.int64)
        negatives = sample_negatives(positives, 500, _vocab(5), rng)
        assert negatives[:, :, [0, 2]].min() >= 0
        assert negatives[:, :, [0, 2]].max() < 5

    def test_both_slots_get_corrupted(self, rng):
        positives = np.array([[3, 1, 7, 0]], dtype=np.int64)
        negatives = sample_negatives(positives, 400, _vocab(10), rng)
        subject_changed = np.mean(negatives[0, :, 0] != 3)
        object_changed = np.mean(negatives[0, :, 2] != 7)
        # a fair coin picks the slot
        assert 0.4 < subject_changed < 0.6
        assert 0.4 < object_changed < 0.6


class TestTrainSupervised:
    def test_zero_epochs_returns_untouched_copy(self, small_synth):
        params = init_params("ttranse", 4, 12, 3, 5, seed=0)
        out, log = train_supervised(params, small_synth, np.random.default_rng(0), epochs=0)
        assert log == []
        assert out is not params
        assert _params_equal(out, params)

    def test_same_seed_same_result(self, small_synth):
        runs = []
        for _ in range(2):
            params = init_params("ttranse", 4, 12, 3, 5, seed=1)
            out, log = train_supervised(
                params, small_synth, np.random.default_rng(6), epochs=3, batch_size=16
            )
            runs.append((out, [r["train_loss"] for r in log]))
        assert _params_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    def test_loss_decreases(self, small_synth, backbone):
        params = init_params(backbone, 4, 12, 3, 5, seed=2)
        _, log = train_supervised(
            params, small_synth, np.random.default_rng(3), epochs=5, batch_size=32, lr=0.1
        )
        losses = [rec["train_loss"] for rec in log]
        assert losses[-1] < losses[0]

    def test_log_records(self, small_synth):
        params = init_params("ttranse", 4, 12, 3, 5, seed=0)
        _, log = train_supervised(
            params, small_synth, np.random.default_rng(0), epochs=4, eval_every=2
        )
        assert [rec["epoch"] for rec in log] == [0, 1, 2, 3]
        for rec in log:
            assert rec["phase"] == "supervised"
            assert rec["method"] == "ttranse"
            assert rec["llm_calls"] == 0
        assert [("valid_mrr" in rec) for rec in log] == [False, True, False, True]

    def test_returns_best_validation_snapshot(self, small_synth):
        params = init_params("ttranse", 4, 12, 3, 5, seed=4)
        best, log = train_supervised(
            params, small_synth, np.random.default_rng(8), epochs=6, eval_every=1, batch_size=32
        )
        logged = [rec["valid_mrr"] for rec in log if "valid_mrr" in rec]
        got = evaluate(best, small_synth, split="valid").mrr
        assert got == pytest.approx(max(logged), abs=1e-12)

    def test_empty_valid_split_returns_final_params(self):
        ds = generate_synthetic(12, 3, 2, 60, 0.9, seed=7)  # two buckets leave valid empty
        assert len(ds.valid) == 0
        v = ds.vocab
        params = init_params("ttranse", 4, v.n_entities, v.n_relations, v.n_buckets, seed=0)
        out, log = train_supervised(
            params, ds, np.random.default_rng(0), epochs=3, eval_every=1, batch_size=16
        )
        assert len(log) == 3
        assert not any("valid_mrr" in rec for rec in log)
        assert out is not params
        assert _params_equal(out, params)
        assert not _params_equal(out, init_params("ttranse", 4, v.n_entities, v.n_relations, v.n_buckets, seed=0))

    def test_rejects_bad_arguments(self, small_synth):
        params = init_params("ttranse", 4, 12, 3, 5, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            train_supervised(params, small_synth, rng, epochs=-1)
        with pytest.raises(ValueError):
            train_supervised(params, small_synth, rng, epochs=1, neg_samples=0)
        with pytest.raises(ValueError):
            train_supervised(params, small_synth, rng, epochs=1, batch_size=0)
