"""Behavioral tests for the two-phase distillation loop."""
import importlib

import numpy as np
import pytest

from tkgd.distill import (
    DistillConfig,
    _align_rows,
    distill_run,
    huber_alignment_loss,
    make_student,
    minmax_normalize,
)
from tkgd.evaluate import evaluate
from tkgd.graph import generate_synthetic
from tkgd.llm import EchoTeacher, PlantedRuleTeacher, ScoreCache, TeacherHandle
from tkgd.models import init_params


def _teacher(small_synth, dim=8, seed=0):
    n = small_synth.vocab.n_entities
    return init_params("ttranse", dim, n, 3, 5, seed=seed)


def _student(small_synth, seed=1, method="ours", teacher_dim=None):
    n = small_synth.vocab.n_entities
    return make_student("ttranse", 4, n, 3, 5, seed=seed, method=method, teacher_dim=teacher_dim)


def _params_equal(a, b):
    return all(np.array_equal(a.tables()[n].values, b.tables()[n].values) for n in a.tables())


class _UnusableTeacher(TeacherHandle):
    """Answers every prompt with text that holds no scores."""

    def complete(self, query):
        self.calls += 1
        return "I cannot rate these."


class TestPhases:
    def test_phase_one_only_never_touches_llm(self, small_synth):
        teacher = _teacher(small_synth)
        handle = EchoTeacher(teacher, small_synth.vocab)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=0)
        _, log = distill_run(
            teacher, _student(small_synth), small_synth, handle, cfg, np.random.default_rng(3)
        )
        assert len(log) == 2
        assert all(rec["phase"] == 1 for rec in log)
        assert handle.calls == 0
        assert log[-1]["llm_calls"] == 0

    def test_phase_two_calls_llm(self, small_synth):
        teacher = _teacher(small_synth)
        handle = EchoTeacher(teacher, small_synth.vocab)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=1, llm_topk=5)
        _, log = distill_run(
            teacher, _student(small_synth), small_synth, handle, cfg, np.random.default_rng(3)
        )
        assert [rec["phase"] for rec in log] == [1, 2]
        assert log[0]["llm_calls"] == 0
        assert log[1]["llm_calls"] > 0
        assert handle.calls == log[1]["llm_calls"]

    def test_no_cache_calls_handle_once_per_query(self, small_synth):
        """Shortlists are resolved once per run, so a second phase-2 epoch adds no calls."""
        teacher = _teacher(small_synth)
        calls = []
        for phase2 in (1, 2):
            handle = EchoTeacher(teacher, small_synth.vocab)
            cfg = DistillConfig(phase1_epochs=1, phase2_epochs=phase2, llm_topk=5)
            _, log = distill_run(
                teacher, _student(small_synth), small_synth, handle, cfg, np.random.default_rng(3)
            )
            calls.append(handle.calls)
            assert [rec["llm_misses"] for rec in log] == [0, handle.calls] + [0] * (phase2 - 1)
        assert calls == [2 * len(small_synth.train)] * 2

    @pytest.mark.parametrize("method", ["bkd", "fitnet", "rkd"])
    def test_baselines_skip_phase_two(self, small_synth, method):
        teacher = _teacher(small_synth)
        teacher_dim = teacher.dim if method == "fitnet" else None
        student = _student(small_synth, method=method, teacher_dim=teacher_dim)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=5, method=method)
        _, log = distill_run(teacher, student, small_synth, None, cfg, np.random.default_rng(3))
        assert len(log) == 2
        assert all(rec["phase"] == 1 for rec in log)
        assert all(rec["method"] == method for rec in log)


class TestEquivalences:
    def test_ours_reduces_to_bkd_when_extras_off(self, small_synth):
        """alpha_kd = 1 and lambda = 0 leave exactly the bkd objective."""
        teacher = _teacher(small_synth)
        cfg_ours = DistillConfig(phase1_epochs=3, phase2_epochs=0, alpha_kd=1.0, lambda_llm=0.0, method="ours")
        cfg_bkd = DistillConfig(phase1_epochs=3, phase2_epochs=0, method="bkd")
        out_a, log_a = distill_run(
            teacher, _student(small_synth), small_synth, None, cfg_ours, np.random.default_rng(11)
        )
        out_b, log_b = distill_run(
            teacher, _student(small_synth), small_synth, None, cfg_bkd, np.random.default_rng(11)
        )
        assert _params_equal(out_a.params, out_b.params)
        assert [r["train_loss"] for r in log_a] == [r["train_loss"] for r in log_b]

    def test_unused_handle_changes_nothing(self, small_synth):
        teacher = _teacher(small_synth)
        handle = EchoTeacher(teacher, small_synth.vocab)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=2, lambda_llm=0.0)
        out_with, _ = distill_run(
            teacher, _student(small_synth), small_synth, handle, cfg, np.random.default_rng(5)
        )
        out_without, _ = distill_run(
            teacher, _student(small_synth), small_synth, None, cfg, np.random.default_rng(5)
        )
        assert handle.calls == 0
        assert _params_equal(out_with.params, out_without.params)

    def test_unusable_answers_equal_no_alignment(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=2, llm_topk=4)
        handle = _UnusableTeacher("junk")
        out_junk, log_junk = distill_run(
            teacher, _student(small_synth), small_synth, handle, cfg, np.random.default_rng(5)
        )
        cfg_plain = DistillConfig(phase1_epochs=1, phase2_epochs=2, llm_topk=4, lambda_llm=0.0)
        out_plain, log_plain = distill_run(
            teacher, _student(small_synth), small_synth, None, cfg_plain, np.random.default_rng(5)
        )
        assert [r["train_loss"] for r in log_junk] == [r["train_loss"] for r in log_plain]
        assert _params_equal(out_junk.params, out_plain.params)
        assert [r["llm_unusable"] for r in log_junk] == [0, 2 * len(small_synth.train), 0]

    def test_same_seed_bit_identical(self, small_synth):
        teacher = _teacher(small_synth)
        handle = PlantedRuleTeacher(small_synth.rule)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=1, llm_topk=4)
        runs = []
        for _ in range(2):
            out, _ = distill_run(
                teacher,
                _student(small_synth),
                small_synth,
                PlantedRuleTeacher(small_synth.rule),
                cfg,
                np.random.default_rng(9),
            )
            runs.append(out)
        assert handle.calls == 0  # untouched spare instance
        assert _params_equal(runs[0].params, runs[1].params)


class TestEncoderSharing:
    @pytest.mark.parametrize("method", ["ours", "fitnet"])
    def test_two_forwards_per_batch(self, small_synth, method, monkeypatch):
        """The teacher and the student are each encoded once per batch; evaluation adds one per block."""
        training_module = importlib.import_module("tkgd.training")  # the epoch loop calls evaluate
        models_module = importlib.import_module("tkgd.models")
        n = small_synth.vocab.n_entities
        teacher = init_params("tadistmult", 8, n, 3, 5, seed=0)
        student = make_student("tadistmult", 4, n, 3, 5, seed=1, method=method, teacher_dim=8)
        counts = {"train": 0, "eval": 0}
        where = ["train"]
        original_forward, original_evaluate = models_module.lstm_forward, training_module.evaluate

        def counted_forward(tokens, params):
            counts[where[0]] += 1
            return original_forward(tokens, params)

        def flagged_evaluate(*args, **kwargs):
            where[0] = "eval"
            try:
                return original_evaluate(*args, **kwargs)
            finally:
                where[0] = "train"

        monkeypatch.setattr(models_module, "lstm_forward", counted_forward)
        monkeypatch.setattr(training_module, "evaluate", flagged_evaluate)
        cfg = DistillConfig(phase1_epochs=3, phase2_epochs=0, lambda_llm=0.0, method=method)
        _, log = distill_run(teacher, student, small_synth, None, cfg, np.random.default_rng(4),
                             batch_size=16, eval_every=2)
        batches = -(-len(small_synth.train) // 16)
        assert batches > 1
        assert counts["train"] == 2 * batches * cfg.phase1_epochs
        evaluations = sum("valid_mrr" in r for r in log)
        assert evaluations == 2
        assert counts["eval"] == evaluations  # the valid split is one block


class TestTrainingBehavior:
    def test_loss_decreases_under_soft_transfer(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=6, phase2_epochs=0, alpha_kd=1.0, lambda_llm=0.0)
        _, log = distill_run(
            teacher, _student(small_synth), small_synth, None, cfg, np.random.default_rng(2)
        )
        losses = [rec["train_loss"] for rec in log]
        assert losses[-1] < losses[0]
        assert all(np.isfinite(v) for v in losses)

    def test_log_record_shape(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=0)
        _, log = distill_run(
            teacher,
            _student(small_synth),
            small_synth,
            None,
            cfg,
            np.random.default_rng(0),
            eval_every=2,
        )
        assert [rec["epoch"] for rec in log] == [0, 1]
        for rec in log:
            assert {"epoch", "phase", "method", "train_loss", "llm_calls"} <= set(rec)
            assert rec["llm_hits"] == rec["llm_misses"] == rec["llm_unusable"] == 0
        assert "valid_mrr" not in log[0]
        assert "valid_mrr" in log[1]

    def test_returns_best_validation_snapshot(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=5, phase2_epochs=0)
        best, log = distill_run(
            teacher,
            _student(small_synth),
            small_synth,
            None,
            cfg,
            np.random.default_rng(4),
            eval_every=1,
        )
        logged = [rec["valid_mrr"] for rec in log if "valid_mrr" in rec]
        got = evaluate(best.params, small_synth, split="valid").mrr
        assert got == pytest.approx(max(logged), abs=1e-12)

    def test_empty_valid_split_returns_final_state(self):
        ds = generate_synthetic(12, 3, 2, 60, 0.9, seed=7)  # two buckets leave valid empty
        assert len(ds.valid) == 0
        v = ds.vocab
        teacher = init_params("ttranse", 8, v.n_entities, v.n_relations, v.n_buckets, seed=0)
        student = make_student("ttranse", 4, v.n_entities, v.n_relations, v.n_buckets, seed=1, method="bkd")
        start = student.copy()
        cfg = DistillConfig(method="bkd", phase1_epochs=3, phase2_epochs=0)
        best, log = distill_run(teacher, student, ds, None, cfg, np.random.default_rng(4), eval_every=1)
        assert len(log) == 3
        assert not any("valid_mrr" in rec for rec in log)
        assert best is not student
        assert _params_equal(best.params, student.params)
        assert not _params_equal(best.params, start.params)

    def test_fitnet_steps_regressor(self, small_synth):
        teacher = _teacher(small_synth)
        student = _student(small_synth, method="fitnet", teacher_dim=teacher.dim)
        before = student.fitnet_regressor.values.copy()
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=0, method="fitnet")
        out, log = distill_run(teacher, student, small_synth, None, cfg, np.random.default_rng(1))
        assert not np.array_equal(out.fitnet_regressor.values, before)
        assert np.isfinite(log[0]["train_loss"])

    def test_rkd_runs_and_stays_finite(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=2, phase2_epochs=0, method="rkd")
        _, log = distill_run(
            teacher, _student(small_synth, method="rkd"), small_synth, None, cfg, np.random.default_rng(1)
        )
        assert all(np.isfinite(rec["train_loss"]) for rec in log)

    def test_warm_cache_avoids_repeat_calls(self, small_synth):
        teacher = _teacher(small_synth)
        cache = ScoreCache()
        cfg = DistillConfig(phase1_epochs=0, phase2_epochs=1, llm_topk=4)
        first = EchoTeacher(teacher, small_synth.vocab)
        _, log_cold = distill_run(
            teacher, _student(small_synth), small_synth, first, cfg, np.random.default_rng(7),
            llm_cache=cache,
        )
        assert first.calls > 0
        assert log_cold[0]["llm_misses"] == first.calls  # each distinct prompt is fetched once
        assert log_cold[0]["llm_hits"] + log_cold[0]["llm_misses"] == 2 * len(small_synth.train)
        second = EchoTeacher(teacher, small_synth.vocab)
        out_warm, log_warm = distill_run(
            teacher, _student(small_synth), small_synth, second, cfg, np.random.default_rng(7),
            llm_cache=cache,
        )
        assert second.calls == 0
        assert log_warm[0]["llm_misses"] == 0
        assert log_warm[0]["llm_hits"] == 2 * len(small_synth.train)
        # replay must reproduce the live run exactly, not merely avoid calls
        out_cold, _ = distill_run(
            teacher, _student(small_synth), small_synth,
            EchoTeacher(teacher, small_synth.vocab), cfg, np.random.default_rng(7),
        )
        assert _params_equal(out_warm.params, out_cold.params)


class TestAlignRows:
    def test_matches_per_row_reference(self):
        """One array step equals minmax_normalize and huber_alignment_loss applied row by row."""
        rng = np.random.default_rng(0)
        m, n, k, lam, delta = 6, 9, 4, 0.5, 0.3
        s_scores = rng.normal(size=(m, n)).astype(np.float32)
        top = np.stack([rng.permutation(n)[:k] for _ in range(m)])
        s_scores[1, top[1]] = 0.25  # flat student row: slope 0
        llm = rng.uniform(0.0, 100.0, size=(m, k))
        llm[2] = 50.0  # flat language-model row: all 0.5
        usable = np.array([True, True, True, False, True, True])  # row 3 is skipped
        d_scores = rng.normal(size=(m, n)).astype(np.float32)
        before = d_scores.copy()

        ref = d_scores.copy()
        ref_loss = []
        for row in np.flatnonzero(usable):
            llm_norm, _ = minmax_normalize(llm[row])
            stu_norm, slope = minmax_normalize(s_scores[row, top[row]])
            l2, g2 = huber_alignment_loss(llm_norm, stu_norm, delta)
            ref_loss.append(lam * l2)
            ref[row, top[row]] += (lam * slope) * g2.astype(ref.dtype)

        loss = _align_rows(s_scores, top, minmax_normalize(llm)[0], usable, lam, delta, d_scores)
        assert d_scores.tobytes() == ref.tobytes()
        assert np.allclose(loss, ref_loss, rtol=0.0, atol=1e-12)
        assert not np.array_equal(d_scores[0], before[0])
        assert np.array_equal(d_scores[3], before[3])


class TestValidation:
    def test_ours_with_llm_weight_needs_handle(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=1, lambda_llm=0.5)
        with pytest.raises(ValueError, match="handle"):
            distill_run(teacher, _student(small_synth), small_synth, None, cfg, np.random.default_rng(0))

    def test_fitnet_needs_regressor(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=0, method="fitnet")
        with pytest.raises(ValueError, match="regressor"):
            distill_run(teacher, _student(small_synth), small_synth, None, cfg, np.random.default_rng(0))

    def test_backbone_mismatch_rejected(self, small_synth):
        n = small_synth.vocab.n_entities
        teacher = init_params("tadistmult", 8, n, 3, 5, seed=0)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=0)
        with pytest.raises(ValueError, match="backbone"):
            distill_run(teacher, _student(small_synth), small_synth, None, cfg, np.random.default_rng(0))

    def test_bad_batch_size_rejected(self, small_synth):
        teacher = _teacher(small_synth)
        cfg = DistillConfig(phase1_epochs=1, phase2_epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            distill_run(
                teacher, _student(small_synth), small_synth, None, cfg,
                np.random.default_rng(0), batch_size=0,
            )
