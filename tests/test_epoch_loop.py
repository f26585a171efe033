"""The shared epoch loop: both training entry points against copies of their former separate loops."""
from types import SimpleNamespace

import numpy as np
import pytest

from tkgd.distill import (
    RKD_MAX_BATCH,
    DistillConfig,
    _align_rows,
    _phase2_targets,
    distill_run,
    fitnet_hint_loss,
    kd_soft_loss,
    make_student,
    rkd_loss,
    supervised_loss,
)
from tkgd.evaluate import evaluate
from tkgd.graph import Dataset, generate_synthetic, sample_negatives
from tkgd.llm import EchoTeacher
from tkgd.models import (
    GradAccum,
    batch_candidate_backprop,
    batch_candidate_scores,
    encode_queries,
    init_params,
    supervised_gradients,
)
from tkgd.numerics import adagrad_step, sorted_unique
from tkgd.training import train_supervised


def _former_train_supervised(params, dataset, rng, *, epochs, batch_size, neg_samples, margin, eval_every):
    """train_supervised's own epoch loop, as it was before the loop was shared."""
    log = []
    if epochs == 0:
        return params.copy(), log
    train = dataset.train
    n = train.shape[0]
    has_valid = len(dataset.valid) > 0
    best_mrr = -1.0
    best = None
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = train[order[start : start + batch_size]]
            negatives = sample_negatives(batch, neg_samples, dataset.vocab, rng)
            loss, grads = supervised_gradients(params, dataset.vocab, batch, negatives, margin=margin)
            assert np.isfinite(loss)
            grads.apply(0.1, 1e-8)
            epoch_loss += loss * batch.shape[0]
        record = {
            "epoch": epoch,
            "phase": "supervised",
            "method": params.backbone,
            "train_loss": float(epoch_loss / n),
            "llm_calls": 0,
        }
        if has_valid and ((epoch + 1) % eval_every == 0 or epoch == epochs - 1):
            report = evaluate(params, dataset, split="valid", mode="raw", tie_policy="pessimistic")
            record["valid_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best = params.copy()
        log.append(record)
    if best is None:
        best = params.copy()
    return best, log


def _former_distill_run(teacher, student, dataset, llm_handle, cfg, rng, *, batch_size, eval_every):
    """distill_run's own epoch loop, as it was before the loop was shared."""
    lr, eps = 0.1, 1e-8
    vocab = dataset.vocab
    train = dataset.train
    total_epochs = cfg.phase1_epochs + (cfg.phase2_epochs if cfg.method == "ours" else 0)
    has_valid = len(dataset.valid) > 0
    best = student.copy()
    best_mrr = -np.inf
    log = []
    targets = None
    for epoch in range(total_epochs):
        phase = 1 if epoch < cfg.phase1_epochs else 2
        lam = cfg.lambda_llm if (cfg.method == "ours" and phase == 2) else 0.0
        epoch_loss = 0.0
        n_queries = 0
        llm_counts = {"llm_hits": 0, "llm_misses": 0, "llm_unusable": 0}
        if lam > 0.0 and targets is None:
            targets, llm_counts = _phase2_targets(teacher, dataset, llm_handle, None, cfg.llm_topk, batch_size)
        perm = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            batch = perm[start : start + batch_size]
            quads = train[batch]
            m = len(quads)
            grads = GradAccum(student.params)
            batch_loss = 0.0
            t_encoding = encode_queries(teacher, vocab, quads)
            s_encoding = encode_queries(student.params, vocab, quads)
            for si, slot in enumerate(("subject", "object")):
                t_scores = batch_candidate_scores(teacher, t_encoding, slot)
                s_scores = batch_candidate_scores(student.params, s_encoding, slot)
                gts = quads[:, 0] if slot == "subject" else quads[:, 2]
                d_scores = np.zeros_like(s_scores)
                if cfg.method in ("ours", "bkd"):
                    alpha = cfg.alpha_kd if cfg.method == "ours" else 1.0
                    l_kd, g_kd = kd_soft_loss(t_scores, s_scores, gts, cfg.tau, alpha)
                    batch_loss += float(np.sum(l_kd))
                    d_scores += g_kd
                if cfg.beta > 0.0:
                    l_sup, g_sup = supervised_loss(s_scores, gts)
                    batch_loss += cfg.beta * float(np.sum(l_sup))
                    d_scores += cfg.beta * g_sup
                if lam > 0.0:
                    top, llm_norm, usable = (t[batch, si] for t in targets)
                    for term in _align_rows(s_scores, top, llm_norm, usable, lam, cfg.delta, d_scores).tolist():
                        batch_loss += term
                d_scores /= 2.0 * m
                batch_candidate_backprop(student.params, s_encoding, slot, d_scores, grads)
            batch_loss /= 2.0 * m
            n_queries += 2 * m
            if cfg.method == "fitnet":
                ids = sorted_unique(quads[:, [0, 2]])
                l_hint, g_emb, g_reg = fitnet_hint_loss(
                    student.params.entity_emb.values[ids], teacher.entity_emb.values[ids],
                    student.fitnet_regressor.values,
                )
                batch_loss += l_hint
                grads.add_rows("entity_emb", ids, g_emb)
                adagrad_step(student.fitnet_regressor, g_reg, lr=lr, eps=eps)
            elif cfg.method == "rkd":
                ids = sorted_unique(quads[:, [0, 2]])
                if len(ids) > RKD_MAX_BATCH:
                    ids = np.sort(rng.choice(ids, size=RKD_MAX_BATCH, replace=False))
                if len(ids) >= 3:
                    l_rel, g_emb = rkd_loss(student.params.entity_emb.values[ids], teacher.entity_emb.values[ids])
                    batch_loss += l_rel
                    grads.add_rows("entity_emb", ids, g_emb.astype(student.params.entity_emb.dtype))
            assert np.isfinite(batch_loss)
            grads.apply(lr, eps)
            epoch_loss += batch_loss * 2 * m
        record = {
            "epoch": epoch,
            "phase": phase,
            "method": cfg.method,
            "train_loss": epoch_loss / n_queries,
            "llm_calls": int(getattr(llm_handle, "calls", 0)) if llm_handle is not None else 0,
            **llm_counts,
        }
        if has_valid and eval_every > 0 and ((epoch + 1) % eval_every == 0 or epoch == total_epochs - 1):
            report = evaluate(student.params, dataset, split="valid", mode="raw", tie_policy="pessimistic")
            record["valid_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best = student.copy()
        log.append(record)
    if best_mrr == -np.inf:
        best = student.copy()
    return best, log


@pytest.fixture(scope="module")
def data():
    """40 entities, so a 32-row batch holds more than RKD_MAX_BATCH of them and rkd draws its sample."""
    return generate_synthetic(40, 3, 5, 240, 0.9, seed=7)


def _without_valid(ds):
    return Dataset(ds.vocab, ds.train, ds.valid[:0], ds.test)


def _assert_same_params(got, want):
    for name, tensor in want.tables().items():
        assert got.tables()[name].values.tobytes() == tensor.values.tobytes(), name
        assert got.tables()[name].accum.tobytes() == tensor.accum.tobytes(), name


class TestSharedLoopMatchesFormerLoops:
    """Every log value, parameter and accumulator bit, and the generator's state, as the separate loops left them."""

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "no-valid"])
    @pytest.mark.parametrize("backbone", ["ttranse", "tadistmult"])
    def test_train_supervised(self, data, backbone, valid):
        ds = data if valid else _without_valid(data)
        runs = []
        for train in (train_supervised, _former_train_supervised):
            params = init_params(backbone, 6, ds.vocab.n_entities, ds.vocab.n_relations, ds.vocab.n_buckets, seed=3)
            rng = np.random.default_rng(11)
            best, log = train(params, ds, rng, epochs=5, batch_size=32, neg_samples=3, margin=1.0, eval_every=2)
            runs.append((best, log, params, rng.bit_generator.state))
        (best, log, params, state), (want_best, want_log, want_params, want_state) = runs
        assert log == want_log
        assert sum("valid_mrr" in rec for rec in log) == (3 if valid else 0)
        _assert_same_params(best, want_best)
        _assert_same_params(params, want_params)
        assert state == want_state

    @pytest.mark.parametrize(
        "method, backbone",
        [("ours", "tadistmult"), ("ours", "ttranse"), ("bkd", "tadistmult"), ("fitnet", "ttranse"),
         ("rkd", "tadistmult"), ("rkd", "ttranse")],
    )
    def test_distill_run(self, data, method, backbone):
        v = data.vocab
        teacher = init_params(backbone, 8, v.n_entities, v.n_relations, v.n_buckets, seed=0)
        cfg = DistillConfig(phase1_epochs=3, phase2_epochs=2, llm_topk=4, method=method)
        runs = []
        for run in (distill_run, _former_distill_run):
            student = make_student(backbone, 4, v.n_entities, v.n_relations, v.n_buckets, seed=1, method=method,
                                   teacher_dim=8)
            handle = EchoTeacher(teacher, v) if method == "ours" else None
            rng = np.random.default_rng(5)
            best, log = run(teacher, student, data, handle, cfg, rng, batch_size=32, eval_every=2)
            runs.append((best, log, student, rng.bit_generator.state, handle))
        (best, log, student, state, handle), (want_best, want_log, want_student, want_state, want_handle) = runs
        assert log == want_log
        assert [rec["phase"] for rec in log] == ([1, 1, 1, 2, 2] if method == "ours" else [1, 1, 1])
        for got, want in ((best, want_best), (student, want_student)):
            _assert_same_params(got.params, want.params)
            if method == "fitnet":
                assert got.fitnet_regressor.values.tobytes() == want.fitnet_regressor.values.tobytes()
                assert got.fitnet_regressor.accum.tobytes() == want.fitnet_regressor.accum.tobytes()
        assert state == want_state
        if handle is not None:
            assert handle.calls == want_handle.calls == log[-1]["llm_calls"] > 0


class TestEvalEvery:
    """A cadence below one epoch is refused by both entry points, before any training."""

    @pytest.mark.parametrize("eval_every", [0, -2])
    def test_train_supervised(self, small_synth, eval_every):
        params = init_params("ttranse", 4, 12, 3, 5, seed=0)
        with pytest.raises(ValueError, match=f"eval_every must be at least 1, got {eval_every}"):
            train_supervised(params, small_synth, np.random.default_rng(0), epochs=3, eval_every=eval_every)

    @pytest.mark.parametrize("eval_every", [0, -2])
    def test_distill_run(self, small_synth, eval_every):
        teacher = init_params("ttranse", 8, 12, 3, 5, seed=0)
        student = make_student("ttranse", 4, 12, 3, 5, seed=1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        cfg = DistillConfig(phase1_epochs=3, phase2_epochs=0, lambda_llm=0.0)
        with pytest.raises(ValueError, match=f"eval_every must be at least 1, got {eval_every}"):
            distill_run(teacher, student, small_synth, None, cfg, rng, eval_every=eval_every)
        assert rng.bit_generator.state == before


class TestSnapshotRule:
    @pytest.mark.parametrize("mrrs, best_epochs", [([0.5, 0.5, 0.5], 2), ([0.2, 0.5, 0.5], 4), ([0.2, 0.3, 0.6], 5)])
    def test_only_a_strictly_better_mrr_replaces_the_snapshot(self, data, monkeypatch, mrrs, best_epochs):
        """Evaluations at epochs 1, 3 and 4 report mrrs; the snapshot is the state after best_epochs epochs."""
        reports = iter(mrrs)
        monkeypatch.setattr("tkgd.training.evaluate", lambda *args, **kwargs: SimpleNamespace(mrr=next(reports)))
        v = data.vocab

        def run(epochs):
            params = init_params("ttranse", 6, v.n_entities, v.n_relations, v.n_buckets, seed=3)
            return train_supervised(params, data, np.random.default_rng(11), epochs=epochs, batch_size=32,
                                    eval_every=2)

        best, log = run(5)
        assert [rec.get("valid_mrr") for rec in log] == [None, mrrs[0], None, mrrs[1], mrrs[2]]
        reports = iter([0.0, 1.0, 2.0])  # rising, so the run returns its final state
        want, _ = run(best_epochs)
        _assert_same_params(best, want)
