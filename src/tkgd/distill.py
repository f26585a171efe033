"""Distillation losses and the two-phase teacher-to-student training loop.

The student trains against three signals: the teacher's tempered score
distribution over all candidate entities (blended with a hard cross-entropy
term), an optional Huber alignment toward language-model rescoring of the
teacher's top candidates, and a small mean-squared supervised term.  The
teacher is frozen, so the alignment targets (each training query's teacher
shortlist and its language-model scores) are resolved once per run, at the
first phase-2 epoch, and applied as one array step per batch and slot.
Baseline methods swap the objective: pure soft-target transfer, an embedding
hint with a learned regressor, or relational structure matching on pairwise
distances and triplet angles.

Each per-query loss has one implementation, a public function that takes
one (n,) score vector or an (m, n) block of independent rows.  The training
loop passes it whole (batch, |E|) or (batch, k) blocks, so the functions the
gradient checks call per vector are the ones that train the student, and a
block's row i equals the vector result for that row bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import llm as llm_mod
from .graph import Dataset
from .models import (
    GradAccum,
    Params,
    batch_candidate_backprop,
    batch_candidate_scores,
    encode_queries,
    init_params,
)
from .numerics import (
    ParamTensor,
    adagrad_step,
    log_softmax_with_temperature,
    softmax_with_temperature,
    sorted_unique,
)
from .training import run_epochs

__all__ = [
    "DistillConfig",
    "StudentState",
    "make_student",
    "kd_soft_loss",
    "bkd_loss",
    "huber_alignment_loss",
    "supervised_loss",
    "fitnet_hint_loss",
    "rkd_loss",
    "minmax_normalize",
    "phase2_queries",
    "distill_run",
]

METHODS = ("ours", "bkd", "fitnet", "rkd")

# Relational matching is cubic in the number of embeddings compared, so the
# per-batch entity sample is capped.
RKD_MAX_BATCH = 32


@dataclass
class DistillConfig:
    """Hyperparameters of a distillation run.

    phase1_epochs trains on teacher signal and the supervised term only;
    phase2_epochs adds the language-model alignment on the teacher's top
    llm_topk candidates.  Baseline methods run phase 1 only.
    """

    phase1_epochs: int
    phase2_epochs: int
    tau: float = 7.0
    alpha_kd: float = 0.9
    lambda_llm: float = 0.5
    beta: float = 0.1
    delta: float = 1.0
    llm_topk: int = 10
    method: str = "ours"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown distillation method {self.method!r}; expected one of {METHODS}")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (0.0 <= self.alpha_kd <= 1.0):
            raise ValueError(f"alpha_kd must lie in [0, 1], got {self.alpha_kd}")
        if self.lambda_llm < 0 or self.beta < 0:
            raise ValueError("loss weights lambda_llm and beta must be nonnegative")
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (1 <= self.llm_topk <= 50):
            raise ValueError(f"llm_topk must lie in [1, 50], got {self.llm_topk}")


@dataclass
class StudentState:
    """Student parameters plus per-method auxiliaries."""

    params: Params
    fitnet_regressor: ParamTensor | None = None

    def copy(self) -> "StudentState":
        reg = self.fitnet_regressor.copy() if self.fitnet_regressor is not None else None
        return StudentState(params=self.params.copy(), fitnet_regressor=reg)


def make_student(
    backbone: str,
    dim: int,
    n_entities: int,
    n_relations: int,
    n_buckets: int,
    seed: int,
    method: str = "ours",
    teacher_dim: int | None = None,
    dtype=np.float32,
) -> StudentState:
    """Fresh student; fitnet additionally gets its dim-by-teacher-dim regressor."""
    params = init_params(backbone, dim, n_entities, n_relations, n_buckets, seed, dtype=dtype)
    regressor = None
    if method == "fitnet":
        if teacher_dim is None:
            raise ValueError("fitnet needs the teacher dimension for its regressor")
        rng = np.random.default_rng([seed, 1])
        bound = 1.0 / np.sqrt(dim)
        regressor = ParamTensor(rng.uniform(-bound, bound, size=(dim, teacher_dim)).astype(dtype))
    return StudentState(params=params, fitnet_regressor=regressor)


# ---------------------------------------------------------------------------
# per-query losses
# ---------------------------------------------------------------------------


def _as_rows(*scores, gt_index=None) -> tuple[bool, list[np.ndarray]]:
    """(vector, rows): aligned score inputs as (m, n) blocks, then the truth indices as (m,).

    Every input is one (n,) vector or one (m, n) block of independent rows,
    all of one shape with n > 0.  gt_index, when given, holds one integer in
    [0, n) per row (a scalar for a vector).  vector is True for (n,) inputs,
    which _from_rows turns back into a float loss and an (n,) array.
    """
    arrays = [np.asarray(s) for s in scores]
    shape = arrays[0].shape
    if len(shape) not in (1, 2) or any(a.shape != shape for a in arrays):
        raise ValueError(f"scores must be aligned (n,) vectors or (m, n) blocks, got {[a.shape for a in arrays]}")
    if shape[-1] == 0:
        raise ValueError("score rows are empty")
    rows = [a.reshape(-1, shape[-1]) for a in arrays]
    if gt_index is not None:
        gt = np.asarray(gt_index)
        if gt.shape != shape[:-1] or not np.issubdtype(gt.dtype, np.integer) or np.any((gt < 0) | (gt >= shape[-1])):
            raise ValueError(f"gt_index must hold one index in [0, {shape[-1]}) per score row")
        rows.append(gt.reshape(-1))
    return len(shape) == 1, rows


def _from_rows(vector: bool, per_row: np.ndarray, block: np.ndarray):
    """A vector's (float, (n,) array) from its one-row block, or the block's per-row results."""
    return (float(per_row[0]), block[0]) if vector else (per_row, block)


def kd_soft_loss(
    teacher_scores: np.ndarray, student_scores: np.ndarray, gt_index, tau: float = 7.0, alpha_kd: float = 0.9
):
    """Blend of tempered teacher transfer and hard cross-entropy.

    alpha_kd weights the soft term tau^2 * KL(softmax(teacher/tau) ||
    softmax(student/tau)), whose student gradient is tau * (q - p); the tau^2
    factor keeps gradient magnitudes comparable across temperatures.
    1 - alpha_kd weights plain cross-entropy against the truth at gt_index.
    The blend runs in the scores' dtype, and zero-weight terms are skipped
    outright, so alpha_kd = 1 is pure soft transfer bit for bit.  For (n,)
    scores returns the loss and its (n,) gradient with respect to
    student_scores; for (m, n) blocks, with one truth index per row, the
    (m,) losses and the (m, n) gradient.
    """
    if not (0.0 <= alpha_kd <= 1.0):
        raise ValueError(f"alpha_kd must lie in [0, 1], got {alpha_kd}")
    vector, (t, s, gt) = _as_rows(teacher_scores, student_scores, gt_index=gt_index)
    if alpha_kd > 0.0:
        logp = log_softmax_with_temperature(t, tau)
        logq = log_softmax_with_temperature(s, tau)
        p = np.exp(logp)
        l_soft = (tau * tau) * np.sum(p * (logp - logq), axis=-1)
        g_soft = tau * (np.exp(logq) - p)
        if alpha_kd == 1.0:
            return _from_rows(vector, l_soft, g_soft)
    rows = np.arange(len(s))
    logq = log_softmax_with_temperature(s, 1.0)
    l_hard = -logq[rows, gt]
    g_hard = np.exp(logq)
    g_hard[rows, gt] -= 1.0
    if alpha_kd == 0.0:
        return _from_rows(vector, l_hard, g_hard)
    return _from_rows(
        vector,
        alpha_kd * l_soft + (1.0 - alpha_kd) * l_hard,
        alpha_kd * g_soft + (1.0 - alpha_kd) * g_hard,
    )


def bkd_loss(teacher_scores: np.ndarray, student_scores: np.ndarray, tau: float = 7.0):
    """Pure tempered soft-target transfer: kd_soft_loss at alpha_kd = 1, where no truth index is read."""
    gt = np.zeros(np.shape(student_scores)[:-1], dtype=np.int64)
    return kd_soft_loss(teacher_scores, student_scores, gt, tau, 1.0)


def _huber_value(resid: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(resid)
    return np.where(a <= delta, 0.5 * resid * resid, delta * a - 0.5 * delta * delta)


def huber_alignment_loss(llm_scores: np.ndarray, student_scores: np.ndarray, delta: float = 1.0):
    """Mean Huber penalty between aligned score vectors, or per row of aligned blocks.

    The residual is llm - student per candidate; inside |r| <= delta the
    penalty is quadratic, outside it grows linearly, so each element's
    gradient is clipped at delta in magnitude.  Callers align and normalize
    the two inputs first (see minmax_normalize); this function treats them
    as given.  Returns the loss (a float, or one per row) and its gradient
    with respect to student_scores.
    """
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    vector, (llm, student) = _as_rows(llm_scores, student_scores)
    resid = llm - student
    loss = np.mean(_huber_value(resid, delta), axis=-1)
    return _from_rows(vector, loss, -np.clip(resid, -delta, delta) / student.shape[-1])


def supervised_loss(student_scores: np.ndarray, gt_index):
    """Mean squared error between softmax(student) and the one-hot truth.

    With two candidates scored identically and truth at index 0 the loss is
    ((0.5 - 1)^2 + (0.5 - 0)^2) / 2 = 0.25.  (m, n) blocks take one truth
    index per row and give one loss per row.
    """
    vector, (s, gt) = _as_rows(student_scores, gt_index=gt_index)
    q = softmax_with_temperature(s, 1.0)
    resid = q.copy()
    rows = np.arange(len(s))
    resid[rows, gt] -= 1.0
    loss = np.mean(resid * resid, axis=1)
    g = (2.0 / s.shape[1]) * resid
    return _from_rows(vector, loss, q * (g - np.sum(g * q, axis=1, keepdims=True)))


def minmax_normalize(scores: np.ndarray):
    """Map scores to [0, 1] by min and max; returns (normalized, slope) in float64.

    slope is d(normalized)/d(score) with the extrema treated as constants,
    which is what the alignment gradient chain uses.  A constant vector maps
    to all 0.5 with slope 0.  An (m, n) block is normalized row by row, with
    one slope per row.
    """
    vector, (s,) = _as_rows(np.asarray(scores, dtype=np.float64))
    lo = s.min(axis=-1, keepdims=True)
    span = s.max(axis=-1, keepdims=True) - lo
    flat = span == 0.0
    span = np.where(flat, 1.0, span)
    normed = np.where(flat, 0.5, (s - lo) / span)
    slope = np.where(flat, 0.0, 1.0 / span)[:, 0]
    return (normed[0], float(slope[0])) if vector else (normed, slope)


def fitnet_hint_loss(
    student_embs: np.ndarray, teacher_embs: np.ndarray, regressor: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Embedding hint: mean squared distance after mapping student to teacher space.

    loss = mean over the batch of |student @ regressor - teacher|^2.  Returns
    (loss, gradient for student_embs, gradient for regressor).
    """
    s = np.asarray(student_embs)
    t = np.asarray(teacher_embs)
    r = np.asarray(regressor)
    if s.ndim != 2 or t.ndim != 2 or s.shape[0] != t.shape[0]:
        raise ValueError("student and teacher batches must be 2-D with equal row counts")
    if r.shape != (s.shape[1], t.shape[1]):
        raise ValueError(f"regressor shape {r.shape} does not map {s.shape[1]} to {t.shape[1]}")
    b = s.shape[0]
    resid = s @ r - t
    loss = float(np.sum(resid * resid) / b)
    dpred = (2.0 / b) * resid
    return loss, dpred @ r.T, s.T @ dpred


def _pairwise(embs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    diff = embs[:, None, :] - embs[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    b = embs.shape[0]
    off = ~np.eye(b, dtype=bool)
    mu = float(dist[off].mean())
    return diff, dist, mu


def rkd_loss(student_embs: np.ndarray, teacher_embs: np.ndarray) -> tuple[float, np.ndarray]:
    """Relational matching on pairwise distances and triplet angles.

    Distance term: Huber(delta = 1) between the two pairwise distance
    matrices, each divided by its own mean off-diagonal distance, averaged
    over ordered pairs.  Angle term: Huber between cosines at every ordered
    triplet of distinct points (the middle point is the vertex), averaged
    over triplets.  The total is distance + 2 * angle.  Both normalizations
    make the loss invariant to rotation, translation and uniform scaling of
    either embedding set.  Returns loss and the exact gradient with respect
    to student_embs, including the dependence through the student's own
    normalizer.
    """
    x = np.asarray(student_embs, dtype=np.float64)
    y = np.asarray(teacher_embs, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("embedding batches must be 2-D with equal row counts")
    b = x.shape[0]
    if b < 3:
        raise ValueError(f"relational loss needs at least 3 embeddings, got {b}")

    diff_s, dist_s, mu_s = _pairwise(x)
    _diff_t, dist_t, mu_t = _pairwise(y)
    if mu_s == 0.0 or mu_t == 0.0:
        raise ValueError("all embeddings coincide; relational structure is undefined")
    off = ~np.eye(b, dtype=bool)

    # distance term over ordered pairs
    n_pairs = b * (b - 1)
    e_d = np.where(off, dist_s / mu_s - dist_t / mu_t, 0.0)
    loss_d = float(np.sum(_huber_value(e_d, 1.0)[off]) / n_pairs)
    hp = np.where(off, np.clip(e_d, -1.0, 1.0), 0.0)
    coupled = float(np.sum(hp * dist_s))  # from the mean normalizer
    g_dist = np.where(off, hp / (n_pairs * mu_s) - coupled / (n_pairs * n_pairs * mu_s * mu_s), 0.0)
    safe = np.where(dist_s > 0, dist_s, 1.0)
    unit = diff_s / safe[:, :, None]
    contrib = g_dist[:, :, None] * unit
    grad = contrib.sum(axis=1) - contrib.sum(axis=0)

    # angle term over ordered triplets of distinct points, middle is vertex
    n_tri = b * (b - 1) * (b - 2)
    nrm_s = unit  # unit[a, v] = (x_a - x_v) / |x_a - x_v|
    cos_s = np.einsum("avd,cvd->avc", nrm_s, nrm_s)
    diff_t_unit = _diff_t / np.where(dist_t > 0, dist_t, 1.0)[:, :, None]
    cos_t = np.einsum("avd,cvd->avc", diff_t_unit, diff_t_unit)

    idx = np.arange(b)
    mask = (idx[:, None, None] != idx[None, :, None]) & (idx[None, None, :] != idx[None, :, None])
    mask &= idx[:, None, None] != idx[None, None, :]

    e_a = np.where(mask, cos_s - cos_t, 0.0)
    loss_a = float(np.sum(_huber_value(e_a, 1.0)[mask]) / n_tri)
    g3 = np.where(mask, np.clip(e_a, -1.0, 1.0), 0.0) / n_tri

    d_nrm = np.einsum("avc,cvd->avd", g3 + g3.transpose(2, 1, 0), nrm_s)
    dots = np.sum(d_nrm * nrm_s, axis=2, keepdims=True)
    w = (d_nrm - dots * nrm_s) / safe[:, :, None]
    w[~off] = 0.0
    grad_angle = w.sum(axis=1) - w.sum(axis=0)

    return loss_d + 2.0 * loss_a, grad + 2.0 * grad_angle


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _align_rows(
    student_scores: np.ndarray,
    top: np.ndarray,
    llm_norm: np.ndarray,
    usable: np.ndarray,
    lam: float,
    delta: float,
    d_scores: np.ndarray,
) -> np.ndarray:
    """Phase-2 alignment of one batch and slot, rows independent.

    Row i's student scores at its shortlist top[i] are min-max normalized and
    pulled toward the normalized language-model scores llm_norm[i] by the
    mean Huber penalty: one minmax_normalize and one huber_alignment_loss
    call over the usable rows' (rows, k) block.  lam times the gradient,
    chained through each row's normalization slope and cast to d_scores'
    dtype, is added into d_scores in place; rows that are not usable are
    skipped.  Returns the lam-weighted loss of each usable row, in row order.
    """
    rows = np.flatnonzero(usable)
    top = top[rows]
    stu_norm, slope = minmax_normalize(student_scores[rows[:, None], top])
    loss, grad = huber_alignment_loss(llm_norm[rows], stu_norm, delta)
    coef = (lam * slope)[:, None].astype(d_scores.dtype)
    d_scores[rows[:, None], top] += coef * grad.astype(d_scores.dtype)
    return lam * loss


def phase2_queries(train: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The queries phase 2 resolves: each training fact, subject slot then object slot."""
    return np.repeat(train, 2, axis=0), ["subject", "object"] * len(train)


def _phase2_targets(
    teacher: Params, dataset: Dataset, llm_handle, llm_cache, topk: int, batch_size: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict]:
    """Every training query's alignment target, resolved once for the run.

    Returns (top-k candidates, normalized language-model scores, usable
    flags), each indexed [train row, slot] with slot 0 the subject, and the
    resolving epoch's llm_hits, llm_misses and llm_unusable counts.
    """
    quads, slots = phase2_queries(dataset.train)
    cand, llm_scores, usable, hits = llm_mod.resolve_topk(
        llm_handle, teacher, dataset.vocab, quads, slots, topk, batch_size, cache=llm_cache
    )
    llm_norm, _ = minmax_normalize(llm_scores)
    k = cand.shape[1]
    targets = (cand.reshape(-1, 2, k), llm_norm.reshape(-1, 2, k), usable.reshape(-1, 2))
    counts = {"llm_hits": hits, "llm_misses": len(usable) - hits, "llm_unusable": int(np.sum(~usable))}
    return targets, counts


def distill_run(
    teacher: Params,
    student: StudentState,
    dataset: Dataset,
    llm_handle,
    cfg: DistillConfig,
    rng: np.random.Generator,
    *,
    llm_cache=None,
    lr: float = 0.1,
    eps: float = 1e-8,
    batch_size: int = 1024,
    eval_every: int = 10,
    eval_mode: str = "raw",
    tie_policy: str = "pessimistic",
) -> tuple[StudentState, list[dict]]:
    """Train the student against the teacher; returns (best student, log).

    Phase 1 covers cfg.phase1_epochs with the teacher and supervised terms;
    phase 2 adds the language-model alignment.  Baseline methods run their
    own objective for phase 1 and skip phase 2.  The teacher is frozen, so
    each training query's top-llm_topk shortlist and its language-model
    scores are resolved once per run, at the first phase-2 epoch: without a
    cache the handle is called once per query per run, and phase 1 never
    calls it.  Each batch encodes its queries for the teacher and for the
    student once (models.encode_queries): the student's record serves both
    slots' scores and backprops, since its parameters change only when the
    batch's gradients are applied.  The epochs, evaluation cadence and
    best-snapshot rule are training.run_epochs'.
    One log record per epoch: epoch, phase, method, train_loss (the mean
    loss per query, each training fact counting once per slot), llm_calls
    (the handle's cumulative call count), llm_hits, llm_misses and
    llm_unusable (the queries the epoch answered from the cache, resolved
    without it, and got no usable scores for; nonzero only in the epoch that
    resolves the shortlists), and valid_mrr on evaluation epochs.
    """
    if teacher.backbone != student.params.backbone:
        raise ValueError(
            f"teacher backbone {teacher.backbone!r} does not match student {student.params.backbone!r}"
        )
    if cfg.method == "ours" and cfg.lambda_llm > 0 and cfg.phase2_epochs > 0 and llm_handle is None:
        raise ValueError("method 'ours' with lambda_llm > 0 needs an LLM handle; pass one or set lambda_llm = 0")
    if cfg.method == "fitnet" and student.fitnet_regressor is None:
        raise ValueError("fitnet needs a student with a regressor; build it with make_student(method='fitnet')")
    vocab = dataset.vocab
    train = dataset.train
    targets = None  # resolved at the first phase-2 epoch that aligns; set from then on

    def epoch_fields(epoch: int) -> dict:
        nonlocal targets
        phase = 1 if epoch < cfg.phase1_epochs else 2
        llm_counts = {"llm_hits": 0, "llm_misses": 0, "llm_unusable": 0}
        if cfg.method == "ours" and phase == 2 and cfg.lambda_llm > 0.0 and targets is None:
            targets, llm_counts = _phase2_targets(teacher, dataset, llm_handle, llm_cache, cfg.llm_topk, batch_size)
        return {
            "phase": phase,
            "method": cfg.method,
            "llm_calls": int(getattr(llm_handle, "calls", 0)) if llm_handle is not None else 0,
            **llm_counts,
        }

    def step(batch: np.ndarray):
        quads = np.take(train, batch, axis=0)
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

            if targets is not None:
                top, llm_norm, usable = (t[batch, si] for t in targets)
                terms = _align_rows(s_scores, top, llm_norm, usable, cfg.lambda_llm, cfg.delta, d_scores)
                for term in terms.tolist():  # one row at a time keeps the loss's summation order
                    batch_loss += term

            d_scores /= 2.0 * m  # queries per batch: both slots
            batch_candidate_backprop(student.params, s_encoding, slot, d_scores, grads)

        batch_loss /= 2.0 * m

        if cfg.method == "fitnet":
            ids = sorted_unique(quads[:, [0, 2]])
            l_hint, g_emb, g_reg = fitnet_hint_loss(
                student.params.entity_emb.values[ids],
                teacher.entity_emb.values[ids],
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
                l_rel, g_emb = rkd_loss(
                    student.params.entity_emb.values[ids],
                    teacher.entity_emb.values[ids],
                )
                batch_loss += l_rel
                grads.add_rows("entity_emb", ids, g_emb.astype(student.params.entity_emb.dtype))
        return batch_loss, 2 * m, grads

    total_epochs = cfg.phase1_epochs + (cfg.phase2_epochs if cfg.method == "ours" else 0)
    return run_epochs(
        student, student.params, dataset, rng, step, epoch_fields, epochs=total_epochs, batch_size=batch_size,
        lr=lr, eps=eps, eval_every=eval_every, eval_mode=eval_mode, tie_policy=tie_policy,
    )
