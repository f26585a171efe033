"""Ranking evaluation for link prediction: MR, MRR, Hits@k, raw and filtered.

Every fact in a split yields two queries, one per corrupted slot, so a report
covers 2 * |split| ranks.  Raw mode ranks against every entity; filtered mode
first removes candidates that complete a different known fact.

evaluate() scores the split in row blocks with batch_candidate_scores, the
scorer training uses, and ranks each block at once through rank_of, masked in
filtered mode by KnownFacts.keep_mask, a sorted-key lookup of every row's known
completions.  A block's queries are encoded once (encode_queries) and that
record scores both of its corrupted slots.  brute_force_oracle shares none
of that path, its known-fact set included, and is the independent check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SPLIT_NAMES, Dataset, DataError
from .models import Params, batch_candidate_scores, encode_queries, score_quadruple

__all__ = ["RankingReport", "rank_of", "evaluate", "brute_force_oracle"]

HITS_KS = (1, 3, 10)
TIE_POLICIES = ("pessimistic", "optimistic", "mean")
MODES = ("raw", "filtered")

# Scores held per block of ranked rows: a block spans this // |E| rows.
_BLOCK_SCORES = 131_072


@dataclass
class RankingReport:
    """Aggregated ranking metrics over a query set."""

    n_queries: int
    mr: float
    mrr: float
    hits: dict[int, float]
    mode: str
    tie_policy: str = "pessimistic"

    def as_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "mr": self.mr,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in self.hits.items()},
            "mode": self.mode,
            "tie_policy": self.tie_policy,
        }


def rank_of(
    scores: np.ndarray, gt_index, tie_policy: str = "pessimistic", keep: np.ndarray | None = None
) -> int | np.ndarray:
    """1-indexed rank of the ground-truth candidate under higher-is-better scores.

    scores is one (n,) candidate vector with an int gt_index, giving an int,
    or an (m, n) block with one index per row, giving an (m,) int64 array.
    The base rank counts strictly better candidates.  Ties with the ground
    truth resolve by policy: pessimistic places it after every tied
    candidate, optimistic before, and mean adds floor(ties / 2).  keep, shaped
    like scores, masks candidates out: a masked candidate counts neither as
    better nor as tied.  The ground truth itself must be kept.

    With n_gt better and n_eq tied candidates, the truth among the tied, the
    pessimistic rank is n_gt + n_eq, counted in one >= mask; optimistic is
    1 + n_gt, and mean is 1 + n_gt + (n_eq - 1) // 2.  A NaN ground-truth
    score has no better and no tied candidate, itself included.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}; expected one of {TIE_POLICIES}")
    scores = np.asarray(scores)
    block = np.atleast_2d(scores)
    gt = np.asarray(gt_index, dtype=np.int64).reshape(-1)
    if block.ndim != 2 or gt.shape != (len(block),) or np.any((gt < 0) | (gt >= block.shape[1])):
        raise ValueError("ground-truth index out of range, or not one index per row of scores")
    rows = np.arange(len(block))
    gt_scores = block[rows, gt][:, None]
    if keep is not None:
        keep = np.asarray(keep, dtype=bool).reshape(block.shape)
        if not keep[rows, gt].all():
            raise ValueError("keep must keep the ground truth")

    def count(mask: np.ndarray) -> np.ndarray:
        if keep is not None:
            mask &= keep
        return np.count_nonzero(mask, axis=1)

    if tie_policy == "pessimistic":
        ranks = count(block >= gt_scores)
    else:
        n_gt = count(block > gt_scores)
        ranks = 1 + n_gt
        if tie_policy == "mean":
            ranks += (count(block >= gt_scores) - n_gt - 1) // 2
    return int(ranks[0]) if scores.ndim == 1 else ranks


def metrics_from_ranks(ranks: np.ndarray, ks: tuple[int, ...] = HITS_KS) -> tuple[float, float, dict[int, float]]:
    """MR, MRR and Hits@k for a vector of 1-indexed ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise DataError("cannot aggregate metrics over zero queries")
    mr = float(ranks.mean())
    mrr = float((1.0 / ranks).mean())
    hits = {k: float((ranks <= k).mean()) for k in ks}
    return mr, mrr, hits


def _query_ranks(
    params: Params,
    dataset: Dataset,
    split: str,
    mode: str,
    tie_policy: str,
) -> np.ndarray:
    """Ranks in row order, the subject slot before the object slot.

    Each block of rows is encoded once (encode_queries), on either backbone,
    and that record serves both slots' batch_candidate_scores.
    """
    facts = dataset.split(split)
    if len(facts) == 0:
        raise DataError(f"cannot evaluate on empty split {split!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    vocab = dataset.vocab
    ranks = np.empty((len(facts), 2), dtype=np.int64)
    block_rows = max(1, _BLOCK_SCORES // vocab.n_entities)
    for lo in range(0, len(facts), block_rows):
        quads = facts[lo : lo + block_rows]
        encoding = encode_queries(params, vocab, quads)
        for col, (slot, truth) in enumerate((("subject", quads[:, 0]), ("object", quads[:, 2]))):
            scores = batch_candidate_scores(params, encoding, slot)
            keep = dataset.known.keep_mask(quads, slot, vocab.n_entities) if mode == "filtered" else None
            ranks[lo : lo + len(quads), col] = rank_of(scores, truth, tie_policy, keep)
    return ranks.ravel()


def evaluate(
    params: Params,
    dataset: Dataset,
    split: str = "test",
    mode: str = "raw",
    tie_policy: str = "pessimistic",
) -> RankingReport:
    """Rank every query in the split with both corruption directions pooled."""
    ranks = _query_ranks(params, dataset, split, mode, tie_policy)
    mr, mrr, hits = metrics_from_ranks(ranks)
    return RankingReport(
        n_queries=len(ranks), mr=mr, mrr=mrr, hits=hits, mode=mode, tie_policy=tie_policy
    )


def brute_force_oracle(
    params: Params,
    dataset: Dataset,
    split: str = "test",
    mode: str = "raw",
) -> RankingReport:
    """Reference evaluation used to cross-check evaluate() on small fixtures.

    Deliberately slow and independent: 64-bit parameters, one unbatched score
    call per candidate, candidate filtering done by membership in its own
    Python set of the three splits' facts (not the dataset's KnownFacts),
    ranks read off a full descending sort with pessimistic tie placement, and
    metric arithmetic written out long-hand.  Guard rails reject inputs
    beyond 64 entities or 256 facts.
    """
    vocab = dataset.vocab
    facts = dataset.split(split)
    if vocab.n_entities > 64:
        raise DataError(f"oracle guard: {vocab.n_entities} entities exceeds 64")
    if len(facts) > 256:
        raise DataError(f"oracle guard: {len(facts)} facts exceeds 256")
    if len(facts) == 0:
        raise DataError(f"cannot evaluate on empty split {split!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")

    wide = params.astype(np.float64)
    known = {tuple(fact) for name in SPLIT_NAMES for fact in dataset.split(name).tolist()}
    ranks: list[int] = []
    for row in facts:
        s, p, o, t = (int(v) for v in row)
        for slot in ("subject", "object"):
            truth = s if slot == "subject" else o
            candidates = []
            for e in range(vocab.n_entities):
                if e == truth:
                    candidates.append(e)
                    continue
                if mode == "filtered":
                    trial = (e, p, o, t) if slot == "subject" else (s, p, e, t)
                    if trial in known:
                        continue
                candidates.append(e)
            scores = []
            for e in candidates:
                trial = (e, p, o, t) if slot == "subject" else (s, p, e, t)
                scores.append(score_quadruple(wide, trial, vocab))
            gt_score = scores[candidates.index(truth)]
            ordered = sorted(scores, reverse=True)
            rank = 0
            for pos, val in enumerate(ordered, start=1):
                if val == gt_score:
                    rank = pos
            ranks.append(rank)

    total = 0.0
    recip = 0.0
    hits_counts = {k: 0 for k in HITS_KS}
    for r in ranks:
        total += r
        recip += 1.0 / r
        for k in HITS_KS:
            if r <= k:
                hits_counts[k] += 1
    n = len(ranks)
    return RankingReport(
        n_queries=n,
        mr=total / n,
        mrr=recip / n,
        hits={k: hits_counts[k] / n for k in HITS_KS},
        mode=mode,
        tie_policy="pessimistic",
    )
