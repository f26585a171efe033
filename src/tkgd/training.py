"""Supervised training loop for the backbone models."""
from __future__ import annotations

import logging

import numpy as np

from .evaluate import evaluate
from .graph import sample_negatives
from .models import Params, supervised_gradients

logger = logging.getLogger(__name__)

__all__ = ["train_supervised"]


def train_supervised(
    params: Params,
    dataset,
    rng: np.random.Generator,
    *,
    epochs: int,
    batch_size: int = 1024,
    lr: float = 0.1,
    eps: float = 1e-8,
    neg_samples: int = 10,
    margin: float = 1.0,
    eval_every: int = 10,
    eval_mode: str = "raw",
    tie_policy: str = "pessimistic",
) -> tuple[Params, list[dict]]:
    """Fit params on the training split; returns (best params, log).

    Each epoch shuffles the training facts, pairs every positive with
    neg_samples corrupted facts, and applies one adaptive-gradient step per
    batch.  The validation split is scored every eval_every epochs and on
    the last one; there is no evaluation before training, so the first
    evaluation always becomes the best so far.  The returned parameters are
    the snapshot with the best validation reciprocal-rank mean.  With an
    empty validation split nothing is evaluated, no record carries
    valid_mrr, and the parameters after the last epoch are returned.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if neg_samples < 1:
        raise ValueError("neg_samples must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    log: list[dict] = []
    if epochs == 0:
        return params.copy(), log
    train = dataset.train
    n = train.shape[0]
    if n == 0:
        raise ValueError("training split is empty")
    has_valid = len(dataset.valid) > 0
    best_mrr = -1.0
    best: Params | None = None
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = train[order[start : start + batch_size]]
            negatives = sample_negatives(batch, neg_samples, dataset.vocab, rng)
            loss, grads = supervised_gradients(params, dataset.vocab, batch, negatives, margin=margin)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged at epoch {epoch}: loss is not finite")
            grads.apply(lr, eps)
            epoch_loss += loss * batch.shape[0]
        record = {
            "epoch": epoch,
            "phase": "supervised",
            "method": params.backbone,
            "train_loss": float(epoch_loss / n),
            "llm_calls": 0,
        }
        if has_valid and ((epoch + 1) % eval_every == 0 or epoch == epochs - 1):
            report = evaluate(params, dataset, split="valid", mode=eval_mode, tie_policy=tie_policy)
            record["valid_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best = params.copy()
            logger.info(
                "epoch %d: loss %.4f, valid reciprocal-rank mean %.4f", epoch, record["train_loss"], report.mrr
            )
        log.append(record)
    if best is None:
        best = params.copy()
    return best, log
