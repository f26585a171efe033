"""The epoch loop shared by teacher training and distillation, and supervised training on it."""
from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from .evaluate import evaluate
from .graph import sample_negatives
from .models import GradAccum, Params, supervised_gradients

logger = logging.getLogger(__name__)

__all__ = ["run_epochs", "train_supervised"]


def run_epochs(
    state,
    params: Params,
    dataset,
    rng: np.random.Generator,
    step: Callable[[np.ndarray], tuple[float, int, GradAccum]],
    epoch_fields: Callable[[int], dict],
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    eps: float,
    eval_every: int,
    eval_mode: str,
    tie_policy: str,
):
    """Train for epochs over the training split; returns (best snapshot of state, log).

    state is what a snapshot copies; params, the parameters in it that step
    updates and validation scores.  Each epoch takes its log fields from
    epoch_fields(epoch), then draws one permutation of the training rows
    before any draw a step makes.  step(rows) returns one batch's (mean
    loss, weight, grads); a non-finite loss raises RuntimeError, and
    train_loss is the weight-averaged loss.  valid_mrr is recorded every
    eval_every epochs and after the last; a strictly better value replaces
    the best snapshot, and without a validation split the final state wins.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if eval_every < 1:
        raise ValueError(f"eval_every must be at least 1, got {eval_every}")
    n = len(dataset.train)  # never 0: Dataset refuses an empty training split
    has_valid = len(dataset.valid) > 0
    best = None
    best_mrr = -np.inf
    log: list[dict] = []
    for epoch in range(epochs):
        fields = epoch_fields(epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        total = 0
        for start in range(0, n, batch_size):
            loss, weight, grads = step(order[start : start + batch_size])
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged at epoch {epoch}: loss is not finite")
            grads.apply(lr, eps)
            epoch_loss += loss * weight
            total += weight
        record = {"epoch": epoch, **fields, "train_loss": float(epoch_loss / total)}
        if has_valid and ((epoch + 1) % eval_every == 0 or epoch == epochs - 1):
            report = evaluate(params, dataset, split="valid", mode=eval_mode, tie_policy=tie_policy)
            record["valid_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best = state.copy()
            logger.info(
                "epoch %d: loss %.4f, valid reciprocal-rank mean %.4f", epoch, record["train_loss"], report.mrr
            )
        log.append(record)
    return (state.copy() if best is None else best), log


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
    """Fit params on the training split with run_epochs; returns (best params, log).

    Each batch pairs every positive with neg_samples corrupted facts and
    takes the margin ranking step of models.supervised_gradients; its weight
    is the number of positives.  Records carry phase "supervised", the
    backbone as method and llm_calls 0.
    """
    if neg_samples < 1:
        raise ValueError("neg_samples must be positive")
    fields = {"phase": "supervised", "method": params.backbone, "llm_calls": 0}

    def step(rows: np.ndarray):
        batch = np.take(dataset.train, rows, axis=0)
        negatives = sample_negatives(batch, neg_samples, dataset.vocab, rng)
        loss, grads = supervised_gradients(params, dataset.vocab, batch, negatives, margin=margin)
        return loss, batch.shape[0], grads

    return run_epochs(
        params, params, dataset, rng, step, lambda epoch: fields, epochs=epochs, batch_size=batch_size,
        lr=lr, eps=eps, eval_every=eval_every, eval_mode=eval_mode, tie_policy=tie_policy,
    )
