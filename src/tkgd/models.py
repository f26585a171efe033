"""Scoring backbones for temporal link prediction.

Two models share one interface.  The translation backbone scores a fact by
how short the vector s + p - o + t is (negated, so higher means more
plausible).  The recurrent-factorization backbone encodes the relation
together with the year digits through a single-layer LSTM and scores with the
trilinear product sum_k s_k * o_k * pseq_k.  The LSTM's input weights, recurrent
weights and biases are three tensors, each with its four gates stacked in GATES
order.  The encoder input depends only on the (relation, bucket) pair, so
batched scoring and training run the LSTM once per distinct pair in the batch,
all pairs as one (n, L) token batch.  Pairs are found through the integer key
relation * B + bucket and tokenized in one array step; ta_tokenize is the
per-pair reference.  Both backbones reach the batch scorers through one
contract: encode_queries checks the query ids once and returns a
QueryEncoding, the checked quads plus the backbone's parts (the pair
encoding, or both slots' translation distances).  batch_candidate_scores and
batch_candidate_backprop read only that record, so a caller that scores both
slots of the same rows and backprops them before the parameters change
encodes once.  Sparse row gradients, the per-pair hidden-state gradients
included, accumulate through numerics.scatter_add_rows.

Rows are read with np.take(table, idx, axis=0), which copies the same bytes
as table[idx] without the general fancy-indexing machinery.  A supervised
batch gathers and checks its positives and negatives as one block and
scatters each table once: concatenating one table's (rows, grads) in the
order separate calls would make them gives every element the same sequence
of adds, so the result is the same bits.  For the translation backbone the
entity rows go positive subjects, positive objects, negative subjects,
negative objects; relation and time rows go positives, then negatives.  For
the recurrent backbone the entity rows go subjects, then objects.

All gradients in this file are written out by hand; there is no autodiff
anywhere.  Every backward path is validated against central finite
differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CandidateSet, Vocabulary, _check_slot
from .numerics import ParamTensor, adagrad_step, scatter_add_rows

__all__ = [
    "TTransEParams",
    "TADistMultParams",
    "GradAccum",
    "init_params",
    "ta_tokenize",
    "lstm_forward",
    "lstm_backward",
    "score_quadruple",
    "score_candidates",
    "encode_queries",
    "batch_candidate_scores",
    "batch_candidate_backprop",
    "supervised_gradients",
]

BACKBONES = ("ttranse", "tadistmult")
GATES = ("input", "forget", "cell", "output")
N_DIGIT_TOKENS = 10
YEAR_DIGITS = 4

# Squared translation distances at or below this share of |f|^2 + |e|^2 count
# as exactly zero.  The expansion |f|^2 - 2 f.e + |e|^2 cancels when f and e
# (nearly) coincide; in float64 its rounding is a few d * 2^-53 of that sum,
# far below this threshold, which sits at distances of about 1e-6 of the norms.
_ZERO_DIST_SQ_REL = 1e-12


@dataclass
class TTransEParams:
    """Embedding tables for the translation backbone."""

    entity_emb: ParamTensor
    relation_emb: ParamTensor
    time_emb: ParamTensor

    backbone = "ttranse"

    @property
    def dim(self) -> int:
        return self.entity_emb.shape[1]

    def tables(self) -> dict[str, ParamTensor]:
        return {
            "entity_emb": self.entity_emb,
            "relation_emb": self.relation_emb,
            "time_emb": self.time_emb,
        }

    def copy(self) -> "TTransEParams":
        return TTransEParams(*(t.copy() for t in self.tables().values()))

    def astype(self, dtype) -> "TTransEParams":
        return TTransEParams(*(t.astype(dtype) for t in self.tables().values()))


@dataclass
class TADistMultParams:
    """Embeddings plus LSTM weights for the recurrent-factorization backbone.

    token_emb stacks the relation tokens (rows 0..n_relations-1) followed by
    the ten year-digit tokens.  The LSTM is single layer with hidden size d
    equal to the embedding dimension.  w (4d, d) maps the input row, u (4d, d)
    the previous hidden state, and b (4d,) is the bias; rows k*d..(k+1)*d-1 of
    each belong to gate GATES[k].
    """

    entity_emb: ParamTensor
    token_emb: ParamTensor
    w: ParamTensor
    u: ParamTensor
    b: ParamTensor
    n_relations: int = 0

    backbone = "tadistmult"

    @property
    def dim(self) -> int:
        return self.entity_emb.shape[1]

    def tables(self) -> dict[str, ParamTensor]:
        return {"entity_emb": self.entity_emb, "token_emb": self.token_emb, "w": self.w, "u": self.u, "b": self.b}

    def copy(self) -> "TADistMultParams":
        return TADistMultParams(*(t.copy() for t in self.tables().values()), n_relations=self.n_relations)

    def astype(self, dtype) -> "TADistMultParams":
        return TADistMultParams(
            *(t.astype(dtype) for t in self.tables().values()), n_relations=self.n_relations
        )


Params = TTransEParams | TADistMultParams


def _normalized_rows(rng: np.random.Generator, rows: int, dim: int, bound: float) -> np.ndarray:
    vals = rng.uniform(-bound, bound, size=(rows, dim))
    norms = np.linalg.norm(vals, axis=1, keepdims=True)
    return vals / np.maximum(norms, 1e-12)


def init_params(
    backbone: str,
    dim: int,
    n_entities: int,
    n_relations: int,
    n_buckets: int,
    seed: int,
    dtype=np.float32,
) -> Params:
    """Seeded parameter initialization.

    Embedding tables draw uniform entries in [-6/sqrt(d), +6/sqrt(d)] and each
    row is L2-normalized once.  LSTM gate matrices use the tighter
    [-1/sqrt(d), +1/sqrt(d)] range, biases start at zero except the forget
    gate, which starts at one so early training does not erase cell state.
    Draws happen in a fixed order, so the same seed reproduces the same model
    at either dtype.
    """
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}; expected one of {BACKBONES}")
    if dim < 1:
        raise ValueError(f"embedding dimension must be positive, got {dim}")
    if min(n_entities, n_relations, n_buckets) < 1:
        raise ValueError("entity, relation and bucket counts must all be positive")

    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    if backbone == "ttranse":
        return TTransEParams(
            entity_emb=ParamTensor(_normalized_rows(rng, n_entities, dim, bound).astype(dtype)),
            relation_emb=ParamTensor(_normalized_rows(rng, n_relations, dim, bound).astype(dtype)),
            time_emb=ParamTensor(_normalized_rows(rng, n_buckets, dim, bound).astype(dtype)),
        )

    entity = _normalized_rows(rng, n_entities, dim, bound).astype(dtype)
    token = _normalized_rows(rng, n_relations + N_DIGIT_TOKENS, dim, bound).astype(dtype)
    wb = 1.0 / np.sqrt(dim)
    w = rng.uniform(-wb, wb, size=(4 * dim, dim)).astype(dtype)
    u = rng.uniform(-wb, wb, size=(4 * dim, dim)).astype(dtype)
    b = np.zeros(4 * dim, dtype=dtype)
    b[dim : 2 * dim] = 1.0
    return TADistMultParams(
        entity_emb=ParamTensor(entity),
        token_emb=ParamTensor(token),
        w=ParamTensor(w),
        u=ParamTensor(u),
        b=ParamTensor(b),
        n_relations=n_relations,
    )


def ta_tokenize(p: int, t: int, vocab: Vocabulary) -> np.ndarray:
    """Token sequence [relation, y1, y2, y3, y4] for relation p at bucket t.

    The year is the bucket's label, rendered as four zero-padded digits of its
    absolute value (only the last four digits survive for years beyond 9999).
    Month and day never appear; buckets are year-grained.
    """
    year = abs(int(vocab.time_buckets[t]))
    digits = str(year).zfill(YEAR_DIGITS)[-YEAR_DIGITS:]
    n_rel = vocab.n_relations
    return np.asarray([int(p)] + [n_rel + int(ch) for ch in digits], dtype=np.int64)


@dataclass
class LstmCache:
    """Per-step activations kept from a forward pass for backpropagation.

    Every array keeps the leading batch axis of the tokens it was built from:
    none for a single (L,) sequence, n for an (n, L) batch.
    """

    tokens: np.ndarray  # (..., L) token ids
    x: np.ndarray  # (..., L, d) input rows
    gates: np.ndarray  # (..., L, 4d) gate activations in GATES order; tanh for cell, sigmoid otherwise
    c: np.ndarray  # (..., L, d) cell state after each step
    h: np.ndarray  # (..., L, d) hidden state after each step


@dataclass(frozen=True)
class QueryEncoding:
    """encode_queries' record: the checked (m, 4) quads and the backbone's parts."""

    quads: np.ndarray
    parts: tuple  # _encode_pairs' result, or _ttranse_distances' for the subject slot, then the object slot


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _gate_blocks(rows: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """Views of the input, forget, cell and output blocks of (..., 4d) rows."""
    return rows[..., :d], rows[..., d : 2 * d], rows[..., 2 * d : 3 * d], rows[..., 3 * d :]


def lstm_forward(tokens: np.ndarray, params: TADistMultParams) -> tuple[np.ndarray, LstmCache]:
    """Run relation-time token sequences through the LSTM.

    tokens is one (L,) sequence or an (n, L) batch of them.  Hidden and cell
    state start at zero.  Returns the final hidden state, (d,) or (n, d), as
    the sequence representation, plus the cache needed by lstm_backward.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.shape[-1] == 0:
        raise ValueError("tokens must be a non-empty (L,) sequence or an (n, L) batch")
    d = params.dim
    x = np.take(params.token_emb.values, tokens, axis=0)
    pre_x = x @ params.w.values.T + params.b.values
    u_t = params.u.values.T
    gates = np.empty_like(pre_x)
    c_all = np.empty_like(x)
    h_all = np.empty_like(x)
    h = np.zeros_like(x[..., 0, :])
    c = np.zeros_like(h)
    for step in range(tokens.shape[-1]):
        a = pre_x[..., step, :] + h @ u_t
        act = gates[..., step, :]
        act[...] = _sigmoid(a)
        act[..., 2 * d : 3 * d] = np.tanh(a[..., 2 * d : 3 * d])
        i, f, g, o = _gate_blocks(act, d)
        c = f * c + i * g
        h = o * np.tanh(c)
        c_all[..., step, :] = c
        h_all[..., step, :] = h
    return h, LstmCache(tokens=tokens, x=x, gates=gates, c=c_all, h=h_all)


def lstm_backward(
    params: TADistMultParams, cache: LstmCache, dh_last: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagation through time for a cached sequence or batch.

    Takes the gradient of the loss with respect to the final hidden state,
    shaped like lstm_forward's output, and returns (gradient per input row,
    {"w", "u", "b"} gradients).  Input-row gradients line up with
    cache.tokens; w, u and b gradients sum over the batch.
    """
    d = cache.x.shape[-1]
    zero = np.zeros_like(cache.h[..., :1, :])
    h_prev = np.concatenate([zero, cache.h[..., :-1, :]], axis=-2)
    c_prev = np.concatenate([zero, cache.c[..., :-1, :]], axis=-2)
    tanh_c = np.tanh(cache.c)
    u = params.u.values

    da = np.empty_like(cache.gates)
    dh = np.asarray(dh_last, dtype=cache.x.dtype)
    dc_next = np.zeros_like(dh)
    for step in range(cache.tokens.shape[-1] - 1, -1, -1):
        i, f, g, o = _gate_blocks(cache.gates[..., step, :], d)
        tc = tanh_c[..., step, :]
        da_i, da_f, da_g, da_o = _gate_blocks(da[..., step, :], d)
        da_o[...] = dh * tc * o * (1.0 - o)
        dc = dc_next + dh * o * (1.0 - tc * tc)
        da_i[...] = dc * g * i * (1.0 - i)
        da_f[...] = dc * c_prev[..., step, :] * f * (1.0 - f)
        da_g[...] = dc * i * (1.0 - g * g)
        dh = da[..., step, :] @ u
        dc_next = dc * f

    dx = da @ params.w.values
    da_rows = da.reshape(-1, 4 * d)
    return dx, {
        "w": da_rows.T @ cache.x.reshape(-1, d),
        "u": da_rows.T @ h_prev.reshape(-1, d),
        "b": da_rows.sum(axis=0),
    }


def score_quadruple(params: Params, quad, vocab: Vocabulary) -> float:
    """Plausibility of a single fact; higher is better for both backbones."""
    s, p, o, t = (int(v) for v in quad)
    if params.backbone == "ttranse":
        ent = params.entity_emb.values
        v = ent[s] + params.relation_emb.values[p] - ent[o] + params.time_emb.values[t]
        return float(-np.linalg.norm(v))
    pseq, _ = lstm_forward(ta_tokenize(p, t, vocab), params)
    ent = params.entity_emb.values
    return float(np.sum(ent[s] * ent[o] * pseq))


def _ttranse_fixed_part(params: TTransEParams, quads: np.ndarray, slot: str) -> np.ndarray:
    """The query-constant vector: scores are -|fixed - candidate| for both slots."""
    ent = params.entity_emb.values
    rel = params.relation_emb.values
    tim = params.time_emb.values
    p_rows = np.take(rel, quads[:, 1], axis=0)
    t_rows = np.take(tim, quads[:, 3], axis=0)
    if slot == "object":
        return np.take(ent, quads[:, 0], axis=0) + p_rows + t_rows
    return np.take(ent, quads[:, 2], axis=0) - p_rows - t_rows


def score_candidates(params: Params, cs: CandidateSet, vocab: Vocabulary) -> np.ndarray:
    """Scores for one query over its candidate list: a row of batch_candidate_scores."""
    return batch_candidate_scores(params, encode_queries(params, vocab, cs.query), cs.slot)[0, cs.candidates]


class GradAccum:
    """Gradient accumulator over a model's parameter tables.

    Embedding-row gradients accumulate sparsely (buffers are dense for speed,
    but untouched rows are tracked and never updated) through
    scatter_add_rows, which sums repeated rows in index order; LSTM tensors
    and whole-table gradients (add_dense) accumulate densely.  apply() performs
    one Adagrad step per touched parameter in the fixed table order, which
    keeps training deterministic.
    """

    def __init__(self, params: Params):
        self._params = params
        self._tables = params.tables()
        self._buf: dict[str, np.ndarray] = {}
        self._touched: dict[str, np.ndarray] = {}
        self._dense: set[str] = set()

    def _ensure(self, name: str) -> np.ndarray:
        if name not in self._buf:
            vals = self._tables[name].values
            self._buf[name] = np.zeros_like(vals)
            if vals.ndim == 2:
                self._touched[name] = np.zeros(vals.shape[0], dtype=bool)
        return self._buf[name]

    def add_rows(self, name: str, rows: np.ndarray, grads: np.ndarray) -> None:
        buf = self._ensure(name)
        rows = np.asarray(rows, dtype=np.int64)
        scatter_add_rows(buf, rows, grads)
        self._touched[name][rows] = True

    def add_dense(self, name: str, grad: np.ndarray) -> None:
        buf = self._ensure(name)
        buf += grad
        self._dense.add(name)
        if name in self._touched:
            self._touched[name][:] = True

    def apply(self, lr: float, eps: float) -> None:
        for name in self._tables:
            if name not in self._buf:
                continue
            param = self._tables[name]
            if name in self._dense or param.values.ndim == 1:
                adagrad_step(param, self._buf[name], lr=lr, eps=eps)
            else:
                rows = np.nonzero(self._touched[name])[0]
                if rows.size:
                    adagrad_step(param, np.take(self._buf[name], rows, axis=0), lr=lr, eps=eps, rows=rows)

    def dense_dict(self) -> dict[str, np.ndarray]:
        """Full-shape gradient arrays (zeros where untouched), for checking."""
        out = {}
        for name, param in self._tables.items():
            out[name] = self._buf.get(name, np.zeros_like(param.values)).copy()
        return out


def _check_ids(vocab: Vocabulary, quads: np.ndarray) -> None:
    """Raise ValueError naming the first (row-major) entity, relation or bucket id outside the vocabulary."""
    bounds = np.array([vocab.n_entities, vocab.n_relations, vocab.n_entities, vocab.n_buckets])
    bad = (quads < 0) | (quads >= bounds)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        what = ("entity", "relation", "entity", "bucket")[col]
        raise ValueError(f"{what} id {int(quads[row, col])} outside [0, {int(bounds[col])})")


def _ttranse_distances(
    params: TTransEParams, quads: np.ndarray, slot: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 fixed parts f (m, d), entity rows e (|E|, d) and distances |f - e| (m, |E|).

    The fixed part is formed in the table dtype, then f and e are upcast and
    the squared distances come from |f|^2 - 2 f.e + |e|^2 through one matmul.
    Squares at or below _ZERO_DIST_SQ_REL of |f|^2 + |e|^2, negative
    rounding included, are set to exactly zero.
    """
    f = _ttranse_fixed_part(params, quads, slot).astype(np.float64)
    e = params.entity_emb.values.astype(np.float64)
    norms = np.einsum("ij,ij->i", f, f)[:, None] + np.einsum("ij,ij->i", e, e)
    sq = norms - 2.0 * (f @ e.T)
    sq[sq <= _ZERO_DIST_SQ_REL * norms] = 0.0
    return f, e, np.sqrt(sq)


def encode_queries(params: Params, vocab: Vocabulary, quads: np.ndarray) -> QueryEncoding:
    """The record batch_candidate_scores and batch_candidate_backprop read.

    quads, reshaped to (m, 4), are checked once: an entity, relation or
    bucket id outside the vocabulary raises ValueError.  The recurrent
    backbone encodes the (relation, bucket) pairs (_encode_pairs); the
    translation backbone computes both slots' distances up front, an (m, |E|)
    float64 array per slot, so a caller that scores one slot only pays for
    the other too.  The record serves both slots' scores and backprops until
    params change.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    _check_ids(vocab, quads)
    if params.backbone == "ttranse":
        return QueryEncoding(quads, tuple(_ttranse_distances(params, quads, slot) for slot in ("subject", "object")))
    return QueryEncoding(quads, _encode_pairs(params, vocab, quads))


def batch_candidate_scores(params: Params, encoding: QueryEncoding, slot: str) -> np.ndarray:
    """Scores of every entity as a candidate for each query, shape (m, |E|).

    encoding is encode_queries' record for the same params.  Matches
    per-candidate scoring through score_quadruple up to floating point
    roundoff.  The translation backbone expands |f - e|^2 into
    |f|^2 - 2 f.e + |e|^2 and accumulates it in float64 (_ttranse_distances),
    so the only float32 rounding is the fixed part and the final cast;
    distances below about 1e-6 of the norms score exactly zero.  A slot other
    than "subject" or "object" raises ValueError.
    """
    _check_slot(slot)
    quads = encoding.quads
    ent = params.entity_emb.values
    if params.backbone == "ttranse":
        _, _, dist = encoding.parts[1 if slot == "object" else 0]
        return (-dist).astype(ent.dtype)
    pseqs, _, _ = encoding.parts
    fixed_idx = quads[:, 0] if slot == "object" else quads[:, 2]
    w = np.take(ent, fixed_idx, axis=0) * pseqs
    return w @ ent.T


def _encode_pairs(params: TADistMultParams, vocab: Vocabulary, quads: np.ndarray) -> tuple:
    """Sequence states of each row's (relation, bucket) pair.

    The LSTM runs once, on the batch of distinct pairs, taken in ascending
    (relation, bucket) order through the integer key relation * B + bucket.
    Their tokens are ta_tokenize's, built for all pairs in one array step.
    Returns the (m, d) per-row states, the forward cache over the distinct
    pairs, and the index of each row's pair in that cache.  Callers have
    checked the ids with _check_ids.
    """
    rel, bucket = quads[:, 1], quads[:, 3]
    n_b = vocab.n_buckets
    keys, inverse = np.unique(rel * n_b + bucket, return_inverse=True)
    years = np.abs(np.asarray(vocab.time_buckets, dtype=np.int64))[keys % n_b]
    digits = years[:, None] // 10 ** np.arange(YEAR_DIGITS - 1, -1, -1) % 10
    tokens = np.concatenate([(keys // n_b)[:, None], vocab.n_relations + digits], axis=1)
    states, cache = lstm_forward(tokens, params)
    return np.take(states, inverse, axis=0), cache, inverse


def _backprop_pairs(
    params: TADistMultParams, cache: LstmCache, inverse: np.ndarray, dpseq: np.ndarray, grads: GradAccum
) -> None:
    """Chain per-row gradients of the sequence states from _encode_pairs into grads."""
    dh = np.zeros((len(cache.tokens), params.dim), dtype=cache.h.dtype)
    scatter_add_rows(dh, inverse, dpseq)
    dx, dense = lstm_backward(params, cache, dh)
    grads.add_rows("token_emb", cache.tokens.reshape(-1), dx.reshape(-1, params.dim))
    for name, grad in dense.items():
        grads.add_dense(name, grad)


def batch_candidate_backprop(
    params: Params, encoding: QueryEncoding, slot: str, dscores: np.ndarray, grads: GradAccum
) -> None:
    """Chain dL/dscores (m, |E|) into parameter gradients.

    The scores are the ones produced by batch_candidate_scores for the same
    (encoding, slot); gradients accumulate into grads.  A slot other than
    "subject" or "object" raises ValueError.
    """
    _check_slot(slot)
    quads = encoding.quads
    dscores = np.asarray(dscores)
    ent = params.entity_emb.values

    if params.backbone == "ttranse":
        # score = -|f - e|, so with w = dscores / dist (zero at zero distance)
        # df = -sum_j w_j (f - e_j) and de_j = sum_q w_qj (f_q - e_j)
        f, e, dist = encoding.parts[1 if slot == "object" else 0]
        w = np.divide(dscores, dist, out=np.zeros_like(dist), where=dist > 0)
        grad_fixed = (w @ e - w.sum(axis=1)[:, None] * f).astype(ent.dtype)
        grad_ent = (w.T @ f - w.sum(axis=0)[:, None] * e).astype(ent.dtype)
        grads.add_dense("entity_emb", grad_ent)
        if slot == "object":
            grads.add_rows("entity_emb", quads[:, 0], grad_fixed)
            grads.add_rows("relation_emb", quads[:, 1], grad_fixed)
            grads.add_rows("time_emb", quads[:, 3], grad_fixed)
        else:
            grads.add_rows("entity_emb", quads[:, 2], grad_fixed)
            grads.add_rows("relation_emb", quads[:, 1], -grad_fixed)
            grads.add_rows("time_emb", quads[:, 3], -grad_fixed)
        return

    # recurrent backbone: score[q, j] = sum_k ent[fixed_q] * ent[j] * pseq_q
    pseqs, cache, inverse = encoding.parts
    fixed_idx = quads[:, 0] if slot == "object" else quads[:, 2]
    fixed_emb = np.take(ent, fixed_idx, axis=0)
    w = fixed_emb * pseqs  # (m, d)

    grad_ent_cand = dscores.T @ w  # candidate-side gradient, (|E|, d)
    grads.add_dense("entity_emb", grad_ent_cand)

    ga = dscores @ ent  # (m, d), gradient with respect to w per query
    grads.add_rows("entity_emb", fixed_idx, ga * pseqs)

    _backprop_pairs(params, cache, inverse, ga * fixed_emb, grads)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def supervised_gradients(
    params: Params,
    vocab: Vocabulary,
    positives: np.ndarray,
    negatives: np.ndarray,
    margin: float = 1.0,
) -> tuple[float, GradAccum]:
    """Loss and gradients for one supervised batch with sampled negatives.

    positives is (n, 4); negatives is (n, k, 4), k corrupted copies per
    positive, with n and k at least 1 (an empty batch raises ValueError
    naming the shape).  The translation backbone trains with margin ranking
    on distances (margin 1 by default); at zero distance the distance
    gradient is the zero vector.  The recurrent backbone trains with the
    logistic softplus loss over positive and negative labels.  Losses are
    averaged so batch size does not rescale the learning rate.  An entity,
    relation or bucket id outside the vocabulary raises ValueError; the
    positives and then the negatives are checked as one block, so the id
    named is the first bad one in that order.  Each table takes one scatter
    per batch, its rows and gradients concatenated in the order separate
    calls would make them, so every element sees the same adds in the same
    order.

    The translation backbone normalizes and scatters only the rows whose
    gradient can be nonzero: the negatives with an active hinge (slack > 0)
    and the positives with at least one of them.  Every other row would add
    u * 0.0, that is +0.0 or -0.0, and the result is the same bits without
    it.  GradAccum buffers start at +0.0, and in round-to-nearest a sum
    that starts at +0.0 is never -0.0, so adding a signed zero changes no
    entry.  A row that only zeros would touch ends at +0.0, and an Adagrad
    step with a +0.0 gradient leaves both its values and its accumulator
    unchanged, so not marking it touched changes nothing either.  The kept
    rows go through the same arithmetic as the dense form (v divided by
    where(d > 0, d, 1) first, then times the table-dtype weight
    count / (n * k)), and their entity rows scatter in the dense form's call
    order: subject then object rows of the positives, then of the
    negatives, each block in row order.  This
    holds for finite parameters, the only kind ParamTensor accepts and an
    Adagrad step (which moves a value by at most lr) produces.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 4)
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim != 3 or negatives.shape[0] != len(positives) or negatives.shape[2] != 4:
        raise ValueError("negatives must have shape (n_positives, k, 4)")
    n, k = negatives.shape[:2]
    if n == 0 or k == 0:
        raise ValueError(f"supervised batch needs n >= 1 and k >= 1, got negatives of shape {negatives.shape}")
    all_quads = np.concatenate([positives, negatives.reshape(-1, 4)], axis=0)
    _check_ids(vocab, all_quads)
    grads = GradAccum(params)
    ent = params.entity_emb.values

    if params.backbone == "ttranse":
        v = (
            np.take(ent, all_quads[:, 0], axis=0)
            + np.take(params.relation_emb.values, all_quads[:, 1], axis=0)
            - np.take(ent, all_quads[:, 2], axis=0)
            + np.take(params.time_emb.values, all_quads[:, 3], axis=0)
        )
        dist = np.sqrt(np.add.reduce(v * v, axis=1))  # np.linalg.norm's formula without its conj() copy

        slack = margin + dist[:n, None] - dist[n:].reshape(n, k)
        active = slack > 0
        total = float(np.sum(np.where(active, slack, 0.0)))
        loss = total / (n * k)

        # the kept rows of all_quads, positives first, with their active-hinge counts
        hits = active.sum(axis=1)
        pos = np.flatnonzero(hits)
        neg = np.flatnonzero(active)
        kept = np.concatenate([pos, n + neg])
        count = np.concatenate([hits[pos], np.ones(len(neg), dtype=hits.dtype)])
        d_kept = np.take(dist, kept)
        # g, the gradient of s + p - o + t: v / |v| (zero at zero distance) times
        # count / (n * k) in the table dtype, negated for the negatives
        g = np.take(v, kept, axis=0) / np.where(d_kept > 0, d_kept, 1.0)[:, None]
        g *= (count.astype(v.dtype) / (n * k))[:, None]
        m = len(pos)
        np.negative(g[m:], out=g[m:])
        quads = np.take(all_quads, kept, axis=0)
        # one scatter per table, entity rows in the per-block call order
        ent_rows = np.concatenate([quads[:m, 0], quads[:m, 2], quads[m:, 0], quads[m:, 2]])
        grads.add_rows("entity_emb", ent_rows, np.concatenate([g[:m], -g[:m], g[m:], -g[m:]]))
        grads.add_rows("relation_emb", quads[:, 1], g)
        grads.add_rows("time_emb", quads[:, 3], g)
        return loss, grads

    labels = np.concatenate([np.ones(n, dtype=ent.dtype), -np.ones(n * k, dtype=ent.dtype)])

    pseqs, cache, inverse = _encode_pairs(params, vocab, all_quads)

    s_emb = np.take(ent, all_quads[:, 0], axis=0)
    o_emb = np.take(ent, all_quads[:, 2], axis=0)
    scores = np.sum(s_emb * o_emb * pseqs, axis=1)
    z = -labels * scores
    loss = float(np.mean(_softplus(z)))
    dscore = (-labels * _sigmoid(z)) / len(all_quads)

    grads.add_rows(
        "entity_emb",
        np.concatenate([all_quads[:, 0], all_quads[:, 2]]),
        np.concatenate([dscore[:, None] * o_emb * pseqs, dscore[:, None] * s_emb * pseqs]),
    )

    _backprop_pairs(params, cache, inverse, dscore[:, None] * s_emb * o_emb, grads)
    return loss, grads
