"""Language-model rescoring of candidate entities, with caching and mocks.

A handle turns one scoring prompt into response text; everything else
(prompt construction, parsing, fallback, the append-only cache) is shared, so
the remote client and the offline mocks exercise the exact same pipeline.
Scores live on a 0 to 100 scale.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graph import DataError, SyntheticRule, Vocabulary
from .models import Params, batch_candidate_scores, pair_encoding, score_quadruple

logger = logging.getLogger(__name__)

__all__ = [
    "LlmError",
    "LlmAuthError",
    "LlmTransportError",
    "LlmQuery",
    "LlmResult",
    "ScoreCache",
    "TeacherHandle",
    "RemoteTeacher",
    "EchoTeacher",
    "PlantedRuleTeacher",
    "NoiseTeacher",
    "make_query",
    "parse_scores",
    "cache_key",
    "score_query",
    "resolve_topk",
]

API_KEY_ENV = "TKGD_LLM_API_KEY"
MAX_PROMPT_CANDIDATES = 50
FALLBACK_SCORE = 50.0
# Longest wait, in seconds, that an HTTP 429 Retry-After header can impose.
MAX_RETRY_AFTER = 60.0

SYSTEM_PROMPT = (
    "You rate candidate completions of timestamped knowledge-graph facts. "
    "Answer only in the exact line format requested."
)


class LlmError(Exception):
    """Base error for language-model teacher failures."""


class LlmAuthError(LlmError):
    """The endpoint rejected our credentials."""


class LlmTransportError(LlmError):
    """The endpoint could not be reached or kept failing."""


@dataclass(frozen=True)
class LlmQuery:
    """One rendered scoring request.

    The unknown slot's name is '?'; candidates carry the entity names being
    rated, in prompt order.  prompt_hash identifies the prompt text alone;
    cache keys additionally mix in the model identifier.
    """

    subject: str
    relation: str
    object: str
    year: int
    slot: str
    candidates: tuple[str, ...]
    prompt: str
    prompt_hash: str


@dataclass
class LlmResult:
    """Scores for one query; usable is False when a parse fallback filled them."""

    scores: np.ndarray
    usable: bool
    cached: bool


def _sanitize(name: str) -> str:
    """name on one line, so the line protocol of the answer stays parseable."""
    return re.sub(r"[\t\r\n]+", " ", name)


# vocabulary -> (entity names, relation names) through _sanitize, filled on the vocabulary's first prompt
_FLAT_NAMES = weakref.WeakKeyDictionary()


def _flat_names(vocab: Vocabulary) -> tuple[list[str], list[str]]:
    names = _FLAT_NAMES.get(vocab)
    if names is None:
        names = _FLAT_NAMES[vocab] = (
            [_sanitize(n) for n in vocab.entity_names],
            [_sanitize(n) for n in vocab.relation_names],
        )
    return names


def make_query(quad, slot: str, candidate_ids: np.ndarray, vocab: Vocabulary) -> LlmQuery:
    """One query with its deterministic prompt text.

    Candidates are numbered from 1 in the order given.  At most 50 candidates
    fit one prompt.  Names are flattened to single lines, once per
    vocabulary, so the line protocol of the answer stays parseable.
    """
    return _query(quad, slot, vocab, *_render_prompt(quad, slot, candidate_ids, vocab))


def _render_prompt(quad, slot: str, candidate_ids: np.ndarray, vocab: Vocabulary) -> tuple[str, list[int]]:
    """make_query's prompt text and candidate ids, after its checks on slot and candidates."""
    if slot not in ("subject", "object"):
        raise ValueError(f"slot must be 'subject' or 'object', got {slot!r}")
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if candidate_ids.size == 0:
        raise ValueError("candidate list is empty")
    if candidate_ids.size > MAX_PROMPT_CANDIDATES:
        raise ValueError(f"{candidate_ids.size} candidates exceed the prompt limit of {MAX_PROMPT_CANDIDATES}")
    ids = candidate_ids.tolist()
    s, p, o, t = map(int, quad)
    flat_entities, flat_relations = _flat_names(vocab)
    year = vocab.time_buckets[t]
    numbered = "\n".join([f"{i}. {flat_entities[c]}" for i, c in enumerate(ids, start=1)])
    prompt = (
        "Fact with one unknown:\n"
        f"  subject: {'?' if slot == 'subject' else flat_entities[s]}\n"
        f"  relation: {flat_relations[p]}\n"
        f"  object: {'?' if slot == 'object' else flat_entities[o]}\n"
        f"  year: {year}\n"
        f"Rate how plausible each candidate is as the {slot}, from 0 (impossible) to 100 (certain).\n"
        f"Candidates:\n{numbered}\n"
        'Reply with one line per candidate, formatted "<index>: <integer score>". No other text.'
    )
    return prompt, ids


def _query(quad, slot: str, vocab: Vocabulary, prompt: str, ids: list[int]) -> LlmQuery:
    """The LlmQuery of a prompt _render_prompt gave for these arguments."""
    s, p, o, t = map(int, quad)
    return LlmQuery(
        subject="?" if slot == "subject" else vocab.entity_names[s],
        relation=vocab.relation_names[p],
        object="?" if slot == "object" else vocab.entity_names[o],
        year=int(vocab.time_buckets[t]),
        slot=slot,
        candidates=tuple([vocab.entity_names[c] for c in ids]),
        prompt=prompt,
        prompt_hash=hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
    )


# One score line of the answer, matched in all lines at once: parse_scores joins the
# lines with "\n", and [^\S\n] (whitespace but "\n") keeps each match inside its line.
_SCORE_LINE = re.compile(r"^[^\S\n]*(\d+)[^\S\n]*[:.)\-][^\S\n]*(-?\d+(?:\.\d+)?)[^\S\n]*$", re.MULTILINE)


def parse_scores(text: str, n_candidates: int) -> list[float] | None:
    """Extract per-candidate scores from response text.

    Lines look like '3: 78'; indices are 1-based prompt numbers.  Lines are
    those of str.splitlines.  Scores clamp into [0, 100], the first
    occurrence of an index wins, out-of-range indices are ignored, and
    missing candidates fall back to the 50 midpoint.  Returns None (parse
    failure) when fewer than half the candidates were matched.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be positive")
    scores: list[float | None] = [None] * n_candidates
    matched = 0
    for idx, score in _SCORE_LINE.findall("\n".join(text.splitlines())):
        i = int(idx) - 1
        if 0 <= i < n_candidates and scores[i] is None:
            v = float(score)
            scores[i] = 0.0 if v < 0.0 else 100.0 if v > 100.0 else v
            matched += 1
    if 2 * matched < n_candidates:
        return None
    return [FALLBACK_SCORE if v is None else v for v in scores]


def cache_key(model_id: str, prompt: str) -> str:
    h = hashlib.sha256()
    h.update(model_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


# json.dumps(record, sort_keys=True) builds a new encoder per call; this one is built once
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


class ScoreCache:
    """Append-only score cache, one JSON record per line.

    Reopening the same file replays every record, so a warmed cache answers
    repeat queries without any remote traffic.  Parse failures are cached
    too; a bad response is not retried on replay.  The first put opens one
    append handle, every record is flushed as it is written, and close()
    releases the handle.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[str, dict] = {}
        self._fh = None
        if self.path is not None and self.path.exists():
            with self.path.open("r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        rec = None
                    if isinstance(rec, dict) and isinstance(rec.get("key"), str):
                        self._records[rec["key"]] = rec
                    else:
                        logger.warning("%s:%d: skipping corrupt cache record", self.path, lineno)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, record: dict) -> None:
        self._records[record["key"]] = record
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(_RECORD_ENCODER.encode(record) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TeacherHandle:
    """Anything that answers a scoring prompt with text.

    calls counts completions actually executed; cache hits never reach the
    handle, so the counter doubles as the remote-traffic meter.
    """

    def __init__(self, model_id: str):
        self.model_id = model_id
        self.calls = 0

    def complete(self, query: LlmQuery) -> str:
        raise NotImplementedError


class RemoteTeacher(TeacherHandle):
    """Client for a chat-completions endpoint.

    The request carries the model name, a fixed system message plus the user
    prompt, and sampling temperature 0.  Transient failures retry up to
    max_retries times with exponential backoff; an HTTP 429 whose Retry-After
    header gives whole seconds waits that long instead (at most
    MAX_RETRY_AFTER).  An authentication failure (HTTP 401/403) raises
    LlmAuthError at once, since retrying the same credentials cannot help.
    The API key comes from the TKGD_LLM_API_KEY environment variable and
    nowhere else.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        min_interval: float = 0.0,
        backoff: float = 0.5,
    ):
        super().__init__(model_id)
        if not endpoint:
            raise ValueError("remote teacher needs an endpoint URL")
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_retries = max_retries
        self.min_interval = min_interval
        self.backoff = backoff
        self._last_request = 0.0

    def complete(self, query: LlmQuery) -> str:
        # requests is the slowest import in the package and only this client needs
        # it, so commands that never call a remote endpoint never load it
        import requests

        self.calls += 1
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model_id,
            "messages": [
                {"role": "system", "content": SYSTEM_PROMPT},
                {"role": "user", "content": query.prompt},
            ],
            "temperature": 0,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if self.min_interval > 0:
                wait = self._last_request + self.min_interval - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
            delay = self.backoff * (2.0**attempt)
            try:
                self._last_request = time.monotonic()
                resp = requests.post(self.endpoint, json=payload, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code in (401, 403):
                    raise LlmAuthError(f"authentication failed: endpoint returned HTTP {resp.status_code}")
                if resp.status_code >= 400:
                    last_error = LlmTransportError(f"endpoint returned HTTP {resp.status_code}")
                    retry_after = resp.headers.get("Retry-After", "").strip()
                    if resp.status_code == 429 and re.fullmatch(r"[0-9]+", retry_after):
                        delay = min(float(retry_after), MAX_RETRY_AFTER)
                else:
                    try:
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, LookupError, TypeError) as exc:
                        last_error = LlmTransportError(f"malformed completion payload: {exc}")
                    else:
                        if isinstance(content, str):
                            return content
                        last_error = LlmTransportError(
                            f"malformed completion payload: content is {type(content).__name__}, not a string"
                        )
            if attempt < self.max_retries - 1:
                time.sleep(delay)
        raise LlmTransportError(f"request failed after {self.max_retries} attempts: {last_error}")


def _render_lines(scores) -> str:
    return "\n".join(f"{i}: {float(v):.4f}" for i, v in enumerate(scores, start=1))


# _render_lines of a 0 or 100 score on every prompt line: _PLANTED_LINES[i][good] is line i + 1
_PLANTED_LINES = tuple(
    (f"{i}: {0.0:.4f}", f"{i}: {100.0:.4f}") for i in range(1, MAX_PROMPT_CANDIDATES + 1)
)


class EchoTeacher(TeacherHandle):
    """Mock that reproduces the task teacher's own scores, mapped to [0, 100].

    Useful for wiring tests: with this mock the alignment signal agrees with
    the teacher, so distillation with and without the language model should
    converge to the same place.
    """

    def __init__(self, teacher: Params, vocab: Vocabulary, model_id: str = "mock-echo"):
        super().__init__(model_id)
        self.teacher = teacher
        self.vocab = vocab

    def complete(self, query: LlmQuery) -> str:
        self.calls += 1
        vocab = self.vocab
        p = vocab.relation_id(query.relation)
        t = int(vocab.buckets_for_years([query.year])[0])
        raw = []
        for name in query.candidates:
            cid = vocab.entity_id(name)
            if query.slot == "object":
                quad = (vocab.entity_id(query.subject), p, cid, t)
            else:
                quad = (cid, p, vocab.entity_id(query.object), t)
            raw.append(score_quadruple(self.teacher, quad, vocab))
        raw = np.asarray(raw, dtype=np.float64)
        span = raw.max() - raw.min()
        if span == 0:
            mapped = np.full(raw.shape, FALLBACK_SCORE)
        else:
            mapped = 100.0 * (raw - raw.min()) / span
        return _render_lines(mapped)


class PlantedRuleTeacher(TeacherHandle):
    """Mock that knows the synthetic generator's planted pattern.

    Candidates satisfying the rule score 100, everything else 0.  This is the
    idealized judge: perfectly confident and perfectly right about the
    pattern, silent about noise facts.
    """

    def __init__(self, rule: SyntheticRule, model_id: str = "mock-planted"):
        super().__init__(model_id)
        self.rule = rule
        # entity name -> the rule's index for it, or None for a name the rule cannot read
        self._index: dict[str, int | None] = {}

    def _entity_index(self, name: str) -> int | None:
        try:
            return self._index[name]
        except KeyError:
            pass
        try:
            index = self.rule.entity_index(name)
        except (DataError, ValueError):
            index = None
        self._index[name] = index
        return index

    def complete(self, query: LlmQuery) -> str:
        """The text _render_lines gives for rule.matches of every candidate, 100 or 0."""
        self.calls += 1
        rule, candidates = self.rule, query.candidates
        offset = rule.offsets.get(query.relation)
        good = [False] * len(candidates)
        if offset is not None and query.slot == "object":
            s = self._entity_index(query.subject)
            if s is not None and s + offset < rule.n_entities:
                want = rule.entity_name(s + offset)
                good = [name == want for name in candidates]
        elif offset is not None:
            # e<s + offset> names the object exactly when the object is the canonical name of s + offset
            o = self._entity_index(query.object)
            if o is not None and o < rule.n_entities and rule.entity_name(o) == query.object:
                good = [self._entity_index(name) == o - offset for name in candidates]
        return "\n".join([_PLANTED_LINES[i][g] for i, g in enumerate(good)])


class NoiseTeacher(TeacherHandle):
    """Mock that answers with seeded noise, stable across runs and machines.

    Each query's scores derive from the seed and the prompt digest, so
    repeating a run replays identical noise without any shared state.
    """

    def __init__(self, seed: int, model_id: str = "mock-noise"):
        super().__init__(model_id)
        self.seed = int(seed)

    def complete(self, query: LlmQuery) -> str:
        self.calls += 1
        digest = hashlib.sha256(f"{self.seed}:{query.prompt_hash}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        return _render_lines(rng.integers(0, 101, size=len(query.candidates)).astype(np.float64))


# JSON numbers as json.loads returns them; bool is excluded on purpose
_NUMBER_TYPES = frozenset((int, float))


def score_query(
    handle: TeacherHandle,
    quad,
    slot: str,
    candidate_ids: np.ndarray,
    vocab: Vocabulary,
    cache: ScoreCache | None = None,
) -> LlmResult:
    """Scores for one query, through the cache when one is given.

    Cache hits never touch the handle, and only render the prompt for its
    cache key; the LlmQuery is built on a miss.  Unparseable responses fall back to
    uniform midpoint scores with usable = False so downstream losses can skip
    them; the failure is cached to keep replays deterministic.  A cached
    record whose scores are neither None nor a list of one number per
    candidate raises LlmError.
    """
    prompt, ids = _render_prompt(quad, slot, candidate_ids, vocab)
    key = cache_key(handle.model_id, prompt)
    record = cache.get(key) if cache is not None else None
    cached = record is not None
    n = len(ids)
    if record is None:
        lq = _query(quad, slot, vocab, prompt, ids)
        text = handle.complete(lq)
        parsed = parse_scores(text, n)
        if parsed is None:
            logger.warning("unparseable scores for prompt %s; using midpoint fallback", lq.prompt_hash[:12])
        record = {
            "key": key,
            "prompt_hash": lq.prompt_hash,
            "model": handle.model_id,
            "response": text,
            "scores": parsed,
            "parse_failed": parsed is None,
            "created": datetime.now(timezone.utc).isoformat(),
        }
        if cache is not None:
            cache.put(record)
    scores = record.get("scores")
    if cached and scores is not None and not (
        type(scores) is list and len(scores) == n and _NUMBER_TYPES.issuperset(map(type, scores))
    ):
        raise LlmError(f"cache record {key[:12]}: scores must be a list of {n} numbers, got {scores!r:.60}")
    if record.get("parse_failed") or scores is None:
        return LlmResult(scores=np.full(n, FALLBACK_SCORE), usable=False, cached=cached)
    return LlmResult(scores=np.asarray(scores, dtype=np.float64), usable=True, cached=cached)


def resolve_topk(
    handle: TeacherHandle,
    teacher: Params,
    vocab: Vocabulary,
    quads: np.ndarray,
    slots,
    k: int,
    block: int,
    cache: ScoreCache | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Language-model scores of the teacher's top-k candidates, one row per query.

    Query i asks for slot slots[i] of quads[i].  The teacher scores the
    queries in blocks of `block` rows, which bounds the scorer's temporaries.
    A block is encoded once (models.pair_encoding) and scored per slot, and
    each row keeps the k best candidates of its slot in stable order.  Every
    query then goes through score_query in row order, so the cache sees the
    same lookups and writes as one query at a time would give.  Returns the
    (n, k) candidate ids, their (n, k) scores, the (n,) usable mask and the
    number of queries answered from the cache.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    slots = np.asarray(slots, dtype=object)
    quad_rows, slot_names = quads.tolist(), slots.tolist()
    n, k = len(quads), min(k, vocab.n_entities)
    candidates = np.zeros((n, k), dtype=np.int64)
    scores = np.empty((n, k), dtype=np.float64)
    usable = np.empty(n, dtype=bool)
    hits = 0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        block_quads = quads[lo:hi]
        encoding = pair_encoding(teacher, vocab, block_quads)
        for slot in ("subject", "object"):
            sel = np.flatnonzero(slots[lo:hi] == slot)
            if sel.size:
                t_scores = batch_candidate_scores(teacher, vocab, block_quads, slot, encoding)[sel]
                candidates[lo + sel] = np.argsort(-t_scores, axis=1, kind="stable")[:, :k]
        for i in range(lo, hi):
            result = score_query(handle, quad_rows[i], slot_names[i], candidates[i], vocab, cache=cache)
            scores[i] = result.scores
            usable[i] = result.usable
            hits += int(result.cached)
    return candidates, scores, usable, hits
