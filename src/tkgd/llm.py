"""Language-model rescoring of candidate entities, with caching and mocks.

A handle turns one scoring prompt into response text; everything else
(prompt construction, parsing, fallback, the append-only cache) is shared, so
the remote client and the offline mocks exercise the exact same pipeline.
Scores live on a 0 to 100 scale.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graph import SyntheticRule, Vocabulary
from .models import Params, batch_candidate_scores, score_quadruple

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
    "build_prompt",
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


@functools.lru_cache(maxsize=65536)
def _sanitize(name: str) -> str:
    """name on one line; cached, since every prompt repeats the same few names."""
    return re.sub(r"[\t\r\n]+", " ", name)


def build_prompt(quad, slot: str, candidate_ids: np.ndarray, vocab: Vocabulary) -> str:
    """Deterministic prompt text for one query.

    Candidates are numbered from 1 in the order given.  At most 50 candidates
    fit one prompt.  Names are flattened to single lines so the line protocol
    of the answer stays parseable.
    """
    if slot not in ("subject", "object"):
        raise ValueError(f"slot must be 'subject' or 'object', got {slot!r}")
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if candidate_ids.size == 0:
        raise ValueError("candidate list is empty")
    if candidate_ids.size > MAX_PROMPT_CANDIDATES:
        raise ValueError(f"{candidate_ids.size} candidates exceed the prompt limit of {MAX_PROMPT_CANDIDATES}")
    s, p, o, t = (int(v) for v in quad)
    subject = "?" if slot == "subject" else _sanitize(vocab.entity_names[s])
    objekt = "?" if slot == "object" else _sanitize(vocab.entity_names[o])
    relation = _sanitize(vocab.relation_names[p])
    year = vocab.time_buckets[t]
    lines = [
        "Fact with one unknown:",
        f"  subject: {subject}",
        f"  relation: {relation}",
        f"  object: {objekt}",
        f"  year: {year}",
        f"Rate how plausible each candidate is as the {slot}, "
        "from 0 (impossible) to 100 (certain).",
        "Candidates:",
    ]
    for i, cid in enumerate(candidate_ids, start=1):
        lines.append(f"{i}. {_sanitize(vocab.entity_names[int(cid)])}")
    lines.append('Reply with one line per candidate, formatted "<index>: <integer score>". No other text.')
    return "\n".join(lines)


def make_query(quad, slot: str, candidate_ids: np.ndarray, vocab: Vocabulary) -> LlmQuery:
    prompt = build_prompt(quad, slot, candidate_ids, vocab)
    s, p, o, t = (int(v) for v in quad)
    return LlmQuery(
        subject="?" if slot == "subject" else vocab.entity_names[s],
        relation=vocab.relation_names[p],
        object="?" if slot == "object" else vocab.entity_names[o],
        year=int(vocab.time_buckets[t]),
        slot=slot,
        candidates=tuple(vocab.entity_names[int(c)] for c in np.asarray(candidate_ids, dtype=np.int64)),
        prompt=prompt,
        prompt_hash=hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
    )


_SCORE_LINE = re.compile(r"^\s*(\d+)\s*[:.)\-]\s*(-?\d+(?:\.\d+)?)\s*$")


def parse_scores(text: str, n_candidates: int) -> list[float] | None:
    """Extract per-candidate scores from response text.

    Lines look like '3: 78'; indices are 1-based prompt numbers.  Scores
    clamp into [0, 100], the first occurrence of an index wins, out-of-range
    indices are ignored, and missing candidates fall back to the 50 midpoint.
    Returns None (parse failure) when fewer than half the candidates were
    matched.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be positive")
    found: dict[int, float] = {}
    for line in text.splitlines():
        m = _SCORE_LINE.match(line)
        if m is None:
            continue
        idx = int(m.group(1))
        if not (1 <= idx <= n_candidates) or idx in found:
            continue
        found[idx] = min(max(float(m.group(2)), 0.0), 100.0)
    if 2 * len(found) < n_candidates:
        return None
    return [found.get(i, FALLBACK_SCORE) for i in range(1, n_candidates + 1)]


def cache_key(model_id: str, prompt: str) -> str:
    h = hashlib.sha256()
    h.update(model_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


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
                        self._records[rec["key"]] = rec
                    except (json.JSONDecodeError, KeyError):
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
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
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
                        return resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError) as exc:
                        last_error = LlmTransportError(f"malformed completion payload: {exc}")
            if attempt < self.max_retries - 1:
                time.sleep(delay)
        raise LlmTransportError(f"request failed after {self.max_retries} attempts: {last_error}")


def _render_lines(scores) -> str:
    return "\n".join(f"{i}: {float(v):.4f}" for i, v in enumerate(scores, start=1))


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
        t = vocab.bucket_for_year(query.year)
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

    def complete(self, query: LlmQuery) -> str:
        self.calls += 1
        scores = []
        for name in query.candidates:
            if query.slot == "object":
                good = self.rule.matches(query.subject, query.relation, name)
            else:
                good = self.rule.matches(name, query.relation, query.object)
            scores.append(100.0 if good else 0.0)
        return _render_lines(scores)


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


def score_query(
    handle: TeacherHandle,
    quad,
    slot: str,
    candidate_ids: np.ndarray,
    vocab: Vocabulary,
    cache: ScoreCache | None = None,
) -> LlmResult:
    """Scores for one query, through the cache when one is given.

    Cache hits never touch the handle.  Unparseable responses fall back to
    uniform midpoint scores with usable = False so downstream losses can skip
    them; the failure is cached to keep replays deterministic.
    """
    lq = make_query(quad, slot, candidate_ids, vocab)
    key = cache_key(handle.model_id, lq.prompt)
    record = cache.get(key) if cache is not None else None
    cached = record is not None
    if record is None:
        text = handle.complete(lq)
        parsed = parse_scores(text, len(lq.candidates))
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
    if record.get("parse_failed") or record.get("scores") is None:
        return LlmResult(
            scores=np.full(len(lq.candidates), FALLBACK_SCORE), usable=False, cached=cached
        )
    return LlmResult(scores=np.asarray(record["scores"], dtype=np.float64), usable=True, cached=cached)


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
    queries in blocks of `block` rows, which bounds the scorer's temporaries,
    and each row keeps its k best candidates in stable order.  Every query
    then goes through score_query in row order, so the cache sees the same
    lookups and writes as one query at a time would give.  Returns the (n, k)
    candidate ids, their (n, k) scores, the (n,) usable mask and the number
    of queries answered from the cache.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    slots = np.asarray(slots, dtype=object)
    n, k = len(quads), min(k, vocab.n_entities)
    candidates = np.zeros((n, k), dtype=np.int64)
    scores = np.empty((n, k), dtype=np.float64)
    usable = np.empty(n, dtype=bool)
    hits = 0
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        for slot in ("subject", "object"):
            sel = rows[slots[rows] == slot]
            if sel.size:
                t_scores = batch_candidate_scores(teacher, vocab, quads[sel], slot)
                candidates[sel] = np.argsort(-t_scores, axis=1, kind="stable")[:, :k]
        for i in rows:
            result = score_query(handle, quads[i], slots[i], candidates[i], vocab, cache=cache)
            scores[i] = result.scores
            usable[i] = result.usable
            hits += int(result.cached)
    return candidates, scores, usable, hits
