"""Prompt construction, response parsing, caching and the teacher mocks."""
import hashlib
import http.server
import importlib
import json
import logging
import random
import re
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from tkgd.distill import huber_alignment_loss, minmax_normalize
from tkgd import llm
from tkgd.graph import SyntheticRule, Vocabulary, generate_synthetic
from tkgd.llm import (
    API_KEY_ENV,
    EchoTeacher,
    LlmAuthError,
    LlmError,
    LlmQuery,
    LlmTransportError,
    NoiseTeacher,
    PlantedRuleTeacher,
    RemoteTeacher,
    ScoreCache,
    TeacherHandle,
    cache_key,
    make_query,
    parse_scores,
    resolve_topk,
    score_query,
)
from tkgd.models import TTransEParams, batch_candidate_scores, encode_queries, init_params, score_quadruple
from tkgd.numerics import ParamTensor


class _CannedTeacher(TeacherHandle):
    """Test double that returns a fixed response string."""

    def __init__(self, text, model_id="canned"):
        super().__init__(model_id)
        self.text = text

    def complete(self, query):
        self.calls += 1
        return self.text


@contextmanager
def _local_endpoint(status, body, headers=None):
    """Tiny throwaway HTTP server so the remote client is tested for real.

    body is the bytes of every response, or a list with the bytes of each
    request's response in turn.
    """
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            n = int(self.headers.get("Content-Length", 0))
            seen.append((dict(self.headers), json.loads(self.rfile.read(n) or b"{}")))
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body if isinstance(body, bytes) else body[len(seen) - 1])

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/chat", seen
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


# Names with every character the prompt flattens, and some it keeps, for the prompt tests.
_MESSY_ENTITIES = [
    "tab\there", "new\nline", "crlf\r\nname", "Zürich", "東京 タワー", "runs \t\r\n\n of\tspace",
    "vt\x0bff\x0cfs\x1c", "nel\x85ls\u2028",
] + [f"e{i}" for i in range(52)]
_MESSY_RELATIONS = ["born\tin", "line\r\nbreak", "größer als"]

# (quad, candidate ids, {slot: (prompt_hash, cache_key("mock-planted", prompt))}) over the messy
# vocabulary, as the prompt code of earlier releases rendered them.  Every cache written so far is
# keyed by these bytes: if they drift, no existing cache replays.
_PINNED_PROMPTS = [
    ((0, 1, 3, 0), [5], {
        "subject": ("4c6c3bdbdd06fe534d5c61d71addcec16bee7cf284701ed208f70f42094b5f03",
                    "94de0a010df5182a86dd6e9c25c96678b5360c1608907c18515d354cbba1235b"),
        "object": ("ede8bd72e9e51cd2c2e73bdaa716fb67383600fe850e9814bad267eccbb82b47",
                   "66987854d5c2643d670dd4fa8f3f6ccb29c0677710d44be1c64bd988344be608"),
    }),
    ((4, 0, 1, 1), list(range(10)), {
        "subject": ("50af17cf9cde0d7eb60f053c1f33989e43948c471d77dedd86ad6f2bd86d90d1",
                    "4d6e1f884cbaae4ce5aae41e4ab94688b001e2691205bb1e08e4ee7ecf92ae59"),
        "object": ("1867d05fd022ee9fa1bf34c0e307de3c1dc8894639d29977a075001a48922037",
                   "5ba13d53f9e78534fcb70114485573dbfd680a2b518d6e86b04bff42d7d47e29"),
    }),
    ((2, 2, 7, 1), [16, 27, 20, 8, 42, 34, 51, 4, 52, 57, 10, 2, 44, 23, 24, 43, 11, 35, 30, 18, 54, 3, 1, 55, 17,
                    21, 36, 0, 28, 6, 19, 48, 22, 26, 37, 46, 58, 32, 25, 53, 9, 38, 47, 50, 40, 13, 12, 7, 45, 39], {
        "subject": ("ef97c75b7ffea5695bc87b4cff4e6a60900a07fc5674029d1ce0596e54a4462b",
                    "b7a42b94a257ff82f706d637391087d096f2b8354155745034f108aaebb3dff6"),
        "object": ("839e7604dec21f4b87fab3e29c86236a3d2dfa9d89397aac784797d169e69949",
                   "d7c6ef00cf7c01281127d7c17b3709dd7e0267f7f09c269ff7096921c041eac8"),
    }),
]


def _reference_prompt(quad, slot, candidate_ids, vocab):
    """The prompt as earlier releases built it: one re.sub per name per prompt."""

    def flat(name):
        return re.sub(r"[\t\r\n]+", " ", name)

    s, p, o, t = (int(v) for v in quad)
    lines = [
        "Fact with one unknown:",
        f"  subject: {'?' if slot == 'subject' else flat(vocab.entity_names[s])}",
        f"  relation: {flat(vocab.relation_names[p])}",
        f"  object: {'?' if slot == 'object' else flat(vocab.entity_names[o])}",
        f"  year: {vocab.time_buckets[t]}",
        f"Rate how plausible each candidate is as the {slot}, from 0 (impossible) to 100 (certain).",
        "Candidates:",
    ]
    lines += [f"{i}. {flat(vocab.entity_names[int(c)])}" for i, c in enumerate(candidate_ids, start=1)]
    lines.append('Reply with one line per candidate, formatted "<index>: <integer score>". No other text.')
    return "\n".join(lines)


class TestPrompt:
    def test_prompt_bytes_and_cache_keys_pinned(self):
        vocab = Vocabulary(_MESSY_ENTITIES, _MESSY_RELATIONS, [1899, 2024])
        for quad, cands, pins in _PINNED_PROMPTS:
            for slot, (prompt_hash, key) in pins.items():
                q = make_query(quad, slot, np.array(cands), vocab)
                assert (q.prompt_hash, cache_key("mock-planted", q.prompt)) == (prompt_hash, key), (len(cands), slot)

    def test_matches_reference_on_random_queries(self):
        rng = random.Random(5)
        alphabet = "ab é東\t\n\r\x0b\x0c\x1c\x85\u2028"
        names = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8))) for _ in range(400)}
        vocab = Vocabulary(sorted(names)[:120], sorted(names)[120:126], [1900, 1950, 2000])
        for _ in range(2000):
            quad = (rng.randrange(120), rng.randrange(6), rng.randrange(120), rng.randrange(3))
            slot = rng.choice(("subject", "object"))
            cands = np.array(rng.sample(range(120), rng.randint(1, 50)))
            q = make_query(np.array(quad), slot, cands, vocab)
            assert q.prompt == _reference_prompt(quad, slot, cands, vocab)
            assert q.candidates == tuple(vocab.entity_names[c] for c in cands)
            assert (q.subject == "?") == (slot == "subject") and (q.object == "?") == (slot == "object")

    def test_names_flattened_once_per_vocabulary(self, monkeypatch):
        flattened = []
        sanitize = llm._sanitize
        monkeypatch.setattr(llm, "_sanitize", lambda name: flattened.append(name) or sanitize(name))
        vocab = Vocabulary(_MESSY_ENTITIES, _MESSY_RELATIONS, [1899, 2024])
        for quad, cands, _ in _PINNED_PROMPTS * 3:
            make_query(quad, "object", np.array(cands), vocab)
        assert sorted(flattened) == sorted(_MESSY_ENTITIES + _MESSY_RELATIONS)
        assert not hasattr(sanitize, "cache_info")  # no per-name memo either

    def test_deterministic_bytes_and_hash(self, tiny_vocab):
        quad = (0, 1, 2, 1)
        cands = np.array([0, 1, 2, 3])
        a = make_query(quad, "object", cands, tiny_vocab).prompt
        q = make_query(quad, "object", cands, tiny_vocab)
        assert q.prompt == a
        assert q.prompt_hash == hashlib.sha256(a.encode("utf-8")).hexdigest()

    def test_unknown_slot_is_question_mark(self, tiny_vocab):
        cands = np.array([0, 1])
        obj = make_query((0, 1, 2, 0), "object", cands, tiny_vocab)
        assert obj.object == "?"
        assert obj.subject == "e0"
        assert "object: ?" in obj.prompt
        assert "subject: e0" in obj.prompt
        sub = make_query((0, 1, 2, 0), "subject", cands, tiny_vocab)
        assert sub.subject == "?"
        assert "subject: ?" in sub.prompt
        assert "object: e2" in sub.prompt

    def test_candidates_numbered_from_one(self):
        vocab = Vocabulary([f"e{i}" for i in range(12)], ["r0"], [2000])
        prompt = make_query((0, 0, 1, 0), "object", np.arange(10), vocab).prompt
        lines = prompt.splitlines()
        numbered = [ln for ln in lines if ln and ln[0].isdigit()]
        assert numbered == [f"{i + 1}. e{i}" for i in range(10)]
        assert "year: 2000" in prompt

    def test_messy_names_flattened_to_one_line(self):
        vocab = Vocabulary(["tab\there", "new\nline", "plain"], ["r\t0"], [1990])
        prompt = make_query((0, 0, 1, 0), "object", np.array([0, 1, 2]), vocab).prompt
        assert "tab here" in prompt
        assert "new line" in prompt
        assert "r 0" in prompt
        numbered = [ln for ln in prompt.splitlines() if ln and ln[0].isdigit()]
        assert len(numbered) == 3

    def test_candidate_count_limits(self, tiny_vocab):
        with pytest.raises(ValueError):
            make_query((0, 0, 1, 0), "object", np.array([], dtype=np.int64), tiny_vocab)
        with pytest.raises(ValueError):
            make_query((0, 0, 1, 0), "object", np.zeros(51, dtype=np.int64), tiny_vocab)
        with pytest.raises(ValueError):
            make_query((0, 0, 1, 0), "both", np.array([0]), tiny_vocab)


_REFERENCE_SCORE_LINE = re.compile(r"^\s*(\d+)\s*[:.)\-]\s*(-?\d+(?:\.\d+)?)\s*$")


def _reference_parse_scores(text, n_candidates):
    """parse_scores as earlier releases wrote it: one regex match per line."""
    found = {}
    for line in text.splitlines():
        m = _REFERENCE_SCORE_LINE.match(line)
        if m is None:
            continue
        idx = int(m.group(1))
        if not (1 <= idx <= n_candidates) or idx in found:
            continue
        found[idx] = min(max(float(m.group(2)), 0.0), 100.0)
    if 2 * len(found) < n_candidates:
        return None
    return [found.get(i, 50.0) for i in range(1, n_candidates + 1)]


# line breaks of str.splitlines, other whitespace, Unicode digits (Arabic-Indic 3 and 5,
# Devanagari 1, fullwidth 0), the separators and signs
_FUZZ_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
_FUZZ_SPACES = [" ", " ", "\t", "\x1f", "\xa0", "\u3000"] + _FUZZ_BREAKS
_FUZZ_DIGITS = ["\u0663", "\u0665", "\u0967", "\uff10"]
_FUZZ_ALPHABET = _FUZZ_SPACES + _FUZZ_DIGITS + list(":.)-+,=ab")


def _fuzz_text(rng):
    def odd(usual, *others):
        return usual if rng.random() < 0.9 else rng.choice(others)

    def spaces():
        return odd("", " ", "  ", *_FUZZ_SPACES, rng.choice(_FUZZ_SPACES) + rng.choice(_FUZZ_SPACES))

    def digits(n):
        return "".join(odd(rng.choice("0123456789"), *_FUZZ_DIGITS) for _ in range(n))

    parts = []
    for _ in range(rng.randint(0, 9)):
        if rng.random() < 0.9:
            index = odd(str(rng.randint(1, 6)), "", "0", "7", "10", "\u0663", "0\uff13", digits(2))
            sep = odd(rng.choice(":::.)-"), "", "=", ",", "::", ": -")
            sign = odd("", "-", "+", "--", "-" + rng.choice(_FUZZ_SPACES))
            score = odd(digits(rng.randint(1, 3)), "", "\u0663", "1" * 400)
            frac = odd("", ".", "..5", "." + digits(rng.randint(1, 3)), ".x") if rng.random() < 0.3 else ""
            parts += [spaces(), index, spaces(), sep, spaces(), sign, score, frac, spaces()]
        else:
            parts.append("".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, 10))))
        parts.append(rng.choice(_FUZZ_BREAKS))
    if parts and rng.random() < 0.5:
        parts.pop()  # no line break after the last line
    return "".join(parts)


class TestParseScores:
    def test_matches_per_line_reference_on_fuzzed_texts(self):
        rng = random.Random(20260419)
        parsed = 0
        for _ in range(50_000):
            text, n = _fuzz_text(rng), rng.randint(1, 6)
            want = _reference_parse_scores(text, n)
            assert repr(parse_scores(text, n)) == repr(want), (text, n)  # repr tells -0.0 from 0.0
            parsed += want is not None
        assert 5_000 < parsed < 45_000  # the texts exercise both outcomes

    def test_well_formed(self):
        assert parse_scores("1: 10\n2: 20\n3: 30", 3) == [10.0, 20.0, 30.0]

    def test_accepts_common_separators_and_floats(self):
        text = "1: 50.5\n2. 30\n3) 70\n4 - 10"
        assert parse_scores(text, 4) == [50.5, 30.0, 70.0, 10.0]

    def test_clamps_into_range(self):
        assert parse_scores("1: 150\n2: -9", 2) == [100.0, 0.0]

    def test_first_occurrence_wins(self):
        assert parse_scores("1: 10\n1: 90\n2: 40", 2) == [10.0, 40.0]

    def test_out_of_range_index_ignored(self):
        assert parse_scores("1: 10\n7: 99", 2) == [10.0, 50.0]

    def test_prose_around_lines_tolerated(self):
        text = "Sure, here are my ratings:\n1: 80\n2: 20\nHope this helps."
        assert parse_scores(text, 2) == [80.0, 20.0]

    def test_half_coverage_fills_midpoint(self):
        assert parse_scores("2: 70\n4: 10", 4) == [50.0, 70.0, 50.0, 10.0]

    def test_below_half_coverage_is_failure(self):
        assert parse_scores("1: 70", 4) is None
        assert parse_scores("", 1) is None
        assert parse_scores("the moon is nice", 3) is None

    def test_rejects_zero_candidates(self):
        with pytest.raises(ValueError):
            parse_scores("1: 10", 0)


class TestCacheKey:
    def test_model_id_separates_keys(self):
        assert cache_key("model-a", "same prompt") != cache_key("model-b", "same prompt")

    def test_prompt_separates_keys(self):
        assert cache_key("m", "prompt one") != cache_key("m", "prompt two")

    def test_stable(self):
        assert cache_key("m", "p") == cache_key("m", "p")

    def test_no_concatenation_collision(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")


class TestScoreCache:
    def test_in_memory_round_trip(self):
        cache = ScoreCache()
        assert len(cache) == 0
        cache.put({"key": "k1", "scores": [1.0]})
        assert len(cache) == 1
        assert cache.get("k1")["scores"] == [1.0]
        assert cache.get("nope") is None

    def test_file_replay(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ScoreCache(path)
        cache.put({"key": "a", "scores": [1.0], "parse_failed": False})
        cache.put({"key": "b", "scores": None, "parse_failed": True})
        reopened = ScoreCache(path)
        assert len(reopened) == 2
        assert reopened.get("a")["scores"] == [1.0]
        assert reopened.get("b")["parse_failed"] is True

    def test_put_after_close_appends(self, tmp_path):
        path = tmp_path / "sub" / "cache.jsonl"
        cache = ScoreCache(path)
        cache.put({"key": "a", "scores": [1.0]})
        cache.close()
        cache.put({"key": "b", "scores": [2.0]})
        cache.close()
        assert [json.loads(line)["key"] for line in path.read_text().splitlines()] == ["a", "b"]

    def test_non_object_lines_and_bad_keys_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        bad = ["[1]", '"abc"', "null", "17", '{"key": [1]}', '{"key": null}', '{"scores": [1.0]}']
        lines = [json.dumps({"key": "good", "scores": [2.0]}), *bad]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="tkgd.llm"):
            cache = ScoreCache(path)
        assert len(cache) == 1
        assert cache.get("good")["scores"] == [2.0]
        skipped = [r.getMessage() for r in caplog.records if "skipping corrupt cache record" in r.getMessage()]
        assert skipped == [f"{path}:{i}: skipping corrupt cache record" for i in range(2, 2 + len(bad))]

    def test_record_bytes_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ScoreCache(path)
        record = {"scores": [1.0, 0.5], "key": "é", "parse_failed": False, "b": None, "a": "x\ny"}
        cache.put(record)
        cache.close()
        assert path.read_text(encoding="utf-8") == json.dumps(record, sort_keys=True) + "\n"

    def test_corrupt_line_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ScoreCache(path)
        cache.put({"key": "good", "scores": [2.0]})
        with path.open("a") as fh:
            fh.write("{this is not json\n")
        reopened = ScoreCache(path)
        assert len(reopened) == 1
        assert reopened.get("good")["scores"] == [2.0]


class TestScoreQuery:
    def test_cache_hit_skips_handle(self, tiny_vocab):
        teacher = init_params("ttranse", 4, 4, 2, 2, seed=0)
        handle = EchoTeacher(teacher, tiny_vocab)
        cache = ScoreCache()
        cands = np.array([0, 1, 2, 3])
        first = score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        assert handle.calls == 1
        assert first.cached is False
        second = score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        assert handle.calls == 1
        assert second.cached is True
        assert np.array_equal(first.scores, second.scores)

    def test_cache_hit_builds_no_query(self, tiny_vocab, monkeypatch):
        # a hit renders the prompt for its key and builds no LlmQuery; the checks still run
        handle = _CannedTeacher("1: 10\n2: 20")
        cache = ScoreCache()
        cands = np.array([0, 1])
        first = score_query(handle, (0, 0, 1, 0), "subject", cands, tiny_vocab, cache=cache)
        record = cache.get(cache_key("canned", make_query((0, 0, 1, 0), "subject", cands, tiny_vocab).prompt))
        assert record["prompt_hash"] == make_query((0, 0, 1, 0), "subject", cands, tiny_vocab).prompt_hash
        monkeypatch.setattr(llm, "LlmQuery", None)
        again = score_query(handle, (0, 0, 1, 0), "subject", cands, tiny_vocab, cache=cache)
        assert again.cached and again.scores.tolist() == first.scores.tolist() == [10.0, 20.0]
        with pytest.raises(ValueError, match="candidate list is empty"):
            score_query(handle, (0, 0, 1, 0), "subject", cands[:0], tiny_vocab, cache=cache)
        with pytest.raises(ValueError, match="slot must be"):
            score_query(handle, (0, 0, 1, 0), "both", cands, tiny_vocab, cache=cache)

    def test_parse_failure_fallback_and_caching(self, tiny_vocab):
        handle = _CannedTeacher("no scores in here at all")
        cache = ScoreCache()
        cands = np.array([0, 1, 2])
        result = score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        assert result.usable is False
        assert np.all(result.scores == 50.0)
        assert cache.get(cache_key("canned", make_query((0, 0, 1, 0), "object", cands, tiny_vocab).prompt))[
            "parse_failed"
        ]
        again = score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        assert handle.calls == 1  # the failure replays from cache
        assert again.usable is False

    @pytest.mark.parametrize(
        "bad",
        [[1.0, 2.0], [1, 2, 3, 4], "abc", [1, "2", 3], [True, 0, 1], {"1": 1}, 7],
        ids=["short", "long", "string", "string-item", "bool-item", "object", "number"],
    )
    def test_malformed_cached_scores_raise(self, tiny_vocab, bad):
        handle = _CannedTeacher("1: 10\n2: 20\n3: 30")
        cache = ScoreCache()
        cands = np.arange(3)
        score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        key = cache_key("canned", make_query((0, 0, 1, 0), "object", cands, tiny_vocab).prompt)
        cache.put({**cache.get(key), "scores": bad})
        with pytest.raises(LlmError, match=f"cache record {key[:12]}: scores must be a list of 3 numbers"):
            score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        cache.put({**cache.get(key), "scores": [0, 50, 99.5]})  # ints are numbers too
        again = score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab, cache=cache)
        assert again.usable and again.scores.tolist() == [0.0, 50.0, 99.5]
        assert handle.calls == 1

    def test_no_cache_calls_every_time(self, tiny_vocab):
        handle = _CannedTeacher("1: 10\n2: 20")
        cands = np.array([0, 1])
        score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab)
        score_query(handle, (0, 0, 1, 0), "object", cands, tiny_vocab)
        assert handle.calls == 2


class TestResolveTopk:
    def test_matches_one_query_at_a_time(self):
        """Block scoring gives each query the shortlist, scores and cache hits of a per-query loop."""
        ds = generate_synthetic(12, 3, 5, 40, 0.9, seed=7)
        vocab = ds.vocab
        teacher = init_params("ttranse", 8, vocab.n_entities, 3, len(vocab.time_buckets), seed=0)
        quads = np.repeat(ds.train[[0, 1, 0, 2, 3, 1, 4]], 2, axis=0)  # repeated facts hit the cache
        slots = ["subject", "object"] * 7
        handle = NoiseTeacher(3)
        cands, scores, usable, hits = resolve_topk(
            handle, teacher, vocab, quads, slots, 5, block=3, cache=ScoreCache()
        )
        ref_cache, ref = ScoreCache(), []
        for quad, slot in zip(quads, slots):
            teacher_scores = batch_candidate_scores(teacher, encode_queries(teacher, vocab, quad), slot)[0]
            top = np.argsort(-teacher_scores, kind="stable")[:5]
            ref.append((top, score_query(handle, quad, slot, top, vocab, cache=ref_cache)))
        assert np.array_equal(cands, [top for top, _ in ref])
        assert np.array_equal(scores, [res.scores for _, res in ref])
        assert usable.tolist() == [res.usable for _, res in ref]
        assert hits == sum(res.cached for _, res in ref) > 0

    def test_unusable_rows_masked(self, tiny_vocab):
        teacher = init_params("ttranse", 4, 4, 2, 2, seed=0)
        quads = np.array([[0, 0, 1, 0], [2, 1, 3, 1]])
        cands, scores, usable, hits = resolve_topk(
            _CannedTeacher("no scores"), teacher, tiny_vocab, quads, ["object", "subject"], 10, block=1
        )
        assert cands.shape == scores.shape == (2, 4)  # k is capped at the entity count
        assert not usable.any()
        assert np.all(scores == 50.0)
        assert hits == 0


    def test_one_encoder_forward_per_block(self, monkeypatch):
        """A recurrent teacher's block is encoded once, for both slots, and shortlists as one query at a time does."""
        models_module = importlib.import_module("tkgd.models")
        ds = generate_synthetic(12, 3, 5, 40, 0.9, seed=7)
        vocab = ds.vocab
        teacher = init_params("tadistmult", 8, vocab.n_entities, 3, len(vocab.time_buckets), seed=0)
        quads = np.repeat(ds.train[:7], 2, axis=0)
        slots = ["subject", "object"] * 7
        ref = []
        for quad, slot in zip(quads, slots):
            teacher_scores = batch_candidate_scores(teacher, encode_queries(teacher, vocab, quad), slot)[0]
            ref.append(np.argsort(-teacher_scores, kind="stable")[:5])
        forwards = []
        original = models_module.lstm_forward

        def counted(tokens, params):
            forwards.append(len(tokens))
            return original(tokens, params)

        monkeypatch.setattr(models_module, "lstm_forward", counted)
        cands, _, _, _ = resolve_topk(NoiseTeacher(3), teacher, vocab, quads, slots, 5, block=4)
        assert np.array_equal(cands, ref)
        assert len(forwards) == 4  # 14 rows in blocks of 4, one forward per block


class TestEchoTeacher:
    def test_scores_span_the_scale(self, tiny_vocab):
        teacher = init_params("ttranse", 4, 4, 2, 2, seed=1)
        handle = EchoTeacher(teacher, tiny_vocab)
        result = score_query(handle, (0, 1, 2, 1), "object", np.arange(4), tiny_vocab)
        assert result.usable
        assert result.scores.min() == 0.0
        assert result.scores.max() == 100.0

    def test_agrees_with_teacher_after_normalization(self, tiny_vocab):
        teacher = init_params("ttranse", 4, 4, 2, 2, seed=1)
        handle = EchoTeacher(teacher, tiny_vocab)
        cands = np.arange(4)
        quad = (0, 1, 2, 1)
        result = score_query(handle, quad, "object", cands, tiny_vocab)
        raw = np.array([score_quadruple(teacher, (0, 1, int(c), 1), tiny_vocab) for c in cands])
        llm_norm, _ = minmax_normalize(result.scores)
        teach_norm, _ = minmax_normalize(raw)
        loss, _ = huber_alignment_loss(llm_norm, teach_norm)
        assert loss < 1e-10

    def test_flat_teacher_gives_midpoints(self, tiny_vocab):
        zeros = ParamTensor(np.zeros((4, 2), dtype=np.float32))
        teacher = TTransEParams(
            entity_emb=zeros,
            relation_emb=ParamTensor(np.zeros((2, 2), dtype=np.float32)),
            time_emb=ParamTensor(np.zeros((2, 2), dtype=np.float32)),
        )
        handle = EchoTeacher(teacher, tiny_vocab)
        result = score_query(handle, (0, 0, 1, 0), "object", np.arange(4), tiny_vocab)
        assert np.all(result.scores == 50.0)


class TestPlantedRuleTeacher:
    def test_perfect_on_planted_pattern(self):
        ds = generate_synthetic(30, 2, 3, 50, 1.0, seed=3)
        handle = PlantedRuleTeacher(ds.rule)
        vocab = ds.vocab
        cands = np.arange(vocab.n_entities)
        for row in ds.train[:5]:
            s, p, o, t = (int(v) for v in row)
            res_o = score_query(handle, (s, p, o, t), "object", cands, vocab)
            assert res_o.scores[o] == 100.0
            assert np.sum(res_o.scores == 100.0) == 1
            res_s = score_query(handle, (s, p, o, t), "subject", cands, vocab)
            assert res_s.scores[s] == 100.0


def _reference_planted_answer(rule, query):
    """PlantedRuleTeacher's answer as earlier releases rendered it: rule.matches per candidate."""
    scores = []
    for name in query.candidates:
        if query.slot == "object":
            good = rule.matches(query.subject, query.relation, name)
        else:
            good = rule.matches(name, query.relation, query.object)
        scores.append(100.0 if good else 0.0)
    return "\n".join(f"{i}: {v:.4f}" for i, v in enumerate(scores, start=1))


class TestPlantedRuleAnswers:
    def test_matches_rule_rendering_on_odd_names(self):
        rule = SyntheticRule(n_entities=12, offsets={"r0": 1, "r1": 3, "r2": 0, "r3": -2})
        names = [f"e{i}" for i in range(-3, 16)] + [
            "e05", "e+5", "e 5", "e5 ", "e٣", "e5_0", "e", "x1", "E5", "e1.0", "e-0", "e00", "5", "", "e" + "9" * 5000,
        ]
        relations = [*rule.offsets, "unknown", "r 0"]
        handle = PlantedRuleTeacher(rule)
        rng = random.Random(11)
        hundreds = 0
        for _ in range(5000):
            slot = rng.choice(("subject", "object"))
            query = LlmQuery(
                subject="?" if slot == "subject" else rng.choice(names),
                relation=rng.choice(relations),
                object="?" if slot == "object" else rng.choice(names),
                year=2000,
                slot=slot,
                candidates=tuple(rng.sample(names, rng.randint(1, 30))),
                prompt="",
                prompt_hash="",
            )
            answer = handle.complete(query)
            assert answer == _reference_planted_answer(rule, query), query
            hundreds += answer.count(": 100.0000")
        assert handle.calls == 5000
        assert hundreds > 500  # the queries are not all misses


class TestNoiseTeacher:
    def test_identical_across_instances(self, tiny_vocab):
        cands = np.arange(4)
        a = score_query(NoiseTeacher(7), (0, 0, 1, 0), "object", cands, tiny_vocab)
        b = score_query(NoiseTeacher(7), (0, 0, 1, 0), "object", cands, tiny_vocab)
        assert np.array_equal(a.scores, b.scores)

    def test_seed_changes_stream(self, tiny_vocab):
        cands = np.arange(4)
        a = score_query(NoiseTeacher(7), (0, 0, 1, 0), "object", cands, tiny_vocab)
        b = score_query(NoiseTeacher(8), (0, 0, 1, 0), "object", cands, tiny_vocab)
        assert not np.array_equal(a.scores, b.scores)

    def test_scores_in_range(self, tiny_vocab):
        res = score_query(NoiseTeacher(0), (1, 1, 2, 1), "subject", np.arange(4), tiny_vocab)
        assert np.all((res.scores >= 0) & (res.scores <= 100))


# an unclosed socket (a ResourceWarning, raised in __del__) fails the test
@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
class TestRemoteTeacher:
    def test_needs_endpoint(self):
        with pytest.raises(ValueError):
            RemoteTeacher("", "some-model")

    @pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://127.0.0.1/chat", "127.0.0.1:9/chat"])
    def test_needs_an_http_endpoint(self, endpoint):
        with pytest.raises(ValueError, match="http:// or https://"):
            RemoteTeacher(endpoint, "some-model")

    def test_unreachable_endpoint_raises_transport_error(self, tiny_vocab):
        handle = RemoteTeacher(
            "http://127.0.0.1:9/chat", "some-model", max_retries=2, backoff=0.01, timeout=2
        )
        with pytest.raises(LlmTransportError, match="2 attempts"):
            score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
        assert handle.calls == 1

    def test_auth_rejection_raises_auth_error(self, tiny_vocab, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with _local_endpoint(401, b"{}") as (url, seen):
            handle = RemoteTeacher(url, "some-model", max_retries=2, backoff=0.01)
            with pytest.raises(LlmAuthError):
                score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
            assert len(seen) == 1  # the same credentials are not retried
            assert "Authorization" not in seen[0][0]

    @pytest.mark.parametrize(
        "retry_after, waits_expected",
        [
            ("7", [7.0, 7.0]),
            ("86400", [llm.MAX_RETRY_AFTER, llm.MAX_RETRY_AFTER]),
            ("Wed, 21 Oct 2015 07:28:00 GMT", [0.01, 0.02]),  # not whole seconds: usual backoff
        ],
    )
    def test_rate_limit_waits_retry_after(self, tiny_vocab, monkeypatch, retry_after, waits_expected):
        waits = []
        monkeypatch.setattr(llm.time, "sleep", waits.append)
        with _local_endpoint(429, b"{}", {"Retry-After": retry_after}) as (url, seen):
            handle = RemoteTeacher(url, "some-model", max_retries=3, backoff=0.01)
            with pytest.raises(LlmTransportError, match="HTTP 429"):
                score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
            assert len(seen) == 3
        assert waits == waits_expected

    def test_success_payload_and_key_header(self, tiny_vocab, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        body = json.dumps(
            {"choices": [{"message": {"content": "1: 80\n2: 20\n3: 50"}}]}
        ).encode("utf-8")
        with _local_endpoint(200, body) as (url, seen):
            handle = RemoteTeacher(url, "some-model")
            result = score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
        assert result.usable
        assert result.scores.tolist() == [80.0, 20.0, 50.0]
        headers, payload = seen[0]
        assert headers["Authorization"] == "Bearer sekrit"
        assert payload["model"] == "some-model"
        assert payload["temperature"] == 0
        assert payload["messages"][0]["role"] == "system"
        assert "Candidates:" in payload["messages"][1]["content"]

    def test_malformed_completion_raises_transport_error(self, tiny_vocab):
        bodies = [
            {"unexpected": True},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": ["1: 80"]}}]},
            {"choices": "1: 80"},
            {"choices": []},
            [{"choices": [{"message": {"content": "1: 80"}}]}],
        ]
        responses = [json.dumps(b).encode("utf-8") for b in bodies] + [b"not json"]
        with _local_endpoint(200, responses) as (url, seen):
            for i in range(len(responses)):
                handle = RemoteTeacher(url, "some-model", max_retries=1)
                with pytest.raises(LlmTransportError, match="malformed completion payload"):
                    score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
                assert len(seen) == i + 1

    def test_server_error_raises_transport_error(self, tiny_vocab):
        with _local_endpoint(500, b"{}") as (url, seen):
            handle = RemoteTeacher(url, "some-model", max_retries=3, backoff=0.01)
            with pytest.raises(LlmTransportError, match="HTTP 500"):
                score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
            assert len(seen) == 3
