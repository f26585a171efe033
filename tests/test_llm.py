"""Prompt construction, response parsing, caching and the teacher mocks."""
import hashlib
import http.server
import json
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from tkgd.distill import huber_alignment_loss, minmax_normalize
from tkgd import llm
from tkgd.graph import Vocabulary, generate_synthetic
from tkgd.llm import (
    API_KEY_ENV,
    EchoTeacher,
    LlmAuthError,
    LlmTransportError,
    NoiseTeacher,
    PlantedRuleTeacher,
    RemoteTeacher,
    ScoreCache,
    TeacherHandle,
    build_prompt,
    cache_key,
    make_query,
    parse_scores,
    resolve_topk,
    score_query,
)
from tkgd.models import TTransEParams, batch_candidate_scores, init_params, score_quadruple
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
def _local_endpoint(status, body: bytes, headers=None):
    """Tiny throwaway HTTP server so the remote client is tested for real."""
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
            self.wfile.write(body)

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


class TestPrompt:
    def test_deterministic_bytes_and_hash(self, tiny_vocab):
        quad = (0, 1, 2, 1)
        cands = np.array([0, 1, 2, 3])
        a = build_prompt(quad, "object", cands, tiny_vocab)
        b = build_prompt(quad, "object", cands, tiny_vocab)
        assert a == b
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
        prompt = build_prompt((0, 0, 1, 0), "object", np.arange(10), vocab)
        lines = prompt.splitlines()
        numbered = [ln for ln in lines if ln and ln[0].isdigit()]
        assert numbered == [f"{i + 1}. e{i}" for i in range(10)]
        assert "year: 2000" in prompt

    def test_messy_names_flattened_to_one_line(self):
        vocab = Vocabulary(["tab\there", "new\nline", "plain"], ["r\t0"], [1990])
        prompt = build_prompt((0, 0, 1, 0), "object", np.array([0, 1, 2]), vocab)
        assert "tab here" in prompt
        assert "new line" in prompt
        assert "r 0" in prompt
        numbered = [ln for ln in prompt.splitlines() if ln and ln[0].isdigit()]
        assert len(numbered) == 3

    def test_candidate_count_limits(self, tiny_vocab):
        with pytest.raises(ValueError):
            build_prompt((0, 0, 1, 0), "object", np.array([], dtype=np.int64), tiny_vocab)
        with pytest.raises(ValueError):
            build_prompt((0, 0, 1, 0), "object", np.zeros(51, dtype=np.int64), tiny_vocab)
        with pytest.raises(ValueError):
            build_prompt((0, 0, 1, 0), "both", np.array([0]), tiny_vocab)


class TestParseScores:
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
            teacher_scores = batch_candidate_scores(teacher, vocab, quad[None], slot)[0]
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


class TestRemoteTeacher:
    def test_needs_endpoint(self):
        with pytest.raises(ValueError):
            RemoteTeacher("", "some-model")

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
        with _local_endpoint(200, b'{"unexpected": true}') as (url, _):
            handle = RemoteTeacher(url, "some-model", max_retries=1)
            with pytest.raises(LlmTransportError, match="malformed"):
                score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)

    def test_server_error_raises_transport_error(self, tiny_vocab):
        with _local_endpoint(500, b"{}") as (url, seen):
            handle = RemoteTeacher(url, "some-model", max_retries=3, backoff=0.01)
            with pytest.raises(LlmTransportError, match="HTTP 500"):
                score_query(handle, (0, 0, 1, 0), "object", np.arange(3), tiny_vocab)
            assert len(seen) == 3
