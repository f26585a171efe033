"""generate_synthetic reads its seed's PCG64 words itself; pin it to the Generator.

The scalar reader in graph._pcg64_draws reproduces Generator.integers(0, n)
and Generator.random() from raw words, and graph._attempt_table reads whole
attempts from them in bulk.  These tests compare the reader with the live
Generator, so a NumPy change to either method fails here, and compare
generate_synthetic with its former per-draw loop, kept below as the oracle.
"""
from itertools import chain, repeat

import numpy as np
import pytest

from tkgd import graph
from tkgd.graph import (
    SPLIT_NAMES,
    DataError,
    SyntheticRule,
    _build_dataset,
    _name_codes,
    _pcg64_draws,
    _split_buckets_by_share,
    _SplitColumns,
    generate_synthetic,
)


def reference_generate_synthetic(n_entities, n_relations, n_buckets, n_facts, pattern_strength, seed):
    """generate_synthetic as it was with one Generator call per draw."""
    if min(n_entities, n_relations, n_buckets, n_facts) < 1:
        raise DataError("entity, relation, bucket and fact counts must all be positive")
    if not (0.0 <= pattern_strength <= 1.0):
        raise DataError(f"pattern_strength must lie in [0, 1], got {pattern_strength}")
    capacity = n_entities * n_entities * n_relations * n_buckets
    if n_facts > capacity:
        raise DataError(f"requested {n_facts} facts but only {capacity} distinct quadruples exist")

    rng = np.random.default_rng(seed)
    if n_entities > 1:
        offsets = rng.integers(1, min(6, n_entities), size=n_relations)
    else:
        offsets = np.zeros(n_relations, dtype=np.int64)
    rule = SyntheticRule(
        n_entities=n_entities,
        offsets={f"r{j}": int(offsets[j]) for j in range(n_relations)},
    )

    seen = set()
    facts = []
    attempts = 0
    max_attempts = 200 * n_facts + 1000
    while len(facts) < n_facts:
        attempts += 1
        if attempts > max_attempts:
            raise DataError(
                f"could not place {n_facts} unique facts after {max_attempts} draws; "
                "lower n_facts or raise the vocabulary sizes (at pattern_strength "
                "near 1 only patterned facts are drawn, a much smaller pool than "
                "the full cross product)"
            )
        p = int(rng.integers(0, n_relations))
        t = int(rng.integers(0, n_buckets))
        if rng.random() < pattern_strength:
            a = int(offsets[p])
            s = int(rng.integers(0, n_entities - a))
            o = s + a
        else:
            s = int(rng.integers(0, n_entities))
            o = int(rng.integers(0, n_entities))
        quad = (s, p, o, t)
        if quad in seen:
            continue
        seen.add(quad)
        facts.append(quad)

    facts_arr = np.asarray(facts, dtype=np.int64)
    bucket_ids, counts = np.unique(facts_arr[:, 3], return_counts=True)
    columns = {}
    split_buckets = _split_buckets_by_share(dict(zip(bucket_ids.tolist(), counts.tolist())))
    for split, buckets in zip(SPLIT_NAMES, split_buckets):
        s, p, o, t = facts_arr[np.isin(facts_arr[:, 3], sorted(buckets))].T
        columns[split] = _SplitColumns(
            [f"e{i}" for i in s.tolist()], [f"r{j}" for j in p.tolist()], [f"e{i}" for i in o.tolist()], 1900 + t
        )

    return _build_dataset(*_name_codes(columns), rule=rule, origin=f"synthetic(seed={seed})")


# (n_entities, n_relations, n_buckets, n_facts, pattern_strength): one and two
# entities (offsets of 0 and 1, the pattern's subject range a single value),
# odd relation counts (the offsets draw leaves a 32-bit half buffered), one
# bucket, both extreme strengths, more than 2**32 entities (entity draws take
# whole words; only the entities drawn enter the vocabulary), 2**31 + 1
# entities (entity draws redraw about half the time, and fact keys leave
# int64), bounds of 1 for relations and buckets, and enough facts that the
# walk crosses chunks.
SHAPES = [
    (1, 3, 4, 12, 0.5),
    (2, 1, 5, 18, 0.7),
    (2, 2, 3, 20, 0.0),
    (3, 1, 1, 9, 0.0),
    (5, 3, 1, 30, 0.4),
    (7, 5, 6, 50, 1.0),
    (12, 3, 5, 80, 0.9),
    (20, 4, 2, 150, 0.0),
    (50, 7, 10, 400, 0.9),
    (2**33, 3, 2, 6, 0.5),
    (2**31 + 1, 3, 4, 40, 0.5),
    (40, 1, 1, 300, 0.9),
    (50, 4, 10, 6000, 0.9),
]


def assert_same_dataset(got, want):
    assert got.digest() == want.digest()
    for name in SPLIT_NAMES:
        np.testing.assert_array_equal(got.split(name), want.split(name))
    assert got.vocab.entity_names == want.vocab.entity_names
    assert got.vocab.relation_names == want.vocab.relation_names
    assert got.vocab.time_buckets == want.vocab.time_buckets
    assert got.rule == want.rule


class TestAgainstPerDrawLoop:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "-".join(map(str, shape)))
    def test_same_dataset_for_every_seed(self, shape):
        for seed in (0, 1, 7, 1009, 2**40 + 3):
            assert_same_dataset(generate_synthetic(*shape, seed=seed), reference_generate_synthetic(*shape, seed=seed))

    def test_same_exhaustion_error(self):
        # full strength on two entities leaves one patterned fact per (relation, bucket)
        with pytest.raises(DataError) as want:
            reference_generate_synthetic(2, 1, 2, 3, 1.0, seed=4)
        with pytest.raises(DataError) as got:
            generate_synthetic(2, 1, 2, 3, 1.0, seed=4)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shape", [(2**63, 2, 2, 5, 0.5), (3, 2, 2**63, 5, 0.5)], ids=["entities", "buckets"])
    def test_largest_drawable_count_matches(self, shape):
        assert_same_dataset(generate_synthetic(*shape, seed=3), reference_generate_synthetic(*shape, seed=3))

    @pytest.mark.parametrize(
        "counts", [(2**63 + 1, 2, 2), (2**64, 2, 2), (2**70, 2, 2), (2, 2**63 + 1, 2), (2, 2, 2**63 + 1)]
    )
    def test_count_numpy_cannot_draw_raises(self, counts):
        # Generator.integers(0, high) refuses high above 2**63; the bulk reader
        # would return data the per-draw loop cannot give, or loop forever
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(0, max(counts))
        with pytest.raises(DataError, match=r"at most 2\*\*63"):
            generate_synthetic(*counts, 5, 0.5, seed=0)


class TestBulkWalk:
    """The table reads every attempt it can; the scalar reader draws only the rest."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the scalar reader (one per scalar attempt) and of the table (one per chunk)."""
        counts = {"scalar": 0, "chunks": 0}
        for name, kind in (("_pcg64_draws", "scalar"), ("_attempt_table", "chunks")):
            real = getattr(graph, name)

            def counted(*args, _real=real, _kind=kind):
                counts[_kind] += 1
                return _real(*args)

            monkeypatch.setattr(graph, name, counted)
        return counts

    def test_typical_shape_reads_the_table(self, counts):
        # a chunk ends in an attempt that runs past its last word, and only that one is scalar
        generate_synthetic(500, 20, 50, 20000, 0.9, seed=1)
        assert counts["chunks"] > 1
        assert counts["scalar"] <= counts["chunks"]

    def test_redraws_go_to_the_scalar_reader(self, counts):
        # 40 facts take at least 40 attempts, so fewer scalar ones leave some to the table
        generate_synthetic(2**31 + 1, 3, 4, 40, 0.5, seed=1)
        assert 0 < counts["scalar"] < 40


WORD_CHUNK = 1024


def generator_words(rng):
    """rng's raw words as a next_word source, drawn WORD_CHUNK at a time, and its buffered half."""
    state = rng.bit_generator.state
    words = chain.from_iterable(map(np.ndarray.tolist, map(rng.bit_generator.random_raw, repeat(WORD_CHUNK))))
    return words.__next__, int(state["uinteger"]) if state["has_uint32"] else -1


def drawn_pairs(seed, ns, n_draws, buffered):
    """(reader, Generator) values for n_draws interleaved draws.

    n cycles through ns; every third draw is random().  With buffered, a
    vectorized integers() of odd length first leaves a 32-bit half behind.
    The reader's buffered half must end as the Generator's.
    """
    live = np.random.default_rng(seed)
    copy = np.random.default_rng(seed)
    if buffered:
        live.integers(1, 6, size=3)
        copy.integers(1, 6, size=3)
        assert copy.bit_generator.state["has_uint32"] == 1
    integers, random, held = _pcg64_draws(*generator_words(copy))
    got, want = [], []
    for i in range(n_draws):
        if i % 3 == 2:
            got.append(random())
            want.append(live.random())
        else:
            n = ns[i % len(ns)]
            got.append(integers(n))
            want.append(int(live.integers(0, n)))
    state = live.bit_generator.state
    assert held() == (state["uinteger"] if state["has_uint32"] else -1)
    return got, want


class TestReaderAgainstGenerator:
    @pytest.mark.parametrize("buffered", [False, True])
    def test_small_bounds(self, buffered):
        # random() alone reads WORD_CHUNK words here, so the draws cross chunks
        for seed in (0, 5, 1009):
            got, want = drawn_pairs(seed, [1, 2, 50, 1, 7], 3 * WORD_CHUNK + 3, buffered)
            assert all(type(v) is float for v in got[2::3])
            assert got == want

    @pytest.mark.parametrize("buffered", [False, True])
    def test_bounds_that_reject_often(self, buffered):
        # the redraw threshold (2**32 - n) % n is about half and a quarter of
        # 2**32 here, so the redraw loop runs on a large share of draws
        got, want = drawn_pairs(11, [2**31 + 1, 3 * 2**30], 30_000, buffered)
        assert got == want

    def test_whole_word_bounds(self):
        # 2**32 is the last bound drawn from a 32-bit half; above it NumPy
        # draws whole words, and 3 * 2**61 rejects about a quarter of them
        got, want = drawn_pairs(3, [2**32, 2**32 + 1, 3 * 2**61, 5], 3000, True)
        assert got == want
