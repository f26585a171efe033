"""generate_synthetic reads its seed's PCG64 words itself; pin it to the Generator.

graph._attempt_table reads whole attempts from the raw words in bulk, copying
Generator.integers(0, n) and Generator.random(); each attempt it cannot read
is drawn by the Generator itself.  These tests compare generate_synthetic
with its former per-draw loop, kept below as the oracle, so a NumPy change to
either method fails here, and check that both ways of drawing are used.
"""
import numpy as np
import pytest

from tkgd import graph
from tkgd.graph import (
    SPLIT_NAMES,
    DataError,
    SyntheticRule,
    _build_dataset,
    _name_codes,
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
# int64), bounds of 1 for relations and buckets, enough facts that the walk
# crosses chunks, and the two datasets the benchmark builds.
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
    (50, 4, 10, 1000, 0.9),
    (500, 20, 50, 20000, 0.9),
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
        # Generator.integers(0, high) refuses high above 2**63, so without the
        # count check the draw would end in a bare ValueError, not DataError
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(0, max(counts))
        with pytest.raises(DataError, match=r"at most 2\*\*63"):
            generate_synthetic(*counts, 5, 0.5, seed=0)


class TestBulkWalk:
    """The table reads every attempt it can; the Generator draws only the rest."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Calls of the table, one per chunk: every chunk after the first follows one Generator-drawn attempt."""
        calls = []
        real = graph._attempt_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graph, "_attempt_table", counted)
        return calls

    def test_typical_shape_reads_the_table(self, chunks):
        # a chunk ends in an attempt that runs past its last word, which the Generator draws
        generate_synthetic(500, 20, 50, 20000, 0.9, seed=1)
        assert len(chunks) > 1

    def test_redraws_go_to_the_scalar_reader(self, chunks):
        # the scalar reader is the Generator: at most one attempt per chunk, and
        # 40 facts take at least 40 attempts, so fewer than 40 chunks leave some
        # to the table
        generate_synthetic(2**31 + 1, 3, 4, 40, 0.5, seed=1)
        assert 1 < len(chunks) < 40
