import numpy as np
import pytest

from tkgd.graph import (
    DataError,
    Dataset,
    KnownFacts,
    LoadSchema,
    Quadruple,
    SyntheticRule,
    Vocabulary,
    _split_buckets_by_share,
    build_candidates,
    filter_candidates,
    generate_synthetic,
    load_quadruples,
    parse_time_token,
    sample_negatives,
    save_dataset,
)


class TestTimeParsing:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1984", 1984),
            ("1879-03-14", 1879),
            ("1985-##-##", 1985),
            ("####", None),
            ("####-##-##", None),
            ("19##", None),
            ("-50", -50),
            ("0007-01-01", 7),
        ],
    )
    def test_tokens(self, token, expected):
        assert parse_time_token(token) == expected

    @pytest.mark.parametrize("token", ["abc", "", "12-34-56-78", "yesterday"])
    def test_garbage_rejected(self, token):
        with pytest.raises(DataError):
            parse_time_token(token)


class TestVocabulary:
    def test_first_appearance_ids(self):
        v = Vocabulary(["b", "a", "c"], ["r1", "r0"], [1990])
        assert v.entity_id("b") == 0 and v.entity_id("a") == 1
        assert v.relation_id("r1") == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(["a", "a"], ["r"], [1990])

    def test_buckets_must_be_sorted_unique(self):
        with pytest.raises(DataError):
            Vocabulary(["a"], ["r"], [1990, 1980])

    @pytest.mark.parametrize(
        "year,bucket",
        [
            (1900, 0),
            (1910, 1),
            (1904, 0),
            (1906, 1),
            (1905, 0),  # equidistant resolves to the earlier bucket
            (1890, 0),
            (2000, 1),
        ],
    )
    def test_year_clamping(self, year, bucket):
        v = Vocabulary(["a"], ["r"], [1900, 1910])
        assert v.bucket_for_year(year) == bucket

    def test_unknown_name_errors(self):
        v = Vocabulary(["a"], ["r"], [1990])
        with pytest.raises(DataError):
            v.entity_id("nope")


class TestLoading:
    def test_single_line_file(self, tmp_path):
        (tmp_path / "train.txt").write_text("A\tr\tB\t1879-03-14\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        ds = load_quadruples(tmp_path)
        assert ds.vocab.entity_names == ["A", "B"]
        assert ds.vocab.relation_names == ["r"]
        assert ds.vocab.time_buckets == [1879]
        np.testing.assert_array_equal(ds.train, [[0, 0, 1, 0]])

    def test_mini_fixture_counts(self, mini_dataset):
        ds = mini_dataset
        assert len(ds.vocab.entity_names) == 11
        assert len(ds.vocab.relation_names) == 4
        assert ds.vocab.time_buckets == [-50, 1984, 1985, 1986, 1987]
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (12, 3, 3)

    def test_cross_split_first_appearance(self, mini_dataset):
        v = mini_dataset.vocab
        # frank first appears in valid, grace only in test
        assert v.entity_id("frank") == 9
        assert v.entity_id("grace") == 10

    def test_unusable_line_dropped_not_in_vocab(self, mini_dataset):
        assert "ghost" not in mini_dataset.vocab.entity_names

    def test_end_year_fallback_when_begin_unknown(self, mini_dataset):
        # 'bob visit town_b  ####-##-##  1985-07-01' lands in the 1985 bucket
        v = mini_dataset.vocab
        row = [v.entity_id("bob"), v.relation_id("visit"), v.entity_id("town_b"), v.time_buckets.index(1985)]
        assert any((r == row).all() for r in mini_dataset.train)

    def test_time_field_end(self):
        from pathlib import Path

        fixtures = Path(__file__).parent / "fixtures"
        ds = load_quadruples(fixtures / "mini", LoadSchema(time_field="end"))
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (12, 3, 3)
        # 'bob friend_of carol 1986-01-01 1987-01-01' now indexes by 1987
        v = ds.vocab
        row = [v.entity_id("bob"), v.relation_id("friend_of"), v.entity_id("carol"), v.time_buckets.index(1987)]
        assert any((r == row).all() for r in ds.train)

    def test_short_line_reports_position(self, tmp_path):
        (tmp_path / "train.txt").write_text("A\tr\tB\t1984\nA\tr\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(DataError, match="line 2"):
            load_quadruples(tmp_path)

    def test_bad_timestamp_names_token(self, tmp_path):
        (tmp_path / "train.txt").write_text("A\tr\tB\tsometime\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(DataError, match="sometime"):
            load_quadruples(tmp_path)

    def test_empty_training_split_rejected(self, tmp_path):
        (tmp_path / "train.txt").write_text("")
        (tmp_path / "valid.txt").write_text("A\tr\tB\t1984\n")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(DataError):
            load_quadruples(tmp_path)

    def test_missing_split_file_rejected(self, tmp_path):
        (tmp_path / "train.txt").write_text("A\tr\tB\t1984\n")
        with pytest.raises(DataError):
            load_quadruples(tmp_path)

    def test_round_trip_identical(self, small_synth, tmp_path):
        save_dataset(small_synth, tmp_path / "copy")
        back = load_quadruples(tmp_path / "copy")
        assert back.digest() == small_synth.digest()
        np.testing.assert_array_equal(back.train, small_synth.train)
        np.testing.assert_array_equal(back.test, small_synth.test)
        assert back.rule is not None
        assert back.rule.offsets == small_synth.rule.offsets

    def test_mini_round_trip(self, mini_dataset, tmp_path):
        save_dataset(mini_dataset, tmp_path / "copy")
        back = load_quadruples(tmp_path / "copy")
        assert back.digest() == mini_dataset.digest()


class TestDataset:
    def test_out_of_bounds_ids_rejected(self):
        v = Vocabulary(["a", "b"], ["r"], [1990])
        with pytest.raises(DataError):
            Dataset(vocab=v, train=[[0, 0, 5, 0]], valid=np.empty((0, 4)), test=np.empty((0, 4)))

    def test_unknown_bucket_rejected(self):
        v = Vocabulary(["a", "b"], ["r"], [1990])
        with pytest.raises(DataError):
            Dataset(vocab=v, train=[[0, 0, 1, 3]], valid=np.empty((0, 4)), test=np.empty((0, 4)))

    def test_digest_sensitive_to_content(self, small_synth):
        other = Dataset(
            vocab=small_synth.vocab,
            train=small_synth.train.copy(),
            valid=small_synth.valid,
            test=small_synth.test,
            rule=small_synth.rule,
        )
        other.train[0, 0] = (other.train[0, 0] + 1) % 12
        assert other.digest() != small_synth.digest()

    def test_known_facts_cover_all_splits(self, small_synth):
        for split in (small_synth.train, small_synth.valid, small_synth.test):
            for quad in split:
                assert tuple(quad) in small_synth.known


class TestCandidates:
    def test_build_all_entities(self, tiny_vocab):
        cs = build_candidates((0, 0, 1, 0), "object", tiny_vocab)
        np.testing.assert_array_equal(cs.candidates, [0, 1, 2, 3])
        assert cs.ground_truth_index == 1

    def test_singleton_vocabulary(self):
        v = Vocabulary(["only"], ["r"], [1990])
        cs = build_candidates((0, 0, 0, 0), "object", v)
        np.testing.assert_array_equal(cs.candidates, [0])
        assert cs.ground_truth_index == 0

    def test_subject_slot(self, tiny_vocab):
        cs = build_candidates((2, 1, 0, 1), "subject", tiny_vocab)
        assert cs.ground_truth_index == 2

    def test_filter_removes_other_known_objects(self, tiny_vocab):
        known = KnownFacts([(0, 0, 1, 0), (0, 0, 2, 0)])
        cs = build_candidates((0, 0, 1, 0), "object", tiny_vocab)
        out = filter_candidates(cs, known)
        np.testing.assert_array_equal(out.candidates, [0, 1, 3])
        assert out.candidates[out.ground_truth_index] == 1

    def test_filter_identity_without_collisions(self, tiny_vocab):
        known = KnownFacts([(0, 0, 1, 0)])
        cs = build_candidates((0, 0, 1, 0), "object", tiny_vocab)
        out = filter_candidates(cs, known)
        np.testing.assert_array_equal(out.candidates, cs.candidates)
        assert out.ground_truth_index == cs.ground_truth_index

    def test_filter_down_to_truth_only(self):
        v = Vocabulary([f"x{i}" for i in range(5)], ["r"], [1990])
        known = KnownFacts([(0, 0, j, 0) for j in range(5)])
        cs = build_candidates((0, 0, 1, 0), "object", v)
        out = filter_candidates(cs, known)
        # independent set arithmetic: everything except the truth is taken
        survivors = sorted({1} | (set(range(5)) - {0, 1, 2, 3, 4}))
        np.testing.assert_array_equal(out.candidates, survivors)
        assert out.ground_truth_index == 0

    def test_filter_never_removes_truth(self, small_synth):
        for quad in small_synth.test[:10]:
            for slot in ("subject", "object"):
                cs = build_candidates(quad, slot, small_synth.vocab)
                out = filter_candidates(cs, small_synth.known)
                truth = quad[0] if slot == "subject" else quad[2]
                assert out.candidates[out.ground_truth_index] == truth
                assert len(out.candidates) <= len(cs.candidates)

    def test_mismatched_truth_index_rejected(self, tiny_vocab):
        from tkgd.graph import CandidateSet

        with pytest.raises(DataError):
            CandidateSet(
                query=Quadruple(0, 0, 1, 0), slot="object", candidates=np.array([0, 1]), ground_truth_index=0
            )


class TestNegativeSampling:
    def test_deterministic_given_seed(self, tiny_vocab):
        a = sample_negatives((0, 0, 1, 0), 2, tiny_vocab, np.random.default_rng(5))
        b = sample_negatives((0, 0, 1, 0), 2, tiny_vocab, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_two_entity_vocab_is_forced(self):
        v = Vocabulary(["a", "b"], ["r"], [1990])
        for seed in range(20):
            neg = sample_negatives((0, 0, 1, 0), 1, v, np.random.default_rng(seed))[0]
            changed_subject = neg[0] != 0
            if changed_subject:
                assert neg[0] == 1 and neg[2] == 1
            else:
                assert neg[2] == 0 and neg[0] == 0

    def test_never_reproduces_original_entity(self, tiny_vocab, rng):
        q = (2, 1, 3, 1)
        negs = sample_negatives(q, 500, tiny_vocab, rng)
        for neg in negs:
            assert neg[0] != 2 or neg[2] != 3
            assert (neg[1], neg[3]) == (1, 1)

    def test_slot_choice_roughly_balanced(self):
        v = Vocabulary([f"x{i}" for i in range(50)], ["r"], [1990])
        negs = sample_negatives((7, 0, 31, 0), 1000, v, np.random.default_rng(99))
        subject_share = np.mean(negs[:, 0] != 7)
        assert 0.45 <= subject_share <= 0.55

    def test_single_entity_rejected(self):
        v = Vocabulary(["a"], ["r"], [1990])
        with pytest.raises(DataError):
            sample_negatives((0, 0, 0, 0), 1, v, np.random.default_rng(0))


class TestSyntheticRule:
    def test_object_name_stays_in_range(self):
        rule = SyntheticRule(n_entities=5, offsets={"r0": 3})
        assert rule.object_name_for("e1", "r0") == "e4"
        assert rule.object_name_for("e4", "r0") is None
        assert not rule.matches("e4", "r0", "e2")

    def test_matches_unknown_relation_false(self):
        rule = SyntheticRule(n_entities=5, offsets={"r0": 3})
        assert not rule.matches("e0", "weird", "e3")

    def test_json_round_trip(self):
        rule = SyntheticRule(n_entities=7, offsets={"r0": 2, "r1": 5})
        back = SyntheticRule.from_json(rule.to_json())
        assert back == rule


class TestGenerator:
    def test_full_strength_test_facts_follow_rules(self):
        ds = generate_synthetic(50, 2, 6, 150, 1.0, seed=3)
        v = ds.vocab
        for s, p, o, _t in ds.test:
            assert ds.rule.matches(v.entity_names[s], v.relation_names[p], v.entity_names[o])

    def test_same_seed_identical(self):
        a = generate_synthetic(12, 3, 5, 80, 0.9, seed=41)
        b = generate_synthetic(12, 3, 5, 80, 0.9, seed=41)
        assert a.digest() == b.digest()

    def test_different_seed_differs(self):
        a = generate_synthetic(12, 3, 5, 80, 0.9, seed=41)
        b = generate_synthetic(12, 3, 5, 80, 0.9, seed=42)
        assert a.digest() != b.digest()

    def test_fact_count_and_train_uniqueness(self, small_synth):
        stacked = np.concatenate([small_synth.train, small_synth.valid, small_synth.test])
        assert len(stacked) == 80
        # train rows keep their own buckets, so they never collide; valid and
        # test years clamp onto train buckets and may repeat a row
        train_rows = {tuple(q) for q in small_synth.train.tolist()}
        assert len(train_rows) == len(small_synth.train)

    def test_capacity_guard(self):
        with pytest.raises(DataError):
            generate_synthetic(2, 1, 1, 100, 0.5, seed=0)

    def test_invalid_strength_rejected(self):
        with pytest.raises(DataError):
            generate_synthetic(5, 2, 3, 10, 1.5, seed=0)

    def test_all_splits_nonempty_with_enough_buckets(self):
        for seed in range(5):
            ds = generate_synthetic(15, 2, 8, 200, 0.7, seed=seed)
            assert len(ds.train) > 0 and len(ds.valid) > 0 and len(ds.test) > 0

    def test_skewed_bucket_counts_still_partition(self):
        train_b, valid_b, test_b = _split_buckets_by_share({0: 96, 1: 2, 2: 2})
        assert train_b == {0} and valid_b == {1} and test_b == {2}

    def test_bucket_partition_is_ordered(self):
        train_b, valid_b, test_b = _split_buckets_by_share({i: 10 for i in range(10)})
        assert max(train_b) < min(valid_b) <= max(valid_b) < min(test_b)
        assert train_b | valid_b | test_b == set(range(10))

    def test_two_buckets_split_train_test(self):
        train_b, valid_b, test_b = _split_buckets_by_share({0: 50, 1: 50})
        assert (train_b, valid_b, test_b) == ({0}, set(), {1})
