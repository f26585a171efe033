import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from tkgd import graph
from tkgd.graph import (
    COPY_NAME,
    SPLIT_NAMES,
    DataError,
    Dataset,
    KnownFacts,
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

FIXTURES = Path(__file__).parent / "fixtures"
GRAPH_LOGGER = logging.getLogger("tkgd.graph")


# ---------------------------------------------------------------------------
# line-by-line reference of the dataset layer: the reader and builder as they
# were before they went column-wise, kept to pin the array-native ones
# ---------------------------------------------------------------------------


def _reference_read_split_file(path, time_field):
    rows = []
    dropped = 0
    min_fields = 4
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < min_fields:
                raise DataError(
                    f"{path} line {lineno}: expected at least {min_fields} tab-separated fields, got {len(fields)}"
                )
            begin = parse_time_token(fields[3])
            end = parse_time_token(fields[4]) if len(fields) > 4 else None
            year = begin if time_field == "begin" else end
            if year is None:
                year = end if time_field == "begin" else begin
            if year is None:
                dropped += 1
                continue
            rows.append((fields[0], fields[1], fields[2], year))
    if dropped:
        GRAPH_LOGGER.warning("%s: dropped %d facts with no usable year", path, dropped)
    return rows


def _bucket_for_year(buckets, year):
    """Scalar reference of Vocabulary.buckets_for_years: a bisect, ties to the earlier bucket."""
    if year in buckets:
        return buckets.index(year)
    lo, hi = 0, len(buckets) - 1
    if year < buckets[0]:
        return 0
    if year > buckets[-1]:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if buckets[mid] <= year:
            lo = mid
        else:
            hi = mid
    return lo if (year - buckets[lo]) <= (buckets[hi] - year) else hi


def _reference_build_dataset(named_splits, origin):
    if not named_splits.get("train"):
        raise DataError(f"{origin}: training split is empty")
    entity_ids, relation_ids = {}, {}
    for split in SPLIT_NAMES:
        for s_name, p_name, o_name, _year in named_splits.get(split, []):
            for name in (s_name, o_name):
                if name not in entity_ids:
                    entity_ids[name] = len(entity_ids)
            if p_name not in relation_ids:
                relation_ids[p_name] = len(relation_ids)
    train_years = sorted({year for _s, _p, _o, year in named_splits["train"]})
    vocab = Vocabulary(entity_names=list(entity_ids), relation_names=list(relation_ids), time_buckets=train_years)
    arrays = {}
    for split in SPLIT_NAMES:
        seen, quads, duplicates = set(), [], 0
        for s_name, p_name, o_name, year in named_splits.get(split, []):
            quad = (entity_ids[s_name], relation_ids[p_name], entity_ids[o_name], _bucket_for_year(train_years, year))
            if quad in seen:
                duplicates += 1
                continue
            seen.add(quad)
            quads.append(quad)
        if duplicates:
            GRAPH_LOGGER.warning("%s: dropped %d duplicate quadruples from %s split", origin, duplicates, split)
        arrays[split] = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    return Dataset(vocab=vocab, train=arrays["train"], valid=arrays["valid"], test=arrays["test"])


def _reference_load(root, time_field="begin"):
    named = {split: _reference_read_split_file(root / f"{split}.txt", time_field) for split in SPLIT_NAMES}
    return _reference_build_dataset(named, origin=str(root))


def _write_splits(root, train, valid="", test=""):
    """Write the three split files byte for byte (no newline translation)."""
    root.mkdir(parents=True, exist_ok=True)
    for name, text in zip(SPLIT_NAMES, (train, valid, test)):
        (root / f"{name}.txt").write_bytes(text.encode("utf-8"))
    return root


def _warnings(caplog, load):
    """(result or DataError message, warning messages) of one load."""
    caplog.clear()
    try:
        result = load()
    except DataError as exc:
        result = f"DataError: {exc}"
    return result, [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def _random_facts(rng, n, n_e, n_r, n_b):
    return np.stack([rng.integers(0, bound, n) for bound in (n_e, n_r, n_e, n_b)], axis=1)


def _completions(known, quads, slot):
    """The ids completing each query row, as a set per row, read from KnownFacts._ranges."""
    keys, base, start, stop = known._ranges(np.asarray(quads), slot)
    return [set((keys[a:b] - c).tolist()) for a, b, c in zip(start, stop, base)]


def _python_set_index(facts):
    """The Python-set reference of KnownFacts: {(s, p, o, t)} plus both completion maps."""
    every = {tuple(int(v) for v in fact) for fact in facts}
    objects, subjects = {}, {}
    for s, p, o, t in every:
        objects.setdefault((s, p, t), set()).add(o)
        subjects.setdefault((p, o, t), set()).add(s)
    return every, objects, subjects


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
        assert v.buckets_for_years([year]).tolist() == [bucket]
        assert _bucket_for_year(v.time_buckets, year) == bucket

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
        ds = load_quadruples(fixtures / "mini", "end")
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (12, 3, 3)
        # 'bob friend_of carol 1986-01-01 1987-01-01' now indexes by 1987
        v = ds.vocab
        row = [v.entity_id("bob"), v.relation_id("friend_of"), v.entity_id("carol"), v.time_buckets.index(1987)]
        assert any((r == row).all() for r in ds.train)

    def test_time_field_must_be_begin_or_end(self):
        with pytest.raises(DataError, match="time_field must be 'begin' or 'end', got 'middle'"):
            load_quadruples(FIXTURES / "mini", "middle")

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

    def test_rule_less_save_removes_an_older_rule(self, small_synth, mini_dataset, tmp_path):
        root = tmp_path / "copy"
        save_dataset(small_synth, root)
        assert (root / "rule.json").is_file()
        assert mini_dataset.rule is None
        save_dataset(mini_dataset, root)
        back = load_quadruples(root)
        assert back.rule is None
        assert not (root / "rule.json").exists()
        assert back.digest() == mini_dataset.digest()


# Each case is (train, valid, test) file text; valid and test reuse names so ids cross splits.
LOADING_CASES = {
    "crlf": ("A\tr\tB\t1984\r\nB\tr\tC\t1985-##-##\t1986\r\nC\tq\tA\t1990\r\n", "B\tq\tD\t1987\r\n", ""),
    "whitespace_lines": (
        "\n  \nA\tr\tB\t1984\n\t\n\x0b\x0c\n\u2028\nB\tr\tC\t1985\n   \n",
        "\n\nC\tr\tA\t1985\n",
        " \n",
    ),
    "separator_like_characters_in_names": (
        "A\x1cx\tr\x0bs\tB\u2028y\t1984\nB\u2028y\tr\x0bs\tA\x1cx\t1986\n",
        "",
        "",
    ),
    "no_final_newline": ("A\tr\tB\t1984\nB\tr\tC\t1988", "C\tr\tD\t2001", "D\tr\tA\t1900"),
    "duplicate_rows": (
        "A\tr\tB\t1984\nA\tr\tB\t1984-05-05\nB\tr\tC\t1990\nA\tr\tB\t1984\nA\tr\tB\t1985\n",
        "A\tr\tB\t1986\nA\tr\tB\t1987\nA\tr\tB\t1984\n",
        "C\tr\tB\t2000\nC\tr\tB\t2010\n",
    ),
    "dropped_years": (
        "A\tr\tB\t####\nA\tr\tC\t####-##-##\t19##\nC\tr\tD\t1984\nD\tq\tE\t####\t1990-##-##\n",
        "E\tq\tF\t####\n",
        "F\tq\tA\t2001\t####\n",
    ),
    "end_column_token_first": (
        "A\tr\tB\t1984\nB\tr\tC\t1985\tlater\nC\tr\tD\tsoon\n",
        "",
        "",
    ),
    "bad_begin_and_end_on_one_line": ("A\tr\tB\t1984\nB\tr\tC\tsoon\tnever\n", "", ""),
    "short_line_before_bad_token": ("A\tr\tB\t1984\nA\tr\nC\tr\tD\tsoon\n", "", ""),
    "bad_token_before_short_line": ("A\tr\tB\tsoon\nA\tr\n", "", ""),
    "only_unusable_years": ("A\tr\tB\t####\n", "", ""),
}


class TestColumnWiseLoading:
    """load_quadruples against the line-by-line reference: same dataset, same warnings, same errors."""

    @pytest.mark.parametrize("time_field", ["begin", "end"])
    def test_mini_fixture(self, time_field, caplog):
        caplog.set_level(logging.WARNING, logger="tkgd")
        got, got_warnings = _warnings(caplog, lambda: load_quadruples(FIXTURES / "mini", time_field))
        want, want_warnings = _warnings(caplog, lambda: _reference_load(FIXTURES / "mini", time_field))
        self._assert_same(got, want)
        assert got_warnings == want_warnings
        assert len(got_warnings) == 2  # one year-less fact, one duplicate

    @pytest.mark.parametrize("time_field", ["begin", "end"])
    @pytest.mark.parametrize("case", sorted(LOADING_CASES))
    def test_matches_line_by_line_reference(self, case, time_field, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="tkgd")
        root = _write_splits(tmp_path / case, *LOADING_CASES[case])
        got, got_warnings = _warnings(caplog, lambda: load_quadruples(root, time_field))
        want, want_warnings = _warnings(caplog, lambda: _reference_load(root, time_field))
        self._assert_same(got, want)
        assert got_warnings == want_warnings

    def test_cases_reach_every_outcome(self, tmp_path):
        def outcome(case):
            try:
                load_quadruples(_write_splits(tmp_path / case, *LOADING_CASES[case]))
            except DataError as exc:
                return str(exc)
            return "loaded"

        assert "later" in outcome("end_column_token_first")
        assert "soon" in outcome("bad_begin_and_end_on_one_line")
        assert "line 2" in outcome("short_line_before_bad_token")
        assert "soon" in outcome("bad_token_before_short_line")
        assert "training split is empty" in outcome("only_unusable_years")
        assert outcome("separator_like_characters_in_names") == "loaded"
        ds = load_quadruples(tmp_path / "separator_like_characters_in_names")
        assert ds.vocab.entity_names == ["A\x1cx", "B\u2028y"] and ds.vocab.relation_names == ["r\x0bs"]

    @staticmethod
    def _assert_same(got, want):
        if isinstance(want, str):
            assert got == want
            return
        assert got.vocab.entity_names == want.vocab.entity_names
        assert got.vocab.relation_names == want.vocab.relation_names
        assert got.vocab.time_buckets == want.vocab.time_buckets
        assert all(type(year) is int for year in got.vocab.time_buckets)
        for split in SPLIT_NAMES:
            assert got.split(split).dtype == np.int64
            np.testing.assert_array_equal(got.split(split), want.split(split))
        assert got.digest() == want.digest()


def _load_logged(caplog, root, time_field="begin"):
    """(dataset, INFO and higher messages) of one load_quadruples call."""
    caplog.clear()
    ds = load_quadruples(root, time_field)
    return ds, [r.getMessage() for r in caplog.records if r.levelno >= logging.INFO]


def _no_parse(path, time_field):
    raise AssertionError(f"{path} was parsed although the binary copy is valid")


def _tiny_vocab_dataset(train, valid=()):
    v = Vocabulary(["A", "B", "C"], ["r", "q"], [1900, 1901, 1902])
    return Dataset(vocab=v, train=train, valid=list(valid), test=[])


class TestBinaryCopy:
    """save_dataset's binary copy gives exactly what parsing the written text gives, or is not used."""

    @pytest.fixture(autouse=True)
    def _info_logs(self, caplog):
        caplog.set_level(logging.INFO, logger="tkgd")

    @pytest.fixture
    def parses(self, monkeypatch):
        """Paths _read_split_file is called on, while it still parses."""
        seen, real = [], graph._read_split_file
        monkeypatch.setattr(graph, "_read_split_file", lambda path, field: seen.append(path) or real(path, field))
        return seen

    @staticmethod
    def _copy_and_text(root, caplog, monkeypatch, time_field="begin"):
        """root loaded through its copy (parsing forbidden), then by parsing with the copy set aside."""
        with monkeypatch.context() as m:
            m.setattr(graph, "_read_split_file", _no_parse)
            got = _load_logged(caplog, root, time_field)
        aside = root.with_name(root.name + "-copy.bin")
        (root / COPY_NAME).rename(aside)
        try:
            want = _load_logged(caplog, root, time_field)
        finally:
            aside.rename(root / COPY_NAME)
        return got, want

    @staticmethod
    def _assert_same(got, want):
        (got_ds, got_log), (want_ds, want_log) = got, want
        TestColumnWiseLoading._assert_same(got_ds, want_ds)
        assert got_ds.rule == want_ds.rule
        assert got_log == want_log
        assert len(got_log) == 1 and got_log[0].startswith("loaded ")

    def test_small_synth(self, small_synth, tmp_path, caplog, monkeypatch):
        save_dataset(small_synth, tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch)
        self._assert_same(got, want)
        assert got[0].digest() == small_synth.digest() and got[0].rule == small_synth.rule

    def test_mini_fixture_saved_and_reloaded(self, mini_dataset, tmp_path, caplog, monkeypatch):
        save_dataset(mini_dataset, tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch)
        self._assert_same(got, want)
        assert got[0].digest() == mini_dataset.digest()

    def test_vocabulary_out_of_first_appearance_order(self, small_synth, tmp_path, caplog, monkeypatch):
        # reversed entity and relation names, ids remapped: the same facts, other ids
        ds = small_synth
        v = ds.vocab
        flip = np.array([v.n_entities - 1, v.n_relations - 1, v.n_entities - 1, 0])
        sign = np.array([-1, -1, -1, 1])
        vocab = Vocabulary(v.entity_names[::-1], v.relation_names[::-1], v.time_buckets)
        reversed_ds = Dataset(vocab=vocab, rule=ds.rule, **{name: flip + sign * ds.split(name) for name in SPLIT_NAMES})
        save_dataset(reversed_ds, tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch)
        self._assert_same(got, want)
        assert got[0].digest() == ds.digest()

    def test_vocabulary_name_no_split_uses(self, small_synth, tmp_path, caplog, monkeypatch):
        ds = small_synth
        v = ds.vocab
        vocab = Vocabulary(v.entity_names + ["unused"], ["unused"] + v.relation_names, v.time_buckets)
        splits = {name: ds.split(name) + [0, 1, 0, 0] for name in SPLIT_NAMES}
        save_dataset(Dataset(vocab=vocab, rule=ds.rule, **splits), tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch)
        self._assert_same(got, want)
        assert got[0].digest() == ds.digest()

    def test_truncated_splits_lose_entities_and_buckets(self, small_synth, tmp_path, caplog, monkeypatch):
        ds = small_synth
        train = ds.train[ds.train[:, 3] != ds.vocab.n_buckets - 1][:6]
        save_dataset(Dataset(vocab=ds.vocab, train=train, valid=ds.valid[:3], test=ds.test[:3], rule=ds.rule),
                     tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch)
        self._assert_same(got, want)
        assert got[0].vocab.n_entities < ds.vocab.n_entities
        assert got[0].vocab.n_buckets < ds.vocab.n_buckets

    def test_time_field_end(self, small_synth, tmp_path, caplog, monkeypatch):
        save_dataset(small_synth, tmp_path / "d")
        got, want = self._copy_and_text(tmp_path / "d", caplog, monkeypatch, "end")
        self._assert_same(got, want)

    def test_edited_split_is_parsed(self, small_synth, tmp_path, caplog, parses):
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        with (root / "valid.txt").open("a", encoding="utf-8") as fh:
            fh.write("newcomer\tr0\te1\t1950\n")
        got = _load_logged(caplog, root)
        assert parses
        TestColumnWiseLoading._assert_same(got[0], _reference_load(root))
        assert len(got[0].valid) == len(small_synth.valid) + 1 and "newcomer" in got[0].vocab.entity_names

    def test_line_moved_between_splits_is_parsed(self, small_synth, tmp_path, caplog, parses):
        # the bytes of all three files together are unchanged; only their split differs
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        train = (root / "train.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        (root / "train.txt").write_text("".join(train[:-1]), encoding="utf-8")
        (root / "valid.txt").write_text(train[-1] + (root / "valid.txt").read_text(encoding="utf-8"), encoding="utf-8")
        got = _load_logged(caplog, root)
        assert parses
        TestColumnWiseLoading._assert_same(got[0], _reference_load(root))
        assert len(got[0].train) == len(small_synth.train) - 1

    @staticmethod
    def _rewrite_version(blob, version):
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len])
        header["format_version"] = version
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = blob[8 + header_len : -32]
        digest = hashlib.sha256(header_bytes + payload).digest()
        return blob[:4] + len(header_bytes).to_bytes(4, "little") + header_bytes + payload + digest

    @pytest.mark.parametrize("damage", ["truncated", "flipped_payload_byte", "wrong_version", "empty", "bad_magic"])
    def test_damaged_copy_is_parsed(self, damage, small_synth, tmp_path, caplog, parses):
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        blob = (root / COPY_NAME).read_bytes()
        at = 8 + int.from_bytes(blob[4:8], "little")
        damaged = {
            "truncated": lambda: blob[: len(blob) // 2],
            # the lowest bit of the first subject id: the flipped copy is still a valid dataset
            "flipped_payload_byte": lambda: blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :],
            "wrong_version": lambda: self._rewrite_version(blob, 2),
            "empty": lambda: b"",
            "bad_magic": lambda: b"XXXX" + blob[4:],
        }[damage]()
        (root / COPY_NAME).write_bytes(damaged)
        got = _load_logged(caplog, root)
        assert len(parses) == 3
        self._assert_same(got, (small_synth, [f"loaded {root}: 12 entities, 3 relations, 3 buckets, 50/14/16 facts"]))
        assert got[0].digest() == small_synth.digest()

    def test_version_rewrite_keeps_the_layout(self, small_synth, tmp_path):
        # the wrong_version case above is refused for its version, not for its layout
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        blob = (root / COPY_NAME).read_bytes()
        assert self._rewrite_version(blob, 1) == blob

    def test_two_saves_are_byte_identical(self, small_synth, tmp_path):
        for name in ("a", "b", "b"):
            save_dataset(small_synth, tmp_path / name)
        assert (tmp_path / "a" / COPY_NAME).read_bytes() == (tmp_path / "b" / COPY_NAME).read_bytes()
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [COPY_NAME, "rule.json"] + [
            f"{split}.txt" for split in ("test", "train", "valid")
        ]

    def test_loading_writes_nothing(self, small_synth, mini_dataset, tmp_path):
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        listing = lambda d: {p.name: p.stat().st_mtime_ns for p in d.iterdir()}
        before = listing(root)
        load_quadruples(root)
        load_quadruples(root, "end")
        (root / COPY_NAME).write_bytes(b"TKDS")
        before[COPY_NAME] = (root / COPY_NAME).stat().st_mtime_ns
        load_quadruples(root)
        assert listing(root) == before
        assert sorted(p.name for p in (FIXTURES / "mini").iterdir()) == ["test.txt", "train.txt", "valid.txt"]

    def test_duplicate_rows_write_no_copy(self, tmp_path, caplog):
        root = tmp_path / "d"
        save_dataset(_tiny_vocab_dataset([[0, 0, 1, 0], [1, 1, 2, 1]]), root)
        assert (root / COPY_NAME).is_file()
        caplog.clear()
        save_dataset(_tiny_vocab_dataset([[0, 0, 1, 0], [1, 1, 2, 1], [0, 0, 1, 0]]), root)
        assert not (root / COPY_NAME).exists()
        assert caplog.records == []
        assert len(load_quadruples(root).train) == 2

    def test_rows_meeting_in_one_training_bucket_write_no_copy(self, tmp_path, caplog):
        # valid years 1901 and 1902 both clamp to the only training year, 1900
        root = tmp_path / "d"
        caplog.clear()
        save_dataset(_tiny_vocab_dataset([[0, 0, 1, 0]], valid=[[0, 0, 1, 1], [0, 0, 1, 2]]), root)
        assert not (root / COPY_NAME).exists()
        assert caplog.records == []
        ds, log = _load_logged(caplog, root)
        assert len(ds.valid) == 1 and "dropped 1 duplicate quadruples from valid split" in log[0]


class TestAtomicSave:
    def test_failed_save_leaves_every_file_whole(self, small_synth, mini_dataset, tmp_path, monkeypatch):
        # a save that fails while replacing its second file keeps the old bytes of every file not yet replaced
        root = tmp_path / "d"
        save_dataset(small_synth, root)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        replaced, real = [], graph.os.replace

        def failing_replace(src, dst):
            if replaced:
                raise OSError("disk full")
            replaced.append(Path(dst).name)
            real(src, dst)

        monkeypatch.setattr(graph.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(mini_dataset, root)
        after = {p.name: p.read_bytes() for p in root.iterdir()}
        assert sorted(after) == sorted(before)
        assert replaced == ["train.txt"]
        assert after["train.txt"] != before["train.txt"]
        assert {name: after[name] for name in after if name not in replaced} == {
            name: before[name] for name in before if name not in replaced
        }


class TestSaveRefusals:
    """save_dataset raises DataError for what its text cannot carry, before writing anything."""

    @pytest.mark.parametrize("bad", ["a\tb", "a\rb", "a\nb", "\n"])
    @pytest.mark.parametrize("kind", ["entity", "relation"])
    def test_separator_in_name(self, kind, bad, tmp_path):
        entities, relations = ["A", "B"], ["r"]
        (entities if kind == "entity" else relations)[-1] = bad
        ds = Dataset(vocab=Vocabulary(entities, relations, [1984]), train=[[0, 0, 1, 0]], valid=[], test=[])
        with pytest.raises(DataError, match=re.escape(f"{kind} name {bad!r}")):
            save_dataset(ds, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("year", [99999999, -1234567, 1000000])
    def test_year_that_does_not_read_back(self, year, tmp_path):
        v = Vocabulary(["A", "B"], ["r"], sorted([1984, year]))
        ds = Dataset(vocab=v, train=[[0, 0, 1, 0]], valid=[], test=[])
        with pytest.raises(DataError, match=str(year)):
            save_dataset(ds, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("year", [-999999, -50, 0, 999999])
    def test_extreme_readable_years_round_trip(self, year, tmp_path):
        ds = Dataset(vocab=Vocabulary(["A", "B"], ["r"], [year]), train=[[0, 0, 1, 0]], valid=[], test=[])
        save_dataset(ds, tmp_path / "d")
        assert load_quadruples(tmp_path / "d").digest() == ds.digest()


class TestBucketsForYears:
    @pytest.mark.parametrize("buckets", [[-50, -10, 1900, 1910, 1984], [1900], [-7, 3]])
    def test_matches_bucket_for_year(self, buckets):
        v = Vocabulary(["a"], ["r"], buckets)
        exact = list(buckets)
        below_above = [min(buckets) - 1, min(buckets) - 1000, max(buckets) + 1, max(buckets) + 10**6]
        equidistant = [(a + b) // 2 for a, b in zip(buckets, buckets[1:]) if (a + b) % 2 == 0]
        between = [a + 1 for a in buckets] + [b - 1 for b in buckets]
        years = exact + below_above + equidistant + between + [-1, 0, -999_999]
        got = v.buckets_for_years(np.array(years))
        assert got.dtype == np.int64
        assert got.tolist() == [_bucket_for_year(buckets, y) for y in years]

    def test_equidistant_goes_to_earlier_bucket(self):
        v = Vocabulary(["a"], ["r"], [-50, -10, 1900, 1910])
        assert v.buckets_for_years([-30, 1905, 945]).tolist() == [0, 2, 1]

    def test_empty_input(self):
        v = Vocabulary(["a"], ["r"], [1900, 1910])
        assert v.buckets_for_years(np.array([], dtype=np.int64)).shape == (0,)


class TestKnownFactsIndex:
    """KnownFacts against a Python-set index on random facts, ids outside the indexed range included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_python_sets(self, seed):
        rng = np.random.default_rng(seed)
        n_e, n_r, n_b = 7, 3, 4
        facts = _random_facts(rng, 120, n_e, n_r, n_b)
        known = KnownFacts(facts)
        every, objects, subjects = _python_set_index(facts)
        assert len(known) == len(every)
        ids = range(-2, max(n_e, n_r, n_b) + 2)
        grid = [(s, p, t) for s in ids for p in range(-1, n_r + 2) for t in range(-1, n_b + 2)]
        objects_got = _completions(known, [(s, p, 0, t) for s, p, t in grid], "object")
        subjects_got = _completions(known, [(0, p, s, t) for s, p, t in grid], "subject")
        # every query's truth is n_e, which completes nothing, so keep_mask masks exactly the known objects
        keep = known.keep_mask([(s, p, n_e, t) for s, p, t in grid], "object", n_e + 1)
        for i, (s, p, t) in enumerate(grid):
            assert objects_got[i] == objects.get((s, p, t), set())
            assert subjects_got[i] == subjects.get((p, s, t), set())
            for o in (-1, 0, 3, n_e - 1, n_e):
                assert (o in objects_got[i]) == ((s, p, o, t) in every)
                if o >= 0:
                    assert (not keep[i, o]) == ((s, p, o, t) in every)

    @pytest.mark.parametrize("slot", ["subject", "object"])
    def test_keep_mask_matches_python_sets(self, slot):
        rng = np.random.default_rng(11)
        n_e, n_r, n_b = 6, 2, 3
        facts = _random_facts(rng, 40, n_e, n_r, n_b)
        known = KnownFacts(facts)
        _every, objects, subjects = _python_set_index(facts)
        width = n_e + 2  # candidates beyond the indexed entities, as truths too
        queries = np.concatenate(
            [
                facts[:15],
                np.stack([rng.integers(-1, width, 60), rng.integers(-1, n_r + 2, 60),
                          rng.integers(-1, width, 60), rng.integers(-1, n_b + 2, 60)], axis=1),
            ]
        )
        truth_col = 0 if slot == "subject" else 2
        queries[:, truth_col] = np.abs(queries[:, truth_col])  # a truth is always a candidate
        queries[:5, truth_col] = width - 1  # known queries whose truth lies past the indexed entities
        want = np.ones((len(queries), width), dtype=bool)
        for i, (s, p, o, t) in enumerate(queries.tolist()):
            taken = objects.get((s, p, t), set()) if slot == "object" else subjects.get((p, o, t), set())
            want[i, sorted(taken)] = False
            want[i, queries[i, truth_col]] = True
        np.testing.assert_array_equal(known.keep_mask(queries, slot, width), want)
        assert not want.all()  # some known completions were masked

    @pytest.mark.parametrize("seed", range(3))
    def test_key_arrays_equal_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        n_e, n_r, n_b = 9, 4, 5
        facts = _random_facts(rng, 400, n_e, n_r, n_b)  # about a fifth repeat
        facts[0] = (n_e - 1, n_r - 1, n_e - 1, n_b - 1)  # so the index bounds are (n_e, n_r, n_b)
        known = KnownFacts(facts)
        s, p, o, t = facts.T
        np.testing.assert_array_equal(known._spto, np.unique(((s * n_r + p) * n_b + t) * n_e + o))
        np.testing.assert_array_equal(known._post, np.unique(((p * n_e + o) * n_b + t) * n_e + s))

    def test_empty_index(self):
        known = KnownFacts(np.empty((0, 4), dtype=np.int64))
        assert len(known) == 0
        assert _completions(known, [(0, 0, 0, 0)], "object") == [set()]
        assert _completions(known, [(0, 0, 0, 0)], "subject") == [set()]
        mask = known.keep_mask(np.array([[0, 0, 1, 0], [2, 0, 0, 0]]), "object", 3)
        assert mask.all()

    @pytest.mark.parametrize("slot", ["subjet", "Object", ""])
    def test_keep_mask_rejects_a_bad_slot(self, slot):
        known = KnownFacts([(0, 0, 1, 0), (1, 0, 2, 0)])
        with pytest.raises(ValueError, match=r"slot must be 'subject' or 'object', got " + repr(slot)):
            known.keep_mask(np.array([[0, 0, 1, 0]]), slot, 3)

    def test_dataset_with_empty_split(self):
        ds = generate_synthetic(9, 2, 2, 40, 0.8, seed=2)  # two buckets leave valid empty
        assert len(ds.valid) == 0
        every, objects, _subjects = _python_set_index(np.concatenate([ds.train, ds.valid, ds.test]))
        assert len(ds.known) == len(every)
        facts = sorted(every)
        for (s, p, o, t), got in zip(facts, _completions(ds.known, facts, "object")):
            assert o in got
            assert got == objects[(s, p, t)]

    def test_negative_ids_rejected(self):
        with pytest.raises(DataError):
            KnownFacts([(0, 0, -1, 0)])

    def test_key_overflow_rejected(self):
        big = 2**21  # E^2 * R * B = 2^42 * 2^21 * 2 overflows int64
        with pytest.raises(DataError, match="int64"):
            KnownFacts([(big - 1, big - 1, big - 1, 1)])


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
            for slot, col in (("object", 2), ("subject", 0)):
                got = _completions(small_synth.known, split, slot)
                assert all(quad[col] in ids for quad, ids in zip(split.tolist(), got))


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


def _reference_sample_negatives(facts, k, vocab, rng):
    """Reference sampler: the same draws, placed with take_along_axis / put_along_axis."""
    n_e = vocab.n_entities
    facts = np.asarray(facts, dtype=np.int64)
    batch = facts.reshape(-1, 4)
    n = len(batch)
    negatives = np.repeat(batch[:, None, :], k, axis=1)
    corrupt_object = rng.integers(0, 2, size=(n, k)).astype(bool)
    slot_col = np.where(corrupt_object, 2, 0)[:, :, None]
    original = np.take_along_axis(negatives, slot_col, axis=2)[:, :, 0]
    draws = rng.integers(0, n_e - 1, size=(n, k))
    draws = draws + (draws >= original)
    np.put_along_axis(negatives, slot_col, draws[:, :, None], axis=2)
    return negatives[0] if facts.ndim == 1 else negatives


class TestNegativeSamplingReference:
    """The flat-index sampler draws the same stream and returns the same array as the reference."""

    @pytest.mark.parametrize("n_entities", [2, 37])
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (128, 4)])
    @pytest.mark.parametrize("k", [1, 10])
    def test_same_negatives_and_generator_state(self, n_entities, shape, k):
        vocab = Vocabulary([f"x{i}" for i in range(n_entities)], ["r0", "r1", "r2"], [1990, 2000])
        for seed in range(10):
            size = shape[:-1] + (1,)
            gen = np.random.default_rng(1000 + seed)
            facts = np.concatenate(
                [gen.integers(n_entities, size=size), gen.integers(3, size=size),
                 gen.integers(n_entities, size=size), gen.integers(2, size=size)],
                axis=-1,
            )
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _reference_sample_negatives(facts, k, vocab, want_rng)
            got = sample_negatives(facts, k, vocab, got_rng)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == (shape[:-1] + (k, 4))
            np.testing.assert_array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
