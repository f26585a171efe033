"""Temporal fact data: vocabularies, datasets, candidate sets, sampling, synthesis.

A fact is a quadruple (subject, relation, object, time bucket).  Files are
tab-separated with entity and relation names as opaque strings and times as
calendar tokens; everything downstream works on contiguous integer ids.

Datasets are built column-wise: a split file becomes name columns and a year
array, each distinct time token is parsed once, names map to ids through one
lookup per column and years to buckets through one searchsorted.  Facts are
also addressed by integer keys over (E, R, B), the entity, relation and bucket
counts: duplicate rows are found by key, and KnownFacts, the filtered-ranking
index, is two sorted key arrays, so every key must fit in int64.

save_dataset also writes a binary copy of what parsing its text gives back
(names, bucket years, the three id arrays) together with the SHA-256 of the
split files' bytes.  load_quadruples reads that copy instead of parsing when
the digest still matches the files on disk and the schema reads the columns
save_dataset writes; in every other case, and whenever the copy is missing,
stale or unreadable, it parses the text.  Loading never writes.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")

# The binary copy save_dataset writes next to the split files.  Layout: 4-byte
# magic, 4-byte little-endian header length, UTF-8 JSON header, the train,
# valid and test id arrays as little-endian int64 rows, then a 32-byte SHA-256
# of header plus payload.
COPY_NAME = "dataset.bin"
_COPY_MAGIC = b"TKDS"
_COPY_VERSION = 1
_DIGEST_BYTES = 32

__all__ = [
    "DataError",
    "Quadruple",
    "Vocabulary",
    "Dataset",
    "KnownFacts",
    "LoadSchema",
    "CandidateSet",
    "SyntheticRule",
    "load_quadruples",
    "save_dataset",
    "build_candidates",
    "filter_candidates",
    "sample_negatives",
    "generate_synthetic",
]


class DataError(Exception):
    """Raised for malformed input files or inconsistent dataset requests."""


class Quadruple(NamedTuple):
    s: int
    p: int
    o: int
    t: int


# Calendar token: a year with optional month and day segments.  Digits may be
# replaced by '#' wildcards; a leading '-' marks years before year zero.
_TIME_TOKEN = re.compile(r"^(-?[0-9#]{1,6})(?:-([0-9#]{1,2})-([0-9#]{1,2}))?$")


def parse_time_token(token: str) -> int | None:
    """Return the year of a calendar token, or None when the year is wildcarded.

    Accepts 'YYYY', 'YYYY-MM-DD' and wildcard forms such as '1948-##-##' or
    '####-##-##'.  Month and day are ignored; facts are bucketed by year.
    Raises DataError for tokens that match none of these shapes.
    """
    m = _TIME_TOKEN.match(token.strip())
    if m is None:
        raise DataError(f"unparseable time token {token!r}")
    year = m.group(1)
    if "#" in year:
        return None
    return int(year)


class Vocabulary:
    """Bidirectional name/id maps for entities, relations and time buckets.

    Entity and relation ids are contiguous from zero in first-appearance
    order (training split first, then validation, then test).  Time buckets
    cover exactly the years observed in training, sorted ascending; years
    outside that set clamp to the nearest bucket.
    """

    def __init__(self, entity_names: list[str], relation_names: list[str], time_buckets: list[int]):
        if not time_buckets:
            raise DataError("vocabulary needs at least one time bucket")
        if list(time_buckets) != sorted(set(time_buckets)):
            raise DataError("time buckets must be strictly ascending and unique")
        self.entity_names = list(entity_names)
        self.relation_names = list(relation_names)
        self.time_buckets = list(time_buckets)
        self._entity_ids = {name: i for i, name in enumerate(self.entity_names)}
        self._relation_ids = {name: i for i, name in enumerate(self.relation_names)}
        self._bucket_ids = {year: i for i, year in enumerate(self.time_buckets)}
        if len(self._entity_ids) != len(self.entity_names):
            raise DataError("duplicate entity name in vocabulary")
        if len(self._relation_ids) != len(self.relation_names):
            raise DataError("duplicate relation name in vocabulary")

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    @property
    def n_buckets(self) -> int:
        return len(self.time_buckets)

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_ids[name]
        except KeyError:
            raise DataError(f"unknown entity name: {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise DataError(f"unknown relation name: {name!r}") from None

    def bucket_for_year(self, year: int) -> int:
        """Bucket id for a year, clamping unseen years to the nearest bucket.

        Equidistant years resolve to the earlier bucket, so the mapping is
        deterministic.
        """
        hit = self._bucket_ids.get(year)
        if hit is not None:
            return hit
        buckets = self.time_buckets
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

    def buckets_for_years(self, years) -> np.ndarray:
        """bucket_for_year over an array of years, as one int64 array."""
        buckets = np.asarray(self.time_buckets, dtype=np.int64)
        years = np.asarray(years, dtype=np.int64)
        hi = np.minimum(np.searchsorted(buckets, years), len(buckets) - 1)
        lo = np.maximum(hi - 1, 0)
        return np.where(years - buckets[lo] <= buckets[hi] - years, lo, hi)


def _check_key_range(n_entities: int, n_relations: int, n_buckets: int) -> None:
    """Raise DataError when fact keys over (E, R, B) would not fit in int64."""
    if n_entities * n_entities * n_relations * n_buckets > np.iinfo(np.int64).max:
        raise DataError(
            f"{n_entities} entities, {n_relations} relations and {n_buckets} buckets "
            "are too many for int64 fact keys"
        )


class KnownFacts:
    """Index of every fact in the dataset as two sorted int64 key arrays.

    E, R and B bound the indexed ids (one more than the largest).  Each fact
    is stored once under ((s * R + p) * B + t) * E + o and once under
    ((p * E + o) * B + t) * E + s, so the objects completing (s, p, ?, t), and
    the subjects completing (?, p, o, t), are one contiguous range of keys.
    objects_for and subjects_for read such a range as a set; keep_mask reads
    one range per query row, all rows at once.  Ids outside the indexed range
    complete no query.
    """

    def __init__(self, quadruples: np.ndarray | list[tuple[int, int, int, int]]):
        facts = np.asarray(quadruples, dtype=np.int64).reshape(-1, 4)
        if len(facts) and facts.min() < 0:
            raise DataError("known facts need non-negative ids")
        top = facts.max(axis=0, initial=0) + 1
        self._n_e, self._n_r, self._n_b = int(max(top[0], top[2])), int(top[1]), int(top[3])
        _check_key_range(self._n_e, self._n_r, self._n_b)
        self._bounds = np.array([self._n_e, self._n_r, self._n_e, self._n_b])
        s, p, o, t = facts.T
        self._spto = np.unique(((s * self._n_r + p) * self._n_b + t) * self._n_e + o)
        self._post = np.unique(((p * self._n_e + o) * self._n_b + t) * self._n_e + s)

    def __len__(self) -> int:
        return len(self._spto)

    def __contains__(self, quad: tuple[int, int, int, int]) -> bool:
        s, p, o, t = (int(v) for v in quad)
        return 0 <= o < self._n_e and o in self.objects_for(s, p, t)

    def objects_for(self, s: int, p: int, t: int) -> set[int]:
        return self._completions(np.array([[s, p, 0, t]]), "object")

    def subjects_for(self, p: int, o: int, t: int) -> set[int]:
        return self._completions(np.array([[0, p, o, t]]), "subject")

    def _completions(self, query: np.ndarray, slot: str) -> set[int]:
        keys, base, start, stop = self._ranges(query, slot)
        return set((keys[start[0] : stop[0]] - base[0]).tolist())

    def _ranges(self, quads: np.ndarray, slot: str) -> tuple[np.ndarray, ...]:
        """(keys, base, start, stop): row i's completions are keys[start[i]:stop[i]] - base[i]."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        fixed = [0, 1, 3] if slot == "object" else [1, 2, 3]
        inside = np.all((quads[:, fixed] >= 0) & (quads[:, fixed] < self._bounds[fixed]), axis=1)
        s, p, o, t = np.where(inside[:, None], quads, 0).T
        if slot == "object":
            keys, base = self._spto, ((s * self._n_r + p) * self._n_b + t) * self._n_e
        else:
            keys, base = self._post, ((p * self._n_e + o) * self._n_b + t) * self._n_e
        start = np.searchsorted(keys, base)
        stop = np.where(inside, np.searchsorted(keys, base + self._n_e), start)
        return keys, base, start, stop

    def keep_mask(self, quads: np.ndarray, slot: str, n_entities: int) -> np.ndarray:
        """(m, n_entities) filtered-candidate mask: other known completions drop, the truth stays."""
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        keys, base, start, stop = self._ranges(quads, slot)
        counts = stop - start
        rows = np.repeat(np.arange(len(quads)), counts)
        # positions start[i] .. stop[i] - 1 of every row, concatenated in row order
        at = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
        keep = np.ones((len(quads), n_entities), dtype=bool)
        keep[rows, keys[at] - base[rows]] = False
        keep[np.arange(len(quads)), quads[:, 2] if slot == "object" else quads[:, 0]] = True
        return keep


@dataclass
class SyntheticRule:
    """The deterministic pattern planted by generate_synthetic.

    Each relation r carries an offset a_r; a patterned fact satisfies
    object_index = subject_index + a_r with no wraparound, so patterned
    subjects stay below n_entities - a_r.  The rule works on entity names of
    the form e<digits> so it survives id reassignment when a written dataset
    is reloaded.
    """

    n_entities: int
    offsets: dict[str, int]

    @staticmethod
    def entity_name(index: int) -> str:
        return f"e{index}"

    @staticmethod
    def entity_index(name: str) -> int:
        if not name.startswith("e"):
            raise DataError(f"not a synthetic entity name: {name!r}")
        return int(name[1:])

    def object_name_for(self, subject_name: str, relation_name: str) -> str | None:
        """Name of the patterned object, or None when the offset leaves the range."""
        a = self.offsets[relation_name]
        s = self.entity_index(subject_name)
        if s + a >= self.n_entities:
            return None
        return self.entity_name(s + a)

    def matches(self, subject_name: str, relation_name: str, object_name: str) -> bool:
        if relation_name not in self.offsets:
            return False
        try:
            want = self.object_name_for(subject_name, relation_name)
        except (DataError, ValueError):
            return False
        return want is not None and want == object_name

    def to_json(self) -> str:
        return json.dumps({"n_entities": self.n_entities, "offsets": self.offsets}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SyntheticRule":
        raw = json.loads(text)
        return cls(n_entities=int(raw["n_entities"]), offsets={k: int(v) for k, v in raw["offsets"].items()})


@dataclass
class Dataset:
    """Train/valid/test splits over one shared vocabulary.

    Splits are int64 arrays of shape (n, 4) with columns (s, p, o, t).  Rows
    keep the source facts one-to-one; facts distinct only by year can land in
    the same bucket (buckets come from train years, other years clamp to the
    nearest one), so a split may carry repeated rows.  known holds the union
    of all three splits for filtered evaluation.
    """

    vocab: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    known: KnownFacts = field(default=None)  # type: ignore[assignment]
    rule: SyntheticRule | None = None

    def __post_init__(self) -> None:
        for name in SPLIT_NAMES:
            arr = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 4)
            setattr(self, name, arr)
        if len(self.train) == 0:
            raise DataError("training split is empty")
        for name in SPLIT_NAMES:
            arr = getattr(self, name)
            if len(arr) == 0:
                continue
            if arr[:, [0, 2]].max() >= self.vocab.n_entities or arr.min() < 0:
                raise DataError(f"{name} split references an id outside the vocabulary")
            if arr[:, 1].max() >= self.vocab.n_relations:
                raise DataError(f"{name} split references an unknown relation id")
            if arr[:, 3].max() >= self.vocab.n_buckets:
                raise DataError(f"{name} split references an unknown time bucket")
        if self.known is None:
            self.known = KnownFacts(np.concatenate([self.train, self.valid, self.test], axis=0))

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise DataError(f"unknown split {name!r}; expected one of {SPLIT_NAMES}")
        return getattr(self, name)

    def digest(self) -> str:
        """Stable content hash over vocabulary and all three splits."""
        h = hashlib.sha256()
        for names in (self.vocab.entity_names, self.vocab.relation_names):
            for n in names:
                h.update(n.encode("utf-8"))
                h.update(b"\x00")
            h.update(b"\x01")
        h.update(np.asarray(self.vocab.time_buckets, dtype=np.int64).tobytes())
        for name in SPLIT_NAMES:
            h.update(np.ascontiguousarray(self.split(name)).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class LoadSchema:
    """Column layout of the tab-separated fact files.

    Files carry subject, relation, object and a begin time, with an optional
    end time in the fifth column.  time_field picks which endpoint defines
    the fact's bucket; when that endpoint's year is wildcarded the other
    endpoint fills in, and facts with no usable year at all are dropped with
    a warning.
    """

    subject_col: int = 0
    relation_col: int = 1
    object_col: int = 2
    begin_col: int = 3
    end_col: int = 4
    time_field: str = "begin"

    def __post_init__(self) -> None:
        if self.time_field not in ("begin", "end"):
            raise DataError(f"time_field must be 'begin' or 'end', got {self.time_field!r}")


class _SplitColumns(NamedTuple):
    """One split as parallel columns: subject, relation and object names, int64 years."""

    subjects: list[str]
    relations: list[str]
    objects: list[str]
    years: np.ndarray


# Year column value of a token with no usable year; parseable years have at most six digits.
_NO_YEAR = np.iinfo(np.int64).min


def _read_split_file(path: Path, schema: LoadSchema) -> _SplitColumns:
    r"""Parse one split file column-wise into name columns and a year array.

    Lines end at "\n" (the file is read with universal newlines, so "\r\n"
    and "\r" end lines too); whitespace-only lines are skipped.  Each distinct
    time token is parsed once.  A malformed file raises the DataError a
    line-by-line read would raise first: a short line reports its number, and
    of the unparseable tokens the first in file order (begin before end within
    a line) is reported.
    """
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = [line.split("\t") for line in lines if line.strip()]
    min_fields = max(schema.subject_col, schema.relation_col, schema.object_col, schema.begin_col) + 1
    short = len(rows)
    if min(map(len, rows), default=min_fields) < min_fields:
        short = next(i for i, fields in enumerate(rows) if len(fields) < min_fields)
    end_col = schema.end_col
    begin_tokens = list(map(itemgetter(schema.begin_col), rows[:short]))
    end_tokens = [fields[end_col] if end_col < len(fields) else None for fields in rows[:short]]

    year_of: dict[str | None, int] = {None: _NO_YEAR}
    errors: dict[str, DataError] = {}
    for token in set(begin_tokens).union(end_tokens) - {None}:
        try:
            year = parse_time_token(token)
        except DataError as exc:
            errors[token] = exc
            continue
        year_of[token] = _NO_YEAR if year is None else year
    if errors:
        raise errors[next(tok for tok in chain.from_iterable(zip(begin_tokens, end_tokens)) if tok in errors)]
    if short < len(rows):
        lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][short]
        raise DataError(
            f"{path} line {lineno}: expected at least {min_fields} tab-separated fields, got {len(rows[short])}"
        )

    begin = np.fromiter(map(year_of.__getitem__, begin_tokens), np.int64, len(rows))
    end = np.fromiter(map(year_of.__getitem__, end_tokens), np.int64, len(rows))
    first, second = (begin, end) if schema.time_field == "begin" else (end, begin)
    years = np.where(first != _NO_YEAR, first, second)
    usable = years != _NO_YEAR
    names = [list(map(itemgetter(col), rows)) for col in (schema.subject_col, schema.relation_col, schema.object_col)]
    if not usable.all():
        logger.warning("%s: dropped %d facts with no usable year", path, int((~usable).sum()))
        names = [list(compress(col, usable)) for col in names]
    return _SplitColumns(*names, years[usable])


def _build_dataset(
    columns: dict[str, _SplitColumns],
    rule: SyntheticRule | None = None,
    origin: str = "dataset",
) -> Dataset:
    """Assemble a Dataset from the three splits' name columns, ids as _assign_ids gives them.

    Duplicate quadruples dropped from a split are reported with a warning.
    """
    vocab, arrays, dropped = _assign_ids(columns, origin)
    for split in SPLIT_NAMES:
        if dropped[split]:
            logger.warning("%s: dropped %d duplicate quadruples from %s split", origin, dropped[split], split)
    return Dataset(vocab=vocab, train=arrays["train"], valid=arrays["valid"], test=arrays["test"], rule=rule)


def _assign_ids(
    columns: dict[str, _SplitColumns], origin: str
) -> tuple[Vocabulary, dict[str, np.ndarray], dict[str, int]]:
    """The vocabulary, the (n, 4) id arrays and the duplicate rows dropped per split.

    Entity and relation ids follow first appearance scanning train, valid,
    test in that order, subject before object within a row.  Time buckets
    come from training years only; later splits clamp through
    Vocabulary.buckets_for_years.  Duplicate quadruples within a split are
    dropped, keeping first occurrences in order; they are found by the
    integer key ((s * R + p) * E + o) * B + t, and a vocabulary whose keys
    would overflow int64 raises DataError.
    """
    splits = [columns[name] for name in SPLIT_NAMES]
    if len(splits[0].years) == 0:
        raise DataError(f"{origin}: training split is empty")

    subject_then_object = chain.from_iterable(chain.from_iterable(zip(c.subjects, c.objects)) for c in splits)
    vocab = Vocabulary(
        entity_names=list(dict.fromkeys(subject_then_object)),
        relation_names=list(dict.fromkeys(chain.from_iterable(c.relations for c in splits))),
        time_buckets=np.unique(splits[0].years).tolist(),
    )
    n_e, n_r, n_b = vocab.n_entities, vocab.n_relations, vocab.n_buckets
    _check_key_range(n_e, n_r, n_b)
    entity_id, relation_id = vocab._entity_ids.__getitem__, vocab._relation_ids.__getitem__

    arrays: dict[str, np.ndarray] = {}
    dropped: dict[str, int] = {}
    for split, c in zip(SPLIT_NAMES, splits):
        n = len(c.years)
        quads = np.empty((n, 4), dtype=np.int64)
        quads[:, 0] = np.fromiter(map(entity_id, c.subjects), np.int64, n)
        quads[:, 1] = np.fromiter(map(relation_id, c.relations), np.int64, n)
        quads[:, 2] = np.fromiter(map(entity_id, c.objects), np.int64, n)
        quads[:, 3] = vocab.buckets_for_years(c.years)
        s, p, o, t = quads.T
        _, first = np.unique(((s * n_r + p) * n_e + o) * n_b + t, return_index=True)
        dropped[split] = n - len(first)
        arrays[split] = quads[np.sort(first)] if dropped[split] else quads
    return vocab, arrays, dropped


def load_quadruples(path: str | Path, schema: LoadSchema | None = None) -> Dataset:
    """Load a dataset directory holding train.txt, valid.txt and test.txt.

    A directory written by save_dataset also holds the binary copy
    (COPY_NAME); when the schema reads the columns save_dataset writes and the
    copy's digest matches the split files on disk, the dataset comes from the
    copy, exactly as parsing would give it, and the text is only hashed.
    Otherwise the files are parsed.  A rule.json sidecar, if present, restores
    the planted pattern of a synthetic dataset so rule-aware components keep
    working after a round trip through files.
    """
    schema = schema or LoadSchema()
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    cached = _read_copy(root) if _reads_written_columns(schema) else None
    columns: dict[str, _SplitColumns] = {}
    if cached is None:
        for split in SPLIT_NAMES:
            fpath = root / f"{split}.txt"
            if not fpath.is_file():
                raise DataError(f"missing split file: {fpath}")
            columns[split] = _read_split_file(fpath, schema)

    rule = None
    rule_path = root / "rule.json"
    if rule_path.is_file():
        rule = SyntheticRule.from_json(rule_path.read_text(encoding="utf-8"))

    if cached is None:
        ds = _build_dataset(columns, rule=rule, origin=str(root))
    else:
        ds = cached
        ds.rule = rule
    logger.info(
        "loaded %s: %d entities, %d relations, %d buckets, %d/%d/%d facts",
        root,
        ds.vocab.n_entities,
        ds.vocab.n_relations,
        ds.vocab.n_buckets,
        len(ds.train),
        len(ds.valid),
        len(ds.test),
    )
    return ds


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write splits as tab-separated files (names and years, begin only), plus the binary copy.

    Reloading the written directory reproduces identical ids and counts,
    because first-appearance order is preserved fact for fact.  The copy holds
    exactly what parsing the written text gives: the written columns go
    through _assign_ids, as parsed columns do in _build_dataset.  When the
    reload would drop rows (a split repeating a row, or rows that meet in one
    training bucket), no copy is written and an older one is removed.  A name
    containing a tab or a line break, or a bucket year that does not read back
    as a year, cannot be written faithfully and raises DataError before
    anything is written.
    """
    root = Path(path)
    vocab = dataset.vocab
    _check_writable(vocab)
    entities, relations = vocab.entity_names, vocab.relation_names
    years = np.asarray(vocab.time_buckets, dtype=np.int64)
    columns: dict[str, _SplitColumns] = {}
    texts: list[bytes] = []
    for split in SPLIT_NAMES:
        quads = dataset.split(split)
        s, p, o = quads[:, :3].T.tolist()
        c = columns[split] = _SplitColumns(
            [entities[i] for i in s], [relations[i] for i in p], [entities[i] for i in o], years[quads[:, 3]]
        )
        lines = map("{}\t{}\t{}\t{}\n".format, c.subjects, c.relations, c.objects, c.years.tolist())
        texts.append("".join(lines).encode("utf-8"))

    root.mkdir(parents=True, exist_ok=True)
    for split, text in zip(SPLIT_NAMES, texts):
        (root / f"{split}.txt").write_bytes(text)
    if dataset.rule is not None:
        (root / "rule.json").write_text(dataset.rule.to_json(), encoding="utf-8")
    copy_path = root / COPY_NAME
    reloaded, arrays, dropped = _assign_ids(columns, str(root))
    if any(dropped.values()):
        copy_path.unlink(missing_ok=True)
    else:
        _write_copy(reloaded, arrays, _text_digest(texts), copy_path)


_UNWRITABLE_NAME = re.compile(r"[\t\r\n]")


def _check_writable(vocab: Vocabulary) -> None:
    """Raise DataError for a name or a bucket year that written text would not read back as itself."""
    for kind, names in (("entity", vocab.entity_names), ("relation", vocab.relation_names)):
        bad = next((name for name in names if _UNWRITABLE_NAME.search(name)), None)
        if bad is not None:
            raise DataError(f"cannot save {kind} name {bad!r}: names must not contain tabs or line breaks")
    for year in vocab.time_buckets:
        try:
            ok = parse_time_token(str(year)) == year
        except DataError:
            ok = False
        if not ok:
            raise DataError(f"cannot save time bucket year {year}: it does not read back as a year")


def _reads_written_columns(schema: LoadSchema) -> bool:
    """Whether schema reads save_dataset's four columns as they were written (time_field aside)."""
    cols = (schema.subject_col, schema.relation_col, schema.object_col, schema.begin_col)
    return cols == (0, 1, 2, 3) and schema.end_col > 3


def _text_digest(texts: list[bytes]) -> str:
    """SHA-256 over the train, valid and test files' bytes, each prefixed by its length."""
    h = hashlib.sha256()
    for text in texts:
        h.update(len(text).to_bytes(8, "little"))
        h.update(text)
    return h.hexdigest()


def _write_copy(vocab: Vocabulary, arrays: dict[str, np.ndarray], text_digest: str, path: Path) -> None:
    """Write the binary copy (layout at COPY_NAME) through a temporary file; equal input gives equal bytes."""
    header = {
        "format_version": _COPY_VERSION,
        "text_digest": text_digest,
        "entity_names": vocab.entity_names,
        "relation_names": vocab.relation_names,
        "time_buckets": vocab.time_buckets,
        "rows": [len(arrays[split]) for split in SPLIT_NAMES],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arrays[split], dtype="<i8").tobytes() for split in SPLIT_NAMES)
    digest = hashlib.sha256(header_bytes + payload).digest()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_COPY_MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + payload + digest)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_copy(root: Path) -> Dataset | None:
    """The dataset in root's binary copy, or None when the copy is missing, stale or unreadable."""
    path = root / COPY_NAME
    if not path.is_file():
        return None
    try:
        return _decode_copy(path.read_bytes(), root)
    except (OSError, ValueError, KeyError, TypeError, DataError) as exc:
        logger.debug("%s: parsing the text instead of the binary copy: %s", path, exc)
        return None


def _decode_copy(blob: bytes, root: Path) -> Dataset:
    """Check a binary copy against itself and against root's split files; raises ValueError when either fails."""
    if blob[:4] != _COPY_MAGIC:
        raise ValueError("bad magic")
    header_len = int.from_bytes(blob[4:8], "little")
    header_bytes = blob[8 : 8 + header_len]
    header = json.loads(header_bytes.decode("utf-8"))
    if header["format_version"] != _COPY_VERSION:
        raise ValueError(f"format version {header['format_version']!r}, this build reads {_COPY_VERSION}")
    rows = [int(n) for n in header["rows"]]
    payload_len = 32 * sum(rows)
    if len(rows) != 3 or min(rows) < 0 or len(blob) != 8 + header_len + payload_len + _DIGEST_BYTES:
        raise ValueError("size does not match the header")
    payload = blob[8 + header_len : 8 + header_len + payload_len]
    if hashlib.sha256(header_bytes + payload).digest() != blob[8 + header_len + payload_len :]:
        raise ValueError("content digest mismatch")
    texts = [(root / f"{split}.txt").read_bytes() for split in SPLIT_NAMES]
    if header["text_digest"] != _text_digest(texts):
        raise ValueError("the split files changed after the copy was written")
    flat = np.frombuffer(payload, dtype="<i8").astype(np.int64).reshape(-1, 4)
    train, valid, test = np.split(flat, np.cumsum(rows[:2]))
    vocab = Vocabulary(header["entity_names"], header["relation_names"], header["time_buckets"])
    return Dataset(vocab=vocab, train=train, valid=valid, test=test)


@dataclass
class CandidateSet:
    """One ranking query: a quadruple with one slot opened to candidates.

    candidates holds entity ids in ascending order and always contains the
    ground-truth entity at ground_truth_index.
    """

    query: Quadruple
    slot: str
    candidates: np.ndarray
    ground_truth_index: int

    def __post_init__(self) -> None:
        if self.slot not in ("subject", "object"):
            raise DataError(f"slot must be 'subject' or 'object', got {self.slot!r}")
        self.candidates = np.asarray(self.candidates, dtype=np.int64)
        truth = self.query.s if self.slot == "subject" else self.query.o
        if not (0 <= self.ground_truth_index < len(self.candidates)):
            raise DataError("ground_truth_index out of range")
        if int(self.candidates[self.ground_truth_index]) != truth:
            raise DataError("ground_truth_index does not point at the true entity")


def build_candidates(query: Quadruple | tuple[int, int, int, int], slot: str, vocab: Vocabulary) -> CandidateSet:
    """Raw candidate set: every entity in the vocabulary, ascending by id."""
    q = Quadruple(*(int(x) for x in query))
    truth = q.s if slot == "subject" else q.o
    return CandidateSet(
        query=q,
        slot=slot,
        candidates=np.arange(vocab.n_entities, dtype=np.int64),
        ground_truth_index=int(truth),
    )


def filter_candidates(cs: CandidateSet, known: KnownFacts) -> CandidateSet:
    """Drop candidates that would complete a different known fact.

    The ground truth itself always stays.  Ascending order is preserved and
    ground_truth_index is recomputed against the surviving candidates.
    """
    q = cs.query
    if cs.slot == "object":
        taken = known.objects_for(q.s, q.p, q.t) - {q.o}
        truth = q.o
    else:
        taken = known.subjects_for(q.p, q.o, q.t) - {q.s}
        truth = q.s
    if taken:
        keep_mask = ~np.isin(cs.candidates, np.fromiter(taken, dtype=np.int64))
        kept = cs.candidates[keep_mask]
    else:
        kept = cs.candidates.copy()
    gt_index = int(np.searchsorted(kept, truth))
    return CandidateSet(query=q, slot=cs.slot, candidates=kept, ground_truth_index=gt_index)


def sample_negatives(
    facts: np.ndarray | Quadruple | tuple[int, int, int, int],
    k: int,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> np.ndarray:
    """k negatives per fact: one (4,) fact gives (k, 4), an (n, 4) batch (n, k, 4).

    Each negative flips a fair coin for its slot (1 the object, 0 the
    subject), then draws a uniform replacement among the other |E| - 1
    entities, so the original fact never comes back out.  All (n, k) coins are
    drawn before all replacements.
    """
    n_e = vocab.n_entities
    if n_e < 2:
        raise DataError("negative sampling needs at least two entities")
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


def _split_buckets_by_share(
    bucket_counts: dict[int, int], shares: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[set[int], set[int], set[int]]:
    """Partition bucket ids (ascending) into train/valid/test by fact share.

    Whole buckets are assigned in time order, so validation and test facts
    are never earlier than training facts.  With three or more buckets every
    split gets at least one bucket; with two the middle split stays empty.
    """
    ordered = sorted(bucket_counts)
    n = len(ordered)
    if n == 1:
        return set(ordered), set(), set()
    if n == 2:
        return {ordered[0]}, set(), {ordered[1]}
    total = sum(bucket_counts.values())
    cum = np.cumsum([bucket_counts[b] for b in ordered])
    cut1 = int(np.searchsorted(cum, shares[0] * total))
    cut1 = min(max(cut1, 0), n - 3)
    cut2 = int(np.searchsorted(cum, (shares[0] + shares[1]) * total))
    cut2 = min(max(cut2, cut1 + 1), n - 2)
    return set(ordered[: cut1 + 1]), set(ordered[cut1 + 1 : cut2 + 1]), set(ordered[cut2 + 1 :])


def generate_synthetic(
    n_entities: int,
    n_relations: int,
    n_buckets: int,
    n_facts: int,
    pattern_strength: float,
    seed: int,
) -> Dataset:
    """Generate a dataset with a planted per-relation pattern.

    A pattern_strength fraction of facts obey object = subject + a_r with
    small per-relation offsets a_r in [1, 5] drawn from the seed and subjects
    drawn so the sum stays in range; the rest are uniform noise.  The pattern
    is a pure shift with no wraparound, a structure an additive scorer can
    represent exactly, so models are measured on optimization rather than on
    a pattern outside their expressive reach.  Facts get uniform time buckets
    and the splits are 80/10/10 along bucket order, making the test split
    extrapolative.  Years are 1900 + bucket index.
    """
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

    seen: set[tuple[int, int, int, int]] = set()
    facts: list[tuple[int, int, int, int]] = []
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
    columns: dict[str, _SplitColumns] = {}
    split_buckets = _split_buckets_by_share(dict(zip(bucket_ids.tolist(), counts.tolist())))
    for split, buckets in zip(SPLIT_NAMES, split_buckets):
        s, p, o, t = facts_arr[np.isin(facts_arr[:, 3], sorted(buckets))].T
        columns[split] = _SplitColumns(
            [f"e{i}" for i in s.tolist()], [f"r{j}" for j in p.tolist()], [f"e{i}" for i in o.tolist()], 1900 + t
        )

    return _build_dataset(columns, rule=rule, origin=f"synthetic(seed={seed})")
