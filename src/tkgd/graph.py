"""Temporal fact data: vocabularies, datasets, candidate sets, sampling, synthesis.

A fact is a quadruple (subject, relation, object, time bucket).  Files are
tab-separated with entity and relation names as opaque strings and times as
calendar tokens; everything downstream works on contiguous integer ids.

Datasets are built column-wise: a split file becomes name columns and a year
array, and each distinct time token is parsed once.  Ids are assigned once, on
integer code columns (_assign_ids): parsed names are coded first, synthetic
facts and save_dataset's reload bring their own codes.  Years map to buckets
through one searchsorted (Vocabulary.buckets_for_years, the only year-to-bucket
mapping).  Synthetic facts are read from the seed's PCG64 words in bulk, every
attempt a chunk of words can start at once, and the few attempts that bulk
table cannot read are drawn by the seed's own Generator (generate_synthetic).
Facts are also addressed by integer keys over (E, R, B), the entity, relation
and bucket counts: duplicate rows are found by key, and KnownFacts, the
filtered-ranking index, is two sorted key arrays read a block of queries at a
time, so every key must fit in int64.

save_dataset also writes a binary copy of what parsing its text gives back
(names, bucket years, the three id arrays) together with the SHA-256 of the
split files' bytes.  load_quadruples reads that copy instead of parsing when
the digest still matches the files on disk; whenever the copy is missing,
stale or unreadable, it parses the text.  Loading never writes.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .numerics import sorted_unique

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
    map to bucket ids through buckets_for_years, which clamps years outside
    that set to the nearest bucket.
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

    def buckets_for_years(self, years) -> np.ndarray:
        """Bucket id of each year, as one int64 array from one searchsorted.

        A year that is a bucket maps to that bucket.  Any other year maps to
        the nearest bucket, so years before the first or after the last bucket
        clamp to it, and a year equidistant from two buckets takes the
        earlier one.
        """
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


def _check_slot(slot: str) -> None:
    """Raise ValueError naming slot unless it is "subject" or "object"."""
    if slot not in ("subject", "object"):
        raise ValueError(f"slot must be 'subject' or 'object', got {slot!r}")


class KnownFacts:
    """Index of every fact in the dataset as two sorted int64 key arrays.

    E, R and B bound the indexed ids (one more than the largest).  Each fact
    is stored once under ((s * R + p) * B + t) * E + o and once under
    ((p * E + o) * B + t) * E + s, so the objects completing (s, p, ?, t), and
    the subjects completing (?, p, o, t), are one contiguous range of keys.
    _ranges finds that range for every query row at once, and keep_mask turns
    the ranges of a block into its filtered-candidate mask.  Ids outside the
    indexed range complete no query.

    Both arrays are built with numerics.sorted_unique, a sort and an
    adjacent-difference mask, not np.unique, whose values-only form hashes
    in NumPy 2.  On the 18.7k facts of the benchmark's large evaluation
    dataset, building the index took 6.3-6.9 ms of a 10.0-10.8 ms load with
    np.unique and takes 0.9-1.2 ms of a 4.2-4.5 ms load this way (NumPy
    2.4.6, one thread, best of 7).  So it is built on every load, and the
    dataset's binary copy does not carry it.
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
        self._spto = sorted_unique(((s * self._n_r + p) * self._n_b + t) * self._n_e + o)
        self._post = sorted_unique(((p * self._n_e + o) * self._n_b + t) * self._n_e + s)

    def __len__(self) -> int:
        return len(self._spto)

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
        """(m, n_entities) filtered-candidate mask: other known completions drop, the truth stays; a bad slot raises."""
        _check_slot(slot)
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
    def from_json(cls, text: str | bytes, source: str = "rule.json") -> "SyntheticRule":
        """Parse to_json's text; bad JSON, a missing key or a wrong type raises DataError naming source."""
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for bytes
            raise DataError(f"{source}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise DataError(f"{source}: expected a JSON object, got {type(raw).__name__}")
        for key in ("n_entities", "offsets"):
            if key not in raw:
                raise DataError(f"{source}: missing key {key!r}")
        n_entities, offsets = raw["n_entities"], raw["offsets"]
        if not _is_int(n_entities):
            raise DataError(f"{source}: n_entities must be an integer, got {n_entities!r}")
        if not isinstance(offsets, dict) or not all(map(_is_int, offsets.values())):
            raise DataError(f"{source}: offsets must map relation names to integers, got {offsets!r}")
        return cls(n_entities=n_entities, offsets=dict(offsets))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class Dataset:
    """Train/valid/test splits over one shared vocabulary.

    Splits are int64 arrays of shape (n, 4) with columns (s, p, o, t).  Rows
    keep the source facts one-to-one; facts distinct only by year can land in
    the same bucket (buckets come from train years, other years clamp to the
    nearest one), so a split may carry repeated rows.  known, built from the
    splits, holds their union for filtered evaluation.
    """

    vocab: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    known: KnownFacts = field(init=False)
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


class _SplitColumns(NamedTuple):
    """One split as parallel columns: subject, relation and object names, int64 years."""

    subjects: list[str]
    relations: list[str]
    objects: list[str]
    years: np.ndarray


# Year column value of a token with no usable year; parseable years have at most six digits.
_NO_YEAR = np.iinfo(np.int64).min


def read_utf8_text(path: Path) -> str:
    r"""The text of a UTF-8 file with its "\r\n" and "\r" line ends read as "\n", as universal newlines read them.

    A byte sequence that is not UTF-8 raises DataError naming the file and the line.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise DataError(f"{path}:{lineno}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_split_file(path: Path, time_field: str) -> _SplitColumns:
    r"""Parse one split file column-wise into name columns and a year array.

    Each line holds subject, relation, object and a begin time, tab-separated,
    with an optional end time in a fifth field.  time_field ("begin" or "end")
    picks the endpoint that gives the fact its year; when that endpoint's year
    is wildcarded or absent the other one fills in, and facts with no usable
    year at all are dropped with a warning.

    Lines end at "\n" (the file is read with read_utf8_text, so "\r\n" and
    "\r" end lines too); whitespace-only lines are skipped.  Each distinct
    time token is parsed once.  A malformed file raises the DataError a
    line-by-line read would raise first: a short line reports its number, and
    of the unparseable tokens the first in file order (begin before end within
    a line) is reported.
    """
    lines = read_utf8_text(path).split("\n")
    rows = [line.split("\t") for line in lines if line.strip()]
    min_fields = 4
    short = len(rows)
    if min(map(len, rows), default=min_fields) < min_fields:
        short = next(i for i, fields in enumerate(rows) if len(fields) < min_fields)
    begin_tokens = list(map(itemgetter(3), rows[:short]))
    end_tokens = [fields[4] if len(fields) > 4 else None for fields in rows[:short]]

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
    first, second = (begin, end) if time_field == "begin" else (end, begin)
    years = np.where(first != _NO_YEAR, first, second)
    usable = years != _NO_YEAR
    names = [list(map(itemgetter(col), rows)) for col in range(3)]
    if not usable.all():
        logger.warning("%s: dropped %d facts with no usable year", path, int((~usable).sum()))
        names = [list(compress(col, usable)) for col in names]
    return _SplitColumns(*names, years[usable])


# One split as integer columns: subject, relation and object codes, int64 years.
_CodeColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _name_codes(columns: dict[str, _SplitColumns]) -> tuple[list[_CodeColumns], Callable, Callable]:
    """The splits as code columns, a name's code its dict.fromkeys position, and the code -> name lookups."""
    splits = [columns[name] for name in SPLIT_NAMES]
    entities = list(dict.fromkeys(chain.from_iterable(chain(c.subjects, c.objects) for c in splits)))
    relations = list(dict.fromkeys(chain.from_iterable(c.relations for c in splits)))
    entity, relation = ({name: i for i, name in enumerate(names)}.__getitem__ for names in (entities, relations))
    code = (entity, relation, entity)
    codes = [(*(np.fromiter(map(f, col), np.int64, len(col)) for f, col in zip(code, c[:3])), c.years) for c in splits]
    return codes, entities.__getitem__, relations.__getitem__


def _build_dataset(
    codes: list[_CodeColumns], entity_name: Callable, relation_name: Callable, rule: SyntheticRule | None, origin: str
) -> Dataset:
    """A Dataset from the three splits' code columns, ids as _assign_ids gives them; dropped rows warn."""
    vocab, arrays, dropped = _assign_ids(codes, entity_name, relation_name, origin)
    for split in SPLIT_NAMES:
        if dropped[split]:
            logger.warning("%s: dropped %d duplicate quadruples from %s split", origin, dropped[split], split)
    return Dataset(vocab=vocab, train=arrays["train"], valid=arrays["valid"], test=arrays["test"], rule=rule)


def _first_appearance(codes: np.ndarray, name: Callable[[int], str]) -> tuple[np.ndarray, list[str]]:
    """Ids numbering the non-negative codes from 0 in order of first appearance, and the names by id."""
    # in the smallest unsigned type, up to 65 536 codes take NumPy's radix sort (4.9 -> 1.0 ms, 40k codes below 500)
    narrow = codes.astype(np.min_scalar_type(codes.max(initial=0)))
    distinct, first, inverse = np.unique(narrow, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], list(map(name, distinct[order].tolist()))


def _assign_ids(
    codes: list[_CodeColumns], entity_name: Callable[[int], str], relation_name: Callable[[int], str], origin: str
) -> tuple[Vocabulary, dict[str, np.ndarray], dict[str, int]]:
    """The vocabulary, the (n, 4) id arrays and the duplicate rows dropped per split.

    codes holds the train, valid and test columns; entity_name and
    relation_name name each code, distinct names for distinct codes.
    Entity and relation ids follow first appearance scanning train, valid,
    test in that order, subject before object within a row.  Time buckets
    come from training years only; later splits clamp through
    Vocabulary.buckets_for_years.  Duplicate quadruples within a split are
    dropped, keeping first occurrences in order; they are found by the
    integer key ((s * R + p) * E + o) * B + t, and a vocabulary whose keys
    would overflow int64 raises DataError.
    """
    if len(codes[0][3]) == 0:
        raise DataError(f"{origin}: training split is empty")
    subject_then_object = np.concatenate([np.column_stack((s, o)).ravel() for s, _, o, _ in codes])
    entity_ids, entity_names = _first_appearance(subject_then_object, entity_name)
    relation_ids, relation_names = _first_appearance(np.concatenate([p for _, p, _, _ in codes]), relation_name)
    vocab = Vocabulary(entity_names, relation_names, sorted_unique(codes[0][3]).tolist())
    n_e, n_r, n_b = vocab.n_entities, vocab.n_relations, vocab.n_buckets
    _check_key_range(n_e, n_r, n_b)

    bounds = np.cumsum([len(c[3]) for c in codes])[:-1]
    pairs, relations = np.split(entity_ids.reshape(-1, 2), bounds), np.split(relation_ids, bounds)
    arrays, dropped = {}, {}
    for split, so, rel, (_, _, _, years) in zip(SPLIT_NAMES, pairs, relations, codes):
        quads = np.column_stack((so[:, 0], rel, so[:, 1], vocab.buckets_for_years(years)))
        s, p, o, t = quads.T
        key = ((s * n_r + p) * n_e + o) * n_b + t
        dropped[split] = len(quads) - len(sorted_unique(key))
        arrays[split] = quads[np.sort(np.unique(key, return_index=True)[1])] if dropped[split] else quads
    return vocab, arrays, dropped


def load_quadruples(path: str | Path, time_field: str = "begin") -> Dataset:
    """Load a dataset directory holding train.txt, valid.txt and test.txt.

    time_field, "begin" or "end" (else DataError), is _read_split_file's.  A
    directory written by save_dataset also holds the binary copy (COPY_NAME);
    when its digest matches the split files on disk, the dataset comes from
    the copy, exactly as parsing would give it under either time_field, and
    the text is only hashed.  Otherwise the files are parsed.  A rule.json
    sidecar, if present, restores the planted pattern of a synthetic dataset
    so rule-aware components keep working after a round trip through files.
    """
    if time_field not in ("begin", "end"):
        raise DataError(f"time_field must be 'begin' or 'end', got {time_field!r}")
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    cached = _read_copy(root)
    columns: dict[str, _SplitColumns] = {}
    for split in SPLIT_NAMES if cached is None else ():
        fpath = root / f"{split}.txt"
        if not fpath.is_file():
            raise DataError(f"missing split file: {fpath}")
        columns[split] = _read_split_file(fpath, time_field)
    rule_path = root / "rule.json"
    rule = SyntheticRule.from_json(rule_path.read_bytes(), source=str(rule_path)) if rule_path.is_file() else None
    ds = _build_dataset(*_name_codes(columns), rule, str(root)) if cached is None else cached
    ds.rule = rule
    logger.info(
        "loaded %s: %d entities, %d relations, %d buckets, %d/%d/%d facts",
        root, ds.vocab.n_entities, ds.vocab.n_relations, ds.vocab.n_buckets, len(ds.train), len(ds.valid), len(ds.test)
    )
    return ds


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write splits as tab-separated files (names and years, begin only), plus the binary copy.

    Reloading the written directory reproduces identical ids and counts,
    because first-appearance order is preserved fact for fact.  The copy holds
    exactly what parsing the written text gives: the dataset's ids, names and
    written years go through _assign_ids, as parsed columns do.  When the
    reload would drop rows (a split repeating a row, or rows that meet in one
    training bucket), no copy is written and an older one is removed.  The
    rule is written to rule.json; without one, an older rule.json is removed,
    so a reload never carries a rule the data does not have.  Each file is
    replaced whole (_write_atomic).  A name containing a tab or a line break,
    or a bucket year that does not read back as a year, cannot be written
    faithfully and raises DataError before anything is written.
    """
    root = Path(path)
    vocab = dataset.vocab
    _check_writable(vocab)
    years = np.asarray(vocab.time_buckets, dtype=np.int64)
    # each column's cell text by id: one fancy index per column gives a split's lines
    entity, relation, year = (
        np.array([f"{x}{end}" for x in values], dtype=object)
        for values, end in ((vocab.entity_names, "\t"), (vocab.relation_names, "\t"), (vocab.time_buckets, "\n"))
    )
    codes: list[_CodeColumns] = []
    texts: list[bytes] = []
    for s, p, o, t in (dataset.split(split).T for split in SPLIT_NAMES):
        codes.append((s, p, o, years[t]))
        lines = np.column_stack((entity[s], relation[p], entity[o], year[t]))
        texts.append("".join(lines.ravel().tolist()).encode("utf-8"))

    root.mkdir(parents=True, exist_ok=True)
    for split, text in zip(SPLIT_NAMES, texts):
        _write_atomic(root / f"{split}.txt", text)
    rule_path = root / "rule.json"
    if dataset.rule is not None:
        _write_atomic(rule_path, dataset.rule.to_json().encode("utf-8"))
    else:
        rule_path.unlink(missing_ok=True)
    copy_path = root / COPY_NAME
    names = vocab.entity_names.__getitem__, vocab.relation_names.__getitem__
    reloaded, arrays, dropped = _assign_ids(codes, *names, str(root))
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
    _write_atomic(path, _COPY_MAGIC + len(header_bytes).to_bytes(4, "little") + header_bytes + payload + digest)


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through a temporary file, so a failed write leaves the old file as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
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
    truth = q.o if cs.slot == "object" else q.s
    keys, base, start, stop = known._ranges(np.array([q]), cs.slot)
    taken = keys[start[0] : stop[0]] - base[0]
    kept = cs.candidates[~np.isin(cs.candidates, taken[taken != truth])]
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
    drawn before all replacements.  The corrupted cell of negative i (row-major
    over (n, k)) is element 4*i + 2*coin of the flattened output.
    """
    n_e = vocab.n_entities
    if n_e < 2:
        raise DataError("negative sampling needs at least two entities")
    facts = np.asarray(facts, dtype=np.int64)
    batch = facts.reshape(-1, 4)
    n = len(batch)
    negatives = np.repeat(batch, k, axis=0)
    cells = 4 * np.arange(n * k) + 2 * rng.integers(0, 2, size=(n, k)).reshape(-1)
    flat = negatives.reshape(-1)
    original = np.take(flat, cells)
    draws = rng.integers(0, n_e - 1, size=(n, k)).reshape(-1)
    np.put(flat, cells, draws + (draws >= original))
    negatives = negatives.reshape(n, k, 4)
    return negatives[0] if facts.ndim == 1 else negatives


def _split_buckets_by_share(bucket_counts: dict[int, int]) -> tuple[set[int], set[int], set[int]]:
    """Partition bucket ids (ascending) into train/valid/test by fact shares of 0.8, 0.1 and 0.1.

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
    cut1 = int(np.searchsorted(cum, 0.8 * total))
    cut1 = min(max(cut1, 0), n - 3)
    cut2 = int(np.searchsorted(cum, (0.8 + 0.1) * total))
    cut2 = min(max(cut2, cut1 + 1), n - 2)
    return set(ordered[: cut1 + 1]), set(ordered[cut1 + 1 : cut2 + 1]), set(ordered[cut2 + 1 :])


def _attempt_table(
    words: np.ndarray, bounds: tuple[int, int, int], offsets: np.ndarray, coin_below: int, key_type
) -> tuple[np.ndarray, np.ndarray]:
    """The attempt from every start state in words: (next state, fact key ((s * R + p) * E + o) * B + t).

    bounds is (E, R, B).  State h reads halves[h] next, halves being each
    word's low then high half, so an odd h holds the high half of word h // 2
    buffered; words[0] only lends that half.  The next state is -1 where the
    table cannot read the attempt: a draw NumPy would redraw, a bound above
    2**32, or an end past the last word or with a buffered half left pending.
    """
    h = np.arange(2 * len(words))
    halves = np.concatenate([np.column_stack((words & 0xFFFF_FFFF, words >> 32)).ravel(), np.zeros(6, np.uint64)])
    coins = np.concatenate([np.repeat(words >> 11 < coin_below, 2), np.zeros(3, bool)])
    n_e, n_r, n_b = (np.asarray(min(n, 2**63), dtype=np.uint64) for n in bounds)  # all above 2**32 redraw alike
    c = int(bounds[1] > 1) + int(bounds[2] > 1)  # halves drawn before the coin

    def read(offset: int, values: np.ndarray = halves) -> np.ndarray:  # values[h + offset], 0 past the end
        return values[offset : offset + len(h)]

    def draw(n, x):  # integers(n) on the halves x, and where NumPy would redraw; a bound of 1 gives 0
        m = x * n
        return m >> 32, (n > 0x1_0000_0000) | ((m & 0xFFFF_FFFF) < (0x1_0000_0000 - n) % n)

    p, bad = draw(n_r, read(0))
    t, bad_t = draw(n_b, read(int(bounds[1] > 1)))
    coin = read(c + 1, coins)  # word (h + c + 1) // 2
    pending = (h + c) & 1 == 1  # a half buffered at the coin, drawn first after it
    first = np.where(pending, read(c), read(c + 2))
    shift = offsets.astype(np.uint64)[p]
    s_pat, bad_pat = draw(n_e - shift, first)
    s, bad_s = draw(n_e, first)
    o, bad_o = draw(n_e, read(c + 3))
    drawn = np.where(coin, n_e - shift > 1, 2 * (n_e > 1))
    end = h + c + 2 + drawn
    bad |= bad_t | np.where(coin, bad_pat, bad_s | bad_o) | (pending & (drawn == 0)) | (end >= len(h))
    s, p, o, t = (x.astype(key_type) for x in (np.where(coin, s_pat, s), p, np.where(coin, s_pat + shift, o), t))
    return np.where(bad, -1, end), ((s * bounds[1] + p) * bounds[0] + o) * bounds[2] + t


def _draw_facts(rng: np.random.Generator, n_facts: int, bounds: tuple, offsets: np.ndarray, strength: float):
    """The first n_facts distinct (s, p, o, t) that generate_synthetic's attempts draw from rng, as an array.

    An attempt _attempt_table cannot read is drawn by rng itself, put at that attempt's state; a new chunk follows.
    """
    n_e, n_r, n_b = bounds
    bits = rng.bit_generator
    shifts = offsets.tolist()
    key_type = np.int64 if n_e * n_e * n_r * n_b <= np.iinfo(np.int64).max else object
    max_attempts = 200 * n_facts + 1000
    seen, attempts, h = {}, 0, None  # h: the table state; None: a new chunk from rng's state
    while len(seen) < n_facts:
        if attempts == max_attempts:
            raise DataError(
                f"could not place {n_facts} unique facts after {max_attempts} draws; lower n_facts or raise the "
                "vocabulary sizes (at pattern_strength near 1 only patterned facts are drawn, a much smaller pool "
                "than the full cross product)"
            )
        if h is None:  # about 3.3 words per fact still missing (an attempt reads 2.6 at the benchmark's shapes)
            start = bits.state
            head = np.array([start["uinteger"] << 32 if start["has_uint32"] else 0], dtype=np.uint64)
            words = np.concatenate([head, bits.random_raw(min(4096, max(256, math.ceil(3.3 * (n_facts - len(seen))))))])
            table, keys = _attempt_table(words, bounds, offsets, math.ceil(strength * 2.0**53), key_type)
            nxt, h = memoryview(table), 1 if start["has_uint32"] else 2
        path = []
        while (following := nxt[h]) >= 0:  # memoryview: Python ints without a list of every state
            path.append(h)
            h = following
        if path:
            del path[max_attempts - attempts :]
            attempts += len(path)
            seen.update(dict.fromkeys(keys[path].tolist()))
            continue
        bits.state = start
        bits.advance((h + 1) // 2 - 1)  # words[k] is the k-th word drawn after start
        state = bits.state
        state["has_uint32"], state["uinteger"] = (1, int(words[h // 2]) >> 32) if h & 1 else (0, 0)
        bits.state = state
        p, t = int(rng.integers(0, n_r)), int(rng.integers(0, n_b))
        if rng.random() < strength:
            s = int(rng.integers(0, n_e - shifts[p]))
            o = s + shifts[p]
        else:
            s, o = int(rng.integers(0, n_e)), int(rng.integers(0, n_e))
        seen[((s * n_r + p) * n_e + o) * n_b + t] = None
        attempts += 1
        h = None
    keys = np.array(list(seen)[:n_facts], dtype=key_type)
    return np.column_stack((keys // (n_r * n_e * n_b), keys // (n_e * n_b) % n_r, keys // n_b % n_e, keys % n_b))


def generate_synthetic(
    n_entities: int, n_relations: int, n_buckets: int, n_facts: int, pattern_strength: float, seed: int
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

    Nothing stores a synthetic dataset between commands: each one regenerates
    it from the seed, so a seed must give the same dataset as one Generator
    call per draw did.  After the vectorized offsets draw, each attempt draws
    p and t, the coin random() < pattern_strength, then s, or s and o; the
    first n_facts distinct facts are kept, and 200 * n_facts + 1000 attempts
    without them raise DataError.  _draw_facts reads the seed's PCG64 words
    in chunks of about 3.3 per fact still missing, and _attempt_table reads
    the attempt from every start state of a chunk in bulk.  A short loop
    follows the next states from the Generator's state; each attempt the
    table cannot read (a redraw, a bound above 2**32, an end outside the
    chunk) is drawn by the Generator itself, put at that attempt's state,
    and the next chunk starts from where it stops.  The tests compare the
    result with the old per-draw loop, so a NumPy change to the draws the
    table copies fails them.  Counts above 2**63, the largest high
    Generator.integers(0, high) takes, raise.
    """
    if min(n_entities, n_relations, n_buckets, n_facts) < 1:
        raise DataError("entity, relation, bucket and fact counts must all be positive")
    if max(n_entities, n_relations, n_buckets) > 2**63:
        raise DataError("entity, relation and bucket counts must be at most 2**63, the largest bound NumPy draws below")
    if not (0.0 <= pattern_strength <= 1.0):
        raise DataError(f"pattern_strength must lie in [0, 1], got {pattern_strength}")
    capacity = n_entities * n_entities * n_relations * n_buckets
    if n_facts > capacity:
        raise DataError(f"requested {n_facts} facts but only {capacity} distinct quadruples exist")

    rng = np.random.default_rng(seed)
    offsets = rng.integers(1, min(6, n_entities), size=n_relations) if n_entities > 1 else np.zeros(n_relations, int)
    rule = SyntheticRule(n_entities=n_entities, offsets={f"r{j}": int(offsets[j]) for j in range(n_relations)})

    facts = _draw_facts(rng, n_facts, (n_entities, n_relations, n_buckets), offsets, pattern_strength)
    splits = _split_buckets_by_share(dict(zip(*(a.tolist() for a in np.unique(facts[:, 3], return_counts=True)))))
    codes = [(s, p, o, 1900 + t) for s, p, o, t in (facts[np.isin(facts[:, 3], sorted(b))].T for b in splits)]
    return _build_dataset(codes, SyntheticRule.entity_name, "r{}".format, rule, f"synthetic(seed={seed})")
