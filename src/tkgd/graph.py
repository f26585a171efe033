"""Temporal fact data: vocabularies, datasets, candidate sets, sampling, synthesis.

A fact is a quadruple (subject, relation, object, time bucket).  Files are
tab-separated with entity and relation names as opaque strings and times as
calendar tokens; everything downstream works on contiguous integer ids.
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")

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


class KnownFacts:
    """Set-based index of every fact in the dataset, keyed both ways.

    objects_for(s, p, t) answers "which objects complete this query", and
    subjects_for(p, o, t) the mirror question; both are what raw candidate
    lists get filtered against.
    """

    def __init__(self, quadruples: Iterable[tuple[int, int, int, int]]):
        self._by_spt: dict[tuple[int, int, int], set[int]] = {}
        self._by_pot: dict[tuple[int, int, int], set[int]] = {}
        self._all: set[tuple[int, int, int, int]] = set()
        for s, p, o, t in quadruples:
            key = (int(s), int(p), int(o), int(t))
            if key in self._all:
                continue
            self._all.add(key)
            self._by_spt.setdefault((key[0], key[1], key[3]), set()).add(key[2])
            self._by_pot.setdefault((key[1], key[2], key[3]), set()).add(key[0])

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, quad: tuple[int, int, int, int]) -> bool:
        s, p, o, t = quad
        return (int(s), int(p), int(o), int(t)) in self._all

    def objects_for(self, s: int, p: int, t: int) -> set[int]:
        return self._by_spt.get((int(s), int(p), int(t)), set())

    def subjects_for(self, p: int, o: int, t: int) -> set[int]:
        return self._by_pot.get((int(p), int(o), int(t)), set())


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
            combined = np.concatenate([self.train, self.valid, self.test], axis=0)
            self.known = KnownFacts(map(tuple, combined.tolist()))

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


def _read_split_file(path: Path, schema: LoadSchema) -> list[tuple[str, str, str, int]]:
    """Parse one split file into (subject, relation, object, year) rows."""
    rows: list[tuple[str, str, str, int]] = []
    dropped = 0
    min_fields = max(schema.subject_col, schema.relation_col, schema.object_col, schema.begin_col) + 1
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
            begin = parse_time_token(fields[schema.begin_col])
            end = parse_time_token(fields[schema.end_col]) if schema.end_col < len(fields) else None
            year = begin if schema.time_field == "begin" else end
            if year is None:
                year = end if schema.time_field == "begin" else begin
            if year is None:
                dropped += 1
                continue
            rows.append(
                (fields[schema.subject_col], fields[schema.relation_col], fields[schema.object_col], year)
            )
    if dropped:
        logger.warning("%s: dropped %d facts with no usable year", path, dropped)
    return rows


def _build_dataset(
    named_splits: dict[str, list[tuple[str, str, str, int]]],
    rule: SyntheticRule | None = None,
    origin: str = "dataset",
) -> Dataset:
    """Assign ids and assemble a Dataset from per-split name rows.

    Entity and relation ids follow first appearance scanning train, valid,
    test in that order.  Time buckets come from training years only; later
    splits clamp.  Duplicate quadruples within a split are dropped with a
    warning.
    """
    if not named_splits.get("train"):
        raise DataError(f"{origin}: training split is empty")

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    for split in SPLIT_NAMES:
        for s_name, p_name, o_name, _year in named_splits.get(split, []):
            for name in (s_name, o_name):
                if name not in entity_ids:
                    entity_ids[name] = len(entity_ids)
            if p_name not in relation_ids:
                relation_ids[p_name] = len(relation_ids)

    train_years = sorted({year for _s, _p, _o, year in named_splits["train"]})
    vocab = Vocabulary(
        entity_names=list(entity_ids),
        relation_names=list(relation_ids),
        time_buckets=train_years,
    )

    arrays: dict[str, np.ndarray] = {}
    for split in SPLIT_NAMES:
        seen: set[tuple[int, int, int, int]] = set()
        quads: list[tuple[int, int, int, int]] = []
        duplicates = 0
        for s_name, p_name, o_name, year in named_splits.get(split, []):
            quad = (
                entity_ids[s_name],
                relation_ids[p_name],
                entity_ids[o_name],
                vocab.bucket_for_year(year),
            )
            if quad in seen:
                duplicates += 1
                continue
            seen.add(quad)
            quads.append(quad)
        if duplicates:
            logger.warning("%s: dropped %d duplicate quadruples from %s split", origin, duplicates, split)
        arrays[split] = np.asarray(quads, dtype=np.int64).reshape(-1, 4)

    return Dataset(vocab=vocab, train=arrays["train"], valid=arrays["valid"], test=arrays["test"], rule=rule)


def load_quadruples(path: str | Path, schema: LoadSchema | None = None) -> Dataset:
    """Load a dataset directory holding train.txt, valid.txt and test.txt.

    A rule.json sidecar, if present, restores the planted pattern of a
    synthetic dataset so rule-aware components keep working after a
    round trip through files.
    """
    schema = schema or LoadSchema()
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    named: dict[str, list[tuple[str, str, str, int]]] = {}
    for split in SPLIT_NAMES:
        fpath = root / f"{split}.txt"
        if not fpath.is_file():
            raise DataError(f"missing split file: {fpath}")
        named[split] = _read_split_file(fpath, schema)

    rule = None
    rule_path = root / "rule.json"
    if rule_path.is_file():
        rule = SyntheticRule.from_json(rule_path.read_text(encoding="utf-8"))

    ds = _build_dataset(named, rule=rule, origin=str(root))
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
    """Write splits back to tab-separated files (names and years, begin only).

    Reloading the written directory reproduces identical ids and counts,
    because first-appearance order is preserved fact for fact.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    vocab = dataset.vocab
    for split in SPLIT_NAMES:
        with (root / f"{split}.txt").open("w", encoding="utf-8") as fh:
            for s, p, o, t in dataset.split(split).tolist():
                fh.write(
                    f"{vocab.entity_names[s]}\t{vocab.relation_names[p]}\t"
                    f"{vocab.entity_names[o]}\t{vocab.time_buckets[t]}\n"
                )
    if dataset.rule is not None:
        (root / "rule.json").write_text(dataset.rule.to_json(), encoding="utf-8")


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

    counts: dict[int, int] = {}
    for _s, _p, _o, t in facts:
        counts[t] = counts.get(t, 0) + 1
    train_b, valid_b, test_b = _split_buckets_by_share(counts)

    named: dict[str, list[tuple[str, str, str, int]]] = {k: [] for k in SPLIT_NAMES}
    for s, p, o, t in facts:
        split = "train" if t in train_b else ("valid" if t in valid_b else "test")
        named[split].append((f"e{s}", f"r{p}", f"e{o}", 1900 + t))

    return _build_dataset(named, rule=rule, origin=f"synthetic(seed={seed})")
