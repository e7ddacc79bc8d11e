"""Event-sequence data model and on-disk formats.

A corpus is a set of finite marked event streams observed on [0, horizon].
Sequences arrive as JSON lines::

    {"id": "b3s12", "horizon": 42.5, "events": [[0.7, 2], [1.9, 0], ...]}

with event times strictly increasing and marks drawn from a fixed
categorical vocabulary.  Relevance judgments are TSV triples
``query_id<TAB>corpus_id<TAB>label`` with label +1 or -1; pairs absent
from the file are unjudged.

The first inter-arrival gap is measured from 0, so loaders reject
sequences whose first event sits at time 0 (every gap must be positive
for the lognormal density to be evaluable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventSequence",
    "RelevanceJudgments",
    "DatasetSplit",
    "CorpusFormatError",
    "load_corpus",
    "save_corpus",
    "load_judgments",
    "save_judgments",
    "split_queries",
]

Corpus = dict[str, "EventSequence"]


class CorpusFormatError(ValueError):
    """A corpus or judgments file violated the documented format."""


@dataclass
class EventSequence:
    """Ordered events on [0, horizon], stored as parallel arrays."""

    id: str
    times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.marks = np.asarray(self.marks, dtype=np.int64)
        self.times.setflags(write=False)
        self.marks.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.shape[0])


def _number(value, what: str) -> float:
    """A JSON number as a finite float; strings, booleans, NaN and
    infinities are refused, and an integer too large for a float raises
    ``OverflowError``."""
    if type(value) not in (int, float):
        raise CorpusFormatError(f"{what} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise CorpusFormatError(f"{what} must be finite, got {value!r}")
    return out


def _parse_record(rec, mark_count: int | None) -> EventSequence:
    """Check one decoded record in a single pass over its Python values."""
    seq_id, horizon, events = rec["id"], rec["horizon"], rec["events"]
    if type(seq_id) is not str or not seq_id:
        raise CorpusFormatError(f"sequence id must be a non-empty string, got {seq_id!r}")
    horizon = _number(horizon, f"{seq_id}: horizon")
    if horizon <= 0.0:
        raise CorpusFormatError(f"{seq_id}: horizon must be > 0")
    if type(events) is not list:
        raise CorpusFormatError(f"{seq_id}: events must be a list")
    times: list[float] = []
    marks: list[int] = []
    for event in events:
        if type(event) is not list or len(event) != 2:
            raise CorpusFormatError(f"{seq_id}: an event must be a [time, mark] pair")
        t = _number(event[0], f"{seq_id}: event time")
        m = event[1]
        if type(m) is not int:
            raise CorpusFormatError(f"{seq_id}: marks must be integers, got {m!r}")
        if not times and t <= 0.0:
            raise CorpusFormatError(f"{seq_id}: first event must be at time > 0")
        if times and t <= times[-1]:
            raise CorpusFormatError(f"{seq_id}: event times must be strictly increasing")
        if m < 0 or (mark_count is not None and m >= mark_count):
            raise CorpusFormatError(f"{seq_id}: mark outside [0, {mark_count})")
        times.append(t)
        marks.append(m)
    if times and times[-1] > horizon:
        raise CorpusFormatError(f"{seq_id}: event time {times[-1]} exceeds horizon {horizon}")
    return EventSequence(seq_id, times, marks, horizon)


def load_corpus(path, mark_count: int | None = None) -> Corpus:
    """Load a JSONL corpus keyed by sequence id, in file order.

    Times and horizons must be finite JSON numbers and marks JSON
    integers: ``"1.5"``, ``true`` and (for marks) ``1.7`` are refused
    rather than converted.
    """
    corpus: Corpus = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {err}") from err
            try:
                seq = _parse_record(rec, mark_count)
            except CorpusFormatError as err:
                raise CorpusFormatError(f"{path}:{lineno}: {err}") from err
            except (KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
                raise CorpusFormatError(f"{path}:{lineno}: malformed record: {err}") from err
            if seq.id in corpus:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate sequence id {seq.id!r}")
            corpus[seq.id] = seq
    return corpus


def save_corpus(corpus: Corpus, path) -> None:
    """Write JSONL with canonical field order (id, horizon, events)."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in corpus.values():
            rec = {
                "id": seq.id,
                "horizon": float(seq.horizon),
                "events": [[float(t), int(m)] for t, m in zip(seq.times, seq.marks)],
            }
            fh.write(json.dumps(rec, separators=(", ", ": ")) + "\n")


class RelevanceJudgments:
    """Sparse (query, corpus) -> {+1, -1} labels with per-query access."""

    def __init__(self):
        self._by_query: dict[str, dict[str, int]] = {}

    def add(self, query_id: str, corpus_id: str, label: int) -> None:
        if label not in (1, -1):
            raise CorpusFormatError(f"label must be +1 or -1, got {label}")
        row = self._by_query.setdefault(query_id, {})
        if corpus_id in row:
            raise CorpusFormatError(f"duplicate judgment for ({query_id}, {corpus_id})")
        row[corpus_id] = label

    def positives(self, query_id: str) -> list[str]:
        return sorted(c for c, l in self._by_query.get(query_id, {}).items() if l == 1)

    def pool(self, query_id: str, corpus_ids: list[str], rng,
             n_negatives: int) -> tuple[list[str], list[str]]:
        """The sample every ranking is learned and judged on.

        Returns the query's judged positives in ``corpus_ids`` (which must
        be sorted) and up to ``n_negatives`` of the other ids, drawn
        without replacement, both in corpus order.  Unjudged ids count as
        negatives; a judged positive never does.  Nothing is drawn for a
        query without positives, and an empty draw leaves ``rng`` as it was.
        """
        members = set(corpus_ids)
        positives = [c for c in self.positives(query_id) if c in members]
        if not positives:
            return [], []
        chosen = set(positives)
        rest = [c for c in corpus_ids if c not in chosen]
        drawn = rng.choice(len(rest), size=min(n_negatives, len(rest)), replace=False)
        return positives, [rest[i] for i in sorted(drawn)]

    def query_ids(self) -> list[str]:
        return list(self._by_query)

    def validate_ids(self, query_ids, corpus_ids) -> None:
        queries = set(query_ids)
        corpus = set(corpus_ids)
        for q, row in self._by_query.items():
            if q not in queries:
                raise CorpusFormatError(f"judgment references unknown query {q!r}")
            for c in row:
                if c not in corpus:
                    raise CorpusFormatError(f"judgment references unknown corpus id {c!r}")


def load_judgments(path) -> RelevanceJudgments:
    out = RelevanceJudgments()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            q, c, lab = parts
            try:
                label = int(lab)
            except ValueError as err:
                raise CorpusFormatError(f"{path}:{lineno}: bad label {lab!r}") from err
            try:
                out.add(q, c, label)
            except CorpusFormatError as err:
                raise CorpusFormatError(f"{path}:{lineno}: {err}") from err
    return out


def save_judgments(judgments: RelevanceJudgments, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in judgments.query_ids():
            row = judgments._by_query[q]
            for c in row:
                fh.write(f"{q}\t{c}\t{row[c]}\n")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]


def split_queries(query_ids, fractions=(0.5, 0.1, 0.4), seed: int = 0) -> DatasetSplit:
    """Shuffle query ids and cut train/valid/test by the given fractions.

    Counts use floor rounding for train and valid; the remainder goes to
    test, so the three parts always partition the input exactly.
    """
    if len(fractions) != 3 or not all(0 <= f < math.inf for f in fractions):
        raise ValueError(f"fractions must be three finite non-negative numbers, "
                         f"got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    ids = sorted(query_ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    n = len(ids)
    n_train = int(math.floor(fractions[0] * n))
    n_valid = int(math.floor(fractions[1] * n))
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        valid=tuple(shuffled[n_train : n_train + n_valid]),
        test=tuple(shuffled[n_train + n_valid :]),
    )
