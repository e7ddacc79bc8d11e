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

    def validate(self, mark_count: int | None = None) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise CorpusFormatError(f"sequence id must be a non-empty string, got {self.id!r}")
        if not math.isfinite(self.horizon) or self.horizon <= 0.0:
            raise CorpusFormatError(f"{self.id}: horizon must be finite and > 0")
        t = self.times
        if t.shape != self.marks.shape:
            raise CorpusFormatError(f"{self.id}: times and marks length mismatch")
        if len(self) == 0:
            return
        if not np.all(np.isfinite(t)):
            raise CorpusFormatError(f"{self.id}: event times must be finite")
        if t[0] <= 0.0:
            raise CorpusFormatError(f"{self.id}: first event must be at time > 0")
        if np.any(np.diff(t) <= 0.0):
            raise CorpusFormatError(f"{self.id}: event times must be strictly increasing")
        if t[-1] > self.horizon:
            raise CorpusFormatError(f"{self.id}: event time {t[-1]} exceeds horizon {self.horizon}")
        if np.any(self.marks < 0) or (mark_count is not None and np.any(self.marks >= mark_count)):
            raise CorpusFormatError(f"{self.id}: mark outside [0, {mark_count})")


def load_corpus(path, mark_count: int | None = None) -> Corpus:
    """Load a JSONL corpus keyed by sequence id, in file order.

    Marks must be JSON integers: ``1.7`` and ``true`` are refused rather
    than truncated to 1.
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
                events = rec["events"]
                marks = [e[1] for e in events]
                if any(type(m) is not int for m in marks):
                    raise TypeError("marks must be integers")
                seq = EventSequence(rec["id"], [float(e[0]) for e in events], marks,
                                    float(rec["horizon"]))
            except (KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
                raise CorpusFormatError(f"{path}:{lineno}: malformed record: {err}") from err
            try:
                seq.validate(mark_count)
            except CorpusFormatError as err:
                raise CorpusFormatError(f"{path}:{lineno}: {err}") from err
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
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative numbers")
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
