"""Corpus data model, file formats, and query splitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqret import sequences as sq
from seqret.sequences import (
    CorpusFormatError,
    RelevanceJudgments,
    load_corpus,
    load_judgments,
    save_corpus,
    save_judgments,
    split_queries,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def record(seq_id="a", horizon=10.0, events=((1.0, 0), (2.5, 1))):
    return json.dumps({"id": seq_id, "horizon": horizon, "events": [list(e) for e in events]})


class TestLoading:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a"), record("b", events=[[0.5, 2]])])
        corpus = load_corpus(p, mark_count=3)
        assert list(corpus) == ["a", "b"]
        np.testing.assert_array_equal(corpus["a"].times, [1.0, 2.5])
        np.testing.assert_array_equal(corpus["a"].marks, [0, 1])
        assert corpus["a"].horizon == 10.0

    def test_save_load_stable_bytes(self, tmp_path):
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_lines(p1, [record("a", horizon=3.75), record("b", events=[[0.1, 1], [0.2, 0]])])
        corpus = load_corpus(p1)
        save_corpus(corpus, p2)
        again = load_corpus(p2)
        p3 = tmp_path / "three.jsonl"
        save_corpus(again, p3)
        assert p2.read_bytes() == p3.read_bytes()
        for k in corpus:
            np.testing.assert_array_equal(corpus[k].times, again[k].times)
            np.testing.assert_array_equal(corpus[k].marks, again[k].marks)
            assert corpus[k].horizon == again[k].horizon

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a"), record("a")])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(p)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a"), "{not json"])
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(p)

    def test_first_event_at_zero_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", events=[[0.0, 0]])])
        with pytest.raises(CorpusFormatError, match="time > 0"):
            load_corpus(p)

    def test_non_increasing_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", events=[[2.0, 0], [2.0, 1]])])
        with pytest.raises(CorpusFormatError, match="strictly increasing"):
            load_corpus(p)

    def test_event_after_horizon_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", horizon=1.0, events=[[2.0, 0]])])
        with pytest.raises(CorpusFormatError, match="exceeds horizon"):
            load_corpus(p)

    def test_mark_out_of_vocab_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", events=[[1.0, 5]])])
        with pytest.raises(CorpusFormatError, match="mark"):
            load_corpus(p, mark_count=3)

    def test_empty_sequence_loads(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", events=[])])
        assert len(load_corpus(p)["a"]) == 0

    @pytest.mark.parametrize("line,match", [
        (record(7), "non-empty string"),
        (record(""), "non-empty string"),
        (record("a", events=[[1.0, 0], [float("nan"), 1], [3.0, 2]]), "finite"),
        (record("a", events=[[1.0, True]]), "integers"),
        (record("a", events=[[1.0, 1.7]]), "integers"),
        (record("a", events=[[1.0, 1.0]]), "integers"),
        (record("a", events=[[1.0, 2**64]]), "malformed"),
        (record("a", horizon=10**400), "malformed"),
        (record("a", horizon="10"), "horizon must be a number"),
        (record("a", horizon=True), "horizon must be a number"),
        (record("a", events=[[True, 0]]), "time must be a number"),
        (record("a", events=[[1.0, 0], ["1.5", 1]]), "time must be a number"),
        (record("a", events=[[1.0, 0], [float("inf"), 1]]), "finite"),
        (record("a", events=[[10**400, 0]]), "malformed"),
        (record("a", events=[[1.0, 0, 2]]), "pair"),
        (json.dumps({"id": "a", "horizon": 10.0, "events": {}}), "list"),
    ], ids=["int-id", "empty-id", "nan-time", "bool-mark", "float-mark", "whole-float-mark",
            "mark-overflow", "horizon-overflow", "string-horizon", "bool-horizon",
            "bool-time", "string-time", "inf-time", "time-overflow", "three-field-event",
            "events-object"])
    def test_hostile_record_rejected(self, tmp_path, line, match):
        p = tmp_path / "c.jsonl"
        write_lines(p, [line])
        with pytest.raises(CorpusFormatError, match=match):
            load_corpus(p)


def _json_values():
    return st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                     st.just(10**400), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(-3, 3), max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


class TestFuzz:
    """One-field mutations of a valid record: the loader either returns
    valid data or raises ``CorpusFormatError``, never anything else."""

    VALID = {"id": "a", "horizon": 10.0, "events": [[1.0, 0], [2.5, 1], [4.0, 2]]}

    @staticmethod
    def mutate(where, value):
        rec = json.loads(json.dumps(TestFuzz.VALID))
        if where == "record":
            return value
        if where.startswith("drop-"):
            del rec[where[5:]]
        elif where.startswith("event"):
            rec["events"][1] = value
        elif where.startswith("time"):
            rec["events"][1][0] = value
        elif where.startswith("mark"):
            rec["events"][1][1] = value
        else:
            rec[where] = value
        return rec

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(where=st.sampled_from(["id", "horizon", "events", "event", "time", "mark",
                                  "record", "drop-id", "drop-horizon", "drop-events"]),
           value=_json_values(), duplicate=st.booleans(),
           mark_count=st.sampled_from([None, 3]))
    def test_one_field_mutation(self, tmp_path, where, value, duplicate, mark_count):
        rec = self.mutate(where, value)
        lines = [json.dumps(rec)] * (2 if duplicate else 1)
        p = tmp_path / "fuzz.jsonl"
        write_lines(p, lines)
        try:
            corpus = load_corpus(p, mark_count=mark_count)
        except CorpusFormatError:
            return
        assert not duplicate
        (seq,) = corpus.values()
        assert isinstance(seq.id, str) and seq.id and list(corpus) == [rec["id"]]
        assert math.isfinite(seq.horizon) and seq.horizon > 0
        assert seq.times.dtype == np.float64 and seq.marks.dtype == np.int64
        t = seq.times
        assert np.all(np.isfinite(t)) and np.all(np.diff(t, prepend=0.0) > 0)
        assert len(t) == 0 or t[-1] <= seq.horizon
        json_marks = [e[1] for e in rec["events"]]
        assert all(type(m) is int for m in json_marks)
        assert seq.marks.tolist() == json_marks
        assert np.all(seq.marks >= 0) and (mark_count is None or np.all(seq.marks < mark_count))


class TestInterArrival:
    def test_loaded_gaps_strictly_positive(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record("a", events=[[0.3, 0], [0.9, 1], [4.0, 2]])])
        gaps = np.diff(load_corpus(p)["a"].times, prepend=0.0)
        assert (gaps > 0).all()


class TestJudgments:
    def test_roundtrip(self, tmp_path):
        j = RelevanceJudgments()
        j.add("q1", "c1", 1)
        j.add("q1", "c2", -1)
        j.add("q2", "c1", -1)
        p = tmp_path / "j.tsv"
        save_judgments(j, p)
        back = load_judgments(p)
        assert back.query_ids() == ["q1", "q2"]
        assert back.positives("q1") == ["c1"]
        assert back.positives("q2") == []
        again = tmp_path / "again.tsv"
        save_judgments(back, again)
        assert again.read_text() == p.read_text() == "q1\tc1\t1\nq1\tc2\t-1\nq2\tc1\t-1\n"

    def test_duplicate_pair_rejected(self):
        j = RelevanceJudgments()
        j.add("q", "c", 1)
        with pytest.raises(CorpusFormatError, match="duplicate"):
            j.add("q", "c", -1)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "j.tsv"
        p.write_text("q\tc\t2\n")
        with pytest.raises(CorpusFormatError):
            load_judgments(p)

    def test_field_count_enforced(self, tmp_path):
        p = tmp_path / "j.tsv"
        p.write_text("q\tc\n")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_judgments(p)

    def test_validate_ids(self):
        j = RelevanceJudgments()
        j.add("q", "c", 1)
        j.validate_ids(["q"], ["c"])
        with pytest.raises(CorpusFormatError, match="unknown corpus"):
            j.validate_ids(["q"], ["other"])
        with pytest.raises(CorpusFormatError, match="unknown query"):
            j.validate_ids(["other"], ["c"])


class TestSplit:
    def test_documented_rounding(self):
        ids = [f"q{i}" for i in range(10)]
        s = split_queries(ids, (0.5, 0.1, 0.4), seed=3)
        assert (len(s.train), len(s.valid), len(s.test)) == (5, 1, 4)

    def test_deterministic(self):
        ids = [f"q{i}" for i in range(23)]
        assert split_queries(ids, seed=7) == split_queries(ids, seed=7)
        assert split_queries(ids, seed=7) != split_queries(ids, seed=8)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 120), seed=st.integers(0, 2**31))
    def test_partition_property(self, n, seed):
        ids = [f"q{i}" for i in range(n)]
        s = split_queries(ids, seed=seed)
        combined = sorted(s.train + s.valid + s.test)
        assert combined == sorted(ids)
        assert len(set(s.train) & set(s.valid)) == 0
        assert len(set(s.train) & set(s.test)) == 0
        assert len(set(s.valid) & set(s.test)) == 0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split_queries(["a"], (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            split_queries(["a"], (-0.1, 0.6, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_fraction_named(self, bad):
        with pytest.raises(ValueError, match=r"finite non-negative numbers, got \((nan|inf), "):
            split_queries(["a"], (bad, 0.5, 0.5))
