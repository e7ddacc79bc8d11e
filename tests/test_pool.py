"""The one pool draw behind training pairs, validation pools and
evaluation pools (``RelevanceJudgments.pool``).

The three oracles below are the draws that ``trainer.sample_pairs``,
``trainer.train`` and ``retrieval.evaluate_protocol`` each wrote out on
their own before they shared ``pool``.  Every output of the pipeline is
byte-deterministic, so the shared draw must reproduce them exactly, with
the ``rng`` calls in the same order.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import retrieval as rt
from seqret import trainer as tr
from seqret.sequences import RelevanceJudgments


def old_sample_pairs(judgments, query_ids, corpus_ids, rng, negatives_per_query,
                     pairs_per_query):
    corpus_ids = sorted(corpus_ids)
    members = set(corpus_ids)
    out = {}
    for qid in sorted(query_ids):
        pos = [p for p in judgments.positives(qid) if p in members]
        if not pos:
            continue
        pos_set = set(pos)
        pool = [cid for cid in corpus_ids if cid not in pos_set]
        if not pool:
            continue
        take = min(negatives_per_query, len(pool))
        negs = [pool[i] for i in sorted(rng.choice(len(pool), size=take, replace=False))]
        pairs = [(p, n) for p in sorted(pos) for n in negs]
        if len(pairs) > pairs_per_query:
            keep = sorted(rng.choice(len(pairs), size=pairs_per_query, replace=False))
            pairs = [pairs[i] for i in keep]
        out[qid] = pairs
    return out


def old_validation_pools(judgments, valid_ids, corpus_ids, rng, n_negatives):
    corpus_ids = sorted(corpus_ids)
    members = set(corpus_ids)
    pools = {}
    for qid in sorted(valid_ids):
        pos = [p for p in judgments.positives(qid) if p in members]
        if not pos:
            continue
        pos_set = set(pos)
        pool = [cid for cid in corpus_ids if cid not in pos_set]
        take = min(n_negatives, len(pool))
        negs = [pool[i] for i in sorted(rng.choice(len(pool), size=take, replace=False))]
        pools[qid] = sorted(pos) + negs
    return pools


def old_evaluation_pools(judgments, query_ids, corpus, pool_negatives, seed):
    rng = np.random.default_rng(seed)
    corpus_ids = sorted(corpus)
    pools = {}
    for qid in sorted(query_ids):
        positives = [p for p in judgments.positives(qid) if p in corpus]
        if not positives:
            continue
        pos_set = set(positives)
        negatives = [cid for cid in corpus_ids if cid not in pos_set]
        n_neg = min(pool_negatives, len(negatives))
        drawn = rng.choice(len(negatives), size=n_neg, replace=False)
        pools[qid] = set(positives) | {negatives[i] for i in sorted(drawn)}
    return pools


@st.composite
def instances(draw):
    """Corpus ids, query ids and +1/-1 judgments, including queries with
    no judgments, with only negatives, with every corpus id positive, and
    positives outside the corpus."""
    n_corpus = draw(st.integers(1, 12))
    corpus_ids = [f"c{i:02d}" for i in draw(st.permutations(range(n_corpus)))]
    query_ids = [f"q{i}" for i in range(draw(st.integers(1, 5)))]
    judgments = RelevanceJudgments()
    for qid in query_ids:
        kind = draw(st.sampled_from(["none", "random", "all-positive"]))
        if kind == "all-positive":
            for cid in corpus_ids:
                judgments.add(qid, cid, 1)
        elif kind == "random":
            for cid in corpus_ids + ["x-outside"]:
                label = draw(st.sampled_from([None, 1, -1]))
                if label is not None:
                    judgments.add(qid, cid, label)
    return corpus_ids, query_ids, judgments


class TestPool:
    def test_positives_and_negatives_in_corpus_order(self):
        j = RelevanceJudgments()
        for cid, label in (("c3", 1), ("c1", 1), ("c2", -1), ("zz", 1)):
            j.add("q", cid, label)
        corpus_ids = ["c0", "c1", "c2", "c3", "c4"]
        pos, negs = j.pool("q", corpus_ids, np.random.default_rng(0), 10)
        assert pos == ["c1", "c3"]
        assert negs == ["c0", "c2", "c4"]

    def test_draw_without_positives_leaves_rng(self):
        j = RelevanceJudgments()
        j.add("q", "c0", -1)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert j.pool("q", ["c0", "c1"], rng, 5) == ([], [])
        assert j.pool("unjudged", ["c0", "c1"], rng, 5) == ([], [])
        assert rng.bit_generator.state == state

    def test_empty_draw_leaves_rng(self):
        j = RelevanceJudgments()
        j.add("q", "c0", 1)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert j.pool("q", ["c0"], rng, 5) == (["c0"], [])
        assert rng.bit_generator.state == state


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=instances(), n_negatives=st.integers(1, 14),
       pairs_cap=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_sample_pairs_matches_old_draw(instance, n_negatives, pairs_cap, seed):
    corpus_ids, query_ids, judgments = instance
    got = tr.sample_pairs(judgments, query_ids, corpus_ids, np.random.default_rng(seed),
                          n_negatives, pairs_cap)
    want = old_sample_pairs(judgments, query_ids, corpus_ids, np.random.default_rng(seed),
                            n_negatives, pairs_cap)
    assert got == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instance=instances(), n_negatives=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_train_validation_pools_match_old_draw(instance, n_negatives, seed):
    corpus_ids, query_ids, judgments = instance
    judgments.add("q-train", corpus_ids[0], 1)  # train needs one usable query
    config = tr.TrainConfig(dim=2, mark_count=2, n_max=4, unwarp_hidden=(2, 2), n_quad=4,
                            epochs=1, eval_negatives=n_negatives, seed=seed)
    seen = []

    def capture(queries, corpus, pools, *rest):
        seen.append(pools)
        return 0.0

    # no training pairs, so the epoch runs no batch and reads no sequence;
    # the validation pools come from their own seed stream
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "sample_pairs", lambda *args: {})
        mp.setattr(tr, "validation_map", capture)
        tr.train(dict.fromkeys(corpus_ids), {}, judgments, config, ["q-train"], query_ids)
    rng_val = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    want = old_validation_pools(judgments, query_ids, corpus_ids, rng_val, n_negatives)
    assert seen == ([want] if want else [])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=instances(), n_negatives=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_evaluation_pools_match_old_draw(instance, n_negatives, seed):
    corpus_ids, query_ids, judgments = instance
    seen = {}

    def rank_pool(pipeline, query, k, exhaustive, restrict_to):
        seen[query] = restrict_to
        return rt.RankedResult(query, [(cid, 0.0) for cid in sorted(restrict_to)],
                               "exhaustive", len(pipeline.corpus))

    pipeline = SimpleNamespace(corpus=dict.fromkeys(corpus_ids))
    want = old_evaluation_pools(judgments, query_ids, pipeline.corpus, n_negatives, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "query_topk", rank_pool)
        try:
            report, _ = rt.evaluate_protocol(pipeline, {q: q for q in query_ids}, judgments,
                                             query_ids, pool_negatives=n_negatives,
                                             seed=seed, exhaustive=True)
        except ValueError:
            assert not want
            return
    assert seen == want
    assert report.skipped == sorted(set(query_ids) - set(want))
