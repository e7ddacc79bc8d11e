"""Retrieval metrics, candidate scoring, and the end-to-end pipeline."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import retrieval as rt
from seqret.hashing import HashConfig, HashIndex, HashNetParams, HashEncoder, build_index
from seqret.mtpp import ModelConfig, ModelParams
from seqret.autodiff import Tape
from seqret.relevance import (VanishingGradientError, distance_terms, fisher_vector,
                              mark_distance, relevance_score, score_graph, time_distance)
from seqret.sequences import EventSequence, RelevanceJudgments
from seqret.unwarp import UnwarpConfig, UnwarpParams, unwarp_sequence

from conftest import random_sequence


class TestMetrics:
    def test_ap_hits_at_one_and_three(self):
        ranking = ["p1", "n1", "p2", "n2", "n3"]
        assert rt.average_precision(ranking, {"p1", "p2"}) == pytest.approx(5 / 6, abs=1e-12)

    def test_ap_perfect_prefix_is_one(self):
        assert rt.average_precision(["a", "b", "x"], {"a", "b"}) == pytest.approx(1.0, abs=1e-12)

    def test_ap_missing_positive_counts_in_denominator(self):
        assert rt.average_precision(["a"], {"a", "b"}) == pytest.approx(0.5, abs=1e-12)

    def test_ap_without_relevant_rejected(self):
        with pytest.raises(ValueError):
            rt.average_precision(["a"], set())

    def test_reciprocal_rank(self):
        assert rt.reciprocal_rank(["n", "p", "m"], {"p"}) == pytest.approx(0.5, abs=1e-12)
        assert rt.reciprocal_rank(["n", "m"], {"p"}) == 0.0
        assert rt.reciprocal_rank(["p"], {"p"}) == pytest.approx(1.0, abs=1e-12)

    def test_ndcg_hand_case(self):
        got = rt.ndcg_at_k(["n", "p"], {"p"}, k=2)
        assert got == pytest.approx((1 / np.log2(3)) / 1.0, abs=1e-12)

    def test_ndcg_perfect_is_one(self):
        assert rt.ndcg_at_k(["p1", "p2", "n"], {"p1", "p2"}, k=3) == pytest.approx(1.0, abs=1e-12)
        assert rt.ndcg_at_k(["p1", "n"], {"p1", "p2", "p3"}, k=1) == pytest.approx(1.0, abs=1e-12)

    def test_ndcg_validation(self):
        with pytest.raises(ValueError):
            rt.ndcg_at_k(["a"], {"a"}, k=0)
        with pytest.raises(ValueError):
            rt.ndcg_at_k(["a"], set(), k=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ndcg_nondecreasing_in_k_beyond_relevant_count(self, seed):
        # The truncated ideal stops growing at k = #relevant, so past that
        # point larger cutoffs can only add gain.
        rng = np.random.default_rng(seed)
        ids = [f"c{i}" for i in range(12)]
        rng.shuffle(ids)
        relevant = set(rng.choice(ids, size=rng.integers(1, 5), replace=False))
        values = [rt.ndcg_at_k(ids, relevant, k) for k in range(len(relevant), 13)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_mean_metric(self):
        assert rt.mean_metric({"a": 0.5, "b": 1.0}) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            rt.mean_metric({})

    def test_rank_by_score_breaks_ties_by_id(self):
        scores = {"b": 1.0, "a": 1.0, "c": 2.0}
        assert rt.rank_by_score(scores) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


def make_models(rng, variant_pair=("cross", "self"), dim=4, mark_count=3):
    score_cfg = ModelConfig(variant=variant_pair[0], dim=dim, mark_count=mark_count, n_max=32)
    index_cfg = ModelConfig(variant=variant_pair[1], dim=dim, mark_count=mark_count, n_max=32)
    score_params = ModelParams.init(score_cfg, rng)
    index_params = ModelParams.init(index_cfg, rng)
    ucfg = UnwarpConfig(hidden=(8, 8), n_quad=16)
    unwarp = UnwarpParams.identity(ucfg)
    return score_params, index_params, unwarp


def make_corpus(rng, n=12, mark_count=3):
    return {f"c{i:02d}": random_sequence(rng, mark_count=mark_count, seq_id=f"c{i:02d}")
            for i in range(n)}


@pytest.fixture
def small_pipeline(rng):
    corpus = make_corpus(rng)
    score_params, index_params, unwarp = make_models(rng)
    config = rt.PipelineConfig(
        hash=HashConfig(n_bits=4, hidden=8, epochs=5, tables=3, bits_per_table=2, seed=3),
    )
    pipeline = rt.build_pipeline(corpus, score_params, unwarp, index_params, unwarp, config)
    return pipeline, corpus


class TestScoring:
    def test_matches_pairwise_relevance_score(self, rng):
        corpus = make_corpus(rng, n=5)
        for variant in ("cross", "self"):
            score_params, _, unwarp = make_models(rng, variant_pair=(variant, "self"))
            query = random_sequence(rng, seq_id="q")
            got = rt.score_candidates(query, corpus.values(), score_params, unwarp)
            for cid, seq in corpus.items():
                want = relevance_score(query, seq, unwarp, score_params)
                assert got[cid] == want, (variant, cid)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["cross", "self"]),
           gamma=st.sampled_from([0.0, 0.1, 1.0]), nq=st.integers(2, 6),
           warped=st.booleans())
    def test_equals_score_graph_on_a_tape(self, seed, variant, gamma, nq, warped):
        """The eval path and the trainer's taped ``score_graph`` give one score."""
        rng = np.random.default_rng(seed)
        score_params, _, unwarp = make_models(rng, variant_pair=(variant, "self"))
        if warped:
            unwarp = UnwarpParams.init(unwarp.config, rng, scale=0.5)
        query = random_sequence(rng, n=nq, seq_id="q")
        # shorter than, as long as and longer than the query: both tail
        # branches of time_distance_graph and the branch without a tail; two
        # of the query's length, so that one group stacks two rows
        candidates = [random_sequence(rng, n=n, seq_id=f"c{i}")
                      for i, n in enumerate((1, nq, nq, nq + 3))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = rt.score_candidates(query, candidates, score_params, unwarp, gamma=gamma)
            uq = unwarp_sequence(query, unwarp)
        cond = uq if variant == "cross" else None
        vq = fisher_vector(uq, score_params, conditioning=cond).vector
        for c in candidates:
            vc = fisher_vector(c, score_params, conditioning=cond).vector
            with Tape() as tape:
                want = score_graph(tape, tape.constant(vq), tape.constant(vc),
                                   tape.constant(uq.times), query, c,
                                   max(uq.horizon, c.horizon), gamma).item()
            assert got[c.id] == want, c.id

    def test_gamma_scales_distance_share(self, rng):
        corpus = make_corpus(rng, n=3)
        score_params, _, unwarp = make_models(rng)
        query = random_sequence(rng, seq_id="q")
        base = rt.score_candidates(query, corpus.values(), score_params, unwarp, gamma=0.0)
        shifted = rt.score_candidates(query, corpus.values(), score_params, unwarp, gamma=0.2)
        for cid, seq in corpus.items():
            want = relevance_score(query, seq, unwarp, score_params, gamma=0.2)
            assert shifted[cid] == want
            assert shifted[cid] != base[cid]

    def test_self_variant_cache_reused(self, rng):
        corpus = make_corpus(rng, n=4)
        score_params, _, unwarp = make_models(rng, variant_pair=("self", "self"))
        q1 = random_sequence(rng, seq_id="q1")
        q2 = random_sequence(rng, seq_id="q2")
        cache = {}
        cold = rt.score_candidates(q1, corpus.values(), score_params, unwarp, vector_cache=cache)
        assert set(cache) == set(corpus)
        warm = rt.score_candidates(q1, corpus.values(), score_params, unwarp, vector_cache=cache)
        assert warm == cold
        # the cache must be keyed by corpus id only, not by query
        fresh = rt.score_candidates(q2, corpus.values(), score_params, unwarp)
        cached = rt.score_candidates(q2, corpus.values(), score_params, unwarp, vector_cache=cache)
        for cid in corpus:
            assert cached[cid] == pytest.approx(fresh[cid], abs=1e-12)

    def test_vanishing_candidate_skipped(self, rng, monkeypatch):
        corpus = make_corpus(rng, n=3)
        score_params, _, unwarp = make_models(rng)
        monkeypatch.setattr(rt, "fisher_vectors", vanishing_rows(rt.fisher_vectors, {"c01"}))
        query = random_sequence(rng, seq_id="q")
        with pytest.warns(UserWarning, match="c01"):
            scores = rt.score_candidates(query, corpus.values(), score_params, unwarp)
        assert set(scores) == {"c00", "c02"}


def distance_term(uq, query, c, gamma):
    """Reference: the per-pair eval-mode gamma * sim that ``distance_terms``
    replaced, through ``time_distance`` on a throwaway tape."""
    T = max(uq.horizon, c.horizon)
    return -gamma * (time_distance(uq, c, T) + mark_distance(query, c))


class TestDistanceTerms:
    """``distance_terms`` stacks the candidates of each length; every term
    must equal the per-pair ``distance_term`` bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.0, 0.1, 1.0]),
           nq=st.integers(1, 130), warped=st.booleans())
    def test_equals_distance_term(self, seed, gamma, nq, warped):
        rng = np.random.default_rng(seed)
        unwarp = UnwarpParams.identity(UnwarpConfig(hidden=(8, 8), n_quad=16))
        if warped:  # T may then come from the unwarped query horizon
            unwarp = UnwarpParams.init(unwarp.config, rng, scale=0.5)
        query = random_sequence(rng, n=nq, seq_id="q")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            uq = unwarp_sequence(query, unwarp)
        # shorter, equal and longer; repeated lengths stack several rows
        lengths = [1, max(1, nq - 1), nq, nq, nq, nq + 1, nq + 4]
        drawn = rng.integers(1, 131, size=4)
        lengths += list(drawn) + [int(drawn[0])] * 3
        candidates = [random_sequence(rng, n=int(n), seq_id=f"c{i}")
                      for i, n in enumerate(lengths)]
        terms = distance_terms(uq, query, candidates, gamma)
        for c, term in zip(candidates, terms):
            want = distance_term(uq, query, c, gamma)
            assert term == want and np.signbit(term) == np.signbit(want), c.id

    def test_no_candidates(self, rng):
        query = random_sequence(rng, seq_id="q")
        assert distance_terms(query, query, [], 0.1).shape == (0,)

    def test_candidate_without_events(self, rng):
        query = random_sequence(rng, seq_id="q")
        empty = [EventSequence(f"e{i}", [], [], 2.0 + i) for i in range(2)]
        terms = distance_terms(query, query, empty, 0.1)
        assert list(terms) == [distance_term(query, query, c, 0.1) for c in empty]

    @pytest.mark.parametrize("late_side", ["candidate", "query"])
    def test_event_past_T_rejected(self, late_side):
        ok = EventSequence("ok", [1.0, 2.0], [0, 1], 3.0)
        late = EventSequence("late", [1.0, 9.0], [0, 1], 5.0)
        query, candidate = (ok, late) if late_side == "candidate" else (late, ok)
        with pytest.raises(ValueError, match="late: event time 9.0 exceeds T=5.0"):
            distance_terms(query, query, [ok, candidate], 0.1)


def vanishing_rows(real, ids):
    """``fisher_vectors`` whose rows for ``ids`` vanish (None)."""
    def flaky(seqs, params, conditioning=None):
        seqs = list(seqs)
        vectors = real(seqs, params, conditioning=conditioning)
        return [None if seq.id in ids else vec for seq, vec in zip(seqs, vectors)]
    return flaky


def bare_pipeline(corpus, score_params, index_params, unwarp, gamma=0.1):
    """A pipeline for exhaustive queries: no encoder and no index."""
    return rt.Pipeline(corpus=corpus, score_params=score_params, score_unwarp=unwarp,
                       index_params=index_params, index_unwarp=unwarp, encoder=None,
                       index=None, vectors={}, excluded=[],
                       config=rt.PipelineConfig(gamma=gamma))


class TestPruning:
    """``score_candidates(..., k=k)`` scores only candidates whose
    gamma * sim + 1 bound can still reach the top k."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["cross", "self"]),
           gamma=st.sampled_from([0.0, 0.1, 1.0]), n=st.integers(1, 6),
           copies=st.integers(0, 2), with_query=st.booleans(), vanish=st.booleans(),
           data=st.data())
    def test_top_k_equals_unpruned(self, seed, variant, gamma, n, copies, with_query,
                                   vanish, data):
        rng = np.random.default_rng(seed)
        score_params, _, unwarp = make_models(rng, variant_pair=(variant, "self"))
        query = random_sequence(rng, seq_id="q")
        # shorter than, as long as and longer than the query, so that a chunk
        # of k spans several length groups
        nq = len(query)
        candidates = [random_sequence(rng, n=int(rng.choice([1, nq, nq, nq + 2])),
                                      seq_id=f"c{i}") for i in range(n)]
        # exact ties: one sequence under several ids
        candidates += [replace(candidates[0], id=f"d{j}") for j in range(copies)]
        if with_query:  # kernel about 1
            candidates.append(replace(query, id="cq"))
        k = data.draw(st.integers(1, len(candidates) + 2), label="k")
        vanishing = data.draw(st.sampled_from([c.id for c in candidates]), label="vanishing")
        flaky = vanishing_rows(rt.fisher_vectors, {vanishing} if vanish else set())

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(rt, "fisher_vectors", flaky)
            warnings.simplefilter("ignore")
            full = rt.score_candidates(query, candidates, score_params, unwarp, gamma=gamma)
            pruned = rt.score_candidates(query, candidates, score_params, unwarp,
                                         gamma=gamma, k=k)
        assert rt.rank_by_score(pruned)[:k] == rt.rank_by_score(full)[:k]
        assert all(full[cid] == score for cid, score in pruned.items())

    def test_separated_distances_score_fewer_than_offered(self, rng):
        query = random_sequence(rng, n=5, seq_id="q")
        # candidate i is the query shifted by 10 i: gamma * sim falls by
        # about 5 per step, far more than the kernel can make up
        corpus = {f"c{i}": EventSequence(f"c{i}", query.times + 10.0 * i, query.marks,
                                         query.horizon + 10.0 * i) for i in range(6)}
        score_params, index_params, unwarp = make_models(rng)
        pipeline = bare_pipeline(corpus, score_params, index_params, unwarp)
        result = rt.query_topk(pipeline, query, k=2, exhaustive=True)
        assert result.comparisons == 6
        assert result.scored == 2
        full = rt.score_candidates(query, corpus.values(), score_params, unwarp)
        assert result.ranking == rt.rank_by_score(full)[:2]

    def test_whole_pool_is_scored(self, rng):
        corpus = make_corpus(rng, n=5)
        score_params, index_params, unwarp = make_models(rng)
        pipeline = bare_pipeline(corpus, score_params, index_params, unwarp)
        query = random_sequence(rng, seq_id="q")
        result = rt.query_topk(pipeline, query, k=len(corpus), exhaustive=True)
        assert result.scored == result.comparisons == len(corpus)

    def test_self_scorer_vectors_cached_per_pipeline(self, rng, monkeypatch):
        corpus = make_corpus(rng, n=5)
        score_params, index_params, unwarp = make_models(rng, variant_pair=("self", "self"))
        pipeline = bare_pipeline(corpus, score_params, index_params, unwarp)
        q1 = random_sequence(rng, seq_id="q1")
        q2 = random_sequence(rng, seq_id="q2")
        rt.query_topk(pipeline, q1, k=len(corpus), exhaustive=True)
        assert set(pipeline.score_vectors) == set(corpus)
        fresh = rt.query_topk(bare_pipeline(corpus, score_params, index_params, unwarp),
                              q2, k=len(corpus), exhaustive=True)
        real = rt.fisher_vectors
        seen = []

        def counting(seqs, params, conditioning=None):
            seqs = list(seqs)
            seen.extend(seq.id for seq in seqs)
            return real(seqs, params, conditioning=conditioning)

        monkeypatch.setattr(rt, "fisher_vectors", counting)
        cached = rt.query_topk(pipeline, q2, k=len(corpus), exhaustive=True)
        assert seen == ["q2"]
        assert cached.ranking == fresh.ranking

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, small_pipeline, rng, k):
        pipeline, corpus = small_pipeline
        query = random_sequence(rng, seq_id="q")
        with pytest.raises(ValueError, match="k must be at least 1"):
            rt.score_candidates(query, list(corpus.values())[:3], pipeline.score_params,
                                pipeline.score_unwarp, k=k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            rt.query_topk(pipeline, query, k=k)

    def test_cross_scorer_fills_no_cache(self, small_pipeline, rng):
        pipeline, _ = small_pipeline
        rt.query_topk(pipeline, random_sequence(rng, seq_id="q"), k=3, exhaustive=True)
        assert pipeline.score_vectors == {}


class TestCorpusVectors:
    def test_unit_norm_and_complete(self, rng):
        corpus = make_corpus(rng, n=6)
        _, index_params, _ = make_models(rng)
        vectors, excluded = rt.corpus_fisher_vectors(corpus, index_params)
        assert excluded == []
        assert set(vectors) == set(corpus)
        for cid, vec in vectors.items():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
            assert vec.tobytes() == rt.fisher_vector(corpus[cid], index_params).vector.tobytes()
        # rows of one matrix, not one allocation per sequence
        base = vectors["c00"].base
        assert base is not None and all(vec.base is base for vec in vectors.values())

    def test_vanishing_member_excluded(self, rng, monkeypatch):
        corpus = make_corpus(rng, n=4)
        _, index_params, _ = make_models(rng)
        real = rt.fisher_vector

        def flaky(seq, params, conditioning=None):
            if seq.id == "c02":
                raise VanishingGradientError("forced")
            return real(seq, params, conditioning=conditioning)

        monkeypatch.setattr(rt, "fisher_vector", flaky)
        with pytest.warns(UserWarning, match="c02"):
            vectors, excluded = rt.corpus_fisher_vectors(corpus, index_params)
        assert excluded == ["c02"]
        assert set(vectors) == {"c00", "c01", "c03"}


class TestPipeline:
    def test_build_populates_everything(self, small_pipeline):
        pipeline, corpus = small_pipeline
        assert set(pipeline.corpus) == set(corpus)
        assert set(pipeline.vectors) == set(corpus)
        base = pipeline.vectors["c00"].base
        assert base is not None and all(vec.base is base for vec in pipeline.vectors.values())
        assert pipeline.excluded == []
        assert pipeline.encoder.kind == "trained"
        assert pipeline.index.corpus_ids == sorted(corpus)

    def test_index_model_must_be_self_variant(self, rng):
        corpus = make_corpus(rng, n=3)
        score_params, _, unwarp = make_models(rng)
        config = rt.PipelineConfig(hash=HashConfig(n_bits=4, hidden=8, epochs=0,
                                                   tables=1, bits_per_table=2))
        with pytest.raises(ValueError, match="self"):
            rt.build_pipeline(corpus, score_params, unwarp, score_params, unwarp, config)

    def test_prebuilt_vectors_skip_extraction(self, rng, monkeypatch):
        corpus = make_corpus(rng, n=4)
        score_params, index_params, unwarp = make_models(rng)
        vectors, _ = rt.corpus_fisher_vectors(corpus, index_params)

        def boom(*args, **kwargs):
            raise AssertionError("extraction should not run")

        monkeypatch.setattr(rt, "corpus_fisher_vectors", boom)
        config = rt.PipelineConfig(hash=HashConfig(n_bits=4, hidden=8, epochs=0,
                                                   tables=1, bits_per_table=2))
        pipeline = rt.build_pipeline(corpus, score_params, unwarp, index_params, unwarp,
                                     config, vectors=vectors)
        assert set(pipeline.vectors) == set(corpus)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_must_be_finite_and_non_negative(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            rt.PipelineConfig(gamma=gamma)

    def test_random_encoder_kind(self, rng):
        corpus = make_corpus(rng, n=4)
        score_params, index_params, unwarp = make_models(rng)
        config = rt.PipelineConfig(encoder_kind="random",
                                   hash=HashConfig(n_bits=4, hidden=8, tables=2,
                                                   bits_per_table=2))
        pipeline = rt.build_pipeline(corpus, score_params, unwarp, index_params, unwarp, config)
        assert pipeline.encoder.kind == "random"
        assert pipeline.encoder.hyperplanes.shape == (4, len(next(iter(pipeline.vectors.values()))))

    def test_exhaustive_topk(self, small_pipeline, rng):
        pipeline, corpus = small_pipeline
        query = random_sequence(rng, seq_id="q")
        result = rt.query_topk(pipeline, query, k=5, exhaustive=True)
        assert result.mode == "exhaustive"
        assert result.comparisons == len(corpus)
        assert not result.fallback
        assert len(result.ranking) == 5
        scores = [s for _, s in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_hashed_scores_match_exhaustive(self, small_pipeline, rng):
        pipeline, corpus = small_pipeline
        query = random_sequence(rng, seq_id="q")
        hashed = rt.query_topk(pipeline, query, k=len(corpus))
        full = rt.query_topk(pipeline, query, k=len(corpus), exhaustive=True)
        assert hashed.mode == "hashed"
        assert hashed.comparisons <= full.comparisons
        full_scores = dict(full.ranking)
        for cid, score in hashed.ranking:
            assert score == pytest.approx(full_scores[cid], abs=1e-12)

    def test_empty_buckets_fall_back_to_full_scan(self, small_pipeline, rng):
        pipeline, corpus = small_pipeline
        # An encoder that codes everything to -1 cannot hit the stored
        # buckets unless the index already has such a key; rebuild the
        # index from all-(+1) codes to make the miss certain.
        plus = {cid: np.ones(4, dtype=np.int8) for cid in corpus}
        pipeline.index = build_index(plus, tables=2, bits_per_table=2, seed=0)
        arrays = {"W1": np.zeros((2, len(next(iter(pipeline.vectors.values()))))),
                  "b1": np.zeros(2), "W2": np.zeros((4, 2)), "b2": -np.ones(4)}
        pipeline.encoder = HashEncoder(kind="trained",
                                       psi=HashNetParams(arrays, arrays["W1"].shape[1], 4, 2))
        query = random_sequence(rng, seq_id="q")
        result = rt.query_topk(pipeline, query, k=3)
        assert result.fallback
        assert result.comparisons == len(corpus)
        assert len(result.ranking) == 3

    def test_restrict_to_limits_scoring_not_comparisons(self, small_pipeline, rng):
        pipeline, corpus = small_pipeline
        query = random_sequence(rng, seq_id="q")
        keep = {"c00", "c03"}
        result = rt.query_topk(pipeline, query, k=10, exhaustive=True, restrict_to=keep)
        assert {cid for cid, _ in result.ranking} <= keep
        assert result.comparisons == len(corpus)


class TestProtocol:
    def build_eval(self, rng, n_corpus=10, n_queries=3):
        corpus = make_corpus(rng, n=n_corpus)
        queries = {f"q{i}": random_sequence(rng, seq_id=f"q{i}") for i in range(n_queries)}
        judgments = RelevanceJudgments()
        ids = sorted(corpus)
        for i, qid in enumerate(sorted(queries)):
            for j, cid in enumerate(ids):
                judgments.add(qid, cid, 1 if (i + j) % 5 == 0 else -1)
        score_params, index_params, unwarp = make_models(rng)
        config = rt.PipelineConfig(hash=HashConfig(n_bits=4, hidden=8, epochs=4,
                                                   tables=3, bits_per_table=2, seed=1))
        pipeline = rt.build_pipeline(corpus, score_params, unwarp, index_params, unwarp, config)
        return pipeline, queries, judgments

    def test_exhaustive_report(self, rng):
        pipeline, queries, judgments = self.build_eval(rng)
        report, results = rt.evaluate_protocol(pipeline, queries, judgments,
                                               sorted(queries), pool_negatives=4,
                                               seed=0, exhaustive=True)
        assert report.mode == "exhaustive"
        assert report.n_queries == 3
        assert report.reduction == pytest.approx(0.0, abs=1e-12)
        assert report.comparisons == 3 * len(pipeline.corpus)
        assert set(report.per_query_ap) == set(queries)
        assert 0.0 <= report.map <= 1.0
        assert all(r.mode == "exhaustive" for r in results)

    def test_hashed_reduction_accounting(self, rng):
        pipeline, queries, judgments = self.build_eval(rng)
        report, results = rt.evaluate_protocol(pipeline, queries, judgments,
                                               sorted(queries), pool_negatives=4, seed=0)
        total = len(pipeline.corpus) * report.n_queries
        assert report.total_pairs == total
        assert report.comparisons == sum(r.comparisons for r in results)
        assert report.reduction == pytest.approx(1.0 - report.comparisons / total, abs=1e-12)

    def test_pool_metrics_match_manual_computation(self, rng):
        pipeline, queries, judgments = self.build_eval(rng, n_queries=1)
        qid = sorted(queries)[0]
        report, results = rt.evaluate_protocol(pipeline, queries, judgments, [qid],
                                               pool_negatives=4, seed=7, exhaustive=True)
        ranked_ids = [cid for cid, _ in results[0].ranking]
        positives = set(judgments.positives(qid))
        assert report.map == pytest.approx(rt.average_precision(ranked_ids, positives), abs=1e-12)
        assert report.mrr == pytest.approx(rt.reciprocal_rank(ranked_ids, positives), abs=1e-12)
        # pool = positives + 4 sampled negatives, all present in the ranking
        assert len(ranked_ids) == len(positives) + 4

    def test_query_without_positives_skipped(self, rng):
        pipeline, queries, judgments = self.build_eval(rng)
        extra = random_sequence(rng, seq_id="q9")
        queries["q9"] = extra
        for cid in pipeline.corpus:
            judgments.add("q9", cid, -1)
        report, _ = rt.evaluate_protocol(pipeline, queries, judgments, sorted(queries),
                                         pool_negatives=4, seed=0, exhaustive=True)
        assert report.skipped == ["q9"]
        assert report.n_queries == 3

    def test_pool_sampling_deterministic(self, rng):
        pipeline, queries, judgments = self.build_eval(rng)
        a, _ = rt.evaluate_protocol(pipeline, queries, judgments, sorted(queries),
                                    pool_negatives=4, seed=5)
        b, _ = rt.evaluate_protocol(pipeline, queries, judgments, sorted(queries),
                                    pool_negatives=4, seed=5)
        assert a.per_query_ap == b.per_query_ap
        assert a.comparisons == b.comparisons


class TestUniformCodeReduction:
    def test_single_table_reduction_near_expected(self):
        # Uniform random codes spread the corpus over 2^L buckets, so one
        # table with L bits keeps about 2^-L of the corpus per query.
        rng = np.random.default_rng(0)
        codes = {f"c{i}": rng.choice([-1, 1], size=8).astype(np.int8) for i in range(2000)}
        index = build_index(codes, tables=1, bits_per_table=4, seed=1)
        from seqret.hashing import candidate_lookup
        fractions = []
        for _ in range(50):
            q = rng.choice([-1, 1], size=8).astype(np.int8)
            fractions.append(len(candidate_lookup(index, q)) / 2000)
        assert np.mean(fractions) == pytest.approx(1 / 16, abs=0.02)


class TestWriters:
    def test_results_file_format(self, tmp_path):
        results = [
            rt.RankedResult("q1", [("c2", 1.25), ("c1", -0.5)], "hashed", 7),
            rt.RankedResult("q2", [("c9", 0.125)], "exhaustive", 10),
        ]
        path = tmp_path / "results.tsv"
        rt.write_results(str(path), results)
        lines = path.read_text().splitlines()
        assert lines == [
            "q1\t1\tc2\t1.25\thashed",
            "q1\t2\tc1\t-0.5\thashed",
            "q2\t1\tc9\t0.125\texhaustive",
        ]

    def test_report_file_contents(self, tmp_path):
        report = rt.EvalReport(mode="hashed", n_queries=2, map=0.75, mrr=1.0,
                               ndcg={10: 0.5, 20: 0.625}, reduction=0.875,
                               comparisons=5, total_pairs=40, fallbacks=1,
                               skipped=[], failed=[],
                               per_query_ap={"q1": 1.0, "q0": 0.5})
        path = tmp_path / "report.tsv"
        rt.write_report(str(path), report)
        lines = path.read_text().splitlines()
        assert "mode\thashed" in lines
        assert "map\t0.75" in lines
        assert "ndcg@10\t0.5" in lines
        assert "reduction\t0.875" in lines
        assert "skipped\t-" in lines
        assert not any(line.startswith("failed") for line in lines)
        assert lines[-2:] == ["ap\tq0\t0.5", "ap\tq1\t1"]

        report.failed = ["q7:SequenceLengthError", "q8:ValueError"]
        rt.write_report(str(path), report)
        lines = path.read_text().splitlines()
        assert lines[lines.index("skipped\t-") + 1] == \
            "failed\tq7:SequenceLengthError,q8:ValueError"

    def test_vector_store_roundtrip(self, rng, tmp_path):
        vectors = {f"s{i}": rng.normal(size=6) for i in range(5)}
        path = tmp_path / "vectors.bin"
        rt.save_vectors(str(path), vectors)
        loaded = rt.load_vectors(str(path))
        assert set(loaded) == set(vectors)
        for cid in vectors:
            np.testing.assert_array_equal(loaded[cid], vectors[cid])

    def test_vector_store_deterministic_bytes(self, rng, tmp_path):
        vectors = {"b": rng.normal(size=3), "a": rng.normal(size=3)}
        p1, p2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
        rt.save_vectors(str(p1), vectors)
        rt.save_vectors(str(p2), dict(reversed(list(vectors.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_vector_store_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
        with pytest.raises(ValueError):
            rt.load_vectors(str(path))

    def test_inconsistent_vector_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rt.save_vectors(str(tmp_path / "v.bin"),
                            {"a": np.zeros(3), "b": np.zeros(4)})
