"""Ranking, quality metrics, and the hash-accelerated retrieval pipeline.

The pipeline holds two models: the scoring model (usually the cross
variant) that produces the final relevance ranking, and an index model
(self variant) whose gradient vectors feed the hash codes.  Corpus
vectors are always taken from the raw corpus sequences; only the query
side passes through the unwarp.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .artifact import read_record, write_record
from .hashing import (
    HashConfig,
    HashEncoder,
    HashIndex,
    build_index,
    candidate_lookup,
    random_hyperplane_codes,
    train_hash_net,
)
from .mtpp import ModelParams, checkpoint_sha256
from .relevance import VanishingGradientError, distance_terms, fisher_vector, fisher_vectors
from .sequences import EventSequence, RelevanceJudgments
from .unwarp import UnwarpParams, unwarp_sequence

__all__ = [
    "average_precision",
    "reciprocal_rank",
    "ndcg_at_k",
    "mean_metric",
    "rank_by_score",
    "score_candidates",
    "corpus_fisher_vectors",
    "PipelineConfig",
    "Pipeline",
    "RankedResult",
    "EvalReport",
    "build_pipeline",
    "query_topk",
    "evaluate_protocol",
    "write_results",
    "write_report",
    "save_vectors",
    "load_vectors",
]


# -- quality metrics ----------------------------------------------------------

def average_precision(ranked_ids, relevant) -> float:
    """AP with the full judged-relevant count in the denominator.

    Relevant items missing from ``ranked_ids`` (for example positives the
    hash index failed to surface) therefore lower the score; a ranking
    cannot gain by silently dropping hard positives.
    """
    relevant = set(relevant)
    if not relevant:
        raise ValueError("average precision needs at least one relevant id")
    hits = 0
    total = 0.0
    for rank, cid in enumerate(ranked_ids, start=1):
        if cid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def reciprocal_rank(ranked_ids, relevant) -> float:
    relevant = set(relevant)
    for rank, cid in enumerate(ranked_ids, start=1):
        if cid in relevant:
            return 1.0 / rank
    return 0.0


def ndcg_at_k(ranked_ids, relevant, k: int) -> float:
    """Binary-gain NDCG against the truncated ideal ranking.

    The ideal DCG places min(k, #relevant) hits at the top, so the value
    is 1.0 exactly when every rank up to that point is a hit.
    """
    if k < 1:
        raise ValueError("k must be positive")
    relevant = set(relevant)
    if not relevant:
        raise ValueError("ndcg needs at least one relevant id")
    dcg = sum(1.0 / np.log2(rank + 1)
              for rank, cid in enumerate(ranked_ids[:k], start=1) if cid in relevant)
    ideal = sum(1.0 / np.log2(rank + 1) for rank in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def mean_metric(per_query: dict[str, float]) -> float:
    if not per_query:
        raise ValueError("no per-query values to average")
    return float(np.mean(list(per_query.values())))


def rank_by_score(scores: dict[str, float]) -> list[tuple[str, float]]:
    """Descending score; exact ties break toward the smaller corpus id."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


# -- scoring ------------------------------------------------------------------

# Slack on the kernel bound: a dot product of two unit vectors can exceed 1
# by a few ulps of rounding.
KERNEL_BOUND = 1.0 + 1e-9


def score_candidates(query: EventSequence, candidates, params: ModelParams,
                     unwarp: UnwarpParams, gamma: float = 0.1,
                     vector_cache: dict | None = None,
                     k: int | None = None) -> dict[str, float]:
    """Relevance scores of one query against a list of corpus sequences.

    The query is unwarped once.  Under the self variant, corpus vectors do
    not depend on the query and may be shared across calls through
    ``vector_cache``.  Candidates whose gradient vanishes are skipped with
    a warning rather than scored.

    The kernel is at most 1, so a candidate's gamma * sim plus 1 bounds its
    score.  ``distance_terms`` gives every candidate's exact gamma * sim in
    one pass; candidates are visited in descending term (ties toward the
    smaller id), in chunks of ``k`` (``k=None``: all candidates in one
    chunk, so none is skipped).  A chunk keeps only candidates whose bound
    reaches the k-th best score so far, and the scan stops at the first
    chunk left empty (the threshold algorithm over exact sorted grades).
    The gradient vectors of a chunk come from ``fisher_vectors``, one tape
    per length, with the query's own vector in the first chunk.  A score is
    kappa plus the candidate's term, so ``rank_by_score(...)[:k]`` equals
    that of scoring every candidate.  A ``k`` below 1 raises ``ValueError``.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    uq = unwarp_sequence(query, unwarp)
    cond = uq if params.config.variant == "cross" else None
    # only self-variant corpus vectors are independent of the query
    cache = vector_cache if cond is None and vector_cache is not None else {}
    candidates = list(candidates)
    terms = distance_terms(uq, query, candidates, gamma).tolist()
    ranked = sorted(zip(terms, candidates), key=lambda tc: (-tc[0], tc[1].id))
    k = max(1, len(ranked)) if k is None else k
    best: list[float] = []  # min-heap of the k best scores so far
    scores: dict[str, float] = {}
    vq = None
    for start in range(0, max(1, len(ranked)), k):
        chunk = [(term, c) for term, c in ranked[start:start + k]
                 if len(best) < k or term + KERNEL_BOUND >= best[0]]
        if not chunk and vq is not None:
            break
        todo = [c for _, c in chunk if c.id not in cache]
        vectors = fisher_vectors(todo if vq is not None else [uq] + todo, params,
                                 conditioning=cond)
        if vq is None:
            vq = vectors.pop(0)
            if vq is None:
                raise VanishingGradientError(f"{query.id}: vanishing gradient under the "
                                             "scoring model")
        for c, vc in zip(todo, vectors):
            if vc is None:
                warnings.warn(f"skipping {c.id}: vanishing gradient under the scoring model")
            else:
                cache[c.id] = vc
        for term, c in chunk:
            vc = cache.get(c.id)
            if vc is None:
                continue
            scores[c.id] = score = float(vq @ vc) + term
            if len(best) < k:
                heapq.heappush(best, score)
            else:
                heapq.heappushpop(best, score)
    return scores


def corpus_fisher_vectors(corpus: dict[str, EventSequence],
                          params: ModelParams) -> tuple[dict[str, np.ndarray], list[str]]:
    """Self-variant gradient vectors for every corpus sequence.

    Returns (vectors, excluded); sequences without events or whose
    gradient vanishes are excluded from indexing and reported, not
    silently dropped.  The vectors are rows of one (len(corpus), dim)
    matrix, so a large corpus holds one allocation instead of one per
    sequence.
    """
    vectors: dict[str, np.ndarray] = {}
    excluded: list[str] = []
    matrix = None
    for cid, seq in corpus.items():
        try:
            vector = fisher_vector(seq, params).vector if len(seq) else None
        except VanishingGradientError:
            vector = None
        if vector is None:
            excluded.append(cid)
            warnings.warn(f"excluding {cid} from the index: "
                          + ("vanishing gradient" if len(seq) else "no events"))
            continue
        if matrix is None:
            matrix = np.empty((len(corpus), vector.size))
        row = matrix[len(vectors)]
        row[:] = vector
        vectors[cid] = row
    return vectors, excluded


# -- pipeline -----------------------------------------------------------------

@dataclass
class PipelineConfig:
    """Knobs shared by indexing and querying."""

    gamma: float = 0.1
    hash: HashConfig = field(default_factory=HashConfig)
    encoder_kind: str = "trained"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.encoder_kind not in ("trained", "random"):
            raise ValueError(f"unknown encoder kind {self.encoder_kind!r}")


@dataclass
class Pipeline:
    corpus: dict[str, EventSequence]
    score_params: ModelParams
    score_unwarp: UnwarpParams
    index_params: ModelParams
    index_unwarp: UnwarpParams
    encoder: HashEncoder
    index: HashIndex
    vectors: dict[str, np.ndarray]
    excluded: list[str]
    config: PipelineConfig
    # self-variant scorer vectors, filled by queries and never persisted
    score_vectors: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class RankedResult:
    query_id: str
    ranking: list[tuple[str, float]]  # (corpus id, score), best first
    mode: str  # "hashed" or "exhaustive"
    comparisons: int  # corpus sequences the scorer visited
    fallback: bool = False  # hashed lookup was empty, fell back to full scan
    scored: int = 0  # candidates that got a score; in memory only, never written


def build_pipeline(corpus: dict[str, EventSequence], score_params: ModelParams,
                   score_unwarp: UnwarpParams, index_params: ModelParams,
                   index_unwarp: UnwarpParams, config: PipelineConfig,
                   vectors: dict[str, np.ndarray] | None = None) -> Pipeline:
    """Extract corpus vectors, fit (or draw) the code encoder, build the index.

    ``vectors`` short-circuits the extraction when the caller already has
    them (rebuilding an index with different hash settings, for example).
    The hash seed feeds the net init, the hyperplanes, and the bit-position
    draw through separate spawned streams.  The index records the
    ``checkpoint_sha256`` of the index model.
    """
    if index_params.config.variant != "self":
        raise ValueError("index model must be the self variant")
    if vectors is None:
        vectors, excluded = corpus_fisher_vectors(corpus, index_params)
    else:
        excluded = [cid for cid in corpus if cid not in vectors]
    if not vectors:
        raise ValueError("no corpus sequence produced a usable gradient vector")
    ids = sorted(vectors)
    matrix = np.stack([vectors[cid] for cid in ids])
    vectors = dict(zip(ids, matrix))  # rows of the one matrix; the input copy is dropped
    net_seed, plane_seed, index_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(config.hash.seed).spawn(3))
    if config.encoder_kind == "trained":
        psi, _ = train_hash_net(matrix, replace(config.hash, seed=net_seed))
        encoder = HashEncoder(kind="trained", psi=psi)
    else:
        _, planes = random_hyperplane_codes(matrix, config.hash.n_bits, plane_seed)
        encoder = HashEncoder(kind="random", hyperplanes=planes)
    codes = {cid: encoder.encode(vectors[cid]) for cid in ids}
    index = build_index(codes, config.hash.tables, config.hash.bits_per_table, index_seed)
    index.model_sha256 = checkpoint_sha256(index_params, index_unwarp)
    scoreable = {cid: seq for cid, seq in corpus.items() if cid in vectors}
    return Pipeline(corpus=scoreable, score_params=score_params,
                    score_unwarp=score_unwarp, index_params=index_params,
                    index_unwarp=index_unwarp, encoder=encoder, index=index,
                    vectors=vectors, excluded=excluded, config=config)


def _query_candidates(pipeline: Pipeline, query: EventSequence) -> tuple[list[str], bool]:
    uq = unwarp_sequence(query, pipeline.index_unwarp)
    vq = fisher_vector(uq, pipeline.index_params)
    code = pipeline.encoder.encode(vq.vector)
    candidates = candidate_lookup(pipeline.index, code)
    if candidates:
        return candidates, False
    return sorted(pipeline.corpus), True


def query_topk(pipeline: Pipeline, query: EventSequence, k: int = 10,
               exhaustive: bool = False,
               restrict_to: set[str] | None = None) -> RankedResult:
    """Rank the query's hash candidates (or the whole corpus) by relevance.

    ``restrict_to`` limits scoring to a candidate subset without changing
    the comparison count; the evaluation protocol uses it to score only
    pooled pairs while still charging the full candidate set.  Candidates
    that cannot reach the top ``k`` are not scored (``score_candidates``);
    ``comparisons`` still counts them and ``scored`` does not.
    """
    if exhaustive:
        candidates, fallback = sorted(pipeline.corpus), False
    else:
        candidates, fallback = _query_candidates(pipeline, query)
    comparisons = len(candidates)
    if restrict_to is not None:
        candidates = [cid for cid in candidates if cid in restrict_to]
    scores = score_candidates(query, [pipeline.corpus[cid] for cid in candidates],
                              pipeline.score_params, pipeline.score_unwarp,
                              pipeline.config.gamma, vector_cache=pipeline.score_vectors,
                              k=k)
    return RankedResult(query_id=query.id, ranking=rank_by_score(scores)[:k],
                        mode="exhaustive" if exhaustive else "hashed",
                        comparisons=comparisons, fallback=fallback, scored=len(scores))


# -- evaluation protocol -------------------------------------------------------

@dataclass
class EvalReport:
    mode: str
    n_queries: int
    map: float
    mrr: float
    ndcg: dict[int, float]
    reduction: float
    comparisons: int
    total_pairs: int
    fallbacks: int
    skipped: list[str]
    failed: list[str]  # "query_id:ErrorType" of queries that could not be ranked
    per_query_ap: dict[str, float]

    def rows(self) -> list[tuple[str, str]]:
        out = [("mode", self.mode), ("queries", str(self.n_queries)),
               ("map", f"{self.map:.12g}"), ("mrr", f"{self.mrr:.12g}")]
        for k in sorted(self.ndcg):
            out.append((f"ndcg@{k}", f"{self.ndcg[k]:.12g}"))
        out += [("reduction", f"{self.reduction:.12g}"),
                ("comparisons", str(self.comparisons)),
                ("total_pairs", str(self.total_pairs)),
                ("fallbacks", str(self.fallbacks)),
                ("skipped", ",".join(self.skipped) or "-")]
        if self.failed:
            out.append(("failed", ",".join(self.failed)))
        return out


def evaluate_protocol(pipeline: Pipeline, queries: dict[str, EventSequence],
                      judgments: RelevanceJudgments, query_ids,
                      pool_negatives: int = 100, seed: int = 0,
                      k_values: tuple[int, ...] = (10, 20),
                      exhaustive: bool = False) -> tuple[EvalReport, list[RankedResult]]:
    """Pooled evaluation: each query's ``RelevanceJudgments.pool``.

    Quality metrics are computed on the pool; every positive missing from
    the hash candidates stays in the metric denominators.  The comparison
    count charges the full candidate set (or the full corpus when
    exhaustive), since that is what a deployment would score.  A query
    that cannot be ranked is recorded in ``failed`` and left out of every
    figure; its pool is still drawn, so the other pools do not shift.
    """
    if pool_negatives < 1:
        raise ValueError(f"pool_negatives must be at least 1, got {pool_negatives}")
    rng = np.random.default_rng(seed)
    per_ap: dict[str, float] = {}
    per_rr: dict[str, float] = {}
    per_ndcg: dict[int, dict[str, float]] = {k: {} for k in k_values}
    skipped: list[str] = []
    failed: list[str] = []
    results: list[RankedResult] = []
    comparisons = 0
    fallbacks = 0
    n_scored = 0
    corpus_ids = sorted(pipeline.corpus)
    for qid in sorted(query_ids):
        positives, negatives = judgments.pool(qid, corpus_ids, rng, pool_negatives)
        if not positives:
            skipped.append(qid)
            continue
        pos_set = set(positives)
        pool = pos_set.union(negatives)
        try:
            result = query_topk(pipeline, queries[qid], k=len(pool),
                                exhaustive=exhaustive, restrict_to=pool)
        except (ValueError, ArithmeticError) as err:
            failed.append(f"{qid}:{type(err).__name__}")
            continue
        ranked_ids = [cid for cid, _ in result.ranking]
        per_ap[qid] = average_precision(ranked_ids, pos_set)
        per_rr[qid] = reciprocal_rank(ranked_ids, pos_set)
        for k in k_values:
            per_ndcg[k][qid] = ndcg_at_k(ranked_ids, pos_set, k)
        comparisons += result.comparisons
        fallbacks += int(result.fallback)
        n_scored += 1
        results.append(result)
    if not per_ap:
        raise ValueError(f"no query could be evaluated; failed: {','.join(failed) or '-'}")
    total_pairs = len(pipeline.corpus) * n_scored
    report = EvalReport(
        mode="exhaustive" if exhaustive else "hashed",
        n_queries=n_scored,
        map=mean_metric(per_ap),
        mrr=mean_metric(per_rr),
        ndcg={k: mean_metric(v) for k, v in per_ndcg.items()},
        reduction=1.0 - comparisons / total_pairs,
        comparisons=comparisons,
        total_pairs=total_pairs,
        fallbacks=fallbacks,
        skipped=skipped,
        failed=failed,
        per_query_ap=per_ap,
    )
    return report, results


# -- persistence ----------------------------------------------------------------

def write_results(path, results) -> None:
    """Tab-separated rankings: query id, rank, corpus id, score, mode."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            for rank, (cid, score) in enumerate(result.ranking, start=1):
                fh.write(f"{result.query_id}\t{rank}\t{cid}\t{score:.12g}\t{result.mode}\n")


def write_report(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in report.rows():
            fh.write(f"{key}\t{value}\n")
        for qid in sorted(report.per_query_ap):
            fh.write(f"ap\t{qid}\t{report.per_query_ap[qid]:.12g}\n")


def save_vectors(path, vectors: dict[str, np.ndarray]) -> None:
    """Vector store: an ``artifact`` record of the sorted ids and one
    (count, dim) float64 matrix."""
    ids = sorted(vectors)
    dim = len(vectors[ids[0]]) if ids else 0
    if any(len(vectors[cid]) != dim for cid in ids):
        raise ValueError("inconsistent vector lengths")
    matrix = np.array([vectors[cid] for cid in ids], dtype="<f8").reshape(len(ids), dim)
    write_record(path, "vectors", {"ids": ids}, {"vectors": matrix})


def load_vectors(path) -> dict[str, np.ndarray]:
    meta, arrays = read_record(path, "vectors")
    return dict(zip(meta["ids"], arrays["vectors"], strict=True))
