"""Joint training of the relevance model and the query unwarp.

The loss is a pairwise ranking hinge over (query, relevant, non-relevant)
triples.  Scores inside the loss are built by ``relevance.score_graph``,
the same kernel-plus-distance definition the retrieval path evaluates,
on one tape per batch so the gradient flows through the normalized
likelihood gradients themselves and through the unwarped query times.

Two deliberate asymmetries with the eval-mode scorer stay:
  * the horizon T of the time distance is the raw max of the two
    horizons (the eval path uses the unwarped query horizon), keeping T
    out of the differentiation;
  * the L2 penalty is applied as decoupled weight decay inside the Adam
    step rather than as a loss term, so the loss stays additive over
    disjoint query groups.  The decay covers the relevance model only;
    the unwarp is regularized by its own unbiasedness penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._opt import AdamState, TrainingDivergedError, adam_update
from .autodiff import DomainError
from .mtpp import ModelConfig, ModelParams
from .relevance import fisher_vector_graph, score_graph
from .retrieval import average_precision, rank_by_score, score_candidates
from .sequences import EventSequence, RelevanceJudgments
from .unwarp import (
    UnwarpConfig,
    UnwarpParams,
    unbiasedness_penalty_graph,
    unwarp_times_graph,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "EpochStats",
    "LossGraph",
    "TrainingDivergedError",
    "sample_pairs",
    "epoch_loss",
    "validation_map",
    "train",
]


DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class TrainConfig:
    """Model dimensions, loss mix, and optimization schedule."""

    variant: str = "cross"
    dim: int = 16
    mark_count: int = 5
    n_max: int = 128
    num_blocks: int = 1
    unwarp_hidden: tuple[int, int] = (128, 128)
    n_quad: int = 64
    noise_sigma: float = 0.01
    unbias_sigma: float = 1.0
    unwarp_enabled: bool = True
    margin: float = 0.5
    gamma: float = 0.1
    l2: float = 0.001
    negatives_per_query: int = 100
    pairs_per_query: int = 1000
    batch_queries: int = 16
    epochs: int = 10
    learning_rate: float = 0.01
    eval_negatives: int = 100
    seed: int = 0
    init_scale = 0.02  # class constant, not a field: sd of the initial weights

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x >= 0 for x in (self.margin, self.gamma, self.l2)):
            raise ValueError("margin, gamma, l2 must be finite and >= 0")
        if (self.negatives_per_query < 1 or self.pairs_per_query < 1
                or self.batch_queries < 1 or self.eval_negatives < 1):
            raise ValueError("sampling and pool sizes must be positive")
        if self.epochs < 0 or not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("epochs >= 0 and finite learning_rate > 0 required")

    def model_config(self) -> ModelConfig:
        return ModelConfig(variant=self.variant, dim=self.dim, mark_count=self.mark_count,
                           n_max=self.n_max, num_blocks=self.num_blocks)

    def unwarp_config(self) -> UnwarpConfig:
        return UnwarpConfig(hidden=self.unwarp_hidden, n_quad=self.n_quad,
                            noise_sigma=self.noise_sigma, unbias_sigma=self.unbias_sigma)


def sample_pairs(judgments: RelevanceJudgments, query_ids, corpus_ids, rng,
                 negatives_per_query: int,
                 pairs_per_query: int) -> dict[str, list[tuple[str, str]]]:
    """Per-query (positive, negative) training pairs from each query's
    ``RelevanceJudgments.pool``.

    Queries whose pool has no negatives get no entry.  The full
    positive-negative product is capped at ``pairs_per_query`` by uniform
    subsampling, drawn right after the query's negatives.
    """
    corpus_ids = sorted(corpus_ids)
    out: dict[str, list[tuple[str, str]]] = {}
    for qid in sorted(query_ids):
        pos, negs = judgments.pool(qid, corpus_ids, rng, negatives_per_query)
        if not negs:
            continue
        pairs = [(p, n) for p in pos for n in negs]
        if len(pairs) > pairs_per_query:
            keep = sorted(rng.choice(len(pairs), size=pairs_per_query, replace=False))
            pairs = [pairs[i] for i in keep]
        out[qid] = pairs
    return out


@dataclass
class LossGraph:
    value: ad.Value
    tape: ad.Tape
    theta: dict[str, ad.Value]
    phi: dict[str, ad.Value] | None
    n_pairs: int


def _fold_sum(tape: ad.Tape, values: list[ad.Value]) -> ad.Value:
    if not values:
        return tape.constant(0.0)
    total = values[0]
    for v in values[1:]:
        total = ad.add(total, v)
    return total


def _vectors_by_length(tape: ad.Tape, theta: dict[str, ad.Value], config: ModelConfig,
                       seqs: dict[str, EventSequence], cond_times=None,
                       cond_marks=None) -> dict[str, ad.Value]:
    """Unit gradient vector of each sequence, keyed like ``seqs``: one
    batched ``fisher_vector_graph`` per exact length, one row each."""
    groups: dict[int, list[str]] = {}
    for cid, seq in seqs.items():
        groups.setdefault(len(seq), []).append(cid)
    out: dict[str, ad.Value] = {}
    for ids in groups.values():
        rows = fisher_vector_graph(tape, theta, config,
                                   np.stack([seqs[cid].times for cid in ids]),
                                   np.stack([seqs[cid].marks for cid in ids]),
                                   cond_times=cond_times, cond_marks=cond_marks)
        for b, cid in enumerate(ids):
            out[cid] = ad.reshape(ad.gather_rows(rows, [b]), (-1,))
    return out


def epoch_loss(queries: dict[str, EventSequence], corpus: dict[str, EventSequence],
               pairs: dict[str, list[tuple[str, str]]], params: ModelParams,
               unwarp: UnwarpParams, config: TrainConfig,
               noise: dict[str, float] | None = None) -> LossGraph:
    """Ranking hinge plus the unwarp unbiasedness penalty, on one tape.

    Every distinct sequence role gets one gradient vector, and the corpus
    roles of one length share one batched vector graph: per query for the
    cross variant, whose corpus vectors are conditioned on the unwarped
    query, and once per batch for the self variant.  A query vector is a
    graph of its own, since its times are unwarp Values.  Scores are
    cached per (query, corpus) pair.  The total is additive over queries;
    disjoint pair dicts sum to the combined loss exactly.
    """
    noise = noise or {}
    tape = ad.Tape()
    theta = params.leaves(tape)
    phi = unwarp.leaves(tape) if config.unwarp_enabled else None
    mcfg = params.config
    ucfg = unwarp.config
    cross = mcfg.variant == "cross"
    qids = [qid for qid in sorted(pairs) if pairs[qid]]
    roles = {qid: list(dict.fromkeys(cid for pos, neg in pairs[qid] for cid in (neg, pos)))
             for qid in qids}
    if not cross:  # corpus vectors do not depend on the query: one set per batch
        vectors = _vectors_by_length(tape, theta, mcfg, {
            cid: corpus[cid] for cid in dict.fromkeys(c for qid in qids for c in roles[qid])})
    hinge_terms: list[ad.Value] = []
    penalties: list[ad.Value] = []
    n_pairs = 0
    for qid in qids:
        q = queries[qid]
        if config.unwarp_enabled:
            uq = unwarp_times_graph(q.times, phi, ucfg, tape, noise=noise.get(qid, 0.0))
        else:
            uq = tape.constant(q.times)
        cond = {"cond_times": uq, "cond_marks": q.marks} if cross else {}
        vq = fisher_vector_graph(tape, theta, mcfg, uq, q.marks, **cond)
        if cross:
            vectors = _vectors_by_length(tape, theta, mcfg,
                                         {cid: corpus[cid] for cid in roles[qid]}, **cond)
        scores = {cid: score_graph(tape, vq, vectors[cid], uq, q, corpus[cid],
                                   max(q.horizon, corpus[cid].horizon), config.gamma)
                  for cid in roles[qid]}
        for pos, neg in pairs[qid]:
            hinge_terms.append(ad.relu(ad.add(ad.sub(scores[neg], scores[pos]), config.margin)))
        n_pairs += len(pairs[qid])
        if config.unwarp_enabled:
            penalties.append(unbiasedness_penalty_graph(phi, ucfg, q.horizon, tape))
    total = _fold_sum(tape, hinge_terms)
    if penalties:
        total = ad.add(total, _fold_sum(tape, penalties))
    return LossGraph(value=total, tape=tape, theta=theta, phi=phi, n_pairs=n_pairs)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    pair_loss: float
    val_map: float | None
    n_pairs: int


@dataclass
class TrainResult:
    params: ModelParams
    unwarp: UnwarpParams
    history: list[EpochStats]
    best_epoch: int
    config: TrainConfig


def validation_map(queries: dict[str, EventSequence], corpus: dict[str, EventSequence],
                   pools: dict[str, list[str]], judgments: RelevanceJudgments,
                   params: ModelParams, unwarp: UnwarpParams, gamma: float) -> float:
    aps: list[float] = []
    cache: dict[str, np.ndarray] = {}
    for qid in sorted(pools):
        seqs = [corpus[cid] for cid in pools[qid]]
        scores = score_candidates(queries[qid], seqs, params, unwarp, gamma=gamma,
                                  vector_cache=cache)
        ranked = [cid for cid, _ in rank_by_score(scores)]
        aps.append(average_precision(ranked, set(judgments.positives(qid))))
    return float(np.mean(aps))


def _chunks(items: list[str], size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def train(corpus: dict[str, EventSequence], queries: dict[str, EventSequence],
          judgments: RelevanceJudgments, config: TrainConfig, train_ids,
          valid_ids=()) -> TrainResult:
    """Run the ranking-loss schedule and keep the best validation epoch.

    One root seed drives four spawned streams, in order: parameter init,
    pair sampling, unwarp noise, validation pools.  The validation pools
    are drawn once, before the first epoch, so the validation MAP is
    comparable across epochs.  Noise draws are clipped so the first
    unwarped event time stays positive.  Loss above
    ``DIVERGENCE_THRESHOLD`` (or any non-finite gradient) aborts.
    """
    mcfg = config.model_config()
    ucfg = config.unwarp_config()
    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_init = np.random.default_rng(streams[0])
    rng_pairs = np.random.default_rng(streams[1])
    rng_noise = np.random.default_rng(streams[2])
    rng_val = np.random.default_rng(streams[3])

    params = ModelParams.init(mcfg, rng_init, scale=config.init_scale)
    if config.unwarp_enabled:
        uparams = UnwarpParams.init(ucfg, rng_init, scale=config.init_scale)
    else:
        uparams = UnwarpParams.identity(ucfg)

    train_ids = sorted(train_ids)
    usable = [qid for qid in train_ids
              if any(p in corpus for p in judgments.positives(qid))]
    if not usable:
        raise ValueError("no training query has a judged positive in the corpus")
    corpus_ids = sorted(corpus)
    drawn = {qid: judgments.pool(qid, corpus_ids, rng_val, config.eval_negatives)
             for qid in sorted(valid_ids)}
    pools = {qid: pos + negs for qid, (pos, negs) in drawn.items() if pos}

    state_theta = AdamState()
    state_phi = AdamState()
    history: list[EpochStats] = []
    best_map = -math.inf
    best = (params.copy(), uparams.copy())
    best_epoch = -1
    for epoch in range(config.epochs):
        pairs_all = sample_pairs(judgments, usable, corpus, rng_pairs,
                                 config.negatives_per_query, config.pairs_per_query)
        noise: dict[str, float] = {}
        if config.unwarp_enabled and config.noise_sigma > 0:
            for qid in sorted(pairs_all):
                eta = rng_noise.normal(0.0, config.noise_sigma)
                floor = -0.5 * float(queries[qid].times[0])
                noise[qid] = max(eta, floor)
        epoch_total = 0.0
        epoch_pairs = 0
        for batch in _chunks(sorted(pairs_all), config.batch_queries):
            try:
                lg = epoch_loss(queries, corpus, {qid: pairs_all[qid] for qid in batch},
                                params, uparams, config, noise=noise)
            except DomainError as err:
                # runaway parameters usually surface as a degenerate graph
                # (overflowed sigma, vanished gap) before the loss check
                raise TrainingDivergedError(
                    f"model became degenerate at epoch {epoch}: {err}") from err
            loss_val = lg.value.item()
            if not math.isfinite(loss_val) or loss_val > DIVERGENCE_THRESHOLD:
                raise TrainingDivergedError(
                    f"loss {loss_val} at epoch {epoch} exceeds {DIVERGENCE_THRESHOLD}")
            wrt = list(lg.theta.values()) + (list(lg.phi.values()) if lg.phi else [])
            grads = lg.tape.backward(lg.value, wrt=wrt)
            adam_update(params.arrays, {n: grads[v] for n, v in lg.theta.items()},
                        state_theta, lr=config.learning_rate, weight_decay=config.l2)
            if lg.phi is not None:
                adam_update(uparams.arrays, {n: grads[v] for n, v in lg.phi.items()},
                            state_phi, lr=config.learning_rate)
            lg.tape.release()
            epoch_total += loss_val
            epoch_pairs += lg.n_pairs
        val = None
        if pools:
            val = validation_map(queries, corpus, pools, judgments, params, uparams,
                                 config.gamma)
            if val > best_map:
                best_map = val
                best = (params.copy(), uparams.copy())
                best_epoch = epoch
        history.append(EpochStats(epoch=epoch, loss=epoch_total,
                                  pair_loss=epoch_total / max(1, epoch_pairs),
                                  val_map=val, n_pairs=epoch_pairs))
    if not pools or best_epoch < 0:
        best = (params.copy(), uparams.copy())
        best_epoch = config.epochs - 1
    return TrainResult(params=best[0], unwarp=best[1], history=history,
                       best_epoch=best_epoch, config=config)
