"""Relevance scoring: Fisher-kernel similarity plus time/mark alignment.

Two sequences are compared on two routes that the net score combines:

* ``sim_score``: a model-free alignment term -(dt + dx), where dt sums
  absolute time differences over matched event positions (query times
  pass through the unwarp first) plus (T - t_i) for every unmatched
  trailing event, and dx counts mark mismatches over matched positions
  plus the length difference.  T is the larger observation horizon of
  the pair.
* ``fisher_kernel``: the dot product of normalized log-likelihood
  gradients ("Fisher vectors") of the two sequences under a shared
  sequence model.  Identical sequences score exactly 1; unrelated ones
  decorrelate toward 0.

For the self variant both vectors are self-likelihood gradients (the
query is scored after unwarping).  For the cross variant both sides are
scored as the conditioned role: the corpus vector is the gradient of
log p(corpus | unwarped query) and the query vector is the gradient of
log p(unwarped query | unwarped query), so a sequence paired with itself
still yields kernel 1.

The time distance and the net score kappa + gamma * sim each have one
taped definition (``time_distance_graph``, ``score_graph``).  The trainer
builds them on its loss tape; the eval path scores a pair as kappa plus
its entry of ``distance_terms``, which computes every candidate's
gamma * sim in one numpy pass per length and equals ``score_graph`` on a
tape bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import mtpp
from .mtpp import ModelConfig, ModelParams
from .sequences import EventSequence
from .unwarp import UnwarpParams, unwarp_sequence

__all__ = [
    "FisherConfig",
    "FisherVector",
    "VanishingGradientError",
    "mark_distance",
    "time_distance",
    "sim_score",
    "fisher_vector",
    "fisher_vectors",
    "fisher_kernel",
    "relevance_score",
    "distance_terms",
    "fisher_vector_graph",
    "time_distance_graph",
    "score_graph",
]

NORM_FLOOR = 1e-12


class VanishingGradientError(ArithmeticError):
    """A log-likelihood gradient had norm below the representable floor."""


class FisherConfig:
    """Fisher preconditioning options, accepted by ``fisher_kernel`` and
    ``relevance_score``.  The identity is the only mode, so it has none."""


@dataclass
class FisherVector:
    vector: np.ndarray


def mark_distance(q: EventSequence, c: EventSequence) -> int:
    """Mark mismatches over matched positions plus the length difference."""
    h = min(len(q), len(c))
    mism = int(np.sum(q.marks[:h] != c.marks[:h]))
    return mism + abs(len(c) - len(q))


def time_distance(q_unwarped: EventSequence, c: EventSequence, T: float) -> float:
    """Absolute time misalignment; unmatched tail events cost (T - t_i).

    ``q_unwarped`` is the query after unwarping.  Every event time of
    either sequence must lie in [0, T]; the result is then >= 0.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    for seq in (q_unwarped, c):
        if len(seq) and seq.times[-1] > T:
            raise ValueError(f"{seq.id}: event time {seq.times[-1]} exceeds T={T}")
    with ad.Tape() as tape:
        return time_distance_graph(tape, tape.constant(q_unwarped.times), c.times, T).item()


def sim_score(q: EventSequence, c: EventSequence, unwarp: UnwarpParams, T: float) -> float:
    """-(time distance + mark distance) after unwarping the query."""
    uq = unwarp_sequence(q, unwarp)
    return -(time_distance(uq, c, T) + mark_distance(q, c))


def unit_vector(grad: np.ndarray, label: str = "gradient") -> np.ndarray:
    """Normalize to unit L2 norm; degenerate inputs raise instead of
    silently returning garbage directions."""
    norm = float(np.linalg.norm(grad))
    if norm <= NORM_FLOOR:
        raise VanishingGradientError(f"{label}: norm {norm:.3e} below {NORM_FLOOR}")
    return grad / norm


def _length_groups(seqs: list[EventSequence]) -> dict[int, list[int]]:
    """Positions of the sequences of each length, in input order."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(i)
    return groups


def fisher_vector(seq: EventSequence, params: ModelParams,
                  conditioning: EventSequence | None = None) -> FisherVector:
    """Unit-norm log-likelihood gradient of one sequence (``fisher_vectors``
    with one sequence)."""
    grad = mtpp.grad_log_likelihood(seq, params, conditioning=conditioning)
    return FisherVector(vector=unit_vector(grad, seq.id))


def fisher_vectors(seqs, params: ModelParams,
                   conditioning: EventSequence | None = None) -> list[np.ndarray | None]:
    """Unit-norm log-likelihood gradients of several sequences, in order.

    Sequences of one length share one tape (``mtpp.grad_log_likelihoods``);
    lengths are never padded, since extra rows change the bits of a matrix
    product.  Each vector equals ``fisher_vector`` of its sequence.  An
    entry is None where the gradient vanishes; the others are unaffected.
    """
    seqs = list(seqs)
    out: list[np.ndarray | None] = [None] * len(seqs)
    for members in _length_groups(seqs).values():
        grads = mtpp.grad_log_likelihoods([seqs[i] for i in members], params,
                                          conditioning=conditioning)
        for i, grad in zip(members, grads):
            try:
                out[i] = unit_vector(grad, seqs[i].id)
            except VanishingGradientError:
                pass
    return out


def distance_terms(uq: EventSequence, q: EventSequence, candidates,
                   gamma: float) -> np.ndarray:
    """Eval-mode gamma * sim of the unwarped query ``uq`` (marks from ``q``)
    against every candidate, with T the larger of the two horizons.

    Candidates of one length are stacked, never padded, so numpy sums each
    row as it sums one vector and every term equals ``score_graph``'s
    gamma * sim on a tape bit for bit.  An event time past T raises
    ``time_distance``'s ``ValueError``.
    """
    candidates = list(candidates)
    nq = len(uq)
    out = np.empty(len(candidates))
    for n, members in _length_groups(candidates).items():
        group = [candidates[i] for i in members]
        times = np.stack([c.times for c in group])
        T = np.maximum(uq.horizon, [c.horizon for c in group])
        if np.any(np.maximum(times.max(axis=1, initial=0.0), uq.times.max(initial=0.0)) > T):
            for c, t in zip(group, T):  # names the late sequence
                time_distance(uq, c, float(t))
        h = min(nq, n)
        dt = np.sum(np.abs(uq.times[:h] - times[:, :h]), axis=1)
        if nq > h:
            dt += np.sum(T[:, None] - uq.times[h:], axis=1)
        elif n > h:
            dt += np.sum(T[:, None] - times[:, h:], axis=1)
        marks = np.stack([c.marks[:h] for c in group])
        dx = np.sum(marks != q.marks[:h], axis=1) + abs(n - nq)
        out[members] = -gamma * (dt + dx)
    return out


def relevance_score(q: EventSequence, c: EventSequence, unwarp: UnwarpParams,
                    params: ModelParams, config: FisherConfig | None = None,
                    gamma: float = 0.1) -> float:
    """Net score: fisher_kernel + gamma * sim_score."""
    uq = unwarp_sequence(q, unwarp)
    cond = uq if params.config.variant == "cross" else None
    vq = fisher_vector(uq, params, conditioning=cond)
    vc = fisher_vector(c, params, conditioning=cond)
    return float(vq.vector @ vc.vector) + float(distance_terms(uq, q, [c], gamma)[0])


def fisher_kernel(q: EventSequence, c: EventSequence, unwarp: UnwarpParams,
                  params: ModelParams, config: FisherConfig | None = None) -> float:
    """Kernel value in [-1, 1] between a query and a corpus sequence."""
    return relevance_score(q, c, unwarp, params, gamma=0.0)


# -- taped definitions (the trainer's loss tape, or a throwaway one) ---------

def fisher_vector_graph(tape: ad.Tape, theta: dict[str, ad.Value], config: ModelConfig,
                        times, marks, cond_times=None, cond_marks=None) -> ad.Value:
    """Taped unit-norm gradient; differentiable through the inner backward.

    The returned Value depends on the model leaves twice (once through
    the likelihood, once through its recorded adjoints), which is what
    lets the ranking loss learn the vectors themselves.

    Batched form: ``times`` and ``marks`` are (B, n) arrays of B sequences
    of one length, and the result is a (B, P) Value, one unit vector per
    row.  Each example reads its own copy of every parameter; the inner
    backward stops at those copies, so each row is the unbatched graph's
    vector bit for bit, and then ``autodiff.tie`` makes them an expand of
    the shared leaf, so a later backward sums their adjoints into it.
    """
    marks = np.asarray(marks)
    lead = marks.shape[:-1]
    own = theta
    if lead:  # every example's own copy of every parameter
        own = {name: tape.leaf(np.repeat(v.data[None], lead[0], axis=0), f"{v.op}.copies")
               for name, v in theta.items()}
    ll = mtpp.log_likelihood_graph(tape, own, config, times, marks,
                                   cond_times=cond_times, cond_marks=cond_marks)
    grads = tape.backward(ad.vsum(ll) if lead else ll, wrt=list(own.values()), as_values=True)
    if lead:
        for name, copies in own.items():
            ad.tie(copies, theta[name])
    flat = ad.concat([ad.reshape(grads[own[name]], lead + (-1,))
                      for name, _ in mtpp.param_order(config)])
    norm = ad.sqrt(ad.vsum(ad.square(flat), axis=-1, keepdims=True))
    if np.any(norm.data <= NORM_FLOOR):
        raise VanishingGradientError(f"gradient norm {norm.data.min():.3e} below {NORM_FLOOR}")
    return ad.div(flat, norm)


def time_distance_graph(tape: ad.Tape, uq_times: ad.Value, c_times: np.ndarray,
                        T: float) -> ad.Value:
    """Taped time distance with differentiable unwarped query times.

    Training does not re-derive T from the moving unwarp output; it uses
    the raw-horizon max, so stretched query tails can transiently exceed
    T.  That keeps the term differentiable and only affects the loss,
    not the validated eval-mode op.
    """
    nq = uq_times.data.shape[0]
    nc = int(c_times.shape[0])
    h = min(nq, nc)
    matched = ad.vsum(ad.absolute(ad.sub(ad.narrow(uq_times, 0, h), tape.constant(c_times[:h]))))
    if nq > h:
        tail = ad.vsum(ad.sub(T, ad.narrow(uq_times, h, nq - h)))
        return ad.add(matched, tail)
    if nc > h:
        return ad.add(matched, float(np.sum(T - c_times[h:])))
    return matched


def score_graph(tape: ad.Tape, vq: ad.Value, vc: ad.Value, uq_times: ad.Value,
                q: EventSequence, c: EventSequence, T: float, gamma: float) -> ad.Value:
    """Net score kappa + gamma * sim of one pair, on ``tape``.

    ``vq`` and ``vc`` are the unit gradient vectors and ``uq_times`` the
    unwarped query times; ``q`` and ``c`` supply the marks and the corpus
    times.
    """
    sim = ad.neg(ad.add(time_distance_graph(tape, uq_times, c.times, T),
                        float(mark_distance(q, c))))
    return ad.add(ad.dot(vq, vc), ad.mul(sim, gamma))
