"""Synthetic retrieval benchmarks with known relevance structure.

Each base process is a lognormal-renewal gap sampler plus a first-order
Markov mark chain, both drawn per base.  A base emits one long stream
that is cut into contiguous windows; each window is re-based so its own
clock starts at zero and its horizon is the arrival time of the next
event outside the window.  Windows from the same base are mutually
relevant; one window per base is held out, time-warped, and becomes the
query.  Judgments are complete: every (query, corpus window) pair is
labeled.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .sequences import EventSequence, RelevanceJudgments

__all__ = [
    "GenConfig",
    "BaseParams",
    "Benchmark",
    "WARP_KINDS",
    "apply_warp",
    "generate_base",
    "make_benchmark",
]

WARP_KINDS = ("identity", "affine", "quadratic")


@dataclass(frozen=True)
class GenConfig:
    """Corpus shape and process priors.

    ``warp_range`` bounds the affine coefficient a in t -> a * t.  The
    default range includes both compressions and stretches; benchmarks
    aimed at the unwarp use a one-sided range so there is structure to
    recover.
    """

    n_bases: int = 80
    subs_range: tuple[int, int] = (20, 30)
    window_range: tuple[int, int] = (10, 20)
    mu_range: tuple[float, float] = (-1.0, 0.0)
    sigma_range: tuple[float, float] = (0.3, 0.8)
    mark_count: int = 5
    dirichlet_alpha: float = 0.8
    warp: str = "affine"
    warp_range: tuple[float, float] = (0.5, 2.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bases < 1:
            raise ValueError("n_bases must be positive")
        if not 2 <= self.subs_range[0] <= self.subs_range[1]:
            raise ValueError("subs_range must satisfy 2 <= lo <= hi (query leaves one out)")
        if not 1 <= self.window_range[0] <= self.window_range[1]:
            raise ValueError("window_range must satisfy 1 <= lo <= hi")
        # written so that NaN and infinities fail them
        if not -math.inf < self.mu_range[0] <= self.mu_range[1] < math.inf:
            raise ValueError(f"mu_range must be finite and ordered: {self.mu_range}")
        if not 0 < self.sigma_range[0] <= self.sigma_range[1] < math.inf:
            raise ValueError(f"sigma_range must be positive, finite, ordered: {self.sigma_range}")
        if self.mark_count < 2:
            raise ValueError("mark_count must be at least 2")
        if not 0 < self.dirichlet_alpha < math.inf:
            raise ValueError(f"dirichlet_alpha must be positive and finite: {self.dirichlet_alpha}")
        if self.warp not in WARP_KINDS:
            raise ValueError(f"warp must be one of {WARP_KINDS}")
        if not 0 < self.warp_range[0] <= self.warp_range[1] < math.inf:
            raise ValueError(f"warp_range must be positive, finite, ordered: {self.warp_range}")
        for name in ("mu_range", "sigma_range", "warp_range"):
            lo, hi = getattr(self, name)
            if not hi - lo < math.inf:  # wider than Generator.uniform can sample
                raise ValueError(f"{name} is too wide to sample: {lo}:{hi}")


@dataclass
class BaseParams:
    """Ground-truth process parameters of one base (kept for diagnostics)."""

    mu: float
    sigma: float
    initial: np.ndarray
    transition: np.ndarray  # row k: next-mark distribution after mark k
    warp_kind: str
    warp_coeff: float
    query_source: int  # window index that became the query


def apply_warp(seq: EventSequence, kind: str, coeff: float = 1.0) -> EventSequence:
    """Monotone time distortion of a sequence; marks are untouched.

    affine: t -> coeff * t.  quadratic: t -> t^2 / T with T the horizon,
    which fixes the horizon and compresses early times.
    """
    if kind == "identity":
        return EventSequence(seq.id, seq.times.copy(), seq.marks.copy(), seq.horizon)
    if kind == "affine":
        if coeff <= 0:
            raise ValueError("affine warp coefficient must be positive")
        return EventSequence(seq.id, seq.times * coeff, seq.marks.copy(),
                             seq.horizon * coeff)
    if kind == "quadratic":
        T = seq.horizon
        return EventSequence(seq.id, seq.times**2 / T, seq.marks.copy(), T)
    raise ValueError(f"unknown warp kind {kind!r}")


def _mark_chain(rng: np.random.Generator, initial: np.ndarray, transition: np.ndarray,
                n: int) -> np.ndarray:
    """``n`` marks of a first-order Markov chain, one uniform each through
    its row's normalized cumsum: the draw ``rng.choice(c, p=row)`` makes,
    so marks and rng state match a per-event ``choice`` loop bit for bit."""
    cum = np.cumsum(np.vstack([transition, initial]), axis=1)
    rows = (cum / cum[:, -1:]).tolist()  # the last row starts the chain
    chain = [len(initial)]
    for u in rng.random(n).tolist():
        chain.append(bisect_right(rows[chain[-1]], u))
    return np.array(chain[1:], dtype=int)


def generate_base(rng: np.random.Generator, config: GenConfig,
                  base_index: int) -> tuple[list[EventSequence], BaseParams]:
    """All windows of one base, in stream order, plus its true parameters."""
    mu = rng.uniform(*config.mu_range)
    sigma = rng.uniform(*config.sigma_range)
    c = config.mark_count
    initial = rng.dirichlet(np.full(c, config.dirichlet_alpha))
    transition = np.stack([rng.dirichlet(np.full(c, config.dirichlet_alpha))
                           for _ in range(c)])

    n_subs = int(rng.integers(config.subs_range[0], config.subs_range[1] + 1))
    lengths = rng.integers(config.window_range[0], config.window_range[1] + 1,
                           size=n_subs)
    total = int(lengths.sum()) + 1  # one extra arrival supplies the last horizon
    gaps = rng.lognormal(mu, sigma, size=total)
    times = np.cumsum(gaps)
    marks = _mark_chain(rng, initial, transition, total)

    windows: list[EventSequence] = []
    start = 0
    for w, length in enumerate(lengths):
        end = start + int(length)
        origin = times[start - 1] if start > 0 else 0.0
        windows.append(EventSequence(
            f"b{base_index:03d}w{w:02d}",
            times[start:end] - origin,
            marks[start:end],
            float(times[end] - origin),
        ))
        start = end

    if config.warp == "affine":
        coeff = float(rng.uniform(*config.warp_range))
    else:
        coeff = 1.0
    query_source = int(rng.integers(n_subs))
    params = BaseParams(mu=mu, sigma=sigma, initial=initial, transition=transition,
                        warp_kind=config.warp, warp_coeff=coeff,
                        query_source=query_source)
    return windows, params


@dataclass
class Benchmark:
    corpus: dict[str, EventSequence]
    queries: dict[str, EventSequence]
    judgments: RelevanceJudgments
    bases: dict[str, BaseParams] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        n_pos = sum(len(self.judgments.positives(q)) for q in self.queries)
        n_pairs = len(self.corpus) * len(self.queries)
        return {
            "bases": float(len(self.bases)),
            "corpus_size": float(len(self.corpus)),
            "queries": float(len(self.queries)),
            "positives_per_query": n_pos / max(1, len(self.queries)),
            "positive_ratio": n_pos / max(1, n_pairs),
        }


def make_benchmark(config: GenConfig) -> Benchmark:
    """Deterministic benchmark from one seed.

    Bases draw from spawned child streams, so base k's content does not
    depend on how many bases follow it.
    """
    streams = np.random.SeedSequence(config.seed).spawn(config.n_bases)
    corpus: dict[str, EventSequence] = {}
    queries: dict[str, EventSequence] = {}
    judgments = RelevanceJudgments()
    bases: dict[str, BaseParams] = {}
    base_windows: dict[str, list[str]] = {}
    for b in range(config.n_bases):
        rng = np.random.default_rng(streams[b])
        windows, params = generate_base(rng, config, b)
        base_id = f"b{b:03d}"
        bases[base_id] = params
        source = windows[params.query_source]
        query = apply_warp(
            EventSequence(f"{base_id}q", source.times, source.marks, source.horizon),
            params.warp_kind, params.warp_coeff)
        queries[query.id] = query
        kept = [w for i, w in enumerate(windows) if i != params.query_source]
        base_windows[base_id] = [w.id for w in kept]
        for w in kept:
            corpus[w.id] = w
    for base_id in sorted(bases):
        own = set(base_windows[base_id])
        for cid in sorted(corpus):
            judgments.add(f"{base_id}q", cid, 1 if cid in own else -1)
    return Benchmark(corpus=corpus, queries=queries, judgments=judgments, bases=bases)
