"""Trainable monotone unwarping of query timestamps.

Query streams are often recorded on a distorted clock relative to the
corpus (devices sample faster or slower, sessions are compressed).  We
map query times through

    U(t) = integral_0^t u(tau) d tau  (+ eta in train mode)

where the rate u is a small feed-forward network with a final ReLU clamp,
so u >= 0 and U is non-decreasing for any parameters.  The integral is a
composite trapezoid rule with ``n_quad`` panels per segment between
consecutive sorted times, accumulated by a cumulative sum, so outputs
are monotone by construction (per-time scaled grids are not: their
quadrature errors differ, and nearby times can swap by the error
margin).  The rule is exact for constant and affine rates, which covers
the identity configuration used as the no-unwarp baseline.

Eval and training share one taped builder with one tie rule: training
differentiates ``unwarp_times_graph`` on its loss tape, and the eval-mode
``unwarp_times`` / ``unwarp_time`` / ``unwarp_sequence`` evaluate the same
builder on a throwaway tape.

Training adds a small Gaussian intercept eta (exploration of the phase)
and an unbiasedness penalty (1/sigma^2) * integral_0^T (u(t) - 1)^2 dt that
keeps U near the identity unless the data pays for a deviation.  Both are
train-mode only; evaluation is deterministic with eta = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .sequences import EventSequence

__all__ = [
    "UnwarpConfig",
    "UnwarpParams",
    "unwarp_times",
    "unwarp_time",
    "unwarp_sequence",
    "unwarp_times_graph",
    "unbiasedness_penalty_graph",
]

PHI_ORDER = ("w1", "b1", "W2", "b2", "w3", "b3")

# Minimal separation between unwarped times when the rate integrates to
# zero over a segment (relu rates can vanish on an interval).  Keeps the
# output strictly increasing so downstream likelihoods stay in-domain.
TIE_EPS = 1e-12


@dataclass
class UnwarpConfig:
    hidden: tuple[int, int] = (128, 128)
    n_quad: int = 64
    noise_sigma: float = 0.01
    unbias_sigma: float = 1.0

    def __post_init__(self):
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be two positive widths, got {self.hidden}")
        if self.n_quad < 1:
            raise ValueError("n_quad must be >= 1")
        # written so that NaN fails them; unbias_sigma = inf turns the penalty off
        if not (0 <= self.noise_sigma < math.inf and self.unbias_sigma > 0):
            raise ValueError(f"noise_sigma must be finite and >= 0 and unbias_sigma > 0, "
                             f"got {self.noise_sigma} and {self.unbias_sigma}")


class UnwarpParams:
    """Rate-network weights; canonical flat order is PHI_ORDER, row-major.

    ``rate_hook`` substitutes an arbitrary rate function for diagnostics:
    eval mode only, it enters the graph as a constant rate node (so it
    carries no gradient) and is never serialized.
    """

    def __init__(self, config: UnwarpConfig, arrays: dict[str, np.ndarray],
                 rate_hook: Callable[[np.ndarray], np.ndarray] | None = None):
        self.config = config
        self.arrays = arrays
        self.rate_hook = rate_hook
        for name, shape in self.shapes(config).items():
            if arrays[name].shape != shape:
                raise ValueError(f"unwarp param {name}: expected {shape}, got {arrays[name].shape}")

    @staticmethod
    def shapes(config: UnwarpConfig) -> dict[str, tuple]:
        h1, h2 = config.hidden
        return {
            "w1": (h1,),
            "b1": (h1,),
            "W2": (h2, h1),
            "b2": (h2,),
            "w3": (h2,),
            "b3": (),
        }

    @classmethod
    def init(cls, config: UnwarpConfig, rng: np.random.Generator, scale: float = 0.02) -> "UnwarpParams":
        arrays = {}
        for name, shape in cls.shapes(config).items():
            if name.startswith("b"):
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = rng.normal(0.0, scale, size=shape)
        # Start at the identity rate so early training scores are sane.
        arrays["b3"] = np.asarray(1.0)
        return cls(config, arrays)

    @classmethod
    def identity(cls, config: UnwarpConfig | None = None) -> "UnwarpParams":
        """Exact identity: u(t) = 1 for all t, so U(t) = t under any grid."""
        config = config or UnwarpConfig()
        arrays = {name: np.zeros(shape) for name, shape in cls.shapes(config).items()}
        arrays["b3"] = np.asarray(1.0)
        return cls(config, arrays)

    def flatten(self) -> np.ndarray:
        return np.concatenate([np.ravel(self.arrays[n]) for n in PHI_ORDER])

    @classmethod
    def unflatten(cls, config: UnwarpConfig, vec: np.ndarray) -> "UnwarpParams":
        arrays = {}
        off = 0
        for name, shape in cls.shapes(config).items():
            size = int(np.prod(shape)) if shape else 1
            arrays[name] = vec[off : off + size].reshape(shape).copy()
            off += size
        if off != vec.size:
            raise ValueError(f"unwarp vector length {vec.size}, expected {off}")
        return cls(config, arrays)

    def copy(self) -> "UnwarpParams":
        return UnwarpParams(self.config, {k: v.copy() for k, v in self.arrays.items()},
                            rate_hook=self.rate_hook)

    def leaves(self, tape: ad.Tape) -> dict[str, ad.Value]:
        return {name: tape.leaf(self.arrays[name], f"phi.{name}") for name in PHI_ORDER}


def _segment_nodes(sorted_times: np.ndarray, n_quad: int):
    """Quadrature nodes/weights per segment between consecutive sorted
    times (a leading 0 is implied).  Zero-length segments get zero weight."""
    starts = np.concatenate([[0.0], sorted_times[:-1]])
    spans = sorted_times - starts
    grid = np.linspace(0.0, 1.0, n_quad + 1)
    taus = starts[:, None] + spans[:, None] * grid[None, :]
    w = np.full(n_quad + 1, 1.0)
    w[0] = w[-1] = 0.5
    weights = (spans / n_quad)[:, None] * w[None, :]
    return taus, weights


def _rate_graph(tau: np.ndarray, phi: dict[str, ad.Value], tape: ad.Tape,
                rate_hook: Callable[[np.ndarray], np.ndarray] | None = None) -> ad.Value:
    if rate_hook is not None:
        return tape.constant(np.maximum(np.asarray(rate_hook(tau), dtype=np.float64), 0.0))
    t_col = tape.constant(tau.reshape(-1, 1))
    a1 = ad.relu(ad.add(ad.matmul(t_col, ad.reshape(phi["w1"], (1, -1))), phi["b1"]))
    a2 = ad.relu(ad.add(ad.matmul(a1, ad.transpose(phi["W2"])), phi["b2"]))
    return ad.relu(ad.add(ad.matvec(a2, phi["w3"]), phi["b3"]))


def _unwarp_graph(times, phi: dict[str, ad.Value], config: UnwarpConfig, tape: ad.Tape,
                  rate_hook=None) -> tuple[ad.Value, int]:
    """Taped U(times) without noise, plus the number of tied segments.

    Tie rule: a segment of positive span whose rate integrates below
    ``TIE_EPS`` is floored to it (``relu(inc - eps) + eps``), so distinct
    times stay strictly increasing and the downstream gap likelihood stays
    in-domain; a zero-span segment (a repeated input time) keeps increment
    0, so equal inputs map to equal outputs.
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(np.diff(times) < 0.0) or (times.size and times[0] < 0.0):
        raise ValueError("unwarp: times must be sorted and >= 0")
    taus, weights = _segment_nodes(times, config.n_quad)
    rate = _rate_graph(taus.ravel(), phi, tape, rate_hook)
    inc = ad.vsum(ad.mul(ad.reshape(rate, taus.shape), tape.constant(weights)), axis=1)
    positive = np.diff(times, prepend=0.0) > 0.0
    tied = int(np.sum((inc.data < TIE_EPS) & positive))
    inc = ad.add(ad.relu(ad.sub(inc, TIE_EPS)), tape.constant(np.where(positive, TIE_EPS, 0.0)))
    return ad.cumsum(inc, axis=0), tied


def unwarp_times_graph(times: np.ndarray, phi: dict[str, ad.Value], config: UnwarpConfig,
                       tape: ad.Tape, noise: float = 0.0) -> ad.Value:
    """Taped U(times) for sorted times (event streams are sorted).

    ``noise`` is a pre-drawn eta (the trainer draws it so that runs are
    reproducible from one root seed).
    """
    out, _ = _unwarp_graph(times, phi, config, tape)
    if noise:
        out = ad.add(out, float(noise))
    return out


def unwarp_times(times, params: UnwarpParams) -> np.ndarray:
    """U at each sorted time in eval mode (no noise), on a throwaway tape.

    Segment increments of a non-negative rate are non-negative, so the
    output preserves the input order; ties of distinct times are
    separated by ``TIE_EPS`` with a warning.
    """
    with ad.Tape() as tape:
        out, tied = _unwarp_graph(times, params.leaves(tape), params.config, tape,
                                  params.rate_hook)
    if tied:
        warnings.warn(f"unwarp produced {tied} tied times "
                      f"(rate vanished on a segment); separated by {TIE_EPS:g}")
    return out.data


def unwarp_time(t: float, params: UnwarpParams) -> float:
    return float(unwarp_times(np.array([t]), params)[0])


def unwarp_sequence(seq: EventSequence, params: UnwarpParams) -> EventSequence:
    """Unwarped view of a query for scoring; marks and id are unchanged.

    The horizon maps through U as well.  If the rate vanishes over a whole
    inter-event interval the tied outputs are separated by ``TIE_EPS``
    (with a warning), so the view stays strictly increasing.
    """
    n = len(seq)
    mapped = unwarp_times(np.concatenate([seq.times, [seq.horizon]]), params)
    return EventSequence(seq.id, mapped[:n], seq.marks, float(mapped[n]))


def unbiasedness_penalty_graph(phi: dict[str, ad.Value], config: UnwarpConfig,
                               T: float, tape: ad.Tape) -> ad.Value:
    """(1 / sigma^2) * integral_0^T (u(t) - 1)^2 dt, trapezoid rule."""
    taus, weights = _segment_nodes(np.array([float(T)]), config.n_quad)
    rate = _rate_graph(taus.ravel(), phi, tape)
    dev = ad.square(ad.sub(rate, 1.0))
    integral = ad.vsum(ad.mul(dev, tape.constant(weights.ravel())))
    return ad.div(integral, config.unbias_sigma**2)
