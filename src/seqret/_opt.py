"""Adam updates over named parameter arrays (shared by the two trainers)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdamState", "TrainingDivergedError", "adam_update"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss or gradients left the finite range; training aborted."""


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_update(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One in-place Adam step with bias correction (``BETA1``, ``BETA2``, ``EPS``).

    ``weight_decay`` is decoupled (applied to the parameter directly, not
    through the moment estimates), so the data loss stays additive over
    queries.  Non-finite gradients raise with the offending block named.
    """
    state.t += 1
    t = state.t
    for name in arrays:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in block {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(arrays[name])
            state.v[name] = np.zeros_like(arrays[name])
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * np.square(g)
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        if weight_decay:
            arrays[name] -= lr * weight_decay * arrays[name]
        arrays[name] -= lr * m_hat / (np.sqrt(v_hat) + EPS)
