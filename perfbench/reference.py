"""Reference computations the benchmark checks the program against.

Everything here is written from the documented definitions (README,
module docstrings, the paper's distances), not by calling the code under
test, so a check that compares the two can catch a regression in either
direction.  Only numpy is used; the finite-difference helpers take the
function to differentiate as an argument.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sign_codes",
    "bucket_key",
    "time_distance",
    "mark_distance",
    "average_precision",
    "ndcg_at_k",
    "chance_average_precision",
    "chance_ndcg_at_k",
    "fd_bracket",
    "in_bracket",
    "direction_error",
    "kernel_bound",
    "unit",
    "is_ranked",
    "close",
]


def sign_codes(vectors, W1, b1, W2, b2) -> np.ndarray:
    """Codes of the two-layer tanh code network: +1 where the output
    logit is >= 0, else -1.  ``vectors`` is (N, P); the result is (N, R)."""
    hidden = np.tanh(np.asarray(vectors, dtype=float) @ W1.T + b1)
    return np.where(hidden @ W2.T + b2 >= 0.0, 1, -1).astype(np.int8)


def bucket_key(code, positions) -> int:
    """Bucket of ``code`` in a table slicing the ascending ``positions``:
    a +1 bit reads as 1 and the lowest position is the most significant."""
    bits = np.asarray(code)[np.asarray(positions)] > 0
    key = 0
    for shift, bit in enumerate(bits[::-1]):
        key += int(bit) << shift
    return key


def time_distance(q_times, c_times, T: float) -> float:
    """Paper time distance: |q_i - c_i| summed over matched positions,
    plus (T - t) for every event the longer sequence has past the shorter."""
    q = np.asarray(q_times, dtype=float)
    c = np.asarray(c_times, dtype=float)
    h = min(len(q), len(c))
    total = math.fsum(abs(a - b) for a, b in zip(q[:h], c[:h]))
    longer = q if len(q) > len(c) else c
    return total + math.fsum(T - t for t in longer[h:])


def mark_distance(q_marks, c_marks) -> int:
    """Mark mismatches over matched positions plus the length difference."""
    h = min(len(q_marks), len(c_marks))
    mismatches = sum(1 for a, b in zip(q_marks[:h], c_marks[:h]) if a != b)
    return mismatches + abs(len(q_marks) - len(c_marks))


def average_precision(ranked_ids, relevant) -> float:
    """AP whose denominator is every relevant id, ranked or not."""
    relevant = set(relevant)
    hits, total = 0, 0.0
    for rank, cid in enumerate(ranked_ids, start=1):
        if cid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def _discount(rank: int) -> float:
    return 1.0 / math.log2(rank + 1)


def ndcg_at_k(ranked_ids, relevant, k: int) -> float:
    """Binary-gain NDCG@k against the ideal of min(k, #relevant) hits."""
    relevant = set(relevant)
    dcg = math.fsum(_discount(r) for r, cid in enumerate(ranked_ids[:k], start=1)
                    if cid in relevant)
    ideal = math.fsum(_discount(r) for r in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def chance_average_precision(n: int, n_relevant: int) -> float:
    """Expected AP of a uniformly random ranking of ``n`` items of which
    ``n_relevant`` are relevant.  A relevant item at rank r has, on
    average, (r-1)(R-1)/(n-1) relevant items above it, so its expected
    precision is (R-1)/(n-1) + (n-R)/((n-1) r); r is uniform on 1..n."""
    if n == 1:
        return 1.0
    harmonic = math.fsum(1.0 / r for r in range(1, n + 1))
    R = n_relevant
    return (R - 1) / (n - 1) + (n - R) / (n - 1) * harmonic / n


def chance_ndcg_at_k(n: int, n_relevant: int, k: int) -> float:
    """Expected NDCG@k of a uniformly random ranking: every rank holds a
    relevant item with probability R/n."""
    p = n_relevant / n
    dcg = math.fsum(p * _discount(r) for r in range(1, min(k, n) + 1))
    ideal = math.fsum(_discount(r) for r in range(1, min(k, n_relevant) + 1))
    return dcg / ideal


def fd_bracket(f, x, h: float = 1e-7, directions=None):
    """Central differences of ``f`` at ``x`` along each direction (the
    coordinate axes by default), and the gap between the two one-sided
    differences.

    Where ``f`` is smooth within ``h`` the gap is h * |f''| and the
    derivative at ``x`` is the central difference up to O(h^2).  The model
    has ReLUs; where a kink lies within ``h`` of ``x`` the gap is about the
    jump in slope and the derivative at ``x`` is one of the one-sided
    differences, up to O(h f'') from the curvature on its side.  Either
    way it lies within central +- gap (``in_bracket``).
    """
    x = np.asarray(x, dtype=float)
    f0 = f(x)
    count = x.size if directions is None else len(directions)
    central = np.empty(count)
    gap = np.empty(count)
    for i in range(count):
        if directions is None:
            step = np.zeros_like(x)
            step[i] = h
        else:
            step = h * np.asarray(directions[i], dtype=float)
        forward = (f(x + step) - f0) / h
        backward = (f0 - f(x - step)) / h
        central[i] = 0.5 * (forward + backward)
        gap[i] = abs(forward - backward)
    return central, gap


def in_bracket(value, central, gap, tol: float) -> bool:
    """``value`` lies within central +- (gap + tol) everywhere."""
    excess = np.abs(np.asarray(value) - central) - np.asarray(gap)
    return bool(np.all(excess <= tol))


def direction_error(v, central, gap) -> float:
    """How far the unit vector ``v`` is from the gradient direction that
    ``fd_bracket`` brackets, in units of the gradient norm.

    The norm is fitted on the coordinates whose one-sided differences
    agree to 1e-3 (no kink within the step); ``v`` scaled by it is then
    compared with each coordinate's bracket.
    """
    v = np.asarray(v, dtype=float)
    smooth = gap <= 1e-3 * np.abs(central)
    scale = float(central[smooth] @ v[smooth]) / float(v[smooth] @ v[smooth])
    excess = np.abs(scale * v - central) - gap
    return float(max(0.0, excess.max()) / scale)


def kernel_bound(central_q, gap_q, central_c, gap_c) -> tuple[float, float]:
    """Kernel of two gradients known up to their brackets: the dot product
    of the unit central differences, and a bound on its error (moving a
    vector g by e moves g / |g| by at most 2 |e| / |g|, and |e| <= |gap|)."""
    kernel = float(unit(central_q) @ unit(central_c))
    bound = 2.0 * (np.linalg.norm(gap_q) / np.linalg.norm(central_q)
                   + np.linalg.norm(gap_c) / np.linalg.norm(central_c))
    return kernel, float(bound)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def is_ranked(ranking) -> bool:
    """Scores descend, and exact ties put the smaller id first."""
    return all((-s0, c0) < (-s1, c1)
               for (c0, s0), (c1, s1) in zip(ranking, ranking[1:]))


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| within ``tol`` relative to max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
