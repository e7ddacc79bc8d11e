"""Tests of the benchmark's own reference computations.

Each reference is checked against hand-computed values or an independent
estimate, and against the program where the program computes the same
quantity; each test also feeds a deliberately corrupted input and shows
that the comparison the benchmark makes rejects it.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import reference as ref  # noqa: E402
from seqret import hashing, mtpp, relevance, retrieval  # noqa: E402
from seqret.sequences import EventSequence  # noqa: E402
from seqret.unwarp import UnwarpConfig, UnwarpParams  # noqa: E402


def random_sequence(rng, seq_id, n, mark_count=3):
    times = np.cumsum(rng.lognormal(-0.5, 0.5, size=n))
    marks = rng.integers(0, mark_count, size=n)
    return EventSequence(seq_id, times, marks, float(times[-1] + rng.lognormal(-0.5, 0.5)))


# -- codes and bucket keys ------------------------------------------------------------

def test_bucket_key_hand_values():
    code = np.array([1, -1, 1, 1], dtype=np.int8)
    assert ref.bucket_key(code, [0, 2, 3]) == 0b111
    assert ref.bucket_key(code, [0, 1]) == 0b10
    assert ref.bucket_key(code, [1]) == 0


def test_bucket_keys_locate_every_id_and_reject_a_flipped_bit():
    rng = np.random.default_rng(0)
    codes = {f"c{i:02d}": np.where(rng.normal(size=8) >= 0, 1, -1).astype(np.int8)
             for i in range(40)}
    index = hashing.build_index(codes, tables=3, bits_per_table=4, seed=1)
    for t, table in enumerate(index.buckets):
        for key, members in table.items():
            for cid in members:
                assert ref.bucket_key(codes[cid], index.positions[t]) == key
    corrupted = codes["c07"].copy()
    corrupted[index.positions[0][0]] *= -1
    home = next(k for k, m in index.buckets[0].items() if "c07" in m)
    assert ref.bucket_key(corrupted, index.positions[0]) != home


def test_sign_codes_match_encoder_and_reject_a_flipped_bit():
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(30, 12))
    psi = hashing.HashNetParams.init(12, 8, 5, rng)
    a = psi.arrays
    codes = ref.sign_codes(vectors, a["W1"], a["b1"], a["W2"], a["b2"])
    program = np.stack([hashing.HashEncoder(kind="trained", psi=psi).encode(v) for v in vectors])
    assert np.array_equal(codes, program)
    program[3, 5] *= -1
    assert not np.array_equal(codes, program)


# -- time and mark distances ----------------------------------------------------------

def test_distances_hand_values():
    # matched |1-1.5| + |2-2| = 0.5; unmatched tail of the longer: (5-3) + (5-4)
    assert ref.time_distance([1.0, 2.0, 3.0, 4.0], [1.5, 2.0], 5.0) == pytest.approx(3.5)
    assert ref.time_distance([1.5, 2.0], [1.0, 2.0, 3.0, 4.0], 5.0) == pytest.approx(3.5)
    assert ref.mark_distance([0, 1, 2], [0, 2]) == 1 + 1
    assert ref.mark_distance([1, 1], [1, 1]) == 0


def test_distances_match_program_and_reject_a_moved_event():
    rng = np.random.default_rng(3)
    for i in range(20):
        q = random_sequence(rng, "q", int(rng.integers(1, 9)))
        c = random_sequence(rng, "c", int(rng.integers(1, 9)))
        T = max(q.horizon, c.horizon)
        assert ref.time_distance(q.times, c.times, T) == pytest.approx(
            relevance.time_distance(q, c, T), abs=1e-12)
        assert ref.mark_distance(q.marks, c.marks) == relevance.mark_distance(q, c)
    moved = q.times.copy()
    moved[0] *= 0.5
    assert ref.time_distance(moved, c.times, T) != pytest.approx(
        relevance.time_distance(q, c, T), abs=1e-12)
    flipped = q.marks.copy()
    flipped[0] = (flipped[0] + 1) % 3
    assert ref.mark_distance(flipped, c.marks) != relevance.mark_distance(q, c)


# -- AP, NDCG and their chance levels ------------------------------------------------

def test_ap_and_ndcg_hand_values():
    ranked = ["a", "x", "b", "y"]
    # hits at ranks 1 and 3; a third relevant id is never ranked
    assert ref.average_precision(ranked, {"a", "b", "c"}) == pytest.approx((1 + 2 / 3) / 3)
    dcg = 1.0 + 1.0 / np.log2(4)
    ideal = 1.0 + 1.0 / np.log2(3) + 1.0 / np.log2(4)
    assert ref.ndcg_at_k(ranked, {"a", "b", "c"}, 10) == pytest.approx(dcg / ideal)
    assert ref.ndcg_at_k(ranked, {"a"}, 1) == 1.0


def test_ap_and_ndcg_match_program_and_reject_a_swapped_pair():
    rng = np.random.default_rng(4)
    ids = [f"d{i}" for i in range(30)]
    for _ in range(20):
        ranked = list(rng.permutation(ids))
        relevant = set(rng.choice(ids, size=int(rng.integers(1, 8)), replace=False))
        assert ref.average_precision(ranked, relevant) == pytest.approx(
            retrieval.average_precision(ranked, relevant), abs=1e-12)
        assert ref.ndcg_at_k(ranked, relevant, 10) == pytest.approx(
            retrieval.ndcg_at_k(ranked, relevant, 10), abs=1e-12)
    hit = next(i for i, c in enumerate(ranked) if c in relevant)
    miss = next(i for i, c in enumerate(ranked) if c not in relevant)
    swapped = list(ranked)
    swapped[hit], swapped[miss] = swapped[miss], swapped[hit]
    assert ref.average_precision(swapped, relevant) != pytest.approx(
        retrieval.average_precision(ranked, relevant), abs=1e-12)


def test_is_ranked_rejects_a_swapped_pair_and_a_wrong_tie_break():
    ranking = [("b", 0.9), ("a", 0.5), ("c", 0.5), ("d", -1.0)]
    assert ref.is_ranked(ranking)
    assert ref.is_ranked(retrieval.rank_by_score(dict(ranking)))
    assert not ref.is_ranked([ranking[1], ranking[0]] + ranking[2:])
    assert not ref.is_ranked([ranking[0], ranking[2], ranking[1], ranking[3]])


@pytest.mark.parametrize("n, n_relevant", [(1, 1), (5, 1), (12, 4), (40, 40)])
def test_chance_levels_match_random_rankings(n, n_relevant):
    rng = np.random.default_rng(5)
    relevant = set(range(n_relevant))
    aps, ndcgs = [], []
    for _ in range(20000):
        ranked = list(rng.permutation(n))
        aps.append(ref.average_precision(ranked, relevant))
        ndcgs.append(ref.ndcg_at_k(ranked, relevant, 10))
    assert np.mean(aps) == pytest.approx(ref.chance_average_precision(n, n_relevant), abs=0.01)
    assert np.mean(ndcgs) == pytest.approx(ref.chance_ndcg_at_k(n, n_relevant, 10), abs=0.01)


# -- finite differences and the kernel -------------------------------------------------

def test_fd_bracket_smooth_and_kinked():
    def f(x):
        return float(np.sum(np.sin(x)) + x[0] * x[1])

    x = np.array([0.3, -1.2, 2.0])
    exact = np.cos(x) + np.array([x[1], x[0], 0.0])
    central, gap = ref.fd_bracket(f, x)
    assert np.max(np.abs(central - exact)) < 1e-8
    assert ref.direction_error(ref.unit(exact), central, gap) < 1e-8
    perturbed = ref.unit(exact + np.array([0.0, 0.0, 1e-3]))
    assert ref.direction_error(perturbed, central, gap) > 1e-6

    # a ReLU kink inside the step: the central difference mixes both
    # slopes, the bracket still holds the derivative at x (0 on this side)
    def kinked(x):
        return float(max(0.0, x[0] - 3e-8) + 2.0 * x[1])

    central, gap = ref.fd_bracket(kinked, np.array([0.0, 1.0]))
    assert abs(central[0]) > 1e-3
    assert ref.in_bracket([0.0, 2.0], central, gap, 1e-9)
    assert not ref.in_bracket([1.5, 2.0], central, gap, 1e-9)
    central, gap = ref.fd_bracket(kinked, np.array([0.0, 1.0]), directions=[[0.0, 1.0]])
    assert ref.in_bracket(2.0, central, gap, 1e-9)
    assert not ref.in_bracket(2.0 + 1e-4, central, gap, 1e-9)


def test_fd_kernel_reproduces_the_program_score_and_rejects_a_perturbed_one():
    rng = np.random.default_rng(6)
    config = mtpp.ModelConfig(variant="self", dim=4, mark_count=3, n_max=8)
    params = mtpp.ModelParams.init(config, rng, scale=0.5)
    for name in ("b_ff", "b_out"):
        params.arrays[name] = rng.normal(0.0, 0.5, size=params.arrays[name].shape)
    unwarp = UnwarpParams.identity(UnwarpConfig(hidden=(2, 2), n_quad=4))
    q = random_sequence(rng, "q", 5)
    c = random_sequence(rng, "c", 7)
    score = relevance.relevance_score(q, c, unwarp, params, gamma=0.1)

    def bracket(seq):
        def loglik(x):
            return mtpp.sequence_log_likelihood(
                seq, mtpp.ModelParams.unflatten(config, x)).item()
        return ref.fd_bracket(loglik, params.flatten())

    kernel, bound = ref.kernel_bound(*bracket(q), *bracket(c))
    T = max(q.horizon, c.horizon)
    expected = kernel + 0.1 * -(ref.time_distance(q.times, c.times, T)
                                + ref.mark_distance(q.marks, c.marks))
    assert bound < 1e-4
    assert abs(score - expected) <= 1e-6 + bound
    assert abs((score + 1e-3) - expected) > 1e-6 + bound
