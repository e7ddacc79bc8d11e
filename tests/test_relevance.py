"""Relevance scoring: alignment distances on hand cases, Fisher vector
normalization, kernel bounds and self-similarity, and graph/eval parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret import mtpp, relevance
from seqret.mtpp import ModelConfig, ModelParams
from seqret.relevance import (
    VanishingGradientError,
    fisher_kernel,
    fisher_vector,
    mark_distance,
    relevance_score,
    sim_score,
    time_distance,
    unit_vector,
)
from seqret.sequences import EventSequence
from seqret.unwarp import UnwarpParams
from conftest import assert_grad_close, fd_gradient, random_sequence


def seq(times, marks, horizon, seq_id="s"):
    return EventSequence(seq_id, np.array(times, dtype=float), np.array(marks), float(horizon))


def make_model(variant="self", seed=0):
    cfg = ModelConfig(variant=variant, dim=4, mark_count=3, n_max=16)
    return ModelParams.init(cfg, np.random.default_rng(seed), scale=0.3)


IDENTITY = UnwarpParams.identity()


class TestMarkDistance:
    def test_identical_zero(self):
        a = seq([1.0, 2.0], [0, 1], 3.0)
        assert mark_distance(a, a) == 0

    def test_mismatch_plus_length(self):
        q = seq([1.0, 2.0], [0, 1], 3.0)
        c = seq([1.0, 2.0, 2.5], [0, 2, 2], 3.0)
        # one mismatch at position 2, one extra event
        assert mark_distance(q, c) == 2

    def test_symmetric_in_matched_part(self):
        q = seq([1.0], [1], 2.0)
        c = seq([1.0], [2], 2.0)
        assert mark_distance(q, c) == mark_distance(c, q) == 1


class TestTimeDistance:
    def test_identical_zero(self):
        a = seq([1.0], [0], 2.0)
        assert time_distance(a, a, T=2.0) == 0.0

    def test_half_offset(self):
        q = seq([1.0], [0], 2.0)
        c = seq([1.5], [0], 2.0)
        assert time_distance(q, c, T=2.0) == pytest.approx(0.5, abs=1e-12)

    def test_unmatched_tail_costs_horizon_gap(self):
        q = seq([1.0], [0], 4.0)
        c = seq([1.0, 3.0], [0, 0], 4.0)
        assert time_distance(q, c, T=4.0) == pytest.approx(1.0, abs=1e-12)
        # and symmetric when the query is longer
        assert time_distance(c, q, T=4.0) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            a = random_sequence(rng, seq_id="a")
            b = random_sequence(rng, seq_id="b")
            T = max(a.horizon, b.horizon)
            assert time_distance(a, b, T) >= 0.0

    def test_event_beyond_T_rejected(self):
        q = seq([3.0], [0], 3.0)
        c = seq([1.0], [0], 2.0)
        with pytest.raises(ValueError, match="exceeds T"):
            time_distance(q, c, T=2.0)
        with pytest.raises(ValueError):
            time_distance(q, c, T=0.0)

    def test_moving_event_away_strictly_increases(self):
        c = seq([1.0], [0], 4.0)
        prev = -1.0
        for t in (1.0, 1.5, 2.2, 3.0):
            d = time_distance(seq([t], [0], 4.0), c, T=4.0)
            assert d > prev - 1e-15
            prev = d


class TestSimScore:
    def test_perfect_match_is_zero(self):
        a = seq([1.0], [0], 2.0)
        assert sim_score(a, a, IDENTITY, T=2.0) == pytest.approx(0.0, abs=1e-9)

    def test_half_offset_value(self):
        q = seq([1.0], [0], 2.0, "q")
        c = seq([1.5], [0], 2.0, "c")
        assert sim_score(q, c, IDENTITY, T=2.0) == pytest.approx(-0.5, abs=1e-9)

    def test_mark_flip_costs_one(self):
        q = seq([1.0], [1], 2.0, "q")
        c = seq([1.0], [2], 2.0, "c")
        assert sim_score(q, c, IDENTITY, T=2.0) == pytest.approx(-1.0, abs=1e-9)

    def test_monotone_in_misalignment(self):
        c = seq([1.0, 2.0], [0, 1], 4.0, "c")
        scores = [sim_score(seq([1.0, 2.0 + d], [0, 1], 4.0, "q"), c, IDENTITY, T=4.0)
                  for d in (0.0, 0.4, 1.1, 1.9)]
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestUnitVector:
    def test_scale_invariance(self, rng):
        g = rng.normal(size=10)
        np.testing.assert_allclose(unit_vector(g), unit_vector(3.7 * g), rtol=1e-12)

    def test_vanishing_raises(self):
        with pytest.raises(VanishingGradientError):
            unit_vector(np.zeros(4))


class TestFisherVector:
    def test_unit_norm_invariant(self, rng):
        params = make_model(seed=3)
        for _ in range(10):
            v = fisher_vector(random_sequence(rng), params)
            assert abs(np.linalg.norm(v.vector) - 1.0) < 1e-9

    def test_vanishing_gradient_is_an_error(self, rng, monkeypatch):
        params = make_model(seed=3)
        monkeypatch.setattr(mtpp, "grad_log_likelihood", lambda *a, **k: np.zeros(params.n_params))
        with pytest.raises(VanishingGradientError):
            fisher_vector(random_sequence(rng), params)

    @pytest.mark.parametrize("variant", ["self", "cross"])
    def test_batched_vectors_equal_one_at_a_time(self, rng, variant):
        params = make_model(variant=variant, seed=3)
        seqs = [random_sequence(rng, n=n, seq_id=f"s{i}") for i, n in enumerate([3, 5, 3, 3, 5, 2])]
        cond = random_sequence(rng, seq_id="q") if variant == "cross" else None
        got = relevance.fisher_vectors(seqs, params, conditioning=cond)
        for seq, vec in zip(seqs, got):
            assert vec.tobytes() == fisher_vector(seq, params, conditioning=cond).vector.tobytes()

    def test_vanishing_row_leaves_the_rest_of_its_group(self, rng, monkeypatch):
        params = make_model(seed=3)
        seqs = [random_sequence(rng, n=4, seq_id=f"s{i}") for i in range(3)]
        want = [fisher_vector(seq, params).vector for seq in seqs]
        real = mtpp.grad_log_likelihoods

        def flaky(group, params, conditioning=None):
            grads = real(group, params, conditioning=conditioning)
            return [np.zeros_like(g) if seq.id == "s1" else g for seq, g in zip(group, grads)]

        monkeypatch.setattr(mtpp, "grad_log_likelihoods", flaky)
        got = relevance.fisher_vectors(seqs, params)
        assert got[1] is None
        assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()


class TestFisherKernel:
    @pytest.mark.parametrize("variant", ["self", "cross"])
    def test_self_similarity_is_one(self, variant, rng):
        params = make_model(variant=variant, seed=5)
        for i in range(5):
            s = random_sequence(rng, seq_id=f"s{i}")
            assert fisher_kernel(s, s, IDENTITY, params) == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_one(self, rng):
        params = make_model(seed=6)
        for i in range(10):
            a = random_sequence(rng, seq_id="a")
            b = random_sequence(rng, seq_id="b")
            assert abs(fisher_kernel(a, b, IDENTITY, params)) <= 1.0 + 1e-9

    def test_symmetric_for_self_variant_identity_unwarp(self, rng):
        params = make_model(seed=7)
        a = random_sequence(rng, seq_id="a")
        b = random_sequence(rng, seq_id="b")
        assert fisher_kernel(a, b, IDENTITY, params) == pytest.approx(
            fisher_kernel(b, a, IDENTITY, params), rel=1e-10)


class TestRelevanceScore:
    def test_combines_kernel_and_sim(self, rng):
        params = make_model(seed=8)
        q = random_sequence(rng, seq_id="q")
        c = random_sequence(rng, seq_id="c")
        kappa = fisher_kernel(q, c, IDENTITY, params)
        T = max(q.horizon, c.horizon)
        sim = sim_score(q, c, IDENTITY, T)
        got = relevance_score(q, c, IDENTITY, params, gamma=0.25)
        assert got == pytest.approx(kappa + 0.25 * sim, rel=1e-10)

    def test_identical_pair_scores_highest_at_gamma_zero(self, rng):
        params = make_model(seed=9)
        q = random_sequence(rng, seq_id="q")
        others = [random_sequence(rng, seq_id=f"c{i}") for i in range(5)]
        self_score = relevance_score(q, q, IDENTITY, params, gamma=0.0)
        assert all(relevance_score(q, c, IDENTITY, params, gamma=0.0) <= self_score + 1e-9
                   for c in others)


class TestGraphParity:
    def test_fisher_vector_graph_matches_eval(self, rng):
        params = make_model(seed=10)
        s = random_sequence(rng, n=4)
        tape = ad.Tape()
        theta = params.leaves(tape)
        v = relevance.fisher_vector_graph(tape, theta, params.config, s.times, s.marks)
        np.testing.assert_allclose(v.data, fisher_vector(s, params).vector, rtol=1e-10)

    def test_time_distance_graph_matches_eval(self, rng):
        q = seq([0.5, 1.5, 2.5], [0, 0, 0], 3.0, "q")
        c = seq([0.7, 1.2], [0, 0], 3.0, "c")
        T = 3.0
        tape = ad.Tape()
        uq = tape.leaf(q.times)
        d = relevance.time_distance_graph(tape, uq, c.times, T)
        assert d.item() == pytest.approx(time_distance(q, c, T), rel=1e-12)
        # corpus longer than query
        tape = ad.Tape()
        uq = tape.leaf(c.times)
        d2 = relevance.time_distance_graph(tape, uq, q.times, T)
        assert d2.item() == pytest.approx(time_distance(c, q, T), rel=1e-12)

    def test_time_distance_graph_gradient(self):
        c_times = np.array([0.7, 1.2])
        T = 3.0

        def f(x):
            tape = ad.Tape()
            uq = tape.leaf(x)
            return relevance.time_distance_graph(tape, uq, c_times, T).item()

        x0 = np.array([0.5, 1.5, 2.5])
        tape = ad.Tape()
        uq = tape.leaf(x0)
        out = relevance.time_distance_graph(tape, uq, c_times, T)
        analytic = tape.backward(out, wrt=[uq])[uq]
        assert_grad_close(analytic, fd_gradient(f, x0))

    def test_kernel_graph_gradient_through_both_vectors(self):
        """The kernel must stay differentiable w.r.t. model parameters."""
        params = make_model(seed=11)
        cfg = params.config
        a = seq([0.5, 1.3], [0, 2], 2.0, "a")
        b = seq([0.6, 1.1, 1.8], [0, 1, 2], 2.0, "b")

        def f(flat):
            p = ModelParams.unflatten(cfg, flat)
            tape = ad.Tape()
            theta = p.leaves(tape)
            va = relevance.fisher_vector_graph(tape, theta, cfg, a.times, a.marks)
            vb = relevance.fisher_vector_graph(tape, theta, cfg, b.times, b.marks)
            return tape, theta, ad.dot(va, vb)

        tape, theta, out = f(params.flatten())
        grads = tape.backward(out, wrt=list(theta.values()))
        analytic = np.concatenate(
            [np.ravel(grads[theta[n]]) for n, _ in mtpp.param_order(cfg)])
        numeric = fd_gradient(lambda x: f(x)[2].item(), params.flatten(), h=1e-5)
        assert_grad_close(analytic, numeric, rel=2e-4, abs_floor=1e-6)
