"""Ranking loss, Adam updates, pair sampling, and the training loop."""

from dataclasses import replace

import numpy as np
import pytest

from seqret import autodiff as ad
from seqret import trainer as tr
from seqret._opt import AdamState, adam_update
from seqret.mtpp import ModelParams
from seqret.sequences import RelevanceJudgments
from seqret.unwarp import UnwarpParams, unbiasedness_penalty_graph, unwarp_sequence

from conftest import assert_grad_close, fd_gradient, random_sequence


def micro_config(**overrides):
    base = dict(variant="cross", dim=4, mark_count=3, n_max=16,
                unwarp_hidden=(4, 4), n_quad=8, noise_sigma=0.0,
                negatives_per_query=3, pairs_per_query=6, batch_queries=2,
                epochs=2, learning_rate=0.05, eval_negatives=3, seed=11)
    base.update(overrides)
    return tr.TrainConfig(**base)


def micro_instance(rng, n_corpus=3, n_queries=2, config=None):
    config = config or micro_config()
    corpus = {f"c{i}": random_sequence(rng, n=4, seq_id=f"c{i}") for i in range(n_corpus)}
    queries = {f"q{i}": random_sequence(rng, n=4, seq_id=f"q{i}") for i in range(n_queries)}
    params = ModelParams.init(config.model_config(), rng)
    unwarp = UnwarpParams.init(config.unwarp_config(), rng)
    return config, corpus, queries, params, unwarp


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        arrays = {"w": np.array([0.0])}
        state = AdamState()
        adam_update(arrays, {"w": np.array([1.0])}, state, lr=0.1)
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        assert arrays["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_leaves_params(self):
        arrays = {"w": np.array([1.5])}
        adam_update(arrays, {"w": np.array([0.0])}, AdamState(), lr=0.1)
        assert arrays["w"][0] == pytest.approx(1.5, abs=1e-12)

    def test_decoupled_weight_decay(self):
        arrays = {"w": np.array([1.0])}
        adam_update(arrays, {"w": np.array([0.0])}, AdamState(), lr=0.1,
                       weight_decay=0.1)
        assert arrays["w"][0] == pytest.approx(0.99, abs=1e-12)

    def test_nonfinite_gradient_names_block(self):
        arrays = {"good": np.zeros(2), "bad": np.zeros(2)}
        grads = {"good": np.zeros(2), "bad": np.array([1.0, np.nan])}
        with pytest.raises(tr.TrainingDivergedError, match="bad"):
            adam_update(arrays, grads, AdamState(), lr=0.1)

    def test_updates_reference_arrays_in_place(self):
        backing = np.array([1.0, 2.0])
        arrays = {"w": backing}
        adam_update(arrays, {"w": np.ones(2)}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(backing, arrays["w"])
        assert backing[0] != 1.0


class TestSamplePairs:
    def judged(self):
        j = RelevanceJudgments()
        j.add("q0", "c0", 1)
        j.add("q0", "c1", 1)
        j.add("q0", "c2", -1)
        j.add("q1", "c3", 1)
        return j

    def test_negatives_never_judged_positive(self, rng):
        corpus_ids = [f"c{i}" for i in range(8)]
        pairs = tr.sample_pairs(self.judged(), ["q0", "q1"], corpus_ids, rng,
                                negatives_per_query=5, pairs_per_query=100)
        for pos, neg in pairs["q0"]:
            assert pos in {"c0", "c1"}
            assert neg not in {"c0", "c1"}
        for pos, neg in pairs["q1"]:
            assert pos == "c3"
            assert neg != "c3"

    def test_pair_cap_respected(self, rng):
        corpus_ids = [f"c{i}" for i in range(30)]
        pairs = tr.sample_pairs(self.judged(), ["q0"], corpus_ids, rng,
                                negatives_per_query=20, pairs_per_query=7)
        assert len(pairs["q0"]) == 7

    def test_query_without_positives_dropped(self, rng):
        j = self.judged()
        j.add("q2", "c0", -1)
        pairs = tr.sample_pairs(j, ["q0", "q2"], ["c0", "c1", "c2"], rng,
                                negatives_per_query=2, pairs_per_query=10)
        assert "q2" not in pairs

    def test_deterministic_for_same_stream(self):
        corpus_ids = [f"c{i}" for i in range(10)]
        a = tr.sample_pairs(self.judged(), ["q0", "q1"], corpus_ids,
                            np.random.default_rng(5), 4, 6)
        b = tr.sample_pairs(self.judged(), ["q0", "q1"], corpus_ids,
                            np.random.default_rng(5), 4, 6)
        assert a == b


class TestEpochLoss:
    def test_additive_over_disjoint_queries(self, rng):
        config, corpus, queries, params, unwarp = micro_instance(rng)
        pairs = {
            "q0": [("c0", "c1"), ("c0", "c2")],
            "q1": [("c1", "c0")],
        }
        joint = tr.epoch_loss(queries, corpus, pairs, params, unwarp, config)
        only0 = tr.epoch_loss(queries, corpus, {"q0": pairs["q0"]}, params, unwarp, config)
        only1 = tr.epoch_loss(queries, corpus, {"q1": pairs["q1"]}, params, unwarp, config)
        assert joint.value.item() == pytest.approx(
            only0.value.item() + only1.value.item(), rel=1e-12)
        assert joint.n_pairs == 3

    def test_empty_pairs_zero_loss(self, rng):
        config, corpus, queries, params, unwarp = micro_instance(rng)
        lg = tr.epoch_loss(queries, corpus, {}, params, unwarp, config)
        assert lg.value.item() == 0.0
        assert lg.n_pairs == 0

    def test_hinge_terms_match_eval_scores(self, rng):
        # with the unwarp disabled the taped scores must equal the
        # eval-mode scorer, so the loss is the plain hinge of those scores
        config, corpus, queries, params, _ = micro_instance(
            rng, config=micro_config(unwarp_enabled=False))
        identity = UnwarpParams.identity(config.unwarp_config())
        pairs = {"q0": [("c0", "c1"), ("c2", "c1")]}
        lg = tr.epoch_loss(queries, corpus, pairs, params, identity, config)
        from seqret.retrieval import score_candidates
        scores = score_candidates(queries["q0"], corpus.values(), params, identity,
                                  gamma=config.gamma)
        want = sum(max(0.0, scores[n] - scores[p] + config.margin) for p, n in pairs["q0"])
        assert lg.value.item() == pytest.approx(want, rel=1e-9)

    def test_disabled_unwarp_equals_identity_unwarp(self, rng):
        config, corpus, queries, params, _ = micro_instance(rng)
        identity = UnwarpParams.identity(config.unwarp_config())
        pairs = {"q0": [("c0", "c1")], "q1": [("c2", "c0")]}
        on = tr.epoch_loss(queries, corpus, pairs, params, identity, config)
        off = tr.epoch_loss(queries, corpus, pairs, params, identity,
                            micro_config(unwarp_enabled=False))
        # identity rate has zero unbiasedness penalty, so the values agree
        assert on.value.item() == pytest.approx(off.value.item(), rel=1e-9)
        assert off.phi is None
        assert on.phi is not None

    def test_penalty_term_scales_with_weight(self, rng):
        # the penalty's weight is 1/sigma^2: halving sigma quadruples it, and
        # sigma = inf turns it off
        config, corpus, queries, params, unwarp = micro_instance(rng)
        unwarp.arrays["b3"] = unwarp.arrays["b3"] + 0.5  # a rate away from 1
        pairs = {"q0": [("c0", "c1")]}

        def loss(sigma):
            scaled = UnwarpParams(replace(unwarp.config, unbias_sigma=sigma), unwarp.arrays)
            return tr.epoch_loss(queries, corpus, pairs, params, scaled, config).value.item()

        tape = ad.Tape()
        penalty = unbiasedness_penalty_graph(unwarp.leaves(tape), unwarp.config,
                                             queries["q0"].horizon, tape).item()
        assert unwarp.config.unbias_sigma == 1.0 and penalty > 0.1
        hinge = loss(float("inf"))
        assert loss(1.0) == pytest.approx(hinge + penalty, rel=1e-8)
        assert loss(0.5) == pytest.approx(hinge + 4.0 * penalty, rel=1e-8)

    def test_gradient_matches_fd_through_everything(self, rng):
        # the whole training objective: hinge of kernel-plus-distance
        # scores, unwarp composition, and the unbiasedness penalty
        config, corpus, queries, params, unwarp = micro_instance(rng)
        # default init puts the rate relus exactly at their kink for the
        # quadrature node at zero; shift the biases so every preactivation
        # keeps a margin and the loss is smooth where FD probes it
        unwarp.arrays["w1"] = 0.05 + 0.05 * np.abs(rng.normal(size=4))
        unwarp.arrays["b1"] = 0.10 + 0.05 * np.abs(rng.normal(size=4))
        unwarp.arrays["W2"] = 0.05 * rng.normal(size=(4, 4))
        unwarp.arrays["b2"] = 0.20 + 0.05 * np.abs(rng.normal(size=4))
        unwarp.arrays["w3"] = 0.05 * rng.normal(size=4)
        unwarp.arrays["b3"] = np.asarray(1.0 + 0.1 * rng.normal())
        pairs = {"q0": [("c0", "c1")], "q1": [("c2", "c1")]}

        lg = tr.epoch_loss(queries, corpus, pairs, params, unwarp, config)
        wrt = list(lg.theta.values()) + list(lg.phi.values())
        grads = lg.tape.backward(lg.value, wrt=wrt)
        analytic = np.concatenate(
            [grads[lg.theta[n]].ravel() for n in sorted(lg.theta)]
            + [grads[lg.phi[n]].ravel() for n in sorted(lg.phi)])

        theta_names = sorted(params.arrays)
        phi_names = sorted(unwarp.arrays)
        theta_sizes = [params.arrays[n].size for n in theta_names]
        phi_sizes = [unwarp.arrays[n].size for n in phi_names]

        def loss_at(flat):
            p2 = params.copy()
            u2 = unwarp.copy()
            offset = 0
            for name, size in zip(theta_names, theta_sizes):
                p2.arrays[name] = flat[offset:offset + size].reshape(params.arrays[name].shape)
                offset += size
            for name, size in zip(phi_names, phi_sizes):
                u2.arrays[name] = flat[offset:offset + size].reshape(unwarp.arrays[name].shape)
                offset += size
            return tr.epoch_loss(queries, corpus, pairs, p2, u2, config).value.item()

        flat = np.concatenate([params.arrays[n].ravel() for n in theta_names]
                              + [unwarp.arrays[n].ravel() for n in phi_names])
        fd = fd_gradient(loss_at, flat, h=1e-6)
        assert_grad_close(analytic, fd, rel=3e-4, abs_floor=1e-6)

    def test_noise_shifts_unwarped_times(self, rng):
        config, corpus, queries, params, unwarp = micro_instance(rng)
        pairs = {"q0": [("c0", "c1")]}
        a = tr.epoch_loss(queries, corpus, pairs, params, unwarp, config)
        b = tr.epoch_loss(queries, corpus, pairs, params, unwarp, config,
                          noise={"q0": 0.05})
        assert a.value.item() != b.value.item()


def micro_benchmark(rng, n_corpus=6):
    corpus = {f"c{i}": random_sequence(rng, n=4, seq_id=f"c{i}") for i in range(n_corpus)}
    queries = {f"q{i}": random_sequence(rng, n=4, seq_id=f"q{i}") for i in range(3)}
    judgments = RelevanceJudgments()
    ids = sorted(corpus)
    for qi, qid in enumerate(sorted(queries)):
        for ci, cid in enumerate(ids):
            judgments.add(qid, cid, 1 if (qi + ci) % 3 == 0 else -1)
    return corpus, queries, judgments


class TestTrain:
    def test_two_epoch_run_structure(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=2)
        result = tr.train(corpus, queries, judgments, config,
                          train_ids=["q0", "q1"], valid_ids=["q2"])
        assert len(result.history) == 2
        for row in result.history:
            assert np.isfinite(row.loss)
            assert row.n_pairs > 0
            assert 0.0 <= row.val_map <= 1.0
        assert result.best_epoch in (0, 1)
        assert result.params.config.variant == "cross"

    def test_training_is_deterministic(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=2, noise_sigma=0.01)
        a = tr.train(corpus, queries, judgments, config, ["q0", "q1"], ["q2"])
        b = tr.train(corpus, queries, judgments, config, ["q0", "q1"], ["q2"])
        np.testing.assert_array_equal(a.params.flatten(), b.params.flatten())
        np.testing.assert_array_equal(a.unwarp.flatten(), b.unwarp.flatten())
        assert [r.loss for r in a.history] == [r.loss for r in b.history]
        assert [r.val_map for r in a.history] == [r.val_map for r in b.history]

    def test_zero_epochs_returns_untouched_init(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=0)
        result = tr.train(corpus, queries, judgments, config, ["q0", "q1"], ["q2"])
        rng_init = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[0])
        expected = ModelParams.init(config.model_config(), rng_init)
        np.testing.assert_array_equal(result.params.flatten(), expected.flatten())
        assert result.history == []

    def test_updates_change_both_parameter_sets(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=1)
        rng_init = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[0])
        init_theta = ModelParams.init(config.model_config(), rng_init).flatten()
        init_phi = UnwarpParams.init(config.unwarp_config(), rng_init).flatten()
        result = tr.train(corpus, queries, judgments, config, ["q0", "q1"])
        assert not np.array_equal(result.params.flatten(), init_theta)
        assert not np.array_equal(result.unwarp.flatten(), init_phi)

    def test_disabled_unwarp_stays_identity(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=1, unwarp_enabled=False)
        result = tr.train(corpus, queries, judgments, config, ["q0", "q1"])
        identity = UnwarpParams.identity(config.unwarp_config())
        np.testing.assert_array_equal(result.unwarp.flatten(), identity.flatten())
        q = queries["q0"]
        np.testing.assert_allclose(unwarp_sequence(q, result.unwarp).times, q.times,
                                   rtol=1e-12)

    def test_divergence_aborts(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=3, learning_rate=1e8)
        with pytest.raises(tr.TrainingDivergedError):
            tr.train(corpus, queries, judgments, config, ["q0", "q1"])

    def test_no_usable_training_query_rejected(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        bare = RelevanceJudgments()
        for cid in corpus:
            bare.add("q0", cid, -1)
        with pytest.raises(ValueError):
            tr.train(corpus, queries, bare, micro_config(), ["q0"])

    def test_best_checkpoint_tracks_validation(self, rng):
        corpus, queries, judgments = micro_benchmark(rng)
        config = micro_config(epochs=3, learning_rate=0.02)
        result = tr.train(corpus, queries, judgments, config, ["q0", "q1"], ["q2"])
        maps = [r.val_map for r in result.history]
        assert result.best_epoch == int(np.argmax(maps))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            micro_config(margin=-0.1)
        with pytest.raises(ValueError):
            micro_config(learning_rate=0.0)
        with pytest.raises(ValueError):
            micro_config(batch_queries=0)

    @pytest.mark.parametrize("field", ["margin", "gamma", "l2", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, field, value):
        with pytest.raises(ValueError):
            micro_config(**{field: value})
