"""Sequence model: embeddings, both attention variants against a
hand-rolled numpy oracle, likelihood terms, gradients vs finite
differences, and the checkpoint format."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret import mtpp
from seqret.mtpp import ModelConfig, ModelParams
from seqret.sequences import EventSequence
from seqret.unwarp import UnwarpConfig, UnwarpParams
from conftest import assert_grad_close, fd_gradient, random_sequence

LOG_2PI = np.log(2.0 * np.pi)


def make_model(variant="self", dim=4, mark_count=3, n_max=16, num_blocks=1, seed=0, scale=0.3):
    cfg = ModelConfig(variant=variant, dim=dim, mark_count=mark_count,
                      n_max=n_max, num_blocks=num_blocks)
    return cfg, ModelParams.init(cfg, np.random.default_rng(seed), scale=scale)


def seq3():
    return EventSequence("s3", np.array([0.5, 1.3, 2.2]), np.array([0, 2, 1]), 3.0)


def embed(seq, params):
    """Input-layer embeddings of a sequence, one row per event."""
    tape = ad.Tape()
    gaps = mtpp._gaps_graph(tape, seq.times)
    return mtpp._embed_graph(tape, params.leaves(tape), params.config, seq.times, gaps,
                             seq.marks).data


def encode(seq, params, cond=None):
    """Conditioning states of ``seq``: row k conditions event k+1."""
    tape = ad.Tape()
    cond_args = {}
    if cond is not None:
        cond_args = dict(cond_times=cond.times, cond_gaps=mtpp._gaps_graph(tape, cond.times),
                         cond_marks=cond.marks)
    return mtpp._encode_graph(tape, params.leaves(tape), params.config, seq.times,
                              mtpp._gaps_graph(tape, seq.times), seq.marks, **cond_args).data


def attention_outputs(seq, params, cond=None):
    """Raw attention outputs h_j of ``seq`` (the encoder before the output layer)."""
    tape = ad.Tape()
    theta = params.leaves(tape)

    def embedded(s):
        return mtpp._embed_graph(tape, theta, params.config, s.times,
                                 mtpp._gaps_graph(tape, s.times), s.marks)

    y_cond = embedded(cond) if cond is not None else None
    return mtpp._attention_graph(tape, theta, params.config, embedded(seq), y_cond).data


def one_event_ll(gap, mark=0, mu=0.0, sigma=1.0, mark_bias=(0.0, 0.0, 0.0)):
    """Log-likelihood of one event with both heads pinned to their biases:
    the lognormal log-density of ``gap`` plus the mark log-probability."""
    cfg, params = make_model()
    params.arrays["W_time_head"] = np.zeros((2, 4))
    params.arrays["b_time_head"] = np.array([mu, np.log(sigma)])
    params.arrays["W_mark_head"] = np.zeros((3, 4))
    params.arrays["b_mark_head"] = np.asarray(mark_bias, dtype=float)
    seq = EventSequence("one", np.array([gap]), np.array([mark]), gap + 1.0)
    return mtpp.sequence_log_likelihood(seq, params).item()


def oracle_forward(params, seq, cond=None):
    """Independent numpy re-computation of the full model forward pass."""
    a = params.arrays
    cfg = params.config

    def embed(s):
        gaps = np.diff(s.times, prepend=0.0)
        n = len(s)
        y = a["embed_mark"][s.marks].copy()
        y += np.outer(s.times, a["w_time"]) + np.outer(gaps, a["w_gap"])
        y += a["b_embed"] + a["pos"][:n]
        return y

    y = embed(seq)
    n = len(seq)
    src = embed(cond) if cond is not None else y
    stream = y
    for b in range(cfg.num_blocks):
        source = stream if cond is None else src
        s = stream @ a[f"W_s{b}"].T
        k = source @ a[f"W_k{b}"].T
        v = source @ a[f"W_v{b}"].T
        logits = s @ k.T / np.sqrt(cfg.dim)
        if cond is None:
            logits = np.where(np.tril(np.ones((n, n), dtype=bool)), logits, -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        stream = attn @ v
    f = a["w_out"] * np.maximum(stream * a["w_ff"] + a["b_ff"], 0.0) + a["b_out"]
    states = np.zeros((n, cfg.dim))
    states[0] = a["start"]
    for r in range(1, n):
        states[r] = f[:r].sum(axis=0)
    return states


def oracle_ll(params, seq, cond=None):
    a = params.arrays
    states = oracle_forward(params, seq, cond)
    gaps = np.diff(seq.times, prepend=0.0)
    total = 0.0
    for i in range(len(seq)):
        mu, log_sigma = a["W_time_head"] @ states[i] + a["b_time_head"]
        sigma = np.exp(log_sigma)
        z = (np.log(gaps[i]) - mu) / sigma
        total += -np.log(gaps[i]) - log_sigma - 0.5 * LOG_2PI - 0.5 * z * z
        logits = a["W_mark_head"] @ states[i] + a["b_mark_head"]
        total += logits[seq.marks[i]] - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
    return total


class TestEmbedding:
    def test_zero_weights_give_zero_embedding(self):
        cfg, params = make_model()
        for name in params.arrays:
            params.arrays[name] = np.zeros_like(params.arrays[name])
        y = embed(seq3(), params)
        np.testing.assert_array_equal(y, np.zeros((3, 4)))

    def test_bias_only_embedding_is_unit_vector(self):
        cfg, params = make_model()
        for name in params.arrays:
            params.arrays[name] = np.zeros_like(params.arrays[name])
        params.arrays["b_embed"] = np.array([1.0, 0.0, 0.0, 0.0])
        seq = EventSequence("one", np.array([0.7]), np.array([1]), 1.0)
        np.testing.assert_array_equal(embed(seq, params), [[1.0, 0.0, 0.0, 0.0]])

    def test_matches_oracle(self, rng):
        cfg, params = make_model(seed=5)
        seq = random_sequence(rng, n=5)
        y = embed(seq, params)
        gaps = np.diff(seq.times, prepend=0.0)
        a = params.arrays
        expected = (a["embed_mark"][seq.marks] + np.outer(seq.times, a["w_time"])
                    + np.outer(gaps, a["w_gap"]) + a["b_embed"] + a["pos"][:5])
        np.testing.assert_allclose(y, expected, rtol=1e-12)


class TestEncoders:
    def test_self_states_match_oracle(self, rng):
        cfg, params = make_model(seed=11)
        seq = random_sequence(rng, n=4)
        states = encode(seq, params)
        np.testing.assert_allclose(states, oracle_forward(params, seq), rtol=1e-10)

    def test_cross_states_match_oracle(self, rng):
        cfg, params = make_model(variant="cross", seed=12)
        seq = random_sequence(rng, n=4, seq_id="c")
        cond = random_sequence(rng, n=3, seq_id="q")
        states = encode(seq, params, cond)
        np.testing.assert_allclose(states, oracle_forward(params, seq, cond), rtol=1e-10)

    def test_two_blocks_match_oracle(self, rng):
        cfg, params = make_model(seed=13, num_blocks=2)
        seq = random_sequence(rng, n=4)
        states = encode(seq, params)
        np.testing.assert_allclose(states, oracle_forward(params, seq), rtol=1e-10)

    def test_identical_events_attend_uniformly(self):
        # All-equal inputs make every attention row average identical values.
        cfg, params = make_model(seed=3)
        times = np.array([1.0, 2.0, 3.0])
        params.arrays["w_time"] = np.zeros(4)
        params.arrays["w_gap"] = np.zeros(4)
        params.arrays["pos"] = np.zeros_like(params.arrays["pos"])
        seq = EventSequence("same", times, np.array([1, 1, 1]), 4.0)
        states = encode(seq, params)
        y = params.arrays["embed_mark"][1] + params.arrays["b_embed"]
        v = params.arrays["W_v0"] @ y
        f = (params.arrays["w_out"] * np.maximum(v * params.arrays["w_ff"] + params.arrays["b_ff"], 0)
             + params.arrays["b_out"])
        np.testing.assert_allclose(states[1], f, rtol=1e-10)
        np.testing.assert_allclose(states[2], 2 * f, rtol=1e-10)

    def test_causality_prefix_states_unchanged(self, rng):
        cfg, params = make_model(seed=7)
        times = np.array([0.4, 1.0, 1.7, 2.5, 3.1])
        marks = np.array([0, 1, 2, 0, 1])
        seq = EventSequence("a", times, marks, 4.0)
        t2 = times.copy()
        t2[4] = 3.9
        m2 = marks.copy()
        m2[4] = 2
        seq2 = EventSequence("b", t2, m2, 4.0)
        s1 = encode(seq, params)
        s2 = encode(seq2, params)
        # states 0..4 condition events 1..5; event 5 changed, so states
        # 0..4 (built from events 1..4) must be bit-identical.
        np.testing.assert_array_equal(s1[:5], s2[:5])

    def test_cross_on_itself_agrees_with_self_at_full_prefix(self, rng):
        # The last self-attention row sees the whole sequence, exactly the
        # key/value set the cross encoder uses when conditioned on itself.
        cfg_s, params_s = make_model(variant="self", seed=21)
        cfg_c = ModelConfig(variant="cross", dim=4, mark_count=3, n_max=16)
        params_c = ModelParams(cfg_c, {k: v.copy() for k, v in params_s.arrays.items()})
        seq = random_sequence(rng, n=4)
        last_self = attention_outputs(seq, params_s)[-1]
        last_cross = attention_outputs(seq, params_c, cond=seq)[-1]
        np.testing.assert_allclose(last_self, last_cross, rtol=1e-10)

    def test_single_event_cross_equals_self(self, rng):
        cfg_s, params_s = make_model(variant="self", seed=22)
        cfg_c = ModelConfig(variant="cross", dim=4, mark_count=3, n_max=16)
        params_c = ModelParams(cfg_c, {k: v.copy() for k, v in params_s.arrays.items()})
        seq = EventSequence("one", np.array([0.8]), np.array([2]), 1.5)
        np.testing.assert_allclose(attention_outputs(seq, params_s),
                                   attention_outputs(seq, params_c, cond=seq), rtol=1e-12)
        np.testing.assert_allclose(encode(seq, params_s), encode(seq, params_c, cond=seq),
                                   rtol=1e-12)

    def test_variant_guards(self, rng):
        seq = random_sequence(rng, n=3)
        cfg_c, params_c = make_model(variant="cross")
        with pytest.raises(ValueError, match="conditioning"):
            mtpp.sequence_log_likelihood(seq, params_c)


class TestLengthLimits:
    def test_too_long_rejected(self, rng):
        cfg, params = make_model(n_max=4)
        seq = random_sequence(rng, n=5)
        with pytest.raises(mtpp.SequenceLengthError):
            mtpp.sequence_log_likelihood(seq, params)

    def test_empty_rejected(self):
        cfg, params = make_model()
        seq = EventSequence("e", np.array([]), np.array([]), 1.0)
        with pytest.raises(ValueError, match="empty"):
            mtpp.sequence_log_likelihood(seq, params)


class TestDensities:
    def test_lognormal_standard_value(self):
        # At gap 1, mu 0, sigma 1 only the constant survives.
        assert one_event_ll(1.0) - np.log(1 / 3) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_lognormal_mode_arguments(self):
        # dev = 0 when log gap == mu.
        val = one_event_ll(np.e, mu=1.0, sigma=0.5) - np.log(1 / 3)
        assert val == pytest.approx(-1.0 - np.log(0.5) - 0.5 * LOG_2PI, abs=1e-12)

    def test_density_integrates_to_one(self):
        # integrate over log gap, where the lognormal is a smooth Gaussian
        grid = np.exp(np.linspace(np.log(1e-4), np.log(60.0), 400))
        dens = np.exp([one_event_ll(g) - np.log(1 / 3) for g in grid])
        trap = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        assert trap(dens * grid, np.log(grid)) == pytest.approx(1.0, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ad.DomainError):
            one_event_ll(0.0)
        cfg, params = make_model()
        backwards = EventSequence("b", np.array([1.0, 0.5]), np.array([0, 1]), 2.0)
        with pytest.raises(ad.DomainError):
            mtpp.sequence_log_likelihood(backwards, params)

    def test_mark_log_prob_uniform(self):
        # gap 1 under mu 0, sigma 1 leaves the constant time term
        mark_term = one_event_ll(1.0, mark=0) + 0.5 * LOG_2PI
        assert mark_term == pytest.approx(np.log(1 / 3), abs=1e-12)

    def test_mark_log_prob_bias_shift_invariance(self, rng):
        bias = rng.normal(size=3)
        before = one_event_ll(1.0, mark=2, mark_bias=bias)
        assert one_event_ll(1.0, mark=2, mark_bias=bias + 5.0) == pytest.approx(before, abs=1e-12)

    def test_mark_out_of_range(self):
        with pytest.raises(ValueError):
            one_event_ll(1.0, mark=3)


class TestLikelihood:
    def test_matches_term_by_term_oracle_self(self, rng):
        cfg, params = make_model(seed=17)
        seq = random_sequence(rng, n=5)
        ll = mtpp.sequence_log_likelihood(seq, params)
        assert ll.item() == pytest.approx(oracle_ll(params, seq), rel=1e-10)

    def test_matches_term_by_term_oracle_cross(self, rng):
        cfg, params = make_model(variant="cross", seed=18)
        seq = random_sequence(rng, n=5, seq_id="c")
        cond = random_sequence(rng, n=3, seq_id="q")
        ll = mtpp.sequence_log_likelihood(seq, params, conditioning=cond)
        assert ll.item() == pytest.approx(oracle_ll(params, seq, cond), rel=1e-10)

    @pytest.mark.parametrize("variant", ["self", "cross"])
    def test_gradient_matches_fd(self, variant):
        cfg, params = make_model(variant=variant, seed=23)
        seq = seq3()
        cond = EventSequence("q", np.array([0.4, 1.1]), np.array([1, 0]), 2.0)
        cond_arg = cond if variant == "cross" else None
        analytic = mtpp.grad_log_likelihood(seq, params, conditioning=cond_arg)

        def f(flat):
            p = ModelParams.unflatten(cfg, flat)
            return mtpp.sequence_log_likelihood(seq, p, conditioning=cond_arg).item()

        numeric = fd_gradient(f, params.flatten())
        assert_grad_close(analytic, numeric, rel=1e-4)

    def test_unused_positional_slots_zero_gradient(self):
        cfg, params = make_model(n_max=8)
        seq = seq3()
        g = mtpp.grad_log_likelihood(seq, params)
        p = ModelParams.unflatten(cfg, g)  # reuse layout to slice by name
        np.testing.assert_array_equal(p.arrays["pos"][3:], np.zeros((5, 4)))
        assert np.abs(p.arrays["pos"][:3]).sum() > 0

    def test_value_is_on_a_tape(self):
        cfg, params = make_model()
        ll = mtpp.sequence_log_likelihood(seq3(), params)
        assert isinstance(ll, ad.Value)
        assert isinstance(ll.tape, ad.Tape)


def unbatched_gradient(seq, params, cond=None):
    """The 1-D graph's gradient: shared parameter leaves, one backward."""
    with ad.Tape() as tape:
        theta = params.leaves(tape)
        ll = mtpp.log_likelihood_graph(
            tape, theta, params.config, seq.times, seq.marks,
            cond_times=None if cond is None else cond.times,
            cond_marks=None if cond is None else cond.marks)
        grads = tape.backward(ll, wrt=list(theta.values()))
    return np.concatenate([np.ravel(grads[theta[n]]) for n, _ in mtpp.param_order(params.config)])


def relu_inputs(seq, params, cond=None):
    """Input of the feed-forward relu in the 1-D graph of ``seq``."""
    seen = []
    real = ad.relu

    def spy(a):
        seen.append(a.data.copy())
        return real(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "relu", spy)
        unbatched_gradient(seq, params, cond)
    return seen[0]


class TestBatchedGradients:
    """``grad_log_likelihoods`` puts a group of equal-length sequences on
    one tape, each with its own copy of the parameters."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["self", "cross"]),
           size=st.integers(1, 8), n=st.integers(1, 8), n_cond=st.integers(1, 8),
           dim=st.sampled_from([3, 8, 16]), blocks=st.integers(1, 2))
    def test_rows_equal_unbatched_gradients_bit_for_bit(self, seed, variant, size, n, n_cond,
                                                        dim, blocks):
        rng = np.random.default_rng(seed)
        cfg, params = make_model(variant=variant, dim=dim, num_blocks=blocks, seed=seed % 1000)
        seqs = [random_sequence(rng, n=n, seq_id=f"s{b}") for b in range(size)]
        cond = random_sequence(rng, n=n_cond, seq_id="q") if variant == "cross" else None
        rows = mtpp.grad_log_likelihoods(seqs, params, conditioning=cond)
        assert len(rows) == size
        for seq, row in zip(seqs, rows):
            assert row.tobytes() == unbatched_gradient(seq, params, cond).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["self", "cross"]),
           size=st.integers(2, 8), n=st.integers(1, 8))
    def test_dead_relu_row_differs_only_in_signed_zeros(self, seed, variant, size, n):
        """On one example the feed-forward relu is dead, on another live.
        The unbatched graph sends that example no adjoint through the relu
        (explicit zeros); the batched one sends it g * 0."""
        rng = np.random.default_rng(seed)
        cfg, params = make_model(variant=variant, dim=4, seed=seed % 1000)
        params.arrays["b_ff"] = np.zeros(cfg.dim)
        seqs = [random_sequence(rng, n=n, seq_id=f"s{b}") for b in range(size)]
        cond = random_sequence(rng, n=4, seq_id="q") if variant == "cross" else None
        # b_ff just below the dead example's largest input kills its relu
        pre = [relu_inputs(seq, params, cond) for seq in seqs]
        dead = int(np.argmin([p.max() for p in pre]))
        params.arrays["b_ff"] = -pre[dead].max(axis=0)
        live = [b for b, p in enumerate(pre) if np.any(p + params.arrays["b_ff"] > 0)]
        assume(live)
        assert not np.any(relu_inputs(seqs[dead], params, cond) > 0)
        rows = mtpp.grad_log_likelihoods(seqs, params, conditioning=cond)
        for b, (seq, row) in enumerate(zip(seqs, rows)):
            want = unbatched_gradient(seq, params, cond)
            if b != dead and np.any(relu_inputs(seq, params, cond) > 0):
                assert row.tobytes() == want.tobytes()
            else:
                assert np.array_equal(row, want)
                differ = row.view(np.int64) != want.view(np.int64)
                assert np.all(row[differ] == 0.0)

    def test_lengths_must_agree(self, rng):
        _, params = make_model()
        with pytest.raises(ValueError, match="one length"):
            mtpp.grad_log_likelihoods([random_sequence(rng, n=3), random_sequence(rng, n=4)],
                                      params)


class TestParamsAndCheckpoint:
    def test_flatten_roundtrip(self, rng):
        cfg, params = make_model(seed=31, num_blocks=2)
        vec = params.flatten()
        back = ModelParams.unflatten(cfg, vec)
        for name in params.arrays:
            np.testing.assert_array_equal(params.arrays[name], back.arrays[name])
        np.testing.assert_array_equal(vec, back.flatten())

    def test_init_biases_zero(self):
        cfg, params = make_model(seed=1)
        for name in ("b_embed", "b_ff", "b_out", "b_time_head", "b_mark_head"):
            np.testing.assert_array_equal(params.arrays[name], np.zeros_like(params.arrays[name]))

    def test_bad_vector_length(self):
        cfg, _ = make_model()
        with pytest.raises(ValueError):
            ModelParams.unflatten(cfg, np.zeros(7))

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        cfg, params = make_model(variant="cross", seed=33, num_blocks=2)
        uparams = UnwarpParams.init(UnwarpConfig(hidden=(8, 8), n_quad=32,
                                                 noise_sigma=0.02, unbias_sigma=0.5),
                                    rng)
        path = tmp_path / "model.ckpt"
        mtpp.save_checkpoint(path, params, uparams)
        p2, u2 = mtpp.load_checkpoint(path)
        assert p2.config == cfg
        assert u2.config == uparams.config
        np.testing.assert_array_equal(p2.flatten(), params.flatten())
        np.testing.assert_array_equal(u2.flatten(), uparams.flatten())

    def test_checkpoint_bytes_deterministic(self, tmp_path, rng):
        cfg, params = make_model(seed=34)
        uparams = UnwarpParams.identity()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        mtpp.save_checkpoint(a, params, uparams)
        mtpp.save_checkpoint(b, params, uparams)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTAMODEL plus trailing")
        with pytest.raises(ValueError, match="checkpoint"):
            mtpp.load_checkpoint(p)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="weird", dim=4, mark_count=3)
        with pytest.raises(ValueError):
            ModelConfig(variant="self", dim=0, mark_count=3)
        with pytest.raises(ValueError):
            ModelConfig(variant="self", dim=4, mark_count=1)
