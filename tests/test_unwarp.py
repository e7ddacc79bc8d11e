"""Monotone unwarping: exact identity, quadrature on known rates,
order preservation, the train-mode regularizer/noise semantics, and the
eval functions as evaluations of the taped builder."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret import unwarp as uw
from seqret.sequences import EventSequence
from conftest import assert_grad_close, fd_gradient


def small_config(**kw):
    defaults = dict(hidden=(8, 8), n_quad=64, noise_sigma=0.01, unbias_sigma=1.0)
    defaults.update(kw)
    return uw.UnwarpConfig(**defaults)


def rate(tau, p):
    """The rate u at ``tau`` as the unwarp graph builds it."""
    tape = ad.Tape()
    return uw._rate_graph(np.asarray(tau, dtype=float), p.leaves(tape), tape, p.rate_hook).data


def penalty(p, T):
    tape = ad.Tape()
    return uw.unbiasedness_penalty_graph(p.leaves(tape), p.config, T, tape).item()


def oracle_rate(tau, p):
    """Plain-numpy rate network, independent of the tape."""
    a = p.arrays
    h1 = np.maximum(np.outer(tau, a["w1"]) + a["b1"], 0.0)
    h2 = np.maximum(h1 @ a["W2"].T + a["b2"], 0.0)
    return np.maximum(h2 @ a["w3"] + a["b3"], 0.0)


class TestIdentity:
    def test_rate_is_one(self):
        p = uw.UnwarpParams.identity(small_config())
        np.testing.assert_array_equal(rate([0.0, 1.0, 7.5], p), [1.0, 1.0, 1.0])

    def test_unwarp_is_exact_identity(self):
        p = uw.UnwarpParams.identity(small_config())
        for t in (0.0, 1.0, 7.5, 123.0):
            assert uw.unwarp_time(t, p) == pytest.approx(t, abs=1e-9)

    def test_penalty_zero(self):
        p = uw.UnwarpParams.identity(small_config())
        assert penalty(p, T=5.0) == pytest.approx(0.0, abs=1e-15)


class TestKnownRates:
    def test_linear_rate_integrates_to_square(self):
        # u(t) = 2t integrates to t^2; trapezoid is exact for affine rates.
        p = uw.UnwarpParams.identity(small_config())
        p.rate_hook = lambda t: 2.0 * t
        assert uw.unwarp_time(2.0, p) == pytest.approx(4.0, abs=1e-6)
        for t in (0.5, 1.0, 3.0):
            assert uw.unwarp_time(t, p) == pytest.approx(t * t, abs=1e-6)

    def test_hook_is_clamped_nonnegative(self):
        p = uw.UnwarpParams.identity(small_config())
        p.rate_hook = lambda t: -np.ones_like(t)
        assert (rate([0.5, 2.0], p) == 0.0).all()
        # a dead rate collapses every time; ties are separated and flagged
        with pytest.warns(UserWarning, match="tied times"):
            assert uw.unwarp_time(3.0, p) == uw.TIE_EPS

    def test_dead_rate_output_stays_strictly_increasing(self):
        p = uw.UnwarpParams.identity(small_config())
        p.rate_hook = lambda t: np.zeros_like(t)
        with pytest.warns(UserWarning, match="separated"):
            out = uw.unwarp_times(np.array([0.5, 1.0, 2.0, 7.0]), p)
        assert (np.diff(out) > 0.0).all()
        assert np.allclose(out, uw.TIE_EPS * np.arange(1, 5), rtol=0, atol=1e-24)

    def test_duplicate_times_stay_tied(self):
        # equal inputs must map to equal outputs; separation only applies
        # to genuinely distinct times that collapsed
        p = uw.UnwarpParams.identity(small_config())
        out = uw.unwarp_times(np.array([1.0, 1.0, 2.0]), p)
        assert out[0] == out[1] and out[2] > out[1]

    def test_halving_step_is_stable_on_known_rates(self):
        # Exactly integrable rates: refining the grid must not move U.
        for hook in (None, lambda t: 2.0 * t):
            coarse = uw.UnwarpParams.identity(small_config(n_quad=64))
            fine = uw.UnwarpParams.identity(small_config(n_quad=128))
            coarse.rate_hook = fine.rate_hook = hook
            for t in (1.0, 2.0, 7.5):
                assert abs(uw.unwarp_time(t, coarse) - uw.unwarp_time(t, fine)) < 1e-6

    def test_constant_rate_two(self):
        p = uw.UnwarpParams.identity(small_config())
        p.arrays["b3"] = np.asarray(2.0)
        assert uw.unwarp_time(3.0, p) == pytest.approx(6.0, abs=1e-9)
        # (u - 1)^2 = 1 over [0, T]: penalty T / sigma^2.
        assert penalty(p, T=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate_penalty(self):
        p = uw.UnwarpParams.identity(small_config())
        p.arrays["b3"] = np.asarray(0.0)
        assert penalty(p, T=1.0) == pytest.approx(1.0, abs=1e-12)
        cfg = small_config(unbias_sigma=0.5)
        p2 = uw.UnwarpParams.identity(cfg)
        p2.arrays["b3"] = np.asarray(0.0)
        assert penalty(p2, T=2.0) == pytest.approx(8.0, abs=1e-12)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_order_preserved_for_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        p = uw.UnwarpParams.init(small_config(), rng, scale=0.5)
        times = np.sort(rng.uniform(0.0, 10.0, size=8))
        out = uw.unwarp_times(times, p)
        assert (np.diff(out) >= -1e-12).all()

    def test_rate_nonnegative(self, rng):
        p = uw.UnwarpParams.init(small_config(), rng, scale=1.0)
        assert (rate(rng.uniform(0, 20, size=50), p) >= 0.0).all()

    def test_negative_time_rejected(self, rng):
        p = uw.UnwarpParams.identity(small_config())
        with pytest.raises(ValueError):
            uw.unwarp_times(np.array([-0.1]), p)

    def test_unsorted_input_rejected(self):
        p = uw.UnwarpParams.identity(small_config())
        with pytest.raises(ValueError, match="sorted"):
            uw.unwarp_times(np.array([3.0, 0.5, 1.7]), p)


class TestNoise:
    def test_eval_deterministic(self, rng):
        p = uw.UnwarpParams.init(small_config(), rng)
        times = np.array([0.5, 1.5])
        np.testing.assert_array_equal(uw.unwarp_times(times, p), uw.unwarp_times(times, p))

    def test_train_noise_is_shared_shift(self, rng):
        cfg = small_config(noise_sigma=0.1)
        p = uw.UnwarpParams.init(cfg, rng)
        times = np.array([0.5, 1.5, 4.0])
        tape = ad.Tape()
        phi = p.leaves(tape)
        base = uw.unwarp_times_graph(times, phi, cfg, tape).data
        noisy = uw.unwarp_times_graph(times, phi, cfg, tape, noise=0.03).data
        np.testing.assert_allclose(noisy - base, 0.03, rtol=1e-12)


class TestSequenceView:
    def test_marks_and_id_unchanged(self, rng):
        p = uw.UnwarpParams.identity(small_config())
        seq = EventSequence("q", np.array([1.0, 2.0]), np.array([1, 0]), 3.0)
        out = uw.unwarp_sequence(seq, p)
        assert out.id == "q"
        np.testing.assert_array_equal(out.marks, seq.marks)
        np.testing.assert_allclose(out.times, seq.times, atol=1e-9)
        assert out.horizon == pytest.approx(3.0, abs=1e-9)

    def test_horizon_maps_through(self):
        p = uw.UnwarpParams.identity(small_config())
        p.arrays["b3"] = np.asarray(2.0)
        seq = EventSequence("q", np.array([1.0]), np.array([0]), 4.0)
        out = uw.unwarp_sequence(seq, p)
        assert out.horizon == pytest.approx(8.0, abs=1e-9)


class TestGraphPath:
    def test_graph_matches_eval(self, rng):
        cfg = small_config()
        p = uw.UnwarpParams.init(cfg, rng, scale=0.3)
        times = np.array([0.4, 1.1, 2.9])
        tape = ad.Tape()
        out = uw.unwarp_times_graph(times, p.leaves(tape), cfg, tape)
        np.testing.assert_array_equal(out.data, uw.unwarp_times(times, p))

    @pytest.mark.parametrize("case", ["duplicate_times", "dead_rate", "horizon_at_last_event"])
    def test_eval_equals_graph_exactly(self, case, rng):
        # eval mode evaluates the training builder: same values, same tie rule
        cfg = small_config()
        p = uw.UnwarpParams.init(cfg, rng, scale=0.3)
        times = np.array([0.4, 1.1, 2.9, 3.5])
        if case == "duplicate_times":
            times = np.array([0.4, 1.1, 1.1, 2.9])
        elif case == "dead_rate":
            p = uw.UnwarpParams.identity(cfg)
            p.arrays["b3"] = np.asarray(-1.0)
        else:
            times = np.append(times, times[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dead rate warns about its ties
            got = uw.unwarp_times(times, p)
        tape = ad.Tape()
        want = uw.unwarp_times_graph(times, p.leaves(tape), cfg, tape).data
        np.testing.assert_array_equal(got, want)
        if case != "dead_rate":
            assert got[-1] > 0.0 and (np.diff(got)[np.diff(times) == 0.0] == 0.0).all()

    def test_graph_separates_dead_rate_ties(self):
        # rate relu(0*h + b3) with b3 = -1 is identically zero; the graph
        # must still emit strictly increasing times for the gap likelihood
        cfg = small_config()
        p = uw.UnwarpParams.identity(cfg)
        p.arrays["b3"] = np.asarray(-1.0)
        times = np.array([0.5, 1.5, 4.0])
        tape = ad.Tape()
        out = uw.unwarp_times_graph(times, p.leaves(tape), cfg, tape)
        assert (np.diff(out.data) > 0.0).all()
        assert out.data[-1] == pytest.approx(3 * uw.TIE_EPS, rel=1e-9)

    def test_penalty_graph_matches_eval(self, rng):
        cfg = small_config(unbias_sigma=0.7)
        p = uw.UnwarpParams.init(cfg, rng, scale=0.3)
        tape = ad.Tape()
        pen = uw.unbiasedness_penalty_graph(p.leaves(tape), cfg, T=3.0, tape=tape)
        grid = np.linspace(0.0, 3.0, cfg.n_quad + 1)
        dev = (oracle_rate(grid, p) - 1.0) ** 2
        want = np.sum((dev[1:] + dev[:-1]) / 2 * np.diff(grid)) / cfg.unbias_sigma**2
        assert pen.item() == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_fd(self):
        # Parameters chosen so every ReLU input stays well away from its
        # kink over the quadrature nodes; finite differences are then valid.
        cfg = small_config(hidden=(3, 3))
        p = uw.UnwarpParams.identity(cfg)
        p.arrays["w1"] = np.array([0.10, 0.20, 0.15])
        p.arrays["b1"] = np.array([0.30, 0.25, 0.40])
        p.arrays["W2"] = np.full((3, 3), 0.2)
        p.arrays["b2"] = np.array([0.15, 0.10, 0.20])
        p.arrays["w3"] = np.array([0.3, -0.1, 0.2])
        p.arrays["b3"] = np.asarray(0.8)
        times = np.array([0.7, 2.3])
        taus = np.linspace(0, times[-1], 200)
        assert (rate(taus, p) > 0.05).all()  # kink-free margin
        flat0 = p.flatten()

        def f(flat):
            pp = uw.UnwarpParams.unflatten(cfg, flat)
            tape = ad.Tape()
            out = uw.unwarp_times_graph(times, pp.leaves(tape), cfg, tape)
            return ad.vsum(ad.square(out)).item()

        tape = ad.Tape()
        phi = p.leaves(tape)
        out = ad.vsum(ad.square(uw.unwarp_times_graph(times, phi, cfg, tape)))
        grads = tape.backward(out, wrt=list(phi.values()))
        analytic = np.concatenate([np.ravel(grads[phi[n]]) for n in uw.PHI_ORDER])
        assert_grad_close(analytic, fd_gradient(f, flat0), rel=5e-4)


class TestParams:
    def test_flatten_roundtrip(self, rng):
        cfg = small_config()
        p = uw.UnwarpParams.init(cfg, rng)
        back = uw.UnwarpParams.unflatten(cfg, p.flatten())
        for name in uw.PHI_ORDER:
            np.testing.assert_array_equal(p.arrays[name], back.arrays[name])

    def test_bad_vector_length(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            uw.UnwarpParams.unflatten(cfg, np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            uw.UnwarpConfig(hidden=(0, 4))
        with pytest.raises(ValueError):
            uw.UnwarpConfig(n_quad=0)
        with pytest.raises(ValueError):
            uw.UnwarpConfig(unbias_sigma=0.0)

    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("noise_sigma", -0.1), ("unbias_sigma", float("nan")),
    ])
    def test_nan_and_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match="noise_sigma"):
            uw.UnwarpConfig(**{field: value})
