"""Benchmark generator: warps, window bookkeeping, process statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret.datagen import (
    GenConfig,
    WARP_KINDS,
    _mark_chain,
    apply_warp,
    generate_base,
    make_benchmark,
)
from seqret.sequences import EventSequence, save_corpus, save_judgments


def small_config(**overrides):
    base = dict(n_bases=2, subs_range=(3, 3), window_range=(4, 4),
                mark_count=3, seed=7)
    base.update(overrides)
    return GenConfig(**base)


class TestWarps:
    def seq(self):
        return EventSequence("s", np.array([1.0, 2.0, 4.0]), np.array([0, 1, 0]), 5.0)

    def test_identity_is_literal(self):
        warped = apply_warp(self.seq(), "identity")
        np.testing.assert_array_equal(warped.times, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(warped.marks, [0, 1, 0])
        assert warped.horizon == 5.0

    def test_affine_scales_times_and_horizon(self):
        warped = apply_warp(self.seq(), "affine", 2.0)
        np.testing.assert_allclose(warped.times, [2.0, 4.0, 8.0], rtol=1e-15)
        assert warped.horizon == pytest.approx(10.0)
        np.testing.assert_array_equal(warped.marks, [0, 1, 0])

    def test_quadratic_fixes_horizon(self):
        warped = apply_warp(self.seq(), "quadratic")
        np.testing.assert_allclose(warped.times, [0.2, 0.8, 3.2], rtol=1e-12)
        assert warped.horizon == pytest.approx(5.0)
        assert np.all(np.diff(warped.times) > 0)

    def test_bad_warp_rejected(self):
        with pytest.raises(ValueError):
            apply_warp(self.seq(), "cubic")
        with pytest.raises(ValueError):
            apply_warp(self.seq(), "affine", 0.0)


class TestGenerateBase:
    def test_window_count_and_lengths(self):
        config = small_config()
        rng = np.random.default_rng(0)
        windows, params = generate_base(rng, config, 0)
        assert len(windows) == 3
        for w in windows:
            assert len(w) == 4
            assert w.id.startswith("b000w")
        assert 0 <= params.query_source < 3

    def test_windows_are_valid_rebased_sequences(self):
        config = small_config(window_range=(2, 6), subs_range=(4, 4))
        rng = np.random.default_rng(3)
        windows, _ = generate_base(rng, config, 1)
        for w in windows:
            assert w.times[0] > 0
            assert np.all(np.diff(w.times) > 0)
            assert w.horizon > w.times[-1]
            assert np.all((0 <= w.marks) & (w.marks < config.mark_count))

    def test_windows_preserve_stream_gaps(self):
        # re-basing shifts window times by a constant, so the gap from the
        # window origin to each event matches the original stream's gaps
        config = small_config(subs_range=(2, 2), window_range=(3, 3))
        rng = np.random.default_rng(9)
        windows, _ = generate_base(rng, config, 0)
        w0, w1 = windows
        # last gap of w0's horizon equals first event time of w1
        assert w1.times[0] == pytest.approx(w0.horizon - w0.times[-1], rel=1e-12)

    def test_log_gap_moments_match_process(self):
        config = small_config(subs_range=(40, 40), window_range=(30, 30),
                              mu_range=(-0.5, -0.5), sigma_range=(0.5, 0.5))
        rng = np.random.default_rng(11)
        windows, params = generate_base(rng, config, 0)
        assert params.mu == pytest.approx(-0.5)
        log_gaps = []
        for w in windows:
            gaps = np.diff(w.times, prepend=0.0)
            log_gaps.extend(np.log(gaps))
        log_gaps = np.asarray(log_gaps)
        se = 0.5 / np.sqrt(log_gaps.size)
        assert abs(log_gaps.mean() - (-0.5)) < 3 * se
        assert log_gaps.std() == pytest.approx(0.5, abs=0.05)

    def test_mark_transitions_match_process(self):
        config = small_config(subs_range=(50, 50), window_range=(30, 30),
                              mark_count=3, dirichlet_alpha=0.5)
        rng = np.random.default_rng(21)
        windows, params = generate_base(rng, config, 0)
        counts = np.zeros((3, 3))
        for w in windows:
            for a, b in zip(w.marks[:-1], w.marks[1:]):
                counts[a, b] += 1
        for k in range(3):
            row_n = counts[k].sum()
            if row_n < 50:
                continue
            freq = counts[k] / row_n
            se = np.sqrt(params.transition[k] * (1 - params.transition[k]) / row_n)
            assert np.all(np.abs(freq - params.transition[k]) < 4 * se + 0.02)


class TestBenchmark:
    def test_counts_and_ids(self):
        bench = make_benchmark(small_config())
        assert len(bench.queries) == 2
        assert len(bench.corpus) == 2 * (3 - 1)
        assert set(bench.queries) == {"b000q", "b001q"}
        assert all(qid.endswith("q") for qid in bench.queries)

    def test_judgments_complete_and_partitioned(self, tmp_path):
        bench = make_benchmark(small_config())
        path = tmp_path / "judgments.tsv"
        save_judgments(bench.judgments, path)
        rows: dict[str, list[tuple[str, str]]] = {}
        for line in path.read_text().splitlines():
            qid, cid, label = line.split("\t")
            rows.setdefault(qid, []).append((cid, label))
        assert set(rows) == set(bench.queries)
        for qid in bench.queries:
            # every corpus id is judged exactly once, as +1 or -1
            assert sorted(cid for cid, _ in rows[qid]) == sorted(bench.corpus)
            assert {label for _, label in rows[qid]} <= {"1", "-1"}
            pos = set(bench.judgments.positives(qid))
            assert pos == {cid for cid, label in rows[qid] if label == "1"}
            base = qid[:-1]
            assert pos == {cid for cid in bench.corpus if cid.startswith(base)}
            assert len(pos) == 2

    def test_query_is_warp_of_held_out_window(self):
        config = small_config(warp="identity")
        bench = make_benchmark(config)
        for base_id, params in bench.bases.items():
            qid = f"{base_id}q"
            held_out = f"{base_id}w{params.query_source:02d}"
            assert held_out not in bench.corpus
            assert qid in bench.queries
            assert params.warp_kind == "identity"

    def test_affine_query_times_are_scaled_source(self):
        config = small_config(warp="affine", warp_range=(2.0, 2.0))
        bench = make_benchmark(config)
        # regenerate the base to recover the held-out source window
        streams = np.random.SeedSequence(config.seed).spawn(config.n_bases)
        windows, params = generate_base(np.random.default_rng(streams[0]), config, 0)
        source = windows[params.query_source]
        query = bench.queries["b000q"]
        np.testing.assert_allclose(query.times, 2.0 * source.times, rtol=1e-12)
        assert query.horizon == pytest.approx(2.0 * source.horizon)

    def test_deterministic_bytes(self, tmp_path):
        a = make_benchmark(small_config())
        b = make_benchmark(small_config())
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a.corpus, pa)
        save_corpus(b.corpus, pb)
        assert pa.read_bytes() == pb.read_bytes()
        for qid in a.queries:
            np.testing.assert_array_equal(a.queries[qid].times, b.queries[qid].times)

    def test_prefix_stable_in_base_count(self):
        two = make_benchmark(small_config(n_bases=2))
        three = make_benchmark(small_config(n_bases=3))
        for cid in two.corpus:
            np.testing.assert_array_equal(two.corpus[cid].times, three.corpus[cid].times)

    def test_summary_fields(self):
        bench = make_benchmark(small_config())
        s = bench.summary()
        assert s["bases"] == 2
        assert s["corpus_size"] == 4
        assert s["positives_per_query"] == pytest.approx(2.0)
        assert s["positive_ratio"] == pytest.approx(2 * 2 / (4 * 2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(subs_range=(1, 3))
        with pytest.raises(ValueError):
            small_config(warp="unknown")
        with pytest.raises(ValueError):
            small_config(warp_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            small_config(mark_count=1)


def old_mark_chain(rng, initial, transition, n):
    """The per-event ``choice`` loop that ``_mark_chain`` replaced."""
    c = len(initial)
    marks = np.empty(n, dtype=int)
    marks[0] = rng.choice(c, p=initial)
    for i in range(1, n):
        marks[i] = rng.choice(c, p=transition[marks[i - 1]])
    return marks


class TestMarkChain:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 8), n=st.integers(1, 150),
           alpha=st.sampled_from([0.05, 0.8, 5.0]))
    def test_matches_per_event_choice(self, seed, c, n, alpha):
        # small alpha puts near-zero and exactly tied steps into the cdfs
        draw = np.random.default_rng(seed)
        initial = draw.dirichlet(np.full(c, alpha))
        transition = np.stack([draw.dirichlet(np.full(c, alpha)) for _ in range(c)])
        new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = _mark_chain(new, initial, transition, n)
        want = old_mark_chain(old, initial, transition, n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert new.bit_generator.state == old.bit_generator.state
