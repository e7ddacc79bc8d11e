"""Code network penalties, the hyperplane baseline, and the bucket index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret.autodiff import Tape
from seqret.hashing import (
    HashConfig,
    HashEncoder,
    HashIndex,
    HashNetParams,
    _bucket_keys,
    build_index,
    candidate_lookup,
    hash_code,
    hash_logits,
    load_encoder,
    load_index,
    random_hyperplane_codes,
    save_encoder,
    save_index,
    soft_code_penalties,
    soft_codes_graph,
    train_hash_net,
)

from conftest import fd_gradient


def oracle_penalties(Z, etas):
    """Direct double-loop evaluation of the three code penalties."""
    n, r = Z.shape
    e1, e2, e3 = etas
    balance = e1 / n * sum(abs(Z[c].sum()) for c in range(n))
    saturation = e2 / n * sum(abs(abs(Z[c, i]) - 1.0) for c in range(n) for i in range(r))
    pair = sum(Z[c, i] * Z[c, j] for c in range(n) for i in range(r) for j in range(i + 1, r))
    decor = 2 * e3 / (r * (r - 1) / 2) * abs(pair)
    return balance, saturation, decor


def tiny_psi(rng, in_dim=6, n_bits=4, hidden=5):
    return HashNetParams.init(in_dim, n_bits, hidden, rng)


class TestCodeNetwork:
    def test_logits_match_direct_formula(self, rng):
        psi = tiny_psi(rng)
        v = rng.normal(size=6)
        expected = psi.arrays["W2"] @ np.tanh(psi.arrays["W1"] @ v + psi.arrays["b1"]) + psi.arrays["b2"]
        np.testing.assert_allclose(hash_logits(v, psi), expected, rtol=1e-12)

    def test_zero_logit_codes_positive(self):
        arrays = {
            "W1": np.zeros((3, 2)),
            "b1": np.zeros(3),
            "W2": np.zeros((2, 3)),
            "b2": np.array([0.0, -1.0]),
        }
        psi = HashNetParams(arrays, in_dim=2, n_bits=2, hidden=3)
        np.testing.assert_array_equal(hash_code(np.ones(2), psi), [1, -1])

    def test_wrong_input_length_rejected(self, rng):
        psi = tiny_psi(rng)
        with pytest.raises(ValueError):
            hash_logits(np.zeros(7), psi)

    def test_code_values_are_signs(self, rng):
        psi = tiny_psi(rng)
        code = hash_code(rng.normal(size=6), psi)
        assert set(np.unique(code)) <= {-1, 1}


class TestPenalties:
    def test_single_antisymmetric_code(self):
        tape = Tape()
        codes = tape.constant(np.array([[1.0, -1.0]]))
        total, terms = soft_code_penalties(tape, codes, (0.4, 0.3, 0.3))
        assert terms["balance"].item() == pytest.approx(0.0, abs=1e-15)
        assert terms["saturation"].item() == pytest.approx(0.0, abs=1e-15)
        assert terms["decorrelation"].item() == pytest.approx(2 * 0.3, rel=1e-12)
        assert total.item() == pytest.approx(0.6, rel=1e-12)

    def test_balanced_rows_zero_balance_term(self, rng):
        half = rng.normal(size=(5, 3))
        Z = np.concatenate([half, -half], axis=1)
        tape = Tape()
        _, terms = soft_code_penalties(tape, tape.constant(Z), (1.0, 0.0, 0.0))
        assert terms["balance"].item() == pytest.approx(0.0, abs=1e-12)

    def test_saturated_rows_zero_saturation_term(self, rng):
        Z = rng.choice([-1.0, 1.0], size=(7, 6))
        tape = Tape()
        _, terms = soft_code_penalties(tape, tape.constant(Z), (0.0, 1.0, 0.0))
        assert terms["saturation"].item() == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Z = rng.uniform(-1.2, 1.2, size=(rng.integers(1, 6), rng.integers(2, 7)))
        etas = (0.5, 0.25, 0.25)
        tape = Tape()
        total, terms = soft_code_penalties(tape, tape.constant(Z), etas)
        b, s, d = oracle_penalties(Z, etas)
        assert terms["balance"].item() == pytest.approx(b, rel=1e-10, abs=1e-12)
        assert terms["saturation"].item() == pytest.approx(s, rel=1e-10, abs=1e-12)
        assert terms["decorrelation"].item() == pytest.approx(d, rel=1e-10, abs=1e-12)
        assert total.item() == pytest.approx(b + s + d, rel=1e-10)

    def test_single_bit_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError):
            soft_code_penalties(tape, tape.constant(np.ones((2, 1))), (0.4, 0.3, 0.3))

    def test_loss_gradient_matches_fd(self, rng):
        psi = tiny_psi(rng, in_dim=5, n_bits=3, hidden=4)
        vectors = rng.normal(size=(4, 5))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        etas = (0.4, 0.3, 0.3)

        tape = Tape()
        leaves = psi.leaves(tape)
        total, _ = soft_code_penalties(tape, soft_codes_graph(tape, leaves, vectors), etas)
        grads = tape.backward(total, wrt=list(leaves.values()))
        analytic = np.concatenate([grads[leaves[n]].ravel() for n in psi.NAMES])

        shapes = [psi.arrays[n].shape for n in psi.NAMES]
        sizes = [int(np.prod(s)) for s in shapes]

        def loss_at(flat):
            arrays = {}
            offset = 0
            for name, shape, size in zip(psi.NAMES, shapes, sizes):
                arrays[name] = flat[offset:offset + size].reshape(shape)
                offset += size
            other = HashNetParams(arrays, psi.in_dim, psi.n_bits, psi.hidden)
            t = Tape()
            val, _ = soft_code_penalties(t, soft_codes_graph(t, other.leaves(t), vectors), etas)
            return val.item()

        flat = np.concatenate([psi.arrays[n].ravel() for n in psi.NAMES])
        fd = fd_gradient(loss_at, flat, h=1e-6)
        np.testing.assert_allclose(analytic, fd, rtol=2e-5, atol=1e-8)


class TestTraining:
    def test_loss_decreases(self, rng):
        vectors = rng.normal(size=(40, 10))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        config = HashConfig(n_bits=4, hidden=12, epochs=60, learning_rate=0.05,
                            tables=2, bits_per_table=3)
        psi, curve = train_hash_net(vectors, config)
        assert len(curve) == 60
        assert curve[-1]["loss"] < curve[0]["loss"]
        assert set(curve[0]) == {"epoch", "loss", "balance", "saturation", "decorrelation"}

    def test_training_is_deterministic(self, rng):
        vectors = rng.normal(size=(15, 8))
        config = HashConfig(n_bits=4, hidden=6, epochs=10, learning_rate=0.02,
                            tables=2, bits_per_table=2, seed=7)
        psi_a, curve_a = train_hash_net(vectors, config)
        psi_b, curve_b = train_hash_net(vectors, config)
        for name in psi_a.NAMES:
            np.testing.assert_array_equal(psi_a.arrays[name], psi_b.arrays[name])
        assert curve_a == curve_b

    def test_zero_epochs_returns_centered_init(self, rng):
        vectors = rng.normal(size=(5, 8))
        config = HashConfig(n_bits=4, hidden=6, epochs=0, tables=1, bits_per_table=2, seed=3)
        psi, curve = train_hash_net(vectors, config)
        expected = HashNetParams.init(8, 4, 6, np.random.default_rng(3))
        np.testing.assert_array_equal(psi.arrays["W1"], expected.arrays["W1"])
        np.testing.assert_array_equal(psi.arrays["W2"], expected.arrays["W2"])
        assert curve == []

    def test_init_biases_center_layer_outputs(self, rng):
        vectors = rng.normal(size=(30, 8)) + 4.0
        config = HashConfig(n_bits=4, hidden=6, epochs=0, tables=1, bits_per_table=2, seed=3)
        psi, _ = train_hash_net(vectors, config)
        pre = vectors @ psi.arrays["W1"].T + psi.arrays["b1"]
        np.testing.assert_allclose(np.mean(pre, axis=0), 0.0, atol=1e-12)
        logits = np.tanh(pre) @ psi.arrays["W2"].T + psi.arrays["b2"]
        np.testing.assert_allclose(np.mean(logits, axis=0), 0.0, atol=1e-12)

    def test_eta_normalization(self):
        config = HashConfig(etas=(2.0, 1.0, 1.0))
        assert config.etas == pytest.approx((0.5, 0.25, 0.25))
        with pytest.raises(ValueError):
            HashConfig(etas=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            HashConfig(etas=(-1.0, 1.0, 1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashConfig(bits_per_table=20, n_bits=16)
        with pytest.raises(ValueError):
            HashConfig(n_bits=1)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("etas", (float("nan"), 0.3, 0.3)), ("etas", (0.4, float("inf"), 0.3)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HashConfig(**{field: value})


class TestHyperplaneBaseline:
    def test_deterministic_and_sign_valued(self, rng):
        vectors = rng.normal(size=(9, 12))
        codes_a, planes_a = random_hyperplane_codes(vectors, n_bits=6, seed=11)
        codes_b, planes_b = random_hyperplane_codes(vectors, n_bits=6, seed=11)
        np.testing.assert_array_equal(codes_a, codes_b)
        np.testing.assert_array_equal(planes_a, planes_b)
        assert codes_a.shape == (9, 6)
        assert set(np.unique(codes_a)) <= {-1, 1}

    def test_antisymmetric_away_from_boundary(self, rng):
        vectors = rng.normal(size=(6, 10))
        codes, planes = random_hyperplane_codes(vectors, n_bits=8, seed=2)
        flipped, _ = random_hyperplane_codes(-vectors, n_bits=8, seed=2)
        assert np.all(np.abs(vectors @ planes.T) > 1e-12)
        np.testing.assert_array_equal(flipped, -codes)

    def test_orthogonal_vectors_disagree_on_half_the_bits(self):
        # For Gaussian hyperplanes the per-bit collision rate is 1 - angle/pi,
        # which is 1/2 at ninety degrees.
        u = np.zeros(20)
        v = np.zeros(20)
        u[0] = 1.0
        v[1] = 1.0
        codes, _ = random_hyperplane_codes(np.stack([u, v]), n_bits=20000, seed=5)
        agreement = np.mean(codes[0] == codes[1])
        assert agreement == pytest.approx(0.5, abs=0.02)


class TestIndex:
    def test_bucket_key_example(self):
        code = np.array([1, -1, 1, -1])
        assert _bucket_keys(code, np.array([0, 2])) == 3

    def test_bucket_key_first_position_most_significant(self):
        code = np.array([1, 1, -1])
        assert _bucket_keys(code, np.array([0, 1, 2])) == 0b110
        assert _bucket_keys(code, np.array([2])) == 0
        assert _bucket_keys(code, np.array([1, 2])) == 0b10

    def test_bucket_keys_match_bit_loop_up_to_63_bits(self, rng):
        code = rng.choice([-1, 1], size=70).astype(np.int8)
        for width in (1, 14, 63):
            positions = np.sort(rng.choice(70, size=width, replace=False))
            want = 0
            for pos in positions:
                want = (want << 1) | int(code[pos] > 0)
            assert int(_bucket_keys(code, positions)) == want

    def test_buckets_partition_corpus(self, rng):
        codes = {f"s{i}": rng.choice([-1, 1], size=8).astype(np.int8) for i in range(30)}
        index = build_index(codes, tables=4, bits_per_table=3, seed=9)
        for table in index.buckets:
            assert sum(len(members) for members in table.values()) == 30
            seen = sorted(cid for members in table.values() for cid in members)
            assert seen == sorted(codes)

    def test_build_is_deterministic(self, rng):
        codes = {f"s{i}": rng.choice([-1, 1], size=6).astype(np.int8) for i in range(12)}
        a = build_index(codes, tables=3, bits_per_table=2, seed=4)
        b = build_index(codes, tables=3, bits_per_table=2, seed=4)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.buckets == b.buckets

    def test_identical_codes_always_candidates(self, rng):
        codes = {f"s{i}": rng.choice([-1, 1], size=8).astype(np.int8) for i in range(20)}
        query = codes["s3"].copy()
        index = build_index(codes, tables=5, bits_per_table=4, seed=1)
        candidates = candidate_lookup(index, query)
        assert "s3" in candidates
        assert set(candidates) <= set(codes)

    def test_candidate_union_across_tables(self):
        buckets = [
            {1: ["a"], 0: ["b", "c"]},
            {1: ["b"], 0: ["a", "c"]},
        ]
        index = HashIndex(n_bits=2, positions=np.array([[0], [1]]), buckets=buckets,
                          seed=0, corpus_ids=["a", "b", "c"])
        assert candidate_lookup(index, np.array([1, 1])) == ["a", "b"]
        assert candidate_lookup(index, np.array([-1, -1])) == ["a", "b", "c"]

    def test_too_many_bits_rejected(self, rng):
        codes = {"s0": np.ones(4, dtype=np.int8)}
        with pytest.raises(ValueError):
            build_index(codes, tables=1, bits_per_table=5, seed=0)
        with pytest.raises(ValueError):
            build_index({}, tables=1, bits_per_table=2, seed=0)

    @pytest.mark.parametrize("tables,bits,name", [(3, 0, "bits_per_table"),
                                                   (0, 2, "tables")])
    def test_empty_geometry_rejected(self, tables, bits, name):
        codes = {"s0": np.ones(4, dtype=np.int8), "s1": -np.ones(4, dtype=np.int8)}
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            build_index(codes, tables=tables, bits_per_table=bits, seed=0)

    def test_more_than_63_bits_per_table_rejected(self):
        codes = {"s0": np.ones(70, dtype=np.int8)}
        with pytest.raises(ValueError, match="63"):
            build_index(codes, tables=1, bits_per_table=64, seed=0)
        assert len(build_index(codes, tables=1, bits_per_table=63, seed=0).buckets) == 1

    def test_index_keeps_sign_codes_in_id_order(self, rng):
        codes = {f"s{i}": rng.choice([-1, 1], size=5).astype(np.int8) for i in (3, 1, 2)}
        index = build_index(codes, tables=2, bits_per_table=3, seed=0)
        assert index.codes.dtype == np.int8
        np.testing.assert_array_equal(index.codes, np.stack([codes[c] for c in index.corpus_ids]))

    def test_mismatched_code_widths_rejected(self):
        codes = {"a": np.ones(4, dtype=np.int8), "b": np.ones(3, dtype=np.int8)}
        with pytest.raises(ValueError):
            build_index(codes, tables=1, bits_per_table=2, seed=0)


class TestPersistence:
    def test_encoder_roundtrip_trained(self, rng, tmp_path):
        psi = tiny_psi(rng)
        encoder = HashEncoder(kind="trained", psi=psi)
        path = tmp_path / "enc.bin"
        save_encoder(str(path), encoder)
        loaded = load_encoder(str(path))
        assert loaded.kind == "trained"
        v = rng.normal(size=6)
        np.testing.assert_array_equal(loaded.encode(v), encoder.encode(v))
        np.testing.assert_allclose(hash_logits(v, loaded.psi), hash_logits(v, psi), rtol=1e-15)

    def test_encoder_roundtrip_random(self, rng, tmp_path):
        vectors = rng.normal(size=(3, 5))
        _, planes = random_hyperplane_codes(vectors, n_bits=4, seed=8)
        encoder = HashEncoder(kind="random", hyperplanes=planes)
        path = tmp_path / "enc.bin"
        save_encoder(str(path), encoder)
        loaded = load_encoder(str(path))
        assert loaded.kind == "random"
        v = rng.normal(size=5)
        np.testing.assert_array_equal(loaded.encode(v), encoder.encode(v))

    def test_encoder_bytes_deterministic(self, rng, tmp_path):
        psi = tiny_psi(rng)
        encoder = HashEncoder(kind="trained", psi=psi)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_encoder(str(p1), encoder)
        save_encoder(str(p2), encoder)
        assert p1.read_bytes() == p2.read_bytes()

    def test_index_roundtrip(self, rng, tmp_path):
        codes = {f"seq-{i}": rng.choice([-1, 1], size=6).astype(np.int8) for i in range(10)}
        index = build_index(codes, tables=3, bits_per_table=2, seed=5)
        path = tmp_path / "index.bin"
        save_index(str(path), index)
        loaded = load_index(str(path))
        np.testing.assert_array_equal(loaded.positions, index.positions)
        assert loaded.buckets == index.buckets
        assert loaded.corpus_ids == index.corpus_ids
        assert loaded.seed == index.seed
        query = codes["seq-0"]
        assert candidate_lookup(loaded, query) == candidate_lookup(index, query)

    def test_index_load_rebuilds_buckets_from_codes(self, rng, tmp_path):
        codes = {f"seq-{i}": rng.choice([-1, 1], size=16).astype(np.int8) for i in range(40)}
        index = build_index(codes, tables=4, bits_per_table=14, seed=2)
        path = tmp_path / "index.bin"
        save_index(str(path), index)
        loaded = load_index(str(path))
        np.testing.assert_array_equal(loaded.codes, index.codes)
        for table, built in zip(loaded.buckets, index.buckets):
            assert list(table.items()) == list(built.items())
            assert all(type(key) is int and type(members) is list
                       for key, members in table.items())
        assert type(loaded.corpus_ids) is list and type(loaded.seed) is int

    def test_index_without_codes_cannot_be_saved(self, tmp_path):
        index = HashIndex(n_bits=2, positions=np.array([[0]]), buckets=[{}], seed=0)
        with pytest.raises(ValueError, match="codes"):
            save_index(str(tmp_path / "index.bin"), index)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_index(str(path))
        with pytest.raises(ValueError):
            load_encoder(str(path))

    def test_encoder_kind_validation(self, rng):
        with pytest.raises(ValueError):
            HashEncoder(kind="other")
        with pytest.raises(ValueError):
            HashEncoder(kind="trained")
        with pytest.raises(ValueError):
            HashEncoder(kind="random")
