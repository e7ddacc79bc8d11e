"""The shared binary record format and the four artifacts built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import mtpp
from seqret.artifact import ArtifactError, pack_record, read_record, write_record
from seqret.hashing import (
    HashEncoder,
    HashNetParams,
    build_index,
    load_encoder,
    load_index,
    save_encoder,
    save_index,
)
from seqret.retrieval import load_vectors, save_vectors
from seqret.unwarp import UnwarpConfig, UnwarpParams


class TestRecord:
    def test_roundtrip_every_dtype(self, tmp_path):
        arrays = {"f": np.arange(6.0).reshape(2, 3) / 7.0,
                  "i": np.array([-(2 ** 62), 0, 5]),
                  "b": np.array([[1, -1], [-1, 1]], dtype=np.int8),
                  "empty": np.zeros((0, 4))}
        meta = {"ids": ["a", "é"], "sigma": 0.1, "n": 3}
        path = tmp_path / "r.bin"
        write_record(path, "thing", meta, arrays)
        back_meta, back = read_record(path, "thing")
        assert back_meta == meta
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
            np.testing.assert_array_equal(back[name], arr)

    def test_bytes_ignore_meta_key_order(self):
        arrays = {"x": np.ones(3)}
        assert pack_record("k", {"a": 1, "b": 2}, arrays) == \
            pack_record("k", {"b": 2, "a": 1}, arrays)

    def test_other_dtypes_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            pack_record("k", {}, {"x": np.ones(3, dtype=np.float32)})

    def test_wrong_kind_names_path_and_both_kinds(self, tmp_path):
        path = tmp_path / "r.bin"
        write_record(path, "encoder", {}, {})
        with pytest.raises(ArtifactError) as exc:
            read_record(path, "index")
        assert str(path) in str(exc.value)
        assert "'encoder'" in str(exc.value) and "'index'" in str(exc.value)

    def test_artifact_error_is_a_value_error(self):
        assert issubclass(ArtifactError, ValueError)


def _artifacts(root):
    """One small instance of each of the four artifacts: (loader, bytes)."""
    rng = np.random.default_rng(0)
    config = mtpp.ModelConfig(variant="self", dim=2, mark_count=2, n_max=3)
    params = mtpp.ModelParams.init(config, rng)
    uparams = UnwarpParams.init(UnwarpConfig(hidden=(2, 2), n_quad=2), rng)
    psi = HashNetParams.init(in_dim=3, n_bits=4, hidden=2, rng=rng)
    codes = {f"c{i}": rng.choice([-1, 1], size=4).astype(np.int8) for i in range(5)}
    writers = {
        "checkpoint": (lambda p: mtpp.save_checkpoint(p, params, uparams), mtpp.load_checkpoint),
        "vectors": (lambda p: save_vectors(p, {"a": rng.normal(size=3),
                                               "b": rng.normal(size=3)}), load_vectors),
        "encoder": (lambda p: save_encoder(p, HashEncoder(kind="trained", psi=psi)),
                    load_encoder),
        "index": (lambda p: save_index(p, build_index(codes, tables=2, bits_per_table=2,
                                                      seed=1)), load_index),
    }
    out = {}
    for name, (write, load) in writers.items():
        path = root / f"{name}.bin"
        write(path)
        out[name] = (load, path.read_bytes())
    return out


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    return root, _artifacts(root)


class TestDamage:
    @pytest.mark.parametrize("name", ["checkpoint", "vectors", "encoder", "index"])
    def test_pristine_reads_back(self, pristine, name):
        root, artifacts = pristine
        load, raw = artifacts[name]
        path = root / f"copy-{name}.bin"
        path.write_bytes(raw)
        load(path)

    @pytest.mark.parametrize("name", ["checkpoint", "vectors", "encoder", "index"])
    def test_every_truncation_raises_artifact_error(self, pristine, name):
        root, artifacts = pristine
        load, raw = artifacts[name]
        path = root / f"cut-{name}.bin"
        for keep in range(len(raw)):
            path.write_bytes(raw[:keep])
            with pytest.raises(ArtifactError):
                load(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["checkpoint", "vectors", "encoder", "index"]),
           damage=st.sampled_from(["truncate", "flip", "append"]),
           where=st.floats(0.0, 1.0, exclude_max=True),
           bit=st.integers(0, 7))
    def test_any_damage_raises_artifact_error(self, pristine, name, damage, where, bit):
        root, artifacts = pristine
        load, raw = artifacts[name]
        offset = int(where * len(raw))
        if damage == "truncate":
            bad = raw[:offset]
        elif damage == "flip":
            bad = raw[:offset] + bytes([raw[offset] ^ (1 << bit)]) + raw[offset + 1:]
        else:
            bad = raw + bytes([offset % 256])
        path = root / f"damaged-{name}.bin"
        path.write_bytes(bad)
        with pytest.raises(ArtifactError) as exc:
            load(path)
        assert str(path) in str(exc.value)
