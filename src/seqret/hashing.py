"""Trainable binary codes and the multi-table hash index.

Corpus gradient vectors are compressed to sign codes either by a small
trained network (tanh logits, trained so codes come out balanced,
saturated, and decorrelated) or by fixed random hyperplanes.  The index
slices each code at ``tables`` random subsets of ``bits_per_table`` bit
positions; a query's candidates are the union of its buckets across
tables, so adding tables only ever grows recall.

An index file stores the inputs of its tables (ids, codes, bit positions,
seed); loading rebuilds the tables with the code that built them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from ._opt import AdamState, adam_update
from .artifact import read_record, write_record
from .autodiff import Tape, Value

__all__ = [
    "HashConfig",
    "HashNetParams",
    "HashEncoder",
    "HashIndex",
    "hash_logits",
    "hash_code",
    "soft_codes_graph",
    "soft_code_penalties",
    "train_hash_net",
    "random_hyperplane_codes",
    "build_index",
    "candidate_lookup",
    "save_encoder",
    "load_encoder",
    "save_index",
    "load_index",
]


@dataclass(frozen=True)
class HashConfig:
    """Code width, penalty mix, and index geometry.

    ``etas`` weights the balance, saturation, and decorrelation penalties
    and is normalized to sum to one.  ``bits_per_table`` must not exceed
    ``n_bits``.
    """

    n_bits: int = 16
    hidden: int = 64
    etas: tuple[float, float, float] = (0.4, 0.3, 0.3)
    epochs: int = 200
    learning_rate: float = 0.01
    tables: int = 10
    bits_per_table: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ValueError("n_bits must be at least 2")
        if self.hidden < 1:
            raise ValueError("hidden must be positive")
        if len(self.etas) != 3 or not all(0 <= e < math.inf for e in self.etas):
            raise ValueError(f"etas must be three finite non-negative weights, got {self.etas}")
        total = float(sum(self.etas))
        if total <= 0:
            raise ValueError("etas must not all be zero")
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(self, "etas", tuple(float(e) / total for e in self.etas))
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.tables < 1:
            raise ValueError("tables must be positive")
        if not 1 <= self.bits_per_table <= self.n_bits:
            raise ValueError("bits_per_table must be in [1, n_bits]")


class HashNetParams:
    """Weights of the two-layer code network (tanh hidden, tanh output)."""

    NAMES = ("W1", "b1", "W2", "b2")

    def __init__(self, arrays: dict[str, np.ndarray], in_dim: int, n_bits: int, hidden: int):
        self.arrays = arrays
        self.in_dim = in_dim
        self.n_bits = n_bits
        self.hidden = hidden

    @classmethod
    def init(cls, in_dim: int, n_bits: int, hidden: int, rng: np.random.Generator) -> "HashNetParams":
        # Unit-norm inputs, so W1 ~ N(0,1) and W2 ~ N(0,1/hidden) keep the
        # logits near unit variance before training.
        arrays = {
            "W1": rng.normal(0.0, 1.0, size=(hidden, in_dim)),
            "b1": np.zeros(hidden),
            "W2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_bits, hidden)),
            "b2": np.zeros(n_bits),
        }
        return cls(arrays, in_dim, n_bits, hidden)

    def leaves(self, tape: Tape) -> dict[str, Value]:
        return {name: tape.leaf(self.arrays[name], name=name) for name in self.NAMES}


def hash_logits(vector: np.ndarray, psi: HashNetParams) -> np.ndarray:
    v = np.asarray(vector, dtype=float)
    if v.shape != (psi.in_dim,):
        raise ValueError(f"expected vector of length {psi.in_dim}, got shape {v.shape}")
    h = np.tanh(psi.arrays["W1"] @ v + psi.arrays["b1"])
    return psi.arrays["W2"] @ h + psi.arrays["b2"]


def hash_code(vector: np.ndarray, psi: HashNetParams) -> np.ndarray:
    """Sign code in {+1, -1}; a zero logit maps to +1."""
    logits = hash_logits(vector, psi)
    return np.where(logits >= 0.0, 1, -1).astype(np.int8)


def soft_codes_graph(tape: Tape, psi: dict[str, Value], vectors: np.ndarray) -> Value:
    """Pre-sign codes tanh(logits) for a stack of vectors, shape (N, R)."""
    V = tape.constant(np.asarray(vectors, dtype=float))
    H = ad.tanh(ad.add(ad.matmul(V, ad.transpose(psi["W1"])), psi["b1"]))
    logits = ad.add(ad.matmul(H, ad.transpose(psi["W2"])), psi["b2"])
    return ad.tanh(logits)


def soft_code_penalties(tape: Tape, codes: Value,
                        etas: tuple[float, float, float]) -> tuple[Value, dict[str, Value]]:
    """Balance, saturation, and decorrelation penalties on soft codes.

    With codes Z of shape (N, R):
      balance        (eta1/N) * sum_rows |sum_bits Z|
      saturation     (eta2/N) * sum |.|Z| - 1|
      decorrelation  (2 eta3 / C(R,2)) * |sum_rows sum_{i<j} Z_i Z_j|
    A single fully saturated antisymmetric code (+1, -1) scores 0, 0,
    and 2*eta3.
    """
    n, r = codes.data.shape
    if r < 2:
        raise ValueError("decorrelation needs at least two bits")
    e1, e2, e3 = etas
    ones_r = tape.constant(np.ones(r))
    row_sums = ad.matvec(codes, ones_r)
    balance = ad.mul(tape.constant(e1 / n), ad.vsum(ad.absolute(row_sums)))
    sat_gap = ad.sub(ad.absolute(codes), tape.constant(np.ones((n, r))))
    saturation = ad.mul(tape.constant(e2 / n), ad.vsum(ad.absolute(sat_gap)))
    # sum_{i<j} z_i z_j = ((sum z)^2 - sum z^2) / 2, summed over rows before
    # the absolute value.
    sq_sums = ad.matvec(ad.square(codes), ones_r)
    pair_sums = ad.mul(tape.constant(0.5), ad.sub(ad.square(row_sums), sq_sums))
    n_pairs = r * (r - 1) / 2
    decor = ad.mul(tape.constant(2.0 * e3 / n_pairs),
                   ad.absolute(ad.vsum(pair_sums)))
    total = ad.add(ad.add(balance, saturation), decor)
    terms = {"balance": balance, "saturation": saturation, "decorrelation": decor}
    return total, terms


def train_hash_net(vectors: np.ndarray, config: HashConfig) -> tuple[HashNetParams, list[dict[str, float]]]:
    """Fit the code network to a corpus vector matrix by full-batch Adam.

    Biases start centered on the training matrix (zero-mean layer outputs).
    Gradient vectors of one corpus share a strong mean direction, and with
    generic biases that bias freezes several bits to a constant sign before
    the balance term can act (the saturation term kills their gradient).

    Returns the trained parameters and one loss row per epoch with the
    individual penalty values.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("vectors must be a non-empty (N, P) matrix")
    rng = np.random.default_rng(config.seed)
    psi = HashNetParams.init(vectors.shape[1], config.n_bits, config.hidden, rng)
    psi.arrays["b1"] -= np.mean(vectors @ psi.arrays["W1"].T, axis=0)
    hidden = np.tanh(vectors @ psi.arrays["W1"].T + psi.arrays["b1"])
    psi.arrays["b2"] -= np.mean(hidden @ psi.arrays["W2"].T, axis=0)
    state = AdamState()
    curve: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        with Tape() as tape:
            leaves = psi.leaves(tape)
            total, terms = soft_code_penalties(tape, soft_codes_graph(tape, leaves, vectors),
                                               config.etas)
            grads = tape.backward(total, wrt=list(leaves.values()))
        # the step runs after the tape is released, so the tape's copy of
        # the vectors' transpose is freed before the step allocates
        adam_update(psi.arrays, {n: grads[leaves[n]] for n in psi.NAMES}, state,
                    lr=config.learning_rate)
        curve.append({"epoch": float(epoch), "loss": total.item(),
                      **{k: v.item() for k, v in terms.items()}})
    return psi, curve


def random_hyperplane_codes(vectors: np.ndarray, n_bits: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign codes from fixed Gaussian hyperplanes (the untrained baseline).

    Returns (codes, hyperplanes); row norms do not affect the sign, so the
    hyperplanes are left unnormalized.
    """
    vectors = np.asarray(vectors, dtype=float)
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(n_bits, vectors.shape[-1]))
    proj = vectors @ planes.T
    return np.where(proj >= 0.0, 1, -1).astype(np.int8), planes


@dataclass
class HashEncoder:
    """Vector-to-code map, either the trained network or fixed hyperplanes."""

    kind: str
    psi: HashNetParams | None = None
    hyperplanes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("trained", "random"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind == "trained" and self.psi is None:
            raise ValueError("trained encoder needs network parameters")
        if self.kind == "random" and self.hyperplanes is None:
            raise ValueError("random encoder needs hyperplanes")

    def encode(self, vector: np.ndarray) -> np.ndarray:
        if self.kind == "trained":
            return hash_code(vector, self.psi)
        proj = self.hyperplanes @ np.asarray(vector, dtype=float)
        return np.where(proj >= 0.0, 1, -1).astype(np.int8)


@dataclass
class HashIndex:
    """Bit-position slices and the resulting bucket tables."""

    n_bits: int
    positions: np.ndarray  # (tables, bits_per_table), each row sorted ascending
    buckets: list[dict[int, list[str]]]
    seed: int
    corpus_ids: list[str] = field(default_factory=list)
    codes: np.ndarray | None = None  # (len(corpus_ids), n_bits) int8 sign codes
    model_sha256: str = ""  # mtpp.checkpoint_sha256 of the coded model, if known


def _bucket_keys(codes, positions) -> np.ndarray:
    """Keys of the code bits at ``positions`` (last axis of both): a +1 bit
    reads as 1 and the first (lowest) position is the most significant."""
    positions = np.asarray(positions)
    weights = 1 << np.arange(positions.shape[-1] - 1, -1, -1)
    return (np.asarray(codes)[..., positions] > 0) @ weights


def _bucket_tables(codes: np.ndarray, ids: list[str],
                   positions: np.ndarray) -> list[dict[int, list[str]]]:
    tables: list[dict[int, list[str]]] = []
    for row in positions:
        table: dict[int, list[str]] = {}
        for cid, key in zip(ids, _bucket_keys(codes, row).tolist()):
            table.setdefault(key, []).append(cid)
        tables.append(table)
    return tables


def build_index(codes: dict[str, np.ndarray], tables: int, bits_per_table: int,
                seed: int) -> HashIndex:
    if not codes:
        raise ValueError("cannot index an empty corpus")
    if tables < 1:
        raise ValueError(f"tables must be at least 1, got {tables}")
    if bits_per_table < 1:
        raise ValueError(f"bits_per_table must be at least 1, got {bits_per_table}")
    n_bits = len(next(iter(codes.values())))
    if bits_per_table > n_bits:
        raise ValueError(f"bits_per_table {bits_per_table} exceeds code width {n_bits}")
    if bits_per_table > 63:
        raise ValueError(f"bits_per_table {bits_per_table} exceeds the 63-bit key limit")
    rng = np.random.default_rng(seed)
    positions = np.stack([
        np.sort(rng.choice(n_bits, size=bits_per_table, replace=False))
        for _ in range(tables)
    ])
    ids = sorted(codes)
    for cid in ids:
        if len(codes[cid]) != n_bits:
            raise ValueError(f"code width mismatch for sequence {cid!r}")
    matrix = np.where(np.stack([codes[cid] for cid in ids]) > 0, 1, -1).astype(np.int8)
    return HashIndex(n_bits=n_bits, positions=positions,
                     buckets=_bucket_tables(matrix, ids, positions),
                     seed=seed, corpus_ids=ids, codes=matrix)


def candidate_lookup(index: HashIndex, code: np.ndarray) -> list[str]:
    """Union of the query's buckets across tables, sorted for determinism."""
    found: set[str] = set()
    for table, key in zip(index.buckets, _bucket_keys(code, index.positions).tolist()):
        found.update(table.get(key, ()))
    return sorted(found)


def save_encoder(path: str, encoder: HashEncoder) -> None:
    if encoder.kind == "random":
        arrays = {"hyperplanes": encoder.hyperplanes}
    else:
        arrays = {name: encoder.psi.arrays[name] for name in HashNetParams.NAMES}
    write_record(path, "encoder", {"encoder": encoder.kind},
                 {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()})


def load_encoder(path: str) -> HashEncoder:
    meta, arrays = read_record(path, "encoder")
    if meta["encoder"] == "random":
        return HashEncoder(kind="random", hyperplanes=arrays["hyperplanes"])
    hidden, in_dim = arrays["W1"].shape
    psi = HashNetParams(arrays, in_dim=in_dim, n_bits=arrays["W2"].shape[0], hidden=hidden)
    return HashEncoder(kind=meta["encoder"], psi=psi)


def save_index(path: str, index: HashIndex) -> None:
    if index.codes is None:
        raise ValueError("index has no codes to save")
    meta = {"corpus_ids": list(index.corpus_ids), "model_sha256": index.model_sha256,
            "seed": int(index.seed)}
    write_record(path, "index", meta,
                 {"codes": np.asarray(index.codes, dtype=np.int8),
                  "positions": np.asarray(index.positions, dtype="<i8")})


def load_index(path: str) -> HashIndex:
    meta, arrays = read_record(path, "index")
    codes, positions, ids = arrays["codes"], arrays["positions"], meta["corpus_ids"]
    return HashIndex(n_bits=codes.shape[1], positions=positions,
                     buckets=_bucket_tables(codes, ids, positions), seed=meta["seed"],
                     corpus_ids=ids, codes=codes, model_sha256=meta["model_sha256"])
