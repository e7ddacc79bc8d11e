"""Attention-based marked temporal point process over event sequences.

The model is intensity-free: each event contributes a lognormal density
over its inter-arrival gap and a categorical probability over its mark,
both read off a hidden state summarizing the preceding events.  The
sequence log-likelihood is the sum of those per-event terms.

Input layer
    y_i = embed_mark[x_i] + w_time * t_i + w_gap * (t_i - t_{i-1})
          + b_embed + pos_i
with trainable positional embeddings ``pos`` (capacity ``n_max``).

Encoder (two variants over the same parameter set)
    self:  causal self-attention; position j attends to events i <= j of
           the same sequence.
    cross: position j of the scored sequence attends to every event of a
           conditioning sequence (the unwarped query), no causal mask.
Attention uses scaled dot products softmax(s_j . k_i / sqrt(D)) with
s = W_s y, k = W_k y, v = W_v y.  With ``num_blocks > 1`` the scored
stream is re-projected per block; the cross variant keeps its keys and
values pinned to the conditioning embeddings.

Output layer
    f_j = w_out * relu(h_j * w_ff + b_ff) + b_out          (elementwise)
    state_r = sum_{j <= r} f_j,   state_0 = start          (learned)
Event r+1 is scored from state_r; the ``start`` vector stands in for the
empty prefix.  The time head maps a state to (mu, log sigma); the mark
head is a linear softmax.

Parameters flatten to one canonical float64 vector (see ``param_order``);
gradients and Fisher vectors use that same layout.  A checkpoint is an
``artifact`` record holding both configs and the flat model and unwarp
vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .artifact import pack_record, read_record, write_record
from .sequences import EventSequence
from .unwarp import UnwarpConfig, UnwarpParams

__all__ = [
    "ModelConfig",
    "ModelParams",
    "SequenceLengthError",
    "param_order",
    "sequence_log_likelihood",
    "grad_log_likelihood",
    "grad_log_likelihoods",
    "log_likelihood_graph",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_sha256",
]

LOG_2PI = float(np.log(2.0 * np.pi))

VARIANTS = ("self", "cross")


class SequenceLengthError(ValueError):
    """Sequence exceeds the positional capacity ``n_max``."""


@dataclass
class ModelConfig:
    variant: str
    dim: int
    mark_count: int
    n_max: int = 128
    num_blocks: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.dim < 1 or self.mark_count < 2 or self.n_max < 1 or self.num_blocks < 1:
            raise ValueError("dim >= 1, mark_count >= 2, n_max >= 1, num_blocks >= 1 required")


def param_order(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Canonical (name, shape) layout of the flat parameter vector."""
    d, c = config.dim, config.mark_count
    order = [
        ("embed_mark", (c, d)),
        ("w_time", (d,)),
        ("w_gap", (d,)),
        ("b_embed", (d,)),
        ("pos", (config.n_max, d)),
        ("start", (d,)),
    ]
    for b in range(config.num_blocks):
        order += [(f"W_s{b}", (d, d)), (f"W_k{b}", (d, d)), (f"W_v{b}", (d, d))]
    order += [
        ("w_out", (d,)),
        ("w_ff", (d,)),
        ("b_ff", (d,)),
        ("b_out", (d,)),
        ("W_time_head", (2, d)),
        ("b_time_head", (2,)),
        ("W_mark_head", (c, d)),
        ("b_mark_head", (c,)),
    ]
    return order


class ModelParams:
    """Named parameter arrays with a canonical flat view."""

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        self.config = config
        self.arrays = arrays
        for name, shape in param_order(config):
            if name not in arrays:
                raise ValueError(f"missing parameter {name}")
            if arrays[name].shape != shape:
                raise ValueError(f"param {name}: expected shape {shape}, got {arrays[name].shape}")

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator, scale: float = 0.02) -> "ModelParams":
        arrays = {}
        for name, shape in param_order(config):
            if name.startswith("b_"):
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = rng.normal(0.0, scale, size=shape)
        return cls(config, arrays)

    def flatten(self) -> np.ndarray:
        return np.concatenate([np.ravel(self.arrays[n]) for n, _ in param_order(self.config)])

    @classmethod
    def unflatten(cls, config: ModelConfig, vec: np.ndarray) -> "ModelParams":
        arrays = {}
        off = 0
        for name, shape in param_order(config):
            size = int(np.prod(shape))
            arrays[name] = vec[off : off + size].reshape(shape).copy()
            off += size
        if off != vec.size:
            raise ValueError(f"parameter vector length {vec.size}, expected {off}")
        return cls(config, arrays)

    @property
    def n_params(self) -> int:
        return sum(int(np.prod(s)) for _, s in param_order(self.config))

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.arrays.items()})

    def leaves(self, tape: ad.Tape, batch: int | None = None) -> dict[str, ad.Value]:
        """One leaf per parameter; with ``batch``, each leaf stacks that many
        copies, shape (batch, ...), one per example of a batched graph."""
        arrays = {name: self.arrays[name] for name, _ in param_order(self.config)}
        if batch is not None:
            arrays = {name: np.repeat(arr[None], batch, axis=0) for name, arr in arrays.items()}
        return {name: tape.leaf(arr, f"theta.{name}") for name, arr in arrays.items()}


def _check_length(n: int, config: ModelConfig, what: str) -> None:
    if n == 0:
        raise ValueError(f"{what}: empty sequences cannot be scored")
    if n > config.n_max:
        raise SequenceLengthError(f"{what}: length {n} exceeds n_max={config.n_max}")


def _row_matrix(v: ad.Value) -> ad.Value:
    """A vector parameter (d,), or per example (B, d), as a (..., 1, d) matrix."""
    return ad.reshape(v, v.shape[:-1] + (1, v.shape[-1]))


def _row(v: ad.Value, n: int) -> ad.Value:
    """A vector parameter for the n positions of (n, d) or (B, n, d): itself
    if unbatched (it broadcasts), else expanded to (B, n, d)."""
    return v if v.data.ndim == 1 else ad.expand(v, -2, n)


def _gaps_graph(tape: ad.Tape, times) -> ad.Value:
    """Inter-arrival gaps (along the last axis) with the first gap measured
    from 0."""
    if isinstance(times, ad.Value):
        n = times.data.shape[0]
        diff = np.eye(n) - np.eye(n, k=-1)
        return ad.matvec(tape.constant(diff), times)
    arr = np.asarray(times, dtype=np.float64)
    return tape.constant(np.diff(arr, prepend=0.0))


def _embed_graph(tape, theta, config: ModelConfig, times, gaps, marks) -> ad.Value:
    n = marks.shape[-1]
    _check_length(n, config, "embed")
    times_v = times if isinstance(times, ad.Value) else tape.constant(times)
    col = times_v.shape + (1,)
    y = ad.gather_rows(theta["embed_mark"], marks)
    y = ad.add(y, ad.matmul(ad.reshape(times_v, col), _row_matrix(theta["w_time"])))
    y = ad.add(y, ad.matmul(ad.reshape(gaps, col), _row_matrix(theta["w_gap"])))
    y = ad.add(y, _row(theta["b_embed"], n))
    y = ad.add(y, ad.gather_rows(theta["pos"], np.arange(n)))
    return y


def _attention_graph(tape, theta, config: ModelConfig, y_scored: ad.Value,
                     y_cond: ad.Value | None) -> ad.Value:
    scale = 1.0 / np.sqrt(config.dim)
    n = y_scored.shape[-2]
    mask = np.tril(np.ones((n, n), dtype=bool)) if y_cond is None else None
    stream = y_scored
    for b in range(config.num_blocks):
        source = stream if y_cond is None else y_cond
        s = ad.matmul(stream, ad.transpose(theta[f"W_s{b}"]))
        k = ad.matmul(source, ad.transpose(theta[f"W_k{b}"]))
        v = ad.matmul(source, ad.transpose(theta[f"W_v{b}"]))
        logits = ad.mul(ad.matmul(s, ad.transpose(k)), scale)
        attn = ad.softmax(logits, mask=mask)
        stream = ad.matmul(attn, v)
    return stream


def _states_graph(tape, theta, config: ModelConfig, context: ad.Value) -> ad.Value:
    """Per-prefix conditioning states from the attention outputs h_j.

    Row k (k = 0..n-1) conditions event k+1 and equals the output-layer
    sum over the first k events (row 0 is the learned start vector).
    """
    n = context.shape[-2]
    f = ad.add(
        ad.mul(_row(theta["w_out"], n),
               ad.relu(ad.add(ad.mul(context, _row(theta["w_ff"], n)), _row(theta["b_ff"], n)))),
        _row(theta["b_out"], n),
    )
    # Row k of the scoring states is the sum of f over events < k+1; the
    # strictly-lower-triangular matmul shifts the cumulative sum by one.
    shift = np.tril(np.ones((n, n)), k=-1)
    shifted = ad.matmul(tape.constant(shift), f)
    first = np.zeros((n, 1))
    first[0, 0] = 1.0
    return ad.add(shifted, ad.matmul(tape.constant(first), _row_matrix(theta["start"])))


def _encode_graph(tape, theta, config: ModelConfig, times, gaps, marks,
                  cond_times=None, cond_gaps=None, cond_marks=None) -> ad.Value:
    y = _embed_graph(tape, theta, config, times, gaps, marks)
    if config.variant == "cross":
        if cond_marks is None:
            raise ValueError("cross variant requires a conditioning sequence")
        _check_length(len(cond_marks), config, "conditioning")
        y_cond = _embed_graph(tape, theta, config, cond_times, cond_gaps, cond_marks)
    else:
        y_cond = None
    context = _attention_graph(tape, theta, config, y, y_cond)
    return _states_graph(tape, theta, config, context)


def log_likelihood_graph(tape, theta, config: ModelConfig, times, marks,
                         cond_times=None, cond_marks=None) -> ad.Value:
    """Taped log-likelihood; ``times`` (and ``cond_times``) may be Values.

    Used directly by the trainer, where query timestamps are functions of
    the unwarp parameters and must stay differentiable.

    Batched form: ``times`` and ``marks`` are (B, n) arrays of B sequences
    of one length, each with its own copy of the parameters (``theta``
    from ``ModelParams.leaves(tape, batch=B)``), and the result is the (B,)
    vector of their log-likelihoods.  Every example is computed with the
    same per-slice operations as the unbatched graph, so its value and its
    gradient (of the sum, with respect to its own parameter copy) are
    those of the unbatched graph bit for bit.  Conditioning stays one
    shared (unbatched) sequence.
    """
    marks = np.asarray(marks, dtype=np.int64)
    gaps = _gaps_graph(tape, times)
    if np.any(gaps.data <= 0.0):
        raise ad.DomainError("log_likelihood: non-positive inter-arrival gap")
    cond_gaps = None
    if cond_marks is not None:
        cond_marks = np.asarray(cond_marks, dtype=np.int64)
        cond_gaps = _gaps_graph(tape, cond_times)
    states = _encode_graph(tape, theta, config, times, gaps, marks,
                           cond_times=cond_times, cond_gaps=cond_gaps, cond_marks=cond_marks)
    n, c = marks.shape[-1], config.mark_count

    head = ad.add(ad.matmul(states, ad.transpose(theta["W_time_head"])),
                  _row(theta["b_time_head"], n))
    mu = ad.matvec(head, tape.constant(np.array([1.0, 0.0])))
    log_sigma = ad.matvec(head, tape.constant(np.array([0.0, 1.0])))
    sigma = ad.exp(log_sigma)
    log_gap = ad.log(gaps)
    dev = ad.sub(log_gap, mu)
    time_terms = ad.sub(
        ad.sub(ad.neg(log_gap), log_sigma),
        ad.add(0.5 * LOG_2PI, ad.div(ad.square(dev), ad.mul(2.0, ad.square(sigma)))),
    )

    logits = ad.add(ad.matmul(states, ad.transpose(theta["W_mark_head"])),
                    _row(theta["b_mark_head"], n))
    onehot = np.eye(c)[marks]
    picked = ad.vsum(ad.mul(logits, tape.constant(onehot)), axis=-1)
    mark_terms = ad.sub(picked, ad.logsumexp(logits, axis=-1))

    return ad.add(ad.vsum(time_terms, axis=-1), ad.vsum(mark_terms, axis=-1))


# -- public eval-mode surface ------------------------------------------------

def sequence_log_likelihood(seq: EventSequence, params: ModelParams,
                            conditioning: EventSequence | None = None,
                            tape: ad.Tape | None = None) -> ad.Value:
    """Log-likelihood of ``seq``; cross models condition on ``conditioning``."""
    tape = tape if tape is not None else ad.Tape()
    theta = params.leaves(tape)
    cond_times = conditioning.times if conditioning is not None else None
    cond_marks = conditioning.marks if conditioning is not None else None
    return log_likelihood_graph(tape, theta, params.config, seq.times, seq.marks,
                                cond_times=cond_times, cond_marks=cond_marks)


def grad_log_likelihood(seq: EventSequence, params: ModelParams,
                        conditioning: EventSequence | None = None) -> np.ndarray:
    """Flat gradient of the log-likelihood in canonical parameter order."""
    return grad_log_likelihoods([seq], params, conditioning=conditioning)[0]


def grad_log_likelihoods(seqs, params: ModelParams,
                         conditioning: EventSequence | None = None) -> list[np.ndarray]:
    """Flat log-likelihood gradients of equal-length sequences, one tape.

    Each sequence gets its own copy of the parameters, so one backward of
    the summed log-likelihoods gives every sequence's gradient as the
    adjoint of its own copy (Goodfellow, arXiv:1510.01799).  Each gradient
    equals the unbatched graph's bit for bit, up to the sign of a zero
    where a feed-forward relu is dead on one sequence but not on another.
    """
    seqs = list(seqs)
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ValueError(f"one tape needs sequences of one length, got lengths {sorted(lengths)}")
    if len(seqs) == 1:  # no batch axis: the unbatched graph is the smaller one
        batch, times, marks = None, seqs[0].times, seqs[0].marks
    else:
        batch = len(seqs)
        times, marks = np.stack([s.times for s in seqs]), np.stack([s.marks for s in seqs])
    with ad.Tape() as tape:
        theta = params.leaves(tape, batch=batch)
        cond_times = conditioning.times if conditioning is not None else None
        cond_marks = conditioning.marks if conditioning is not None else None
        ll = log_likelihood_graph(tape, theta, params.config, times, marks,
                                  cond_times=cond_times, cond_marks=cond_marks)
        grads = tape.backward(ll if batch is None else ad.vsum(ll), wrt=list(theta.values()))
    per_param = [grads[theta[n]] for n, _ in param_order(params.config)]
    if batch is None:
        return [np.concatenate([np.ravel(g) for g in per_param])]
    return [np.concatenate([g[b].ravel() for g in per_param]) for b in range(batch)]


# -- checkpoints ----------------------------------------------------------------

def _checkpoint_record(params: ModelParams, unwarp: UnwarpParams) -> tuple[dict, dict]:
    meta = {"model": asdict(params.config), "unwarp": asdict(unwarp.config)}
    return meta, {"theta": params.flatten(), "phi": unwarp.flatten()}


def save_checkpoint(path, params: ModelParams, unwarp: UnwarpParams) -> None:
    write_record(path, "checkpoint", *_checkpoint_record(params, unwarp))


def load_checkpoint(path) -> tuple[ModelParams, UnwarpParams]:
    meta, arrays = read_record(path, "checkpoint")
    config = ModelConfig(**meta["model"])
    ucfg = UnwarpConfig(**{**meta["unwarp"], "hidden": tuple(meta["unwarp"]["hidden"])})
    return (ModelParams.unflatten(config, arrays["theta"]),
            UnwarpParams.unflatten(ucfg, arrays["phi"]))


def checkpoint_sha256(params: ModelParams, unwarp: UnwarpParams) -> str:
    """SHA-256 of the bytes ``save_checkpoint`` writes for this model."""
    record = pack_record("checkpoint", *_checkpoint_record(params, unwarp))
    return hashlib.sha256(record).hexdigest()
