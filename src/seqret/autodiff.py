"""Reverse-mode automatic differentiation on a flat tape.

Values wrap float64 numpy arrays and record onto a Tape in construction
order.  The backward pass visits nodes in reverse construction order, each
at most once, accumulates vector-Jacobian products, and ends as soon as
only leaves have pending adjoints.

Two properties of this tape matter for the rest of the package:

* Operations are matrix-granular (one node per matmul / softmax / cumsum,
  not one node per scalar), so sequence-level graphs stay small enough to
  differentiate thousands of times during training and retrieval.
* Adjoints are themselves Values built from the same primitives, so a
  gradient produced by ``Tape.backward`` can be fed back into new graph
  nodes and differentiated again.  The ranking loss needs this: it is a
  function of normalized log-likelihood gradients.

Backward builds only adjoints that can reach a leaf (activity analysis).
Each Value records at construction whether a leaf lies upstream
(``varied``); a parent that is not varied, such as a constant or
arithmetic on constants, gets no adjoint, since nothing flows on from it.
A ``relu`` whose mask is all zero records no vjp: the adjoint it would
pass back is exactly zero.  Both skips drop only exact zeros, so every
leaf gradient is the same sum (at most a -0.0 turns into +0.0), and a
leaf that receives nothing gets explicit zeros.  Adjoints built by one
backward reference forward Values that depend on the leaves, so they are
varied too, and a second backward through them prunes the same way.

``matmul``, ``matvec``, ``transpose``, ``gather_rows`` and ``scatter_rows``
work on the last two axes and take leading batch axes, which broadcast
(``concat`` and ``narrow`` work on the last axis): one graph then carries
B examples, each with its own copy of a parameter (leaves of shape
(B, ...)), and one backward of the summed outputs gives every example's
gradient.  numpy computes a stacked product slice by slice with the same
kernel as the 2-d product, so each example's values are the unbatched
graph's bit for bit; ``expand`` broadcasts a per-example vector over
positions with the adjoint of a rank-extending broadcast (a sum, even over
one position), so signed zeros agree too.  ``tie`` then turns the copies
into an expand of the shared parameter, so a loss of those gradients
differentiates back to it.

Shapes are validated eagerly; domain violations (log of a non-positive,
division by zero) raise ``DomainError`` instead of propagating NaNs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "DomainError",
    "ShapeError",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "tanh",
    "relu",
    "square",
    "sqrt",
    "absolute",
    "vsum",
    "dot",
    "matvec",
    "matmul",
    "transpose",
    "softmax",
    "logsumexp",
    "cumsum",
    "flip",
    "reshape",
    "expand",
    "tie",
    "concat",
    "narrow",
    "gather_rows",
    "scatter_rows",
]


class DomainError(ArithmeticError):
    """An input left the mathematical domain of a primitive (e.g. log(x<=0))."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested primitive."""


class Value:
    """One tape node: a float64 array plus the recipe to backpropagate it.

    ``parents`` and ``vjps`` are parallel tuples; ``vjps[k]`` maps the
    adjoint of this node to the adjoint contribution of ``parents[k]``;
    a ``None`` vjp means that contribution is exactly zero.  Leaves have
    neither.  ``varied`` says whether some leaf lies upstream.
    """

    __slots__ = ("data", "tape", "op", "is_leaf", "varied", "_idx", "_parents", "_vjps")

    def __init__(self, data, tape, op, parents=(), vjps=(), is_leaf=False):
        self.data = data
        self.tape = tape
        self.op = op
        self.is_leaf = is_leaf
        self.varied = is_leaf or any([p.varied for p in parents])
        self._parents = parents
        self._vjps = vjps
        tape._append(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Value(op={self.op!r}, shape={self.data.shape})"


class Tape:
    """Flat record of Values in construction order; as a context manager
    it is released on exit (a throwaway tape for eval-mode code)."""

    def __init__(self):
        self._nodes: list[Value] = []

    def __len__(self):
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        """Drop a finished graph: its nodes, tape and vjp closures form
        reference cycles that only the cyclic collector would free.  Values
        keep their ``data``; the tape must not be used afterwards."""
        for node in self._nodes:
            node._parents = ()
            node._vjps = ()
        self._nodes = []

    def _append(self, value: Value) -> None:
        value._idx = len(self._nodes)
        self._nodes.append(value)

    def leaf(self, data, name: str = "leaf") -> Value:
        """Register a gradient-tracked input."""
        arr = np.asarray(data, dtype=np.float64)
        return Value(arr, self, name, is_leaf=True)

    def constant(self, data) -> Value:
        """Register data that backward treats as fixed."""
        arr = np.asarray(data, dtype=np.float64)
        return Value(arr, self, "const")

    def backward(self, output: Value, wrt, as_values: bool = False):
        """Gradients of a scalar ``output`` with respect to ``wrt`` leaves.

        Visits nodes in reverse construction order, each at most once, and
        gives adjoints only to parents that reach a leaf.  The walk ends as
        soon as every pending adjoint belongs to a leaf, so a backward from
        the end of a long tape costs the size of its own graph, not of the
        tape.  Adjoints are built from tape primitives, so with
        ``as_values=True`` the returned gradients are Values that later
        nodes (and later backward calls) can consume; with the default they
        are detached numpy arrays.

        Leaves in ``wrt`` that ``output`` does not depend on get explicit
        zero gradients.
        """
        if output.tape is not self:
            raise ValueError("output was recorded on a different tape")
        if output.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")

        seed = self.constant(np.ones_like(output.data))
        adjoint: dict[int, Value] = {output._idx: seed}
        inner = 0 if output.is_leaf else 1  # pending adjoints of non-leaves
        nodes = self._nodes
        for idx in range(output._idx, -1, -1):
            if not inner:
                break
            g = adjoint.get(idx)
            if g is None:
                continue
            node = nodes[idx]
            if node.is_leaf:
                continue
            del adjoint[idx]
            inner -= 1
            for parent, vjp in zip(node._parents, node._vjps):
                if vjp is None or not parent.varied:
                    continue
                contrib = vjp(g)
                prev = adjoint.get(parent._idx)
                if prev is None:
                    adjoint[parent._idx] = contrib
                    inner += not parent.is_leaf
                else:
                    adjoint[parent._idx] = add(prev, contrib)

        out = {}
        for leaf in wrt:
            if not leaf.is_leaf:
                raise ValueError(f"wrt entry {leaf!r} is not a leaf")
            g = adjoint.get(leaf._idx)
            if g is None:
                g = self.constant(np.zeros_like(leaf.data))
            out[leaf] = g
        if as_values:
            return out
        return {k: v.data for k, v in out.items()}


def tie(copies: Value, source: Value) -> None:
    """Turn the leaf ``copies``, which stacks copies of ``source`` along a
    new leading axis, into ``expand(source, 0, n)``.

    A batched graph gives each example its own copy of a shared parameter.
    A backward before the tie stops at the copies and returns every
    example's own gradient (Goodfellow, arXiv:1510.01799); a backward
    after it passes the copies' adjoint, summed over the leading axis, on
    to ``source``, so it can differentiate through those gradients.
    """
    if not copies.is_leaf or copies.tape is not source.tape or source._idx > copies._idx:
        raise ValueError("tie needs a leaf recorded after its source, on the same tape")
    if copies.data.shape[1:] != source.data.shape:
        raise ShapeError(f"tie: copies {copies.data.shape} of {source.data.shape}")
    copies.is_leaf = False
    copies.op = "expand"
    copies._parents = (source,)
    copies._vjps = (lambda g: vsum(g, axis=0),)


def _lift(tape: Tape, x) -> Value:
    if isinstance(x, Value):
        if x.tape is not tape:
            raise ValueError("operands live on different tapes")
        return x
    return tape.constant(x)


def _tape_of(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Value):
            return x.tape
    raise TypeError("at least one operand must be a Value")


def _unbroadcast(g: Value, shape: tuple) -> Value:
    """Reduce an adjoint back to the shape of a broadcast operand."""
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = vsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.data.shape[i] != 1)
    if axes:
        g = vsum(g, axis=axes, keepdims=True)
    if g.data.shape != shape:
        g = reshape(g, shape)
    return g


def _check_broadcast(op, sa: tuple, sb: tuple) -> None:
    if sa == sb or not sa or not sb:
        return
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError as err:
        raise ShapeError(f"{op}: cannot broadcast {sa} with {sb}") from err


def add(a, b) -> Value:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _check_broadcast("add", a.data.shape, b.data.shape)
    return Value(
        a.data + b.data,
        tape,
        "add",
        (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Value:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _check_broadcast("sub", a.data.shape, b.data.shape)
    return Value(
        a.data - b.data,
        tape,
        "sub",
        (a, b),
        (
            lambda g: _unbroadcast(g, a.data.shape),
            lambda g: _unbroadcast(neg(g), b.data.shape),
        ),
    )


def mul(a, b) -> Value:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _check_broadcast("mul", a.data.shape, b.data.shape)
    return Value(
        a.data * b.data,
        tape,
        "mul",
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, b), a.data.shape),
            lambda g: _unbroadcast(mul(g, a), b.data.shape),
        ),
    )


def div(a, b) -> Value:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _check_broadcast("div", a.data.shape, b.data.shape)
    if np.any(b.data == 0.0):
        raise DomainError("div: denominator contains zero")
    out = Value(a.data / b.data, tape, "div", (a, b), ())
    out._vjps = (
        lambda g: _unbroadcast(div(g, b), a.data.shape),
        lambda g: _unbroadcast(neg(mul(g, div(out, b))), b.data.shape),
    )
    return out


def neg(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    return Value(-a.data, tape, "neg", (a,), (lambda g: neg(g),))


def exp(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    out = Value(np.exp(a.data), tape, "exp", (a,), ())
    out._vjps = (lambda g: mul(g, out),)
    return out


def log(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: input contains non-positive entries")
    return Value(np.log(a.data), tape, "log", (a,), (lambda g: div(g, a),))


def tanh(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    out = Value(np.tanh(a.data), tape, "tanh", (a,), ())
    out._vjps = (lambda g: mul(g, sub(1.0, square(out))),)
    return out


def relu(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    mask = (a.data > 0.0).astype(np.float64)  # slope at the kink is taken as 0
    vjp = (lambda g: mul(g, mask)) if mask.any() else None  # None: the adjoint is 0
    return Value(a.data * mask, tape, "relu", (a,), (vjp,))


def square(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    return Value(np.square(a.data), tape, "square", (a,), (lambda g: mul(g, mul(2.0, a)),))


def sqrt(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: input contains negative entries")
    out = Value(np.sqrt(a.data), tape, "sqrt", (a,), ())
    out._vjps = (lambda g: div(g, mul(2.0, out)),)
    return out


def absolute(a) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    sign = np.sign(a.data)  # subgradient 0 at exactly 0
    return Value(np.abs(a.data), tape, "abs", (a,), (lambda g: mul(g, sign),))


def vsum(a, axis=None, keepdims: bool = False) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    shape = a.data.shape
    out_data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def vjp(g):
        gd = g
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            kshape = list(out_data.shape)
            for ax in sorted(a_ % len(shape) for a_ in axes):
                kshape.insert(ax, 1)
            gd = reshape(gd, tuple(kshape))
        elif axis is None and not keepdims:
            gd = reshape(gd, (1,) * len(shape)) if shape else gd
        return broadcast_to(gd, shape)

    return Value(np.asarray(out_data), tape, "sum", (a,), (vjp,))


def broadcast_to(a, shape) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError as err:
        raise ShapeError(f"broadcast_to: {a.data.shape} -> {shape}") from err
    return Value(out, tape, "broadcast", (a,), (lambda g: _unbroadcast(g, a.data.shape),))


def expand(a, axis: int, n: int) -> Value:
    """Insert an axis of length ``n`` at ``axis``, repeating ``a`` along it.

    The adjoint sums over the new axis even when ``n`` is 1, as the adjoint
    of a rank-extending broadcast does, so ``add(x, expand(v, -2, n))`` on
    a batch differentiates like ``add(x_b, v_b)`` on each example.
    """
    tape = _tape_of(a)
    a = _lift(tape, a)
    data = np.repeat(np.expand_dims(a.data, axis), n, axis=axis)
    return Value(data, tape, "expand", (a,), (lambda g: vsum(g, axis=axis),))


def dot(a, b) -> Value:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {a.data.shape} and {b.data.shape}")
    return Value(
        np.asarray(a.data @ b.data),
        tape,
        "dot",
        (a, b),
        (lambda g: mul(g, b), lambda g: mul(g, a)),
    )


def matvec(m, v) -> Value:
    """``m @ v`` for a matrix ``m`` (..., r, k) and a vector ``v`` (..., k)."""
    tape = _tape_of(m, v)
    m, v = _lift(tape, m), _lift(tape, v)
    sm, sv = m.data.shape, v.data.shape
    if len(sm) < 2 or len(sv) < 1 or sm[-1] != sv[-1]:
        raise ShapeError(f"matvec: incompatible {sm} @ {sv}")
    _check_broadcast("matvec", sm[:-2], sv[:-1])
    data = m.data @ v.data if len(sv) == 1 else np.matmul(m.data, v.data[..., None])[..., 0]
    # the vjps read shapes when called: every object a closure captures stays
    # alive with the node, and the cyclic collector pays for each
    return Value(
        data,
        tape,
        "matvec",
        (m, v),
        (
            lambda g: _unbroadcast(matmul(reshape(g, g.data.shape + (1,)),
                                          reshape(v, v.data.shape[:-1] + (1, -1))), m.data.shape),
            lambda g: _unbroadcast(matvec(transpose(m), g), v.data.shape),
        ),
    )


def matmul(a, b) -> Value:
    """``a @ b`` over the last two axes; leading (batch) axes broadcast."""
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2 or sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: incompatible {sa} @ {sb}")
    if sa[:-2] == sb[:-2]:  # adjoints already have the operands' shapes
        vjps = (lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g))
    else:  # broadcast leading axes: sum each adjoint back to its operand
        _check_broadcast("matmul", sa[:-2], sb[:-2])
        vjps = (lambda g: _unbroadcast(matmul(g, transpose(b)), a.data.shape),
                lambda g: _unbroadcast(matmul(transpose(a), g), b.data.shape))
    return Value(a.data @ b.data, tape, "matmul", (a, b), vjps)


def transpose(a) -> Value:
    """Swap the last two axes."""
    tape = _tape_of(a)
    a = _lift(tape, a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: need a matrix, got {a.data.shape}")
    data = a.data.T if a.data.ndim == 2 else a.data.swapaxes(-1, -2)
    return Value(data.copy(), tape, "transpose", (a,), (lambda g: transpose(g),))


def softmax(a, mask=None) -> Value:
    """Row-wise softmax over the last axis, optionally masked.

    ``mask`` is a boolean array broadcastable to ``a``; False entries get
    probability exactly 0 and receive no gradient.  Each row must keep at
    least one True entry.  The adjoint is the fused form
    ``p * (g - sum(p * g))`` rather than a composition of exp and sum.
    """
    tape = _tape_of(a)
    a = _lift(tape, a)
    x = a.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not np.all(mask.any(axis=-1)):
            raise DomainError("softmax: a row is fully masked")
        x = np.where(mask, x, -np.inf)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=-1, keepdims=True)
    out = Value(p, tape, "softmax", (a,), ())

    def vjp(g):
        inner = vsum(mul(out, g), axis=-1, keepdims=True)
        return mul(out, sub(g, inner))

    out._vjps = (vjp,)
    return out


def logsumexp(a, axis: int = -1) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    m = np.max(a.data, axis=axis, keepdims=True)
    out_data = np.squeeze(m, axis=axis) + np.log(
        np.sum(np.exp(a.data - m), axis=axis)
    )
    out = Value(np.asarray(out_data), tape, "logsumexp", (a,), ())

    def vjp(g):
        # d lse / d a = softmax(a); expressed through the recorded output.
        ax = axis % a.data.ndim
        kshape = list(out.data.shape)
        kshape.insert(ax, 1)
        w = exp(sub(a, reshape(out, tuple(kshape))))
        return mul(reshape(g, tuple(kshape)), w)

    out._vjps = (vjp,)
    return out


def cumsum(a, axis: int = 0) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    return Value(
        np.cumsum(a.data, axis=axis),
        tape,
        "cumsum",
        (a,),
        (lambda g: flip(cumsum(flip(g, axis=axis), axis=axis), axis=axis),),
    )


def flip(a, axis: int = 0) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    return Value(np.flip(a.data, axis=axis).copy(), tape, "flip", (a,), (lambda g: flip(g, axis=axis),))


def reshape(a, shape) -> Value:
    tape = _tape_of(a)
    a = _lift(tape, a)
    old = a.data.shape
    try:
        out = a.data.reshape(shape).copy()
    except ValueError as err:
        raise ShapeError(f"reshape: {old} -> {shape}") from err
    return Value(out, tape, "reshape", (a,), (lambda g: reshape(g, old),))


def concat(parts) -> Value:
    """Concatenate Values along the last axis; leading axes must agree."""
    parts = list(parts)
    tape = _tape_of(*parts)
    parts = [_lift(tape, p) for p in parts]
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.ndim < 1 or p.data.shape[:-1] != lead:
            raise ShapeError(f"concat: need equal leading axes, got {p.data.shape}")
    sizes = [p.data.shape[-1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def make_vjp(k):
        return lambda g: narrow(g, int(offsets[k]), sizes[k])

    return Value(
        np.concatenate([p.data for p in parts], axis=-1),
        tape,
        "concat",
        tuple(parts),
        tuple(make_vjp(k) for k in range(len(parts))),
    )


def narrow(a, start: int, length: int) -> Value:
    """Contiguous slice ``a[..., start:start+length]`` of the last axis."""
    tape = _tape_of(a)
    a = _lift(tape, a)
    if a.data.ndim < 1 or start < 0 or start + length > a.data.shape[-1]:
        raise ShapeError(f"narrow: [{start}:{start + length}] out of {a.data.shape}")
    lead, n = a.data.shape[:-1], a.data.shape[-1]

    def vjp(g):
        pieces = []
        if start > 0:
            pieces.append(a.tape.constant(np.zeros(lead + (start,))))
        pieces.append(g)
        if start + length < n:
            pieces.append(a.tape.constant(np.zeros(lead + (n - start - length,))))
        return concat(pieces) if len(pieces) > 1 else pieces[0]

    return Value(a.data[..., start : start + length].copy(), tape, "narrow", (a,), (vjp,))


def gather_rows(m, idx) -> Value:
    """Select rows ``m[..., idx, :]``; the adjoint scatter-adds back.

    ``m`` is (..., r, d); ``idx`` is (n,), shared by every leading index,
    or (..., n), one row list per leading index.
    """
    tape = _tape_of(m)
    m = _lift(tape, m)
    shape = m.data.shape
    if len(shape) < 2:
        raise ShapeError(f"gather_rows: need a matrix, got {shape}")
    idx, where = _row_index("gather_rows", idx, shape[:-2])
    nrows = shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= nrows):
        raise ShapeError(f"gather_rows: index out of range for {nrows} rows")
    return Value(
        m.data[where],
        tape,
        "gather_rows",
        (m,),
        (lambda g: scatter_rows(g, idx, nrows),),
    )


def scatter_rows(g, idx, nrows: int) -> Value:
    """Rows of ``g`` (..., n, d) added into zeros (..., nrows, d) at ``idx``
    (duplicates accumulate in order)."""
    tape = _tape_of(g)
    g = _lift(tape, g)
    shape = g.data.shape
    if len(shape) < 2:
        raise ShapeError(f"scatter_rows: need a matrix, got {shape}")
    idx, where = _row_index("scatter_rows", idx, shape[:-2])
    if idx.shape[-1] != shape[-2]:
        raise ShapeError(f"scatter_rows: {shape} rows vs {idx.shape} indices")
    out = np.zeros(shape[:-2] + (nrows, shape[-1]))
    np.add.at(out, where, g.data)
    return Value(out, tape, "scatter_rows", (g,), (lambda gg: gather_rows(gg, idx),))


def _row_index(op, idx, lead: tuple):
    """Row indices and the index tuple that applies them under the leading
    axes ``lead``: a shared (n,) vector, or one (..., n) row list each."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim == 1:
        return idx, (slice(None),) * len(lead) + (idx,)
    if idx.shape[:-1] != lead:
        raise ShapeError(f"{op}: indices {idx.shape} do not fit leading axes {lead}")
    outer = tuple(np.arange(n).reshape((-1,) + (1,) * (len(lead) - k))
                  for k, n in enumerate(lead))
    return idx, outer + (idx,)
