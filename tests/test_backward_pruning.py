"""Backward pruning is exact.

``Tape.backward`` gives no adjoint to a parent that reaches no leaf, and a
``relu`` whose mask is all zero passes none back.  ``unpruned_backward``
below is the loop it ran before it pruned: every parent gets an adjoint,
and a dead ``relu`` passes back ``g * mask`` with the mask recomputed from
its input, which is explicit zeros whenever the relu is really dead.  Training batches (second order, through
the inner backward), single-sequence gradients and hash-net epochs must
give the same gradients bit for bit, signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret import trainer as tr
from seqret.hashing import HashConfig, train_hash_net
from seqret.mtpp import ModelParams, grad_log_likelihood
from seqret.unwarp import UnwarpParams

from conftest import random_sequence


def unpruned_backward(self, output, wrt, as_values=False):
    seed = self.constant(np.ones_like(output.data))
    adjoint = {output._idx: seed}
    leaf_grads = {}
    nodes = self._nodes
    for idx in range(output._idx, -1, -1):
        g = adjoint.pop(idx, None)
        if g is None:
            continue
        node = nodes[idx]
        if node.is_leaf:
            leaf_grads[idx] = g
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if vjp is None:  # only a dead relu records none; it passed back g * mask
                assert node.op == "relu"
                contrib = ad.mul(g, (parent.data > 0.0).astype(np.float64))
            else:
                contrib = vjp(g)
            prev = adjoint.get(parent._idx)
            adjoint[parent._idx] = contrib if prev is None else ad.add(prev, contrib)
    out = {}
    for leaf in wrt:
        g = leaf_grads.get(leaf._idx)
        out[leaf] = self.constant(np.zeros_like(leaf.data)) if g is None else g
    return out if as_values else {k: v.data for k, v in out.items()}


def assert_same_bits(run):
    """``run()`` returns named arrays; they must not change by one bit
    when every backward inside it is the unpruned one."""
    pruned = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad.Tape, "backward", unpruned_backward)
        reference = run()
    assert pruned.keys() == reference.keys()
    for name in pruned:
        a, b = np.asarray(pruned[name]), np.asarray(reference[name])
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def micro_model(rng, dead_ff, scale=0.02, **overrides):
    config = tr.TrainConfig(dim=4, mark_count=3, n_max=16, unwarp_hidden=(4, 4),
                            n_quad=8, noise_sigma=0.0, **overrides)
    params = ModelParams.init(config.model_config(), rng, scale=scale)
    if dead_ff:  # every feed-forward relu input negative: an all-zero mask
        params.arrays["b_ff"] -= 100.0
    return config, params


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["cross", "self"]),
       margin=st.sampled_from([0.0, 0.5, 3.0]), unwarp_enabled=st.booleans(),
       dead_ff=st.booleans())
def test_training_batch_gradients(seed, variant, margin, unwarp_enabled, dead_ff):
    rng = np.random.default_rng(seed)
    config, params = micro_model(rng, dead_ff, variant=variant, margin=margin,
                                 unwarp_enabled=unwarp_enabled)
    unwarp = UnwarpParams.init(config.unwarp_config(), rng)
    corpus = {f"c{i}": random_sequence(rng, seq_id=f"c{i}") for i in range(3)}
    queries = {f"q{i}": random_sequence(rng, seq_id=f"q{i}") for i in range(2)}
    pairs = {"q0": [("c0", "c1"), ("c2", "c1")], "q1": [("c1", "c0")]}

    def run():
        lg = tr.epoch_loss(queries, corpus, pairs, params, unwarp, config,
                           noise={"q0": 0.01})
        leaves = {**lg.theta, **{f"phi.{n}": v for n, v in (lg.phi or {}).items()}}
        grads = lg.tape.backward(lg.value, wrt=list(leaves.values()))
        out = {"loss": lg.value.data, **{n: grads[v] for n, v in leaves.items()}}
        lg.tape.release()
        return out

    assert_same_bits(run)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["cross", "self"]),
       n=st.integers(1, 12), scale=st.sampled_from([0.02, 0.5]), dead_ff=st.booleans())
def test_sequence_gradients(seed, variant, n, scale, dead_ff):
    rng = np.random.default_rng(seed)
    _, params = micro_model(rng, dead_ff, scale, variant=variant)
    seq = random_sequence(rng, n=n)
    cond = random_sequence(rng, seq_id="q") if variant == "cross" else None
    assert_same_bits(lambda: {"grad": grad_log_likelihood(seq, params, conditioning=cond)})


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), dim=st.integers(1, 9),
       n_bits=st.integers(2, 6))
def test_hash_net_epochs(seed, n, dim, n_bits):
    vectors = np.random.default_rng(seed).normal(size=(n, dim))
    config = HashConfig(n_bits=n_bits, hidden=5, epochs=3, bits_per_table=2, seed=seed)

    def run():
        psi, curve = train_hash_net(vectors, config)
        return {**psi.arrays, **{f"{k}.{i}": row[k] for i, row in enumerate(curve) for k in row}}

    assert_same_bits(run)
