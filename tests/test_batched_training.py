"""The batched training tape against the per-graph one.

``epoch_loss`` builds one vector graph per exact-length group of corpus
roles, each example reading its own copy of the parameters.
``per_graph_epoch_loss`` below is the loop it replaced: one unbatched
vector graph per sequence role, built in the order the pair scores ask
for them.  Forward values are the same per slice, so the loss keeps its
bits for both variants.  The gradients of the shared parameters do not
always: the outer backward first sums each example's terms into its
copy, then the copies into the shared leaf, which associates the sum
differently from one running total.  They are checked to a relative
tolerance of the block's largest entry.  The unwarp gradient of the self
variant keeps its bits, since its corpus vectors do not depend on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqret import autodiff as ad
from seqret import trainer as tr
from seqret.mtpp import ModelParams
from seqret.relevance import fisher_vector_graph, score_graph
from seqret.unwarp import UnwarpParams, unbiasedness_penalty_graph, unwarp_times_graph

from conftest import random_sequence

REL_TOL = 1e-12


def per_graph_epoch_loss(queries, corpus, pairs, params, unwarp, config, noise):
    tape = ad.Tape()
    theta = params.leaves(tape)
    phi = unwarp.leaves(tape) if config.unwarp_enabled else None
    mcfg = params.config
    cross = mcfg.variant == "cross"
    hinge_terms, penalties, self_cache = [], [], {}
    for qid in sorted(pairs):
        q = queries[qid]
        if config.unwarp_enabled:
            uq = unwarp_times_graph(q.times, phi, unwarp.config, tape, noise=noise.get(qid, 0.0))
        else:
            uq = tape.constant(q.times)
        cond = {"cond_times": uq, "cond_marks": q.marks} if cross else {}
        vq = fisher_vector_graph(tape, theta, mcfg, uq, q.marks, **cond)
        scores = {}

        def score(cid):
            if cid in scores:
                return scores[cid]
            c = corpus[cid]
            if cross:
                vc = fisher_vector_graph(tape, theta, mcfg, c.times, c.marks, **cond)
            elif cid in self_cache:
                vc = self_cache[cid]
            else:
                vc = self_cache[cid] = fisher_vector_graph(tape, theta, mcfg, c.times, c.marks)
            scores[cid] = score_graph(tape, vq, vc, uq, q, c, max(q.horizon, c.horizon),
                                      config.gamma)
            return scores[cid]

        for pos, neg in pairs[qid]:
            hinge_terms.append(ad.relu(ad.add(ad.sub(score(neg), score(pos)), config.margin)))
        if config.unwarp_enabled:
            penalties.append(unbiasedness_penalty_graph(phi, unwarp.config, q.horizon, tape))
    total = tr._fold_sum(tape, hinge_terms)
    if penalties:
        total = ad.add(total, tr._fold_sum(tape, penalties))
    return tr.LossGraph(value=total, tape=tape, theta=theta, phi=phi, n_pairs=len(hinge_terms))


def loss_and_grads(build):
    lg = build()
    leaves = {**lg.theta, **{f"phi.{n}": v for n, v in (lg.phi or {}).items()}}
    grads = lg.tape.backward(lg.value, wrt=list(leaves.values()))
    lg.tape.release()
    return lg.value.data, grads, leaves


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["cross", "self"]),
       margin=st.sampled_from([0.5, 3.0]), unwarp_enabled=st.booleans(),
       lengths=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True))
def test_batched_epoch_loss_matches_per_graph(seed, variant, margin, unwarp_enabled, lengths):
    rng = np.random.default_rng(seed)
    config = tr.TrainConfig(variant=variant, dim=4, mark_count=3, n_max=16,
                            unwarp_hidden=(4, 4), n_quad=8, noise_sigma=0.0,
                            margin=margin, unwarp_enabled=unwarp_enabled)
    params = ModelParams.init(config.model_config(), rng, scale=0.3)
    unwarp = UnwarpParams.init(config.unwarp_config(), rng)
    # every length appears at least twice, so each group batches two or more rows
    corpus = {f"c{i}": random_sequence(rng, n=lengths[i % len(lengths)], seq_id=f"c{i}")
              for i in range(2 * len(lengths) + 1)}
    queries = {f"q{i}": random_sequence(rng, seq_id=f"q{i}") for i in range(2)}
    ids = sorted(corpus)
    pairs = {qid: [tuple(rng.choice(ids, size=2, replace=False)) for _ in range(4)]
             for qid in queries}
    noise = {"q0": 0.01}

    loss, grads, leaves = loss_and_grads(
        lambda: tr.epoch_loss(queries, corpus, pairs, params, unwarp, config, noise=noise))
    ref_loss, ref_grads, ref_leaves = loss_and_grads(
        lambda: per_graph_epoch_loss(queries, corpus, pairs, params, unwarp, config, noise))
    assert loss.tobytes() == ref_loss.tobytes()
    worst = 0.0
    for name, leaf in leaves.items():
        a, b = grads[leaf], ref_grads[ref_leaves[name]]
        assert a.shape == b.shape
        if variant == "self" and name.startswith("phi."):
            assert a.tobytes() == b.tobytes(), name
        scale = np.max(np.abs(b))
        rel = np.max(np.abs(a - b)) / scale if scale else np.max(np.abs(a))
        worst = max(worst, rel)
        assert rel <= REL_TOL, name
    print(f"{variant}: largest gradient difference {worst:.2e} of its block's largest entry")
