#!/usr/bin/env python3
"""Scoring ablation on a generated benchmark.

Trains the full relevance model and a no-unwarp variant over several seeds,
then reports pooled test MAP next to the model-free distance ranking.  The
defaults finish in a few minutes; pass --bases 80 for a corpus of around
two thousand sequences.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqret.datagen import GenConfig, make_benchmark
from seqret.retrieval import (average_precision, mean_metric, rank_by_score,
                              score_candidates)
from seqret.relevance import sim_score
from seqret.sequences import split_queries
from seqret.trainer import TrainConfig, train
from seqret.unwarp import UnwarpConfig, UnwarpParams, unwarp_sequence


def pooled_map(bench, pools, score_fn):
    per = {}
    for qid, (pool, pos) in pools.items():
        ranked = [c for c, _ in rank_by_score(score_fn(bench.queries[qid],
                                                       sorted(pool)))]
        per[qid] = average_precision(ranked, pos)
    return mean_metric(per)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--bases", type=int, default=30)
    parser.add_argument("--marks", type=int, default=5)
    parser.add_argument("--gen-seed", type=int, default=20260814)
    parser.add_argument("--seeds", default="0,1,2", help="training seeds, comma separated")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--pool-negatives", type=int, default=50)
    parser.add_argument("--out", help="optional TSV path for the result table")
    args = parser.parse_args(argv)

    bench = make_benchmark(GenConfig(n_bases=args.bases, subs_range=(20, 31),
                                     window_range=(10, 20), mark_count=args.marks,
                                     warp="affine", warp_range=(1.25, 2.0),
                                     seed=args.gen_seed))
    split = split_queries(sorted(bench.queries), (0.4, 0.1, 0.5), seed=0)
    rng = np.random.default_rng(77)
    pools = {}
    for qid in sorted(split.test):
        pos, negs = bench.judgments.pool(qid, sorted(bench.corpus), rng, args.pool_negatives)
        if pos:
            pools[qid] = (set(pos) | set(negs), set(pos))
    print(f"corpus={len(bench.corpus)} queries={len(bench.queries)} "
          f"test={len(pools)}", file=sys.stderr)

    identity = UnwarpParams.identity(UnwarpConfig(hidden=(16, 16), n_quad=24))

    def distance_only(query, cids):
        uq = unwarp_sequence(query, identity)
        return {c: sim_score(query, bench.corpus[c], identity,
                             max(uq.horizon, bench.corpus[c].horizon))
                for c in cids}

    rows = [("distance-only", "-", f"{pooled_map(bench, pools, distance_only):.4f}")]
    for seed in (int(s) for s in args.seeds.split(",")):
        for label, enabled in (("full", True), ("no-unwarp", False)):
            config = TrainConfig(variant="cross", dim=16, mark_count=args.marks,
                                 n_max=24, unwarp_hidden=(16, 16), n_quad=24,
                                 noise_sigma=0.01, unbias_sigma=3.0, l2=1e-3,
                                 negatives_per_query=24, pairs_per_query=24,
                                 batch_queries=8, epochs=args.epochs,
                                 learning_rate=args.lr, eval_negatives=50,
                                 seed=seed, unwarp_enabled=enabled)
            t0 = time.monotonic()
            result = train(bench.corpus, bench.queries, bench.judgments,
                           config, split.train, split.valid)

            def model(query, cids, r=result):
                return score_candidates(query, [bench.corpus[c] for c in cids],
                                        r.params, r.unwarp)

            value = pooled_map(bench, pools, model)
            rows.append((label, str(seed), f"{value:.4f}"))
            print(f"{label} seed={seed}: MAP={value:.4f} "
                  f"({time.monotonic() - t0:.0f}s)", file=sys.stderr)

    lines = ["scorer\tseed\tmap"] + ["\t".join(row) for row in rows]
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table)
    sys.stdout.write(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
