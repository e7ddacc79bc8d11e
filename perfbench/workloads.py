"""The three workloads: train, index and query.

Each workload drives seqret only through the public functions the CLI
subcommands call (``trainer.train``, ``retrieval.build_pipeline``,
``retrieval.query_topk``, ``retrieval.evaluate_protocol``) plus the
loaders and writers the subcommands use.  Calls go through module
attributes (``trainer.train``, not a bound name) so that the tracer's
wrappers see them.

A workload has four parts:

* ``setup()`` builds or loads what the first operation needs and is
  timed (``setup_s``); the runner calls it several times.
* ``round(state)`` runs one whole round of operations and returns one
  ``Op`` per operation; the runner repeats rounds for the run length.
* ``check(state, ops)`` compares the outputs with computations made apart
  from the program (``reference.py``) or with properties the method must
  have, and returns the problems found plus the end-to-end values that
  come out of the checked outputs.
* ``layer_metrics(...)`` turns a trace into per-layer numbers.
"""

from __future__ import annotations

import inspect
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from seqret import datagen, hashing, mtpp, relevance, retrieval, sequences, trainer, unwarp
from seqret.autodiff import Tape

# README quick-start training flags (``seqret train ... --n-max 24
# --unwarp-hidden 16:16 --n-quad 24 --unbias-sigma 3.0 --negatives 24
# --pairs-cap 24 --batch-queries 8 --epochs 4 --lr 0.02 --seed 0``) on the
# README's ``gen --bases 20 --seed 7`` benchmark.
README_BENCH = dict(n_bases=20, seed=7)
README_TRAIN = dict(n_max=24, unwarp_hidden=(16, 16), n_quad=24, unbias_sigma=3.0,
                    negatives_per_query=24, pairs_per_query=24, batch_queries=8,
                    learning_rate=0.02, seed=0)
README_EPOCHS = 4
README_POOL_NEGATIVES = 50
SPLIT_SEED = 0
GAMMA = 0.1


@dataclass
class Op:
    """One timed call of the workload's public function."""

    seconds: float
    items: int = 0  # hinge pairs, corpus sequences or queries handled
    ok: bool = True
    result: object = None
    extra: dict = field(default_factory=dict)


def timed(fn, *args, **kwargs) -> tuple[object, float, bool]:
    """Run one operation; an exception counts the operation as failed."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # the loop must go on; the failure is counted and logged
        traceback.print_exc()
        return None, perf_counter() - t0, False
    return result, perf_counter() - t0, True


def file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def reference_nodes(params: mtpp.ModelParams, seq) -> tuple[int, int]:
    """Tape nodes of one sequence gradient: (after forward, after backward)."""
    tape = Tape()
    theta = params.leaves(tape)
    ll = mtpp.log_likelihood_graph(tape, theta, params.config, seq.times, seq.marks)
    forward = len(tape)
    tape.backward(ll, wrt=list(theta.values()))
    return forward, len(tape)


def fd_loglik_gradient(seq, params: mtpp.ModelParams, conditioning=None):
    """``reference.fd_bracket`` of ``sequence_log_likelihood`` in the
    canonical parameter order."""
    config = params.config

    def loglik(x):
        p = mtpp.ModelParams.unflatten(config, x)
        return mtpp.sequence_log_likelihood(seq, p, conditioning=conditioning).item()

    return ref.fd_bracket(loglik, params.flatten())


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, n_ops: int, params: mtpp.ModelParams, seq,
                  hashed=()) -> dict[str, float]:
    """Per-layer figures of a traced run of ``n_ops`` operations.

    A function the workload never calls reads 0: that layer sits idle on
    this workload.  Save/load and generation happen in set-up, so those
    are averaged over every phase; the rest over the measured loop.  The
    node counts are those of one gradient of ``seq`` under ``params``;
    ``hashed`` holds the results of the distinct hashed queries.
    """
    t = tracer
    per_op = 1.0 / max(1, n_ops)
    train_calls = t.total("trainer.train")[0]
    hash_s = t.total("hashing.train_hash_net")[1]
    hash_epochs = sum(t.notes["hash_epochs"])
    out = {
        "autodiff.backward_s": t.total("autodiff.Tape.backward")[1] * per_op,
        "autodiff.train_batch_forward_nodes": _mean(t.notes["batch_forward_nodes"]),
        "autodiff.train_batch_nodes": _mean(t.notes["train_batch_nodes"]),
        "mtpp.grad_ms": t.mean("mtpp.grad_log_likelihood") * 1e3,
        "mtpp.save_checkpoint_ms": t.mean("mtpp.save_checkpoint", phase=None) * 1e3,
        "mtpp.load_checkpoint_ms": t.mean("mtpp.load_checkpoint", phase=None) * 1e3,
        "unwarp.query_ms": t.mean("unwarp.unwarp_sequence") * 1e3,
        "unwarp.graph_ms": t.mean("unwarp.unwarp_times_graph") * 1e3,
        "relevance.vector_ms.self": t.mean("relevance.fisher_vector.self") * 1e3,
        "relevance.vector_ms.cross": t.mean("relevance.fisher_vector.cross") * 1e3,
        "relevance.vector_graph_ms": t.mean("relevance.fisher_vector_graph") * 1e3,
        "trainer.batch_forward_s": t.mean("trainer.epoch_loss"),
        "trainer.batch_backward_s": t.mean("autodiff.Tape.backward", parent="trainer.train"),
        "trainer.validation_s": t.mean("trainer.validation_map"),
        "trainer.pairs": sum(t.notes["batch_pairs"]) / train_calls if train_calls else 0.0,
        "hashing.train_s": t.mean("hashing.train_hash_net"),
        "hashing.epoch_ms": hash_s / hash_epochs * 1e3 if hash_epochs else 0.0,
        "hashing.build_index_ms": t.mean("hashing.build_index") * 1e3,
        "hashing.save_index_ms": t.mean("hashing.save_index", phase=None) * 1e3,
        "hashing.load_index_ms": t.mean("hashing.load_index", phase=None) * 1e3,
        "hashing.encode_us": t.mean("hashing.HashEncoder.encode") * 1e6,
        "hashing.lookup_us": t.mean("hashing.candidate_lookup") * 1e6,
        "retrieval.corpus_vectors_s": t.mean("retrieval.corpus_fisher_vectors"),
        "retrieval.save_vectors_ms": t.mean("retrieval.save_vectors", phase=None) * 1e3,
        "retrieval.load_vectors_ms": t.mean("retrieval.load_vectors", phase=None) * 1e3,
        "sequences.load_corpus_ms": t.mean("sequences.load_corpus", phase=None) * 1e3,
        "datagen.make_benchmark_s": t.mean("datagen.make_benchmark", phase=None),
    }
    scored = sum(t.notes["scored_candidates"])
    score_s = t.total("retrieval.score_candidates")[1]
    out["retrieval.score_ms_per_candidate"] = score_s / scored * 1e3 if scored else 0.0
    q_calls, q_s, _ = t.total("retrieval.query_topk")
    inner = t.total("retrieval.score_candidates", parent="retrieval.query_topk")[1]
    out["retrieval.query_side_ms"] = (q_s - inner) / q_calls * 1e3 if q_calls else 0.0
    for layer in ("autodiff", "mtpp", "unwarp", "relevance", "trainer", "hashing",
                  "retrieval", "sequences", "datagen"):
        out[f"{layer}.self_ms"] = t.layer_self(layer) * per_op * 1e3
    out["autodiff.grad_forward_nodes"], out["autodiff.grad_nodes"] = reference_nodes(params, seq)
    sizes = [r.comparisons for r in hashed]
    out["hashing.candidates_per_query"] = _mean(sizes)
    out["hashing.max_candidates"] = float(max(sizes, default=0))
    out["hashing.fallbacks"] = float(sum(r.fallback for r in hashed))
    return out


# -- train ----------------------------------------------------------------------

@dataclass
class TrainState:
    bench: datagen.Benchmark
    split: sequences.DatasetSplit


class TrainWorkload:
    """Fit the cross scorer and the self index model on the README benchmark.

    One round is one ``trainer.train`` call per variant with the README
    flags, cut to one epoch so that a round fits the run length; an epoch
    costs the same whichever epoch it is, so pairs per second do not
    depend on the epoch count.  The inputs are the README's fixed
    benchmark; the seed drives the checks' random draws.
    """

    name = "train"
    variants = ("cross", "self")

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def config(self, variant: str, epochs: int = 1) -> trainer.TrainConfig:
        return trainer.TrainConfig(variant=variant, epochs=epochs, **README_TRAIN)

    def setup(self) -> TrainState:
        bench = datagen.make_benchmark(datagen.GenConfig(**README_BENCH))
        split = sequences.split_queries(sorted(bench.queries), seed=SPLIT_SEED)
        return TrainState(bench, split)

    def round(self, state: TrainState) -> list[Op]:
        b = state.bench
        ops = []
        for variant in self.variants:
            result, secs, ok = timed(trainer.train, b.corpus, b.queries, b.judgments,
                                     self.config(variant), state.split.train,
                                     state.split.valid)
            pairs = sum(h.n_pairs for h in result.history) if ok else 0
            ops.append(Op(secs, pairs, ok, result, {"variant": variant}))
        return ops

    def check(self, state: TrainState, ops: list[Op]) -> tuple[list[str], dict]:
        problems: list[str] = []
        b = state.bench
        done = {op.extra["variant"]: op.result for op in ops if op.ok}
        if set(done) != set(self.variants):
            return ["no successful training call for every variant"], {}
        cross, self_model = done["cross"], done["self"]
        rng = np.random.default_rng(self.seed)

        # 1. d(batch loss)/d(direction) by central differences vs the tape
        cfg = self.config("cross")
        usable = [q for q in state.split.train if b.judgments.positives(q)]
        qids = sorted(str(q) for q in rng.choice(usable, size=2, replace=False))
        pairs = trainer.sample_pairs(b.judgments, qids, b.corpus, rng,
                                     cfg.negatives_per_query, cfg.pairs_per_query)
        params, uparams = cross.params, cross.unwarp
        n_theta = params.n_params

        def loss_at(x):
            p = mtpp.ModelParams.unflatten(params.config, x[:n_theta])
            u = unwarp.UnwarpParams.unflatten(uparams.config, x[n_theta:])
            return trainer.epoch_loss(b.queries, b.corpus, pairs, p, u, cfg).value.item()

        lg = trainer.epoch_loss(b.queries, b.corpus, pairs, params, uparams, cfg)
        leaves = [lg.theta[n] for n, _ in mtpp.param_order(params.config)]
        leaves += [lg.phi[n] for n in unwarp.PHI_ORDER]
        grads = lg.tape.backward(lg.value, wrt=leaves)
        grad = np.concatenate([np.ravel(grads[v]) for v in leaves])
        x0 = np.concatenate([params.flatten(), uparams.flatten()])
        direction = ref.unit(rng.normal(size=x0.size))
        central, gap = ref.fd_bracket(loss_at, x0, directions=[direction])
        tape_proj = float(grad @ direction)
        if not ref.in_bracket(tape_proj, central, gap, 1e-6 * max(1.0, abs(tape_proj))):
            problems.append(f"batch loss derivative: finite differences {central[0]!r} "
                            f"+- {gap[0]:.3g}, tape {tape_proj!r}")

        # 2. pooled exhaustive MAP of the trained cross scorer on the test split
        # (exhaustive evaluation never consults the encoder or the index)
        pipeline = retrieval.Pipeline(
            corpus=b.corpus, score_params=cross.params, score_unwarp=cross.unwarp,
            index_params=self_model.params, index_unwarp=self_model.unwarp,
            encoder=None, index=None, vectors={}, excluded=[],
            config=retrieval.PipelineConfig(gamma=cfg.gamma))
        report, results = retrieval.evaluate_protocol(
            pipeline, b.queries, b.judgments, state.split.test,
            pool_negatives=README_POOL_NEGATIVES, seed=0, exhaustive=True)
        aps, chance = [], []
        for r in results:
            positives = b.judgments.positives(r.query_id)
            if not ref.is_ranked(r.ranking):
                problems.append(f"{r.query_id}: ranking not sorted by score and id")
            aps.append(ref.average_precision([c for c, _ in r.ranking], positives))
            chance.append(ref.chance_average_precision(len(r.ranking), len(positives)))
        test_map = float(np.mean(aps))
        if not ref.close(test_map, report.map, 1e-12):
            problems.append(f"test MAP {report.map!r} but reference AP gives {test_map!r}")
        if not test_map > float(np.mean(chance)):
            problems.append(f"test MAP {test_map:.4f} not above chance {np.mean(chance):.4f}")

        # 3. checkpoints read back equal to what was saved
        paths = []
        for variant, result in (("cross", cross), ("self", self_model)):
            path = self.out / f"{variant}.ckpt"
            mtpp.save_checkpoint(path, result.params, result.unwarp)
            p, u = mtpp.load_checkpoint(path)
            if (p.config != result.params.config or u.config != result.unwarp.config
                    or not np.array_equal(p.flatten(), result.params.flatten())
                    or not np.array_equal(u.flatten(), result.unwarp.flatten())):
                problems.append(f"{variant} checkpoint does not read back equal")
            paths.append(path)
        return problems, {"quality": test_map, "artifact_bytes": file_bytes(paths),
                          "chance": float(np.mean(chance))}

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        good = [op for op in ops if op.ok]
        return {"throughput_per_s": sum(op.items for op in good) / sum(op.seconds for op in good)}

    def layer_metrics(self, tracer, ops: list[Op], state: TrainState) -> dict[str, float]:
        init = mtpp.ModelParams.init(self.config("self").model_config(),
                                     np.random.default_rng(0))
        first = state.bench.corpus[sorted(state.bench.corpus)[0]]
        return layer_metrics(tracer, len(ops), init, first)


# -- index ----------------------------------------------------------------------

INDEX_STRATA = (20, 35, 50, 65, 80, 95, 110, 125)  # window lengths, all <= n_max
INDEX_BASES_PER_STRATUM = 2
INDEX_WINDOWS_PER_BASE = 25  # one per base becomes the generator's query
INDEX_N_MAX = 128  # the CLI default capacity
INDEX_GEN_SEED = 100
INDEX_HASH = dict(n_bits=16, hidden=64, epochs=200, learning_rate=0.01, tables=10,
                  bits_per_table=4, seed=0)  # README ``seqret index`` flags


@dataclass
class IndexState:
    corpus: dict
    params: mtpp.ModelParams
    unwarp: unwarp.UnwarpParams


class IndexWorkload:
    """Embed a corpus of long sequences and build, write and read the index.

    The corpus is eight length strata of 48 sequences each (20 to 125
    events, 384 in all), each stratum drawn by ``make_benchmark``.  The
    self model comes from a fixed-seed initialisation and the hash seed is
    the README's 0, so the input, the index and its reduction are the same
    on every run; the run seed picks the vector the finite-difference
    check samples.  Neither the trainer nor the unwarp runs.
    """

    name = "index"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> IndexState:
        corpus = {}
        for i, length in enumerate(INDEX_STRATA):
            bench = datagen.make_benchmark(datagen.GenConfig(
                n_bases=INDEX_BASES_PER_STRATUM,
                subs_range=(INDEX_WINDOWS_PER_BASE, INDEX_WINDOWS_PER_BASE),
                window_range=(length, length), seed=INDEX_GEN_SEED + i))
            for cid, s in bench.corpus.items():
                corpus[f"s{i}{cid}"] = sequences.EventSequence(f"s{i}{cid}", s.times,
                                                               s.marks, s.horizon)
        cfg = trainer.TrainConfig(variant="self", n_max=INDEX_N_MAX,
                                  unwarp_hidden=README_TRAIN["unwarp_hidden"],
                                  n_quad=README_TRAIN["n_quad"])
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0])
        params = mtpp.ModelParams.init(cfg.model_config(), rng, scale=cfg.init_scale)
        uparams = unwarp.UnwarpParams.init(cfg.unwarp_config(), rng, scale=cfg.init_scale)
        path = self.out / "index_model.ckpt"
        mtpp.save_checkpoint(path, params, uparams)
        params, uparams = mtpp.load_checkpoint(path)
        return IndexState(corpus, params, uparams)

    def _build_write_read(self, state: IndexState):
        config = retrieval.PipelineConfig(hash=hashing.HashConfig(**INDEX_HASH))
        t0 = perf_counter()
        pipeline = retrieval.build_pipeline(state.corpus, state.params, state.unwarp,
                                            state.params, state.unwarp, config)
        build_s = perf_counter() - t0
        paths = [self.out / n for n in ("vectors.bin", "encoder.bin", "index.bin")]
        retrieval.save_vectors(paths[0], pipeline.vectors)
        hashing.save_encoder(paths[1], pipeline.encoder)
        hashing.save_index(paths[2], pipeline.index)
        back = (retrieval.load_vectors(paths[0]), hashing.load_encoder(paths[1]),
                hashing.load_index(paths[2]))
        return pipeline, back, build_s, file_bytes(paths)

    def round(self, state: IndexState) -> list[Op]:
        result, secs, ok = timed(self._build_write_read, state)
        if not ok:
            return [Op(secs, 0, False)]
        pipeline, back, build_s, nbytes = result
        return [Op(secs, len(pipeline.vectors), True, (pipeline, back),
                   {"build_s": build_s, "bytes": nbytes})]

    def check(self, state: IndexState, ops: list[Op]) -> tuple[list[str], dict]:
        good = [op for op in ops if op.ok]
        if not good:
            return ["no index build succeeded"], {}
        pipeline, (vectors, encoder, index) = good[-1].result
        problems: list[str] = []
        ids = sorted(pipeline.vectors)
        if pipeline.excluded:
            problems.append(f"{len(pipeline.excluded)} sequences excluded from the index")

        # artifacts read back equal to what was written
        if sorted(vectors) != ids or any(not np.array_equal(vectors[c], pipeline.vectors[c])
                                         for c in ids):
            problems.append("vectors do not read back equal")
        psi, psi_back = pipeline.encoder.psi, encoder.psi
        if any(not np.array_equal(psi.arrays[n], psi_back.arrays[n]) for n in psi.NAMES):
            problems.append("encoder does not read back equal")
        built = pipeline.index
        if (index.n_bits != built.n_bits or index.seed != built.seed
                or index.corpus_ids != built.corpus_ids
                or not np.array_equal(index.positions, built.positions)
                or index.buckets != built.buckets):
            problems.append("index does not read back equal")

        # unit norms
        matrix = np.stack([vectors[c] for c in ids])
        worst = float(np.max(np.abs(np.linalg.norm(matrix, axis=1) - 1.0)))
        if worst > 1e-12:
            problems.append(f"vector norm off unit by {worst:.3e}")

        # buckets partition the ids, under keys recomputed from the codes
        a = psi_back.arrays
        codes = ref.sign_codes(matrix, a["W1"], a["b1"], a["W2"], a["b2"])
        program_codes = np.stack([encoder.encode(vectors[c]) for c in ids])
        if not np.array_equal(codes, program_codes):
            problems.append("encoder codes differ from the reference code network")
        for t, table in enumerate(index.buckets):
            members = sorted(c for bucket in table.values() for c in bucket)
            if members != ids:
                problems.append(f"table {t} buckets do not partition the indexed ids")
            where = {c: key for key, bucket in table.items() for c in bucket}
            for row, cid in enumerate(ids):
                if where.get(cid) != ref.bucket_key(codes[row], index.positions[t]):
                    problems.append(f"table {t}: {cid} sits in the wrong bucket")
                    break

        # one sampled vector against the normalized finite-difference gradient
        # (drawn from the shortest stratum to bound the cost of the reference)
        rng = np.random.default_rng(self.seed)
        short = [c for c in ids if c.startswith("s0")]
        cid = short[int(rng.integers(len(short)))]
        error = ref.direction_error(vectors[cid], *fd_loglik_gradient(state.corpus[cid],
                                                                      state.params))
        if error > 1e-6:
            problems.append(f"{cid}: vector off the finite-difference gradient by {error:.3e}")

        # share of the corpus a lookup with an indexed sequence's own code skips
        sizes = [len(hashing.candidate_lookup(index, code)) for code in codes]
        reduction = 1.0 - float(np.mean(sizes)) / len(ids)
        return problems, {"quality": reduction, "artifact_bytes": good[-1].extra["bytes"]}

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        good = [op for op in ops if op.ok]
        return {"throughput_per_s": sum(op.items for op in good)
                / sum(op.extra["build_s"] for op in good)}

    def layer_metrics(self, tracer, ops: list[Op], state: IndexState) -> dict[str, float]:
        first = state.corpus[sorted(state.corpus)[0]]
        return layer_metrics(tracer, len(ops), state.params, first)


# -- query ----------------------------------------------------------------------

QUERY_BENCH = dict(n_bases=100, subs_range=(10, 14), window_range=(10, 20), seed=2024)
QUERY_HASH = dict(n_bits=16, hidden=64, epochs=200, learning_rate=0.01, tables=10,
                  bits_per_table=14, seed=0)
QUERY_K = 10
QUERY_FD_PAIRS = 2
QUERY_FILES = ("score.ckpt", "index_model.ckpt", "encoder.bin", "index.bin")


def prepare_query(cache: Path) -> None:
    """Artifacts the query workload loads: the README-trained cross scorer
    and self index model, a 100-base corpus of short sequences with its
    queries and complete judgments, and its trained encoder and index.
    They do not depend on the run seed, so they are built once per
    checkout and reused."""
    bench = datagen.make_benchmark(datagen.GenConfig(**README_BENCH))
    split = sequences.split_queries(sorted(bench.queries), seed=SPLIT_SEED)
    models = {}
    for variant, name in (("cross", "score.ckpt"), ("self", "index_model.ckpt")):
        config = trainer.TrainConfig(variant=variant, epochs=README_EPOCHS, **README_TRAIN)
        result = trainer.train(bench.corpus, bench.queries, bench.judgments, config,
                               split.train, split.valid)
        mtpp.save_checkpoint(cache / name, result.params, result.unwarp)
        models[variant] = (result.params, result.unwarp)
    qb = datagen.make_benchmark(datagen.GenConfig(**QUERY_BENCH))
    sequences.save_corpus(qb.corpus, cache / "corpus.jsonl")
    sequences.save_corpus(qb.queries, cache / "queries.jsonl")
    sequences.save_judgments(qb.judgments, cache / "judgments.tsv")
    config = retrieval.PipelineConfig(gamma=GAMMA, hash=hashing.HashConfig(**QUERY_HASH))
    pipeline = retrieval.build_pipeline(qb.corpus, *models["cross"], *models["self"], config)
    hashing.save_encoder(cache / "encoder.bin", pipeline.encoder)
    hashing.save_index(cache / "index.bin", pipeline.index)


def prepare_recipe() -> str:
    """Everything ``prepare_query`` builds from, for the cache key."""
    return "\n".join([inspect.getsource(prepare_query), repr(README_BENCH),
                      repr(README_TRAIN), repr(README_EPOCHS), repr(QUERY_BENCH),
                      repr(QUERY_HASH), repr(GAMMA), repr(SPLIT_SEED)])


def first_answers(ops: list[Op]) -> dict:
    """Each query's first successful result (every round repeats them)."""
    first = {}
    for op in ops:
        if op.ok:
            first.setdefault(op.extra["query"], op.result)
    return first


@dataclass
class QueryState:
    pipeline: retrieval.Pipeline
    queries: dict


class QueryWorkload:
    """Hashed top-10 queries, one at a time, from one client in a closed loop.

    One round sends every query of the 100-query pool once, in an order
    drawn from the run seed; the run repeats whole rounds.  Set-up is what
    ``seqret query`` does before its first query: load the corpus, both
    checkpoints, the encoder, the index and the queries.
    """

    name = "query"

    def __init__(self, seed: int, out: Path, cache: Path):
        self.seed = seed
        self.out = out
        self.cache = cache

    def setup(self) -> QueryState:
        c = self.cache
        score_params, score_unwarp = mtpp.load_checkpoint(c / "score.ckpt")
        index_params, index_unwarp = mtpp.load_checkpoint(c / "index_model.ckpt")
        mark_count = score_params.config.mark_count
        corpus = sequences.load_corpus(c / "corpus.jsonl", mark_count=mark_count)
        encoder = hashing.load_encoder(c / "encoder.bin")
        index = hashing.load_index(c / "index.bin")
        scoreable = {cid: corpus[cid] for cid in index.corpus_ids}
        pipeline = retrieval.Pipeline(
            corpus=scoreable, score_params=score_params, score_unwarp=score_unwarp,
            index_params=index_params, index_unwarp=index_unwarp, encoder=encoder,
            index=index, vectors={}, excluded=[cid for cid in corpus if cid not in scoreable],
            config=retrieval.PipelineConfig(gamma=GAMMA))
        queries = sequences.load_corpus(c / "queries.jsonl", mark_count=mark_count)
        return QueryState(pipeline, queries)

    def order(self, state: QueryState) -> list[str]:
        ids = sorted(state.queries)
        return [ids[i] for i in np.random.default_rng(self.seed).permutation(len(ids))]

    def round(self, state: QueryState) -> list[Op]:
        ops = []
        for qid in self.order(state):
            result, secs, ok = timed(retrieval.query_topk, state.pipeline,
                                     state.queries[qid], k=QUERY_K)
            ops.append(Op(secs, 1, ok, result, {"query": qid}))
        return ops

    def check(self, state: QueryState, ops: list[Op]) -> tuple[list[str], dict]:
        problems: list[str] = []
        pl = state.pipeline
        judgments = sequences.load_judgments(self.cache / "judgments.tsv")
        first = first_answers(ops)
        if len(first) != len(state.queries):
            problems.append(f"only {len(first)} of {len(state.queries)} queries answered")
        a = pl.encoder.psi.arrays
        n_corpus = len(pl.corpus)
        ndcgs, chance = [], []
        for qid, r in sorted(first.items()):
            ranked = [c for c, _ in r.ranking]
            if len(ranked) > QUERY_K or len(set(ranked)) != len(ranked) or not ref.is_ranked(r.ranking):
                problems.append(f"{qid}: ranking is not a sorted top-{QUERY_K}")
            # candidates: union of the query's buckets, recomputed here
            uq = unwarp.unwarp_sequence(state.queries[qid], pl.index_unwarp)
            vq = relevance.fisher_vector(uq, pl.index_params).vector
            code = ref.sign_codes(vq[None, :], a["W1"], a["b1"], a["W2"], a["b2"])[0]
            union = set()
            for t, table in enumerate(pl.index.buckets):
                union.update(table.get(ref.bucket_key(code, pl.index.positions[t]), ()))
            expected = len(union) if union else n_corpus
            if r.fallback != (not union) or r.comparisons != expected:
                problems.append(f"{qid}: {r.comparisons} comparisons, expected {expected}")
            if union and not set(ranked) <= union:
                problems.append(f"{qid}: returned ids outside its buckets")
            positives = judgments.positives(qid)
            ndcgs.append(ref.ndcg_at_k(ranked, positives, QUERY_K))
            chance.append(ref.chance_ndcg_at_k(n_corpus, len(positives), QUERY_K))
            program = retrieval.ndcg_at_k(ranked, set(positives), QUERY_K)
            if not ref.close(ndcgs[-1], program, 1e-12):
                problems.append(f"{qid}: NDCG {program!r} but reference gives {ndcgs[-1]!r}")
        ndcg10 = float(np.mean(ndcgs)) if ndcgs else 0.0
        if not ndcg10 > float(np.mean(chance or [1.0])):
            problems.append(f"NDCG@10 {ndcg10:.4f} not above chance {np.mean(chance):.4f}")

        # sampled returned pairs against a finite-difference kernel plus the
        # paper's time and mark distances
        rng = np.random.default_rng(self.seed)
        answered = sorted(q for q, r in first.items() if len(r.ranking) >= QUERY_FD_PAIRS)
        if answered:
            qid = answered[int(rng.integers(len(answered)))]
            ranking = first[qid].ranking
            picks = sorted(rng.choice(len(ranking), size=QUERY_FD_PAIRS, replace=False))
            q = state.queries[qid]
            uq = unwarp.unwarp_sequence(q, pl.score_unwarp)
            fd_q = fd_loglik_gradient(uq, pl.score_params, conditioning=uq)
            vq = relevance.fisher_vector(uq, pl.score_params, conditioning=uq).vector
            error = ref.direction_error(vq, *fd_q)
            if error > 1e-6:
                problems.append(f"{qid}: query vector off the finite differences by {error:.3e}")
            for i in picks:
                cid, score = ranking[i]
                c = pl.corpus[cid]
                fd_c = fd_loglik_gradient(c, pl.score_params, conditioning=uq)
                vc = relevance.fisher_vector(c, pl.score_params, conditioning=uq).vector
                error = ref.direction_error(vc, *fd_c)
                if error > 1e-6:
                    problems.append(f"{cid}: vector off the finite differences by {error:.3e}")
                kernel, bound = ref.kernel_bound(*fd_q, *fd_c)
                T = max(uq.horizon, c.horizon)
                sim = -(ref.time_distance(uq.times, c.times, T)
                        + ref.mark_distance(q.marks, c.marks))
                expected = kernel + GAMMA * sim
                if abs(score - expected) > 1e-6 + bound:
                    problems.append(f"({qid}, {cid}): score {score!r}, finite-difference "
                                    f"reference {expected!r} +- {bound:.3g}")
        else:
            problems.append("no query returned enough results to sample")
        return problems, {"quality": ndcg10,
                          "artifact_bytes": file_bytes(self.cache / n for n in QUERY_FILES),
                          "chance": float(np.mean(chance or [0.0]))}

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        good = [op for op in ops if op.ok]
        return {"throughput_per_s": len(good) / sum(op.seconds for op in good)}

    def layer_metrics(self, tracer, ops: list[Op], state: QueryState) -> dict[str, float]:
        seq = state.pipeline.corpus[sorted(state.pipeline.corpus)[0]]
        return layer_metrics(tracer, len(ops), state.pipeline.index_params, seq,
                             hashed=list(first_answers(ops).values()))
