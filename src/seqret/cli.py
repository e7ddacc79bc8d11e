"""Command line entry points: gen, train, index, query, eval, bench.

Every subcommand accepts --config FILE with one key=value per line.  Keys
are the long flag names with underscores (``unwarp`` for ``--no-unwarp``);
each value takes its flag's type and choices, a switch takes ``true`` or
``false``.  Explicit flags win over file values, and required path flags
always go on the command line.  Failures print a single machine-parseable line
``error\t<type>\t<message>`` to stderr and exit with status 1.  ``query``
writes each query it cannot rank as ``query_id\t<type>\t<message>`` to
``failures.tsv`` and fails only when every query does.  ``eval`` leaves
such a query out of its metrics and names it as ``query_id:<type>`` in a
``failed`` row of the report, written only when a query failed; ``bench``
leaves it out the same way and names it on stderr.  Both fail only when
no query could be evaluated.

Randomness flows from one --seed per command.  gen spawns a child
stream per base; train spawns, in order, init / pair sampling / noise /
validation pools; index spawns net-init / hyperplanes / bit positions;
eval uses the seed for negative pooling.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import datagen, retrieval, trainer
from ._opt import TrainingDivergedError
from .artifact import ArtifactError
from .autodiff import DomainError
from .hashing import HashConfig, build_index, load_encoder, load_index, save_encoder, save_index
from .mtpp import checkpoint_sha256, load_checkpoint, save_checkpoint
from .relevance import VanishingGradientError
from .sequences import (
    CorpusFormatError,
    load_corpus,
    load_judgments,
    save_corpus,
    save_judgments,
    split_queries,
)

__all__ = ["main"]

_ERRORS = (ValueError, KeyError, OSError, CorpusFormatError,
           TrainingDivergedError, DomainError, VanishingGradientError)


def _parse_range(text: str, cast, parts: int = 2):
    fields = text.split(":")
    if len(fields) != parts:
        raise ValueError(f"expected {parts} ':'-separated values, got {text!r}")
    return tuple(cast(f) for f in fields)


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _config_value(key: str, raw: str, action: argparse.Action):
    """``raw`` converted by the type and choices of the flag behind ``key``."""
    if action.nargs == 0:  # store_true / store_false
        if raw not in ("true", "false"):
            raise ValueError(f"config key {key!r}: expected true or false, got {raw!r}")
        return raw == "true"
    try:
        value = action.type(raw) if action.type else raw
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {raw!r} is not one of {tuple(action.choices)}")
    return value


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; --config values become defaults, so explicit flags win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    (commands,) = (a for a in parser._actions if a.dest == "command")
    command = commands.choices[args.command]
    flags = {a.dest: a for a in command._actions
             if a.option_strings and a.dest not in ("help", "config")}
    defaults = {}
    for key, raw in _read_config_file(args.config).items():
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a flag of this command")
        defaults[key] = _config_value(key, raw, flags[key])
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _shared(parser: argparse.ArgumentParser, out_required: bool = True) -> None:
    parser.add_argument("--config", help="key=value file of flag defaults")
    parser.add_argument("--seed", type=int, default=0, help="root seed of this command")
    parser.add_argument("--out", required=out_required, help="output directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- gen -----------------------------------------------------------------------

def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate a synthetic retrieval benchmark",
                       allow_abbrev=False)
    _shared(p)
    p.add_argument("--bases", type=int, default=80, help="number of base processes")
    p.add_argument("--subs", default="20:30", help="windows per base, lo:hi")
    p.add_argument("--window", default="10:20", help="events per window, lo:hi")
    p.add_argument("--marks", type=int, default=5, help="mark vocabulary size")
    p.add_argument("--mu", default="-1.0:0.0", help="log-gap mean range, lo:hi")
    p.add_argument("--sigma", default="0.3:0.8", help="log-gap sd range, lo:hi")
    p.add_argument("--alpha", type=float, default=0.8, help="Dirichlet mark prior")
    p.add_argument("--warp", default="affine", choices=datagen.WARP_KINDS,
                   help="query time distortion family")
    p.add_argument("--warp-range", default="0.5:2.0", help="affine coefficient range")


def _run_gen(args) -> int:
    config = datagen.GenConfig(
        n_bases=args.bases,
        subs_range=_parse_range(args.subs, int),
        window_range=_parse_range(args.window, int),
        mu_range=_parse_range(args.mu, float),
        sigma_range=_parse_range(args.sigma, float),
        mark_count=args.marks,
        dirichlet_alpha=args.alpha,
        warp=args.warp,
        warp_range=_parse_range(args.warp_range, float),
        seed=args.seed,
    )
    bench = datagen.make_benchmark(config)
    out = _out_dir(args)
    save_corpus(bench.corpus, out / "corpus.jsonl")
    save_corpus(bench.queries, out / "queries.jsonl")
    save_judgments(bench.judgments, out / "judgments.tsv")
    with open(out / "meta.tsv", "w", encoding="utf-8") as fh:
        for key, value in sorted(bench.summary().items()):
            fh.write(f"{key}\t{value:.12g}\n")
        for base_id in sorted(bench.bases):
            b = bench.bases[base_id]
            fh.write(f"base\t{base_id}\t{b.mu:.12g}\t{b.sigma:.12g}\t{b.warp_kind}"
                     f"\t{b.warp_coeff:.12g}\t{b.query_source}\n")
    print(f"wrote {len(bench.corpus)} corpus and {len(bench.queries)} query "
          f"sequences to {out}")
    return 0


# -- train ---------------------------------------------------------------------

def _add_train(sub) -> None:
    p = sub.add_parser("train", help="fit the relevance model and query unwarp",
                       allow_abbrev=False)
    _shared(p)
    p.add_argument("--corpus", required=True, help="corpus JSONL")
    p.add_argument("--queries", required=True, help="query JSONL")
    p.add_argument("--judgments", required=True, help="judgments TSV")
    p.add_argument("--variant", default="cross", choices=("cross", "self"),
                   help="attention conditioning of the scoring model")
    p.add_argument("--dim", type=int, default=16, help="model width")
    p.add_argument("--marks", type=int, default=5, help="mark vocabulary size")
    p.add_argument("--n-max", type=int, default=128, help="longest supported sequence")
    p.add_argument("--blocks", type=int, default=1, help="attention blocks")
    p.add_argument("--no-unwarp", dest="unwarp", action="store_false",
                   help="freeze the unwarp at identity")
    p.add_argument("--unwarp-hidden", default="128:128", help="rate net widths")
    p.add_argument("--n-quad", type=int, default=64, help="quadrature panels per segment")
    p.add_argument("--noise-sigma", type=float, default=0.01,
                   help="training-time jitter on unwarped times")
    p.add_argument("--unbias-sigma", type=float, default=1.0,
                   help="the unbiasedness penalty is weighted by 1/sigma^2; inf turns it off")
    p.add_argument("--margin", type=float, default=0.5, help="ranking hinge margin")
    p.add_argument("--gamma", type=float, default=0.1, help="weight of the distance term")
    p.add_argument("--l2", type=float, default=0.001, help="decoupled weight decay")
    p.add_argument("--negatives", type=int, default=100, help="negatives per query")
    p.add_argument("--pairs-cap", type=int, default=1000, help="pairs per query cap")
    p.add_argument("--batch-queries", type=int, default=16, help="queries per step")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01, help="Adam learning rate")
    p.add_argument("--eval-negatives", type=int, default=100,
                   help="validation pool negatives per query")
    p.add_argument("--split", default="0.5:0.1:0.4",
                   help="train:valid:test query fractions")


def _run_train(args) -> int:
    corpus = load_corpus(args.corpus, mark_count=args.marks)
    queries = load_corpus(args.queries, mark_count=args.marks)
    judgments = load_judgments(args.judgments)
    judgments.validate_ids(queries, corpus)
    fractions = _parse_range(args.split, float, parts=3)
    split = split_queries(sorted(queries), fractions, seed=args.seed)
    config = trainer.TrainConfig(
        variant=args.variant, dim=args.dim, mark_count=args.marks, n_max=args.n_max,
        num_blocks=args.blocks,
        unwarp_hidden=_parse_range(args.unwarp_hidden, int),
        n_quad=args.n_quad, noise_sigma=args.noise_sigma, unbias_sigma=args.unbias_sigma,
        unwarp_enabled=args.unwarp, margin=args.margin, gamma=args.gamma,
        l2=args.l2, negatives_per_query=args.negatives, pairs_per_query=args.pairs_cap,
        batch_queries=args.batch_queries, epochs=args.epochs, learning_rate=args.lr,
        eval_negatives=args.eval_negatives, seed=args.seed,
    )
    result = trainer.train(corpus, queries, judgments, config,
                           split.train, split.valid)
    out = _out_dir(args)
    save_checkpoint(out / "checkpoint.bin", result.params, result.unwarp)
    with open(out / "curve.tsv", "w", encoding="utf-8") as fh:
        fh.write("epoch\tloss\tpair_loss\tval_map\tn_pairs\n")
        for row in result.history:
            val = f"{row.val_map:.12g}" if row.val_map is not None else "-"
            fh.write(f"{row.epoch}\t{row.loss:.12g}\t{row.pair_loss:.12g}"
                     f"\t{val}\t{row.n_pairs}\n")
    with open(out / "split.tsv", "w", encoding="utf-8") as fh:
        for role in ("train", "valid", "test"):
            for qid in sorted(getattr(split, role)):
                fh.write(f"{qid}\t{role}\n")
    best = result.history[result.best_epoch].val_map if result.history else None
    print(f"best epoch {result.best_epoch}"
          + (f" with validation map {best:.4f}" if best is not None else "")
          + f"; checkpoint at {out / 'checkpoint.bin'}")
    return 0


# -- index ---------------------------------------------------------------------

def _add_index(sub) -> None:
    p = sub.add_parser("index", help="extract corpus vectors and build the hash index",
                       allow_abbrev=False)
    _shared(p)
    p.add_argument("--corpus", required=True, help="corpus JSONL")
    p.add_argument("--checkpoint", required=True,
                   help="self-variant checkpoint for gradient vectors")
    p.add_argument("--encoder", default="trained", choices=("trained", "random"),
                   help="code network or fixed hyperplanes")
    p.add_argument("--bits", type=int, default=16, help="code width")
    p.add_argument("--hidden", type=int, default=64, help="code net hidden width")
    p.add_argument("--hash-epochs", type=int, default=200, help="code net epochs")
    p.add_argument("--hash-lr", type=float, default=0.01, help="code net learning rate")
    p.add_argument("--etas", default="0.4:0.3:0.3",
                   help="balance:saturation:decorrelation weights")
    p.add_argument("--tables", type=int, default=10, help="hash tables")
    p.add_argument("--bits-per-table", type=int, default=12, help="bits sliced per table")


def _hash_config(args) -> HashConfig:
    return HashConfig(n_bits=args.bits, hidden=args.hidden, epochs=args.hash_epochs,
                      learning_rate=args.hash_lr,
                      etas=_parse_range(args.etas, float, parts=3),
                      tables=args.tables, bits_per_table=args.bits_per_table,
                      seed=args.seed)


def _run_index(args) -> int:
    params, unwarp = load_checkpoint(args.checkpoint)
    if params.config.variant != "self":
        raise ValueError("indexing needs a self-variant checkpoint")
    corpus = load_corpus(args.corpus, mark_count=params.config.mark_count)
    config = retrieval.PipelineConfig(hash=_hash_config(args), encoder_kind=args.encoder)
    pipeline = retrieval.build_pipeline(corpus, params, unwarp, params, unwarp, config)
    out = _out_dir(args)
    save_encoder(out / "encoder.bin", pipeline.encoder)
    save_index(out / "index.bin", pipeline.index)
    with open(out / "index_meta.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"sequences\t{len(pipeline.vectors)}\n")
        fh.write(f"bits\t{args.bits}\ntables\t{args.tables}\n")
        fh.write(f"bits_per_table\t{args.bits_per_table}\nencoder\t{args.encoder}\n")
        fh.write(f"excluded\t{','.join(pipeline.excluded) or '-'}\n")
    print(f"indexed {len(pipeline.vectors)} sequences "
          f"({len(pipeline.excluded)} excluded) into {out}")
    return 0


# -- query / eval shared loading -------------------------------------------------

def _pipeline_flags(p) -> None:
    p.add_argument("--corpus", required=True, help="corpus JSONL")
    p.add_argument("--score-checkpoint", required=True, help="scoring model checkpoint")
    p.add_argument("--index-checkpoint", required=True,
                   help="self-variant checkpoint behind the index")
    p.add_argument("--encoder", required=True, help="encoder file from `index`")
    p.add_argument("--index", required=True, help="index file from `index`")
    p.add_argument("--gamma", type=float, default=0.1, help="weight of the distance term")


def _load_pipeline(args) -> retrieval.Pipeline:
    score_params, score_unwarp = load_checkpoint(args.score_checkpoint)
    index_params, index_unwarp = load_checkpoint(args.index_checkpoint)
    if index_params.config.variant != "self":
        raise ValueError("index checkpoint must be the self variant")
    corpus = load_corpus(args.corpus, mark_count=score_params.config.mark_count)
    encoder = load_encoder(args.encoder)
    index = load_index(args.index)
    if index.model_sha256 != checkpoint_sha256(index_params, index_unwarp):
        raise ArtifactError(f"{args.index}: built from a different model than "
                            f"{args.index_checkpoint}")
    missing = [cid for cid in index.corpus_ids if cid not in corpus]
    if missing:
        raise ValueError(f"index references {len(missing)} sequences missing from "
                         f"the corpus, first {missing[0]!r}")
    scoreable = {cid: corpus[cid] for cid in index.corpus_ids}
    excluded = [cid for cid in corpus if cid not in scoreable]
    config = retrieval.PipelineConfig(gamma=args.gamma)
    return retrieval.Pipeline(corpus=scoreable, score_params=score_params,
                              score_unwarp=score_unwarp, index_params=index_params,
                              index_unwarp=index_unwarp, encoder=encoder, index=index,
                              vectors={}, excluded=excluded, config=config)


def _add_query(sub) -> None:
    p = sub.add_parser("query", help="rank the corpus for a file of queries",
                       allow_abbrev=False)
    _shared(p)
    _pipeline_flags(p)
    p.add_argument("--queries", required=True, help="query JSONL")
    p.add_argument("--k", type=int, default=10, help="results per query")
    p.add_argument("--exhaustive", action="store_true",
                   help="score the whole corpus instead of hash candidates")


def _run_query(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    pipeline = _load_pipeline(args)
    queries = load_corpus(args.queries,
                          mark_count=pipeline.score_params.config.mark_count)
    results, failures = [], []
    for qid in sorted(queries):
        try:
            results.append(retrieval.query_topk(pipeline, queries[qid], k=args.k,
                                                exhaustive=args.exhaustive))
        except _ERRORS as err:
            failures.append(f"{qid}\t{type(err).__name__}\t{err}\n")
    out = _out_dir(args)
    retrieval.write_results(out / "results.tsv", results)
    failed = out / "failures.tsv"
    failed.unlink(missing_ok=True)
    if failures:
        failed.write_text("".join(failures), encoding="utf-8")
    fallbacks = sum(r.fallback for r in results)
    print(f"ranked {len(results)} queries ({fallbacks} fallbacks, {len(failures)} "
          f"failed) into {out / 'results.tsv'}")
    if failures and not results:
        raise ValueError(f"all {len(failures)} queries failed; reasons in {failed}")
    return 0


def _read_split_role(path: str, role: str) -> list[str]:
    ids: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if len(fields) == 2 and fields[1] == role:
                ids.append(fields[0])
    if not ids:
        raise ValueError(f"no {role!r} queries in {path}")
    return ids


def _eval_flags(p) -> None:
    _shared(p)
    _pipeline_flags(p)
    p.add_argument("--queries", required=True, help="query JSONL")
    p.add_argument("--judgments", required=True, help="judgments TSV")
    p.add_argument("--split-file", help="split.tsv from train; evaluates the test role")


def _eval_inputs(args):
    """Pipeline, queries, judgments (checked against both) and test ids."""
    pipeline = _load_pipeline(args)
    queries = load_corpus(args.queries,
                          mark_count=pipeline.score_params.config.mark_count)
    judgments = load_judgments(args.judgments)
    judgments.validate_ids(queries, [*pipeline.corpus, *pipeline.excluded])
    if args.split_file:
        return pipeline, queries, judgments, _read_split_role(args.split_file, "test")
    return pipeline, queries, judgments, sorted(queries)


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="pooled retrieval quality on test queries",
                       allow_abbrev=False)
    _eval_flags(p)
    p.add_argument("--pool-negatives", type=int, default=100,
                   help="sampled negatives per query pool")
    p.add_argument("--mode", default="both", choices=("hashed", "exhaustive", "both"))


def _run_eval(args) -> int:
    pipeline, queries, judgments, test_ids = _eval_inputs(args)
    out = _out_dir(args)
    modes = ("hashed", "exhaustive") if args.mode == "both" else (args.mode,)
    for mode in modes:
        report, results = retrieval.evaluate_protocol(
            pipeline, queries, judgments, test_ids,
            pool_negatives=args.pool_negatives, seed=args.seed,
            exhaustive=(mode == "exhaustive"))
        retrieval.write_report(out / f"report_{mode}.tsv", report)
        retrieval.write_results(out / f"results_{mode}.tsv", results)
        print(f"mode={mode} queries={report.n_queries} map={report.map:.4f} "
              f"ndcg@10={report.ndcg[10]:.4f} reduction={report.reduction:.4f}")
    return 0


# -- bench -----------------------------------------------------------------------

def _add_bench(sub) -> None:
    p = sub.add_parser("bench",
                       help="reduction/quality tradeoff across index geometries",
                       allow_abbrev=False)
    _eval_flags(p)
    p.add_argument("--pool-negatives", type=int, default=100)
    p.add_argument("--tables", type=int, default=10, help="hash tables per geometry")
    p.add_argument("--bits-grid", default="4:8:12",
                   help="bits-per-table values to sweep")


def _run_bench(args) -> int:
    pipeline, queries, judgments, test_ids = _eval_inputs(args)
    codes = dict(zip(pipeline.index.corpus_ids, pipeline.index.codes))
    grid = [int(v) for v in args.bits_grid.split(":")]
    geometries = [(str(bits), build_index(codes, args.tables, bits, args.seed)) for bits in grid]
    out = _out_dir(args)
    rows = []
    for label, index in [("-", None), *geometries]:  # no index: the exhaustive row
        if index is not None:
            pipeline.index = index
        start = time.perf_counter()
        report, _ = retrieval.evaluate_protocol(pipeline, queries, judgments, test_ids,
                                                pool_negatives=args.pool_negatives,
                                                seed=args.seed, exhaustive=index is None)
        if report.failed:
            print(f"failed\t{','.join(report.failed)}", file=sys.stderr)
        rows.append((label, report.reduction, report.ndcg[10], report.map,
                     time.perf_counter() - start))
    # wall-clock seconds go to stdout only; tradeoff.tsv stays byte-deterministic
    header = "bits_per_table\treduction\tndcg@10\tmap"
    print(header + "\tseconds")
    with open(out / "tradeoff.tsv", "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for bits, reduction, ndcg, map_, secs in rows:
            line = f"{bits}\t{reduction:.6f}\t{ndcg:.6f}\t{map_:.6f}"
            print(f"{line}\t{secs:.3f}")
            fh.write(line + "\n")
    return 0


# -- entry ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqret",
        description="retrieval over continuous-time event sequences",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_train(sub)
    _add_index(sub)
    _add_query(sub)
    _add_eval(sub)
    _add_bench(sub)
    return parser


_RUNNERS = {
    "gen": _run_gen,
    "train": _run_train,
    "index": _run_index,
    "query": _run_query,
    "eval": _run_eval,
    "bench": _run_bench,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return _RUNNERS[args.command](args)
    except _ERRORS as err:
        print(f"error\t{type(err).__name__}\t{err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
