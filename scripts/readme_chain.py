#!/usr/bin/env python3
"""The README quick start, steps 1-7, in one command.

Runs ``gen``, both ``train`` calls, ``index``, ``query``, ``eval`` and
``bench`` with the README's flags through ``seqret.cli.main``, writing
``data/``, ``model_cross/``, ``model_self/``, ``index/`` and ``run/``
under OUT.  Every output file is byte-deterministic, so two checkouts can
be compared with ``diff -r``::

    python3 scripts/readme_chain.py /tmp/chain_a
    python3 other/scripts/readme_chain.py /tmp/chain_b
    diff -r /tmp/chain_a /tmp/chain_b

Each step uses the ``src/`` next to this script, not an installed seqret.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqret.cli import main as seqret

TRAIN = ["--n-max", "24", "--unwarp-hidden", "16:16", "--n-quad", "24",
         "--unbias-sigma", "3.0", "--negatives", "24", "--pairs-cap", "24",
         "--batch-queries", "8", "--epochs", "4", "--lr", "0.02", "--seed", "0"]


def steps(out: Path) -> list[list[str]]:
    data, index, run = out / "data", out / "index", out / "run"
    judged = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
              "--judgments", str(data / "judgments.tsv")]
    pipeline = ["--corpus", str(data / "corpus.jsonl"),
                "--score-checkpoint", str(out / "model_cross" / "checkpoint.bin"),
                "--index-checkpoint", str(out / "model_self" / "checkpoint.bin"),
                "--encoder", str(index / "encoder.bin"), "--index", str(index / "index.bin")]
    evaluated = pipeline + ["--queries", str(data / "queries.jsonl"),
                            "--judgments", str(data / "judgments.tsv"),
                            "--split-file", str(out / "model_cross" / "split.tsv"),
                            "--pool-negatives", "50"]
    return [
        ["gen", "--out", str(data), "--bases", "20", "--seed", "7"],
        ["train", "--out", str(out / "model_cross"), *judged, "--variant", "cross", *TRAIN],
        ["train", "--out", str(out / "model_self"), *judged, "--variant", "self", *TRAIN],
        ["index", "--out", str(index), "--corpus", str(data / "corpus.jsonl"),
         "--checkpoint", str(out / "model_self" / "checkpoint.bin"),
         "--bits", "16", "--hash-epochs", "200", "--bits-per-table", "4", "--seed", "0"],
        ["query", "--out", str(run), *pipeline,
         "--queries", str(data / "queries.jsonl"), "--k", "10"],
        ["eval", "--out", str(run), *evaluated, "--mode", "both"],
        ["bench", "--out", str(run), *evaluated, "--bits-grid", "4:6:8"],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    parser.add_argument("out", help="output directory")
    args = parser.parse_args(argv)
    for number, argv_step in enumerate(steps(Path(args.out)), start=1):
        print(f"step {number}: seqret {argv_step[0]}", file=sys.stderr)
        status = seqret(argv_step)
        if status:
            return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
