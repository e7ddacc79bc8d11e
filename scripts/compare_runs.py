#!/usr/bin/env python3
"""Compare two README-chain output trees, file by file.

    python3 scripts/compare_runs.py A B

A and B are output directories of ``scripts/readme_chain.py``.  Every file
present in either tree is compared, and each file that differs gets one
line: its path, the largest relative difference |a - b| / max(|a|, |b|)
among its numbers and where it sits, and how many numbers differ.

* Text files (``.tsv``, ``.jsonl``) must hold the same rows with the same
  ids and other text fields; a row whose text differs is counted.  In a
  results file (``results*.tsv``: query, rank, id, score, mode) such a
  row is a rank swap, and the first few are listed with both scores, so
  a swap can be checked for a near-tie.
* Binary artifacts are read with ``artifact.read_record``, their kind
  taken from the file name; meta entries and arrays are compared the same
  way.

The report never gates: the exit status is 0 whenever both trees could
be read.  A tree compared with itself prints only the summary line.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqret.artifact import read_record

SHOWN = 5


class Diff:
    """Running tally of one file's differences."""

    def __init__(self):
        self.max_rel = 0.0
        self.where = ""
        self.numbers = 0
        self.text: list[str] = []
        self.swaps: list[str] = []

    def number(self, a: float, b: float, where: str) -> None:
        if a == b or (np.isnan(a) and np.isnan(b)):
            return
        self.numbers += 1
        rel = abs(a - b) / max(abs(a), abs(b))
        if not rel <= self.max_rel:  # a NaN against a number counts as inf
            self.max_rel = rel if np.isfinite(rel) else np.inf
            self.where = where

    def array(self, a: np.ndarray, b: np.ndarray, where: str) -> None:
        if a.shape != b.shape or a.dtype != b.dtype:
            self.text.append(f"{where}: {a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)}")
            return
        x, y = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
        for i in np.flatnonzero(x != y):
            self.number(float(x[i]), float(y[i]), f"{where}[{i}]")

    def line(self, name: str) -> str | None:
        if not (self.numbers or self.text or self.swaps):
            return None
        parts = [name]
        if self.numbers:
            parts.append(f"max rel {self.max_rel:.3g} at {self.where}; "
                         f"{self.numbers} numbers differ")
        if self.swaps:
            parts.append(f"{len(self.swaps)} rank swaps: " + "; ".join(self.swaps[:SHOWN]))
        if self.text:
            parts.append(f"{len(self.text)} text differences: " + "; ".join(self.text[:SHOWN]))
        return "\t".join(parts)


def _as_float(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _fields(path: Path, line: str) -> list:
    if path.suffix == ".jsonl":
        leaves: list = []

        def walk(x):
            if isinstance(x, dict):
                for key in sorted(x):
                    leaves.append(key)
                    walk(x[key])
            elif isinstance(x, list):
                for item in x:
                    walk(item)
            else:
                leaves.append(x)

        walk(json.loads(line))
        return [str(x) if isinstance(x, (str, bool)) or x is None else float(x) for x in leaves]
    return [_as_float(f) if _as_float(f) is not None else f for f in line.split("\t")]


def compare_text(a: Path, b: Path, diff: Diff) -> None:
    rows_a = a.read_text(encoding="utf-8").splitlines()
    rows_b = b.read_text(encoding="utf-8").splitlines()
    if len(rows_a) != len(rows_b):
        diff.text.append(f"{len(rows_a)} rows vs {len(rows_b)}")
    results = a.name.startswith("results")
    for lineno, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        if ra == rb:
            continue
        fa, fb = _fields(a, ra), _fields(b, rb)
        texts_a = [f for f in fa if isinstance(f, str)]
        texts_b = [f for f in fb if isinstance(f, str)]
        if len(fa) != len(fb) or texts_a != texts_b or any(
                isinstance(x, str) != isinstance(y, str) for x, y in zip(fa, fb)):
            cols_a, cols_b = ra.split("\t"), rb.split("\t")
            if results and len(cols_a) == len(cols_b) == 5 and cols_a[:2] == cols_b[:2]:
                query, rank, cid, score = cols_a[:4]
                diff.swaps.append(f"{query} rank {rank}: {cid} ({score}) vs "
                                  f"{cols_b[2]} ({cols_b[3]})")
            else:
                diff.text.append(f"line {lineno} differs in text")
            continue
        for col, (x, y) in enumerate(zip(fa, fb), start=1):
            if not isinstance(x, str):
                diff.number(x, y, f"line {lineno} field {col}")


def compare_record(a: Path, b: Path, diff: Diff) -> None:
    kind = a.stem
    meta_a, arrays_a = read_record(a, kind)
    meta_b, arrays_b = read_record(b, kind)
    for key in sorted(set(meta_a) | set(meta_b)):
        if meta_a.get(key) != meta_b.get(key):
            diff.text.append(f"meta {key} differs")
    for name in sorted(set(arrays_a) | set(arrays_b)):
        if name not in arrays_a or name not in arrays_b:
            diff.text.append(f"array {name} only in one tree")
        else:
            diff.array(arrays_a[name], arrays_b[name], name)


def compare_trees(a: Path, b: Path) -> list[str]:
    """One report line per file that differs, then a summary line."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.exists() and fb.exists()):
            lines.append(f"{name}\tonly in {a if fa.exists() else b}")
            continue
        if fa.read_bytes() == fb.read_bytes():
            continue
        diff = Diff()
        if fa.suffix == ".bin":
            compare_record(fa, fb, diff)
        else:
            compare_text(fa, fb, diff)
        lines.append(diff.line(name) or f"{name}\tbytes differ, values equal")
    lines.append(f"{len(names)} files compared, {len(lines)} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    parser.add_argument("a", type=Path, help="first output tree")
    parser.add_argument("b", type=Path, help="second output tree")
    args = parser.parse_args(argv)
    for tree in (args.a, args.b):
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    for line in compare_trees(args.a, args.b):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
