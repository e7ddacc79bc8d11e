"""Smoke tests of the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import numpy as np

from seqret.artifact import write_record

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_writes_one_row_per_scorer(tmp_path, capsys):
    ablation = load_script("ablation")
    out = tmp_path / "ablation.tsv"
    assert ablation.main(["--bases", "6", "--seeds", "0", "--epochs", "1",
                          "--out", str(out)]) == 0
    table = out.read_text()
    assert capsys.readouterr().out == table
    header, *rows = [line.split("\t") for line in table.splitlines()]
    assert header == ["scorer", "seed", "map"]
    assert [row[:2] for row in rows] == [["distance-only", "-"], ["full", "0"],
                                         ["no-unwarp", "0"]]
    assert all(0.0 < float(row[2]) <= 1.0 for row in rows)


def write_tree(root, score="-1.25", theta=(0.5, -2.0)):
    (root / "run").mkdir(parents=True)
    (root / "model").mkdir()
    (root / "run" / "results.tsv").write_text(
        f"q1\t1\tc7\t{score}\texhaustive\nq1\t2\tc3\t-2.5\texhaustive\n")
    write_record(root / "model" / "checkpoint.bin", "checkpoint", {"model": {"dim": 2}},
                 {"theta": np.array(theta)})


def test_compare_runs_reports_only_what_differs(tmp_path, capsys):
    compare = load_script("compare_runs")
    write_tree(tmp_path / "a")
    write_tree(tmp_path / "same")
    write_tree(tmp_path / "score", score="-1.2500001")
    write_tree(tmp_path / "theta", theta=(0.5, -2.000002))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert capsys.readouterr().out == "2 files compared, 0 differ\n"

    first, summary = compare.compare_trees(tmp_path / "a", tmp_path / "score")
    name, detail = first.split("\t")
    assert name == "run/results.tsv" and summary == "2 files compared, 1 differ"
    assert detail.startswith("max rel 8e-08 at line 1 field 4; 1 numbers differ")

    first, _ = compare.compare_trees(tmp_path / "a", tmp_path / "theta")
    assert first == "model/checkpoint.bin\tmax rel 1e-06 at theta[1]; 1 numbers differ"
