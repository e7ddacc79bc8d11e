"""Smoke test of the experiment script under ``scripts/``."""

import importlib.util
from pathlib import Path

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
