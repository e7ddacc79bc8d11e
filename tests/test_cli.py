"""End-to-end checks of the command line: gen -> train -> index -> query,
eval and bench on a micro benchmark, plus the config-file precedence rules
and the one-line error protocol."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from seqret import cli
from seqret.hashing import load_encoder, load_index
from seqret.mtpp import load_checkpoint, save_checkpoint
from seqret.sequences import load_corpus, load_judgments


def run_cli(argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


GEN_ARGS = ["--seed", 3, "--bases", 6, "--subs", "3:4", "--window", "5:8",
            "--marks", 3, "--warp-range", "1.25:2.0"]
TRAIN_ARGS = ["--dim", 4, "--marks", 3, "--n-max", 16, "--unwarp-hidden", "4:4",
              "--n-quad", 8, "--noise-sigma", 0.0, "--epochs", 2, "--lr", 0.05,
              "--negatives", 8, "--pairs-cap", 20, "--batch-queries", 4,
              "--eval-negatives", 8, "--split", "0.5:0.2:0.3", "--seed", 3]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run_cli(["gen", "--out", data] + GEN_ARGS)
    cross = root / "cross"
    run_cli(["train", "--out", cross, "--corpus", data / "corpus.jsonl",
             "--queries", data / "queries.jsonl",
             "--judgments", data / "judgments.tsv"] + TRAIN_ARGS)
    own = root / "self"
    run_cli(["train", "--out", own, "--corpus", data / "corpus.jsonl",
             "--queries", data / "queries.jsonl",
             "--judgments", data / "judgments.tsv",
             "--variant", "self", "--no-unwarp", "--dim", 4, "--marks", 3,
             "--n-max", 16, "--unwarp-hidden", "4:4", "--n-quad", 8,
             "--epochs", 1, "--lr", 0.05, "--negatives", 8, "--pairs-cap", 20,
             "--batch-queries", 4, "--eval-negatives", 8, "--seed", 4])
    idx = root / "idx"
    run_cli(["index", "--out", idx, "--corpus", data / "corpus.jsonl",
             "--checkpoint", own / "checkpoint.bin", "--bits", 8, "--hidden", 8,
             "--hash-epochs", 40, "--tables", 4, "--bits-per-table", 4,
             "--seed", 5])
    pipeline_args = ["--corpus", data / "corpus.jsonl",
                     "--score-checkpoint", cross / "checkpoint.bin",
                     "--index-checkpoint", own / "checkpoint.bin",
                     "--encoder", idx / "encoder.bin", "--index", idx / "index.bin"]
    return SimpleNamespace(root=root, data=data, cross=cross, own=own, idx=idx,
                           pipeline_args=pipeline_args)


class TestHelpers:
    def test_parse_range(self):
        assert cli._parse_range("3:4", int) == (3, 4)
        assert cli._parse_range("0.5:0.1:0.4", float, parts=3) == (0.5, 0.1, 0.4)

    def test_parse_range_wrong_arity(self):
        with pytest.raises(ValueError, match="':'-separated"):
            cli._parse_range("3:4:5", int)

    def test_read_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nbases = 4\nwarp-range=1.0:2.0\n")
        assert cli._read_config_file(str(path)) == {"bases": "4",
                                                    "warp_range": "1.0:2.0"}

    def test_read_config_file_rejects_bare_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bases\n")
        with pytest.raises(ValueError, match="key=value"):
            cli._read_config_file(str(path))


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("gen", "train", "index", "query", "eval", "bench"):
            assert name in text

    @pytest.mark.parametrize("command,flag", [
        ("gen", "--warp-range"), ("train", "--unbias-sigma"),
        ("index", "--bits-per-table"), ("query", "--exhaustive"),
        ("eval", "--pool-negatives"), ("bench", "--bits-grid"),
    ])
    def test_subcommand_help_documents_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert flag in text
        assert "--config" in text and "--seed" in text and "--out" in text


class TestGen:
    def test_outputs(self, ws):
        corpus = load_corpus(ws.data / "corpus.jsonl", mark_count=3)
        queries = load_corpus(ws.data / "queries.jsonl", mark_count=3)
        assert len(corpus) == 16 and len(queries) == 6
        judgments = load_judgments(ws.data / "judgments.tsv")
        assert all(judgments.positives(qid) for qid in queries)
        meta = (ws.data / "meta.tsv").read_text().splitlines()
        assert sum(1 for line in meta if line.startswith("base\t")) == 6

    def test_deterministic(self, ws, tmp_path):
        run_cli(["gen", "--out", tmp_path / "again"] + GEN_ARGS)
        for name in ("corpus.jsonl", "queries.jsonl", "judgments.tsv", "meta.tsv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (ws.data / name).read_bytes()

    def test_seed_changes_content(self, ws, tmp_path):
        run_cli(["gen", "--out", tmp_path / "other"] + GEN_ARGS[2:] + ["--seed", 99])
        assert (tmp_path / "other" / "corpus.jsonl").read_bytes() != \
            (ws.data / "corpus.jsonl").read_bytes()


class TestTrain:
    def test_outputs(self, ws):
        params, unwarp = load_checkpoint(ws.cross / "checkpoint.bin")
        assert params.config.variant == "cross" and params.config.dim == 4
        assert unwarp.config.hidden == (4, 4)
        curve = (ws.cross / "curve.tsv").read_text().splitlines()
        assert curve[0] == "epoch\tloss\tpair_loss\tval_map\tn_pairs"
        assert len(curve) == 3
        for line in curve[1:]:
            fields = line.split("\t")
            assert len(fields) == 5 and float(fields[1]) >= 0.0

    def test_split_partitions_queries(self, ws):
        rows = [line.split("\t") for line in
                (ws.cross / "split.tsv").read_text().splitlines()]
        queries = load_corpus(ws.data / "queries.jsonl", mark_count=3)
        assert sorted(qid for qid, _ in rows) == sorted(queries)
        by_role = {role: [q for q, r in rows if r == role]
                   for role in ("train", "valid", "test")}
        assert len(by_role["train"]) == 3 and len(by_role["valid"]) == 1
        assert len(by_role["test"]) == 2

    def test_deterministic_rerun(self, ws, tmp_path):
        run_cli(["train", "--out", tmp_path / "again",
                 "--corpus", ws.data / "corpus.jsonl",
                 "--queries", ws.data / "queries.jsonl",
                 "--judgments", ws.data / "judgments.tsv"] + TRAIN_ARGS)
        for name in ("checkpoint.bin", "curve.tsv", "split.tsv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (ws.cross / name).read_bytes()

    def test_no_unwarp_keeps_identity(self, ws):
        _, unwarp = load_checkpoint(ws.own / "checkpoint.bin")
        ref = type(unwarp).identity(unwarp.config)
        for name in unwarp.arrays:
            assert np.array_equal(unwarp.arrays[name], ref.arrays[name])


class TestIndex:
    def test_outputs(self, ws):
        assert sorted(p.name for p in ws.idx.iterdir()) == [
            "encoder.bin", "index.bin", "index_meta.tsv"]
        encoder = load_encoder(ws.idx / "encoder.bin")
        assert encoder.kind == "trained" and encoder.psi.n_bits == 8
        index = load_index(ws.idx / "index.bin")
        assert len(index.corpus_ids) == 16
        meta = dict(line.split("\t") for line in
                    (ws.idx / "index_meta.tsv").read_text().splitlines())
        assert meta["sequences"] == "16" and meta["excluded"] == "-"

    def test_record_without_events_is_excluded(self, ws, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text((ws.data / "corpus.jsonl").read_text()
                          + json.dumps({"id": "zz-empty", "horizon": 5.0, "events": []}) + "\n")
        idx = tmp_path / "idx"
        with pytest.warns(UserWarning, match="zz-empty"):
            run_cli(["index", "--out", idx, "--corpus", corpus,
                     "--checkpoint", ws.own / "checkpoint.bin", "--bits", 8, "--hidden", 8,
                     "--hash-epochs", 4, "--tables", 4, "--bits-per-table", 4])
        meta = dict(line.split("\t") for line in
                    (idx / "index_meta.tsv").read_text().splitlines())
        assert meta["sequences"] == "16" and meta["excluded"] == "zz-empty"
        out = tmp_path / "q"
        run_cli(["query", "--out", out, "--queries", ws.data / "queries.jsonl", "--k", 3,
                 "--exhaustive", "--corpus", corpus,
                 "--score-checkpoint", ws.cross / "checkpoint.bin",
                 "--index-checkpoint", ws.own / "checkpoint.bin",
                 "--encoder", idx / "encoder.bin", "--index", idx / "index.bin"])
        rows = [line.split("\t") for line in (out / "results.tsv").read_text().splitlines()]
        assert len({row[0] for row in rows}) == 6
        assert "zz-empty" not in {row[2] for row in rows}

    def test_rejects_cross_checkpoint(self, ws, tmp_path, capsys):
        code = cli.main(["index", "--out", str(tmp_path / "bad"),
                         "--corpus", str(ws.data / "corpus.jsonl"),
                         "--checkpoint", str(ws.cross / "checkpoint.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t") and "self" in err


class TestQuery:
    def test_topk_and_rank_format(self, ws, tmp_path):
        out = tmp_path / "q"
        run_cli(["query", "--out", out, "--queries", ws.data / "queries.jsonl",
                 "--k", 3] + ws.pipeline_args)
        rows = [line.split("\t") for line in
                (out / "results.tsv").read_text().splitlines()]
        by_query: dict[str, list[list[str]]] = {}
        for row in rows:
            assert len(row) == 5 and row[4] in ("hashed", "exhaustive")
            by_query.setdefault(row[0], []).append(row)
        assert len(by_query) == 6
        for qrows in by_query.values():
            assert len(qrows) <= 3
            assert [int(r[1]) for r in qrows] == list(range(1, len(qrows) + 1))
            scores = [float(r[3]) for r in qrows]
            assert scores == sorted(scores, reverse=True)
        assert not (out / "failures.tsv").exists()

    def test_exhaustive_flag(self, ws, tmp_path):
        out = tmp_path / "q"
        run_cli(["query", "--out", out, "--queries", ws.data / "queries.jsonl",
                 "--k", 4, "--exhaustive"] + ws.pipeline_args)
        rows = [line.split("\t") for line in
                (out / "results.tsv").read_text().splitlines()]
        assert rows and all(row[4] == "exhaustive" for row in rows)

    @pytest.mark.parametrize("bad,error", [
        ({"horizon": 41.0, "events": [[i + 1.0, i % 3] for i in range(40)]},
         "SequenceLengthError"),
        ({"horizon": 5.0, "events": []}, "ValueError"),
    ], ids=["too-long", "empty"])
    def test_bad_query_is_recorded_and_skipped(self, ws, tmp_path, bad, error):
        queries = tmp_path / "queries.jsonl"
        queries.write_text((ws.data / "queries.jsonl").read_text()
                           + json.dumps({"id": "zz-bad", **bad}) + "\n")
        out = tmp_path / "q"
        run_cli(["query", "--out", out, "--queries", queries, "--k", 3]
                + ws.pipeline_args)
        ranked = {line.split("\t")[0] for line in
                  (out / "results.tsv").read_text().splitlines()}
        assert len(ranked) == 6 and "zz-bad" not in ranked
        failures = (out / "failures.tsv").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].split("\t")[:2] == ["zz-bad", error]

    def test_every_query_failing_exits_1(self, ws, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"id": "e", "horizon": 5.0, "events": []}) + "\n")
        out = tmp_path / "q"
        code = cli.main([str(a) for a in ["query", "--out", out, "--queries", queries]
                         + ws.pipeline_args])
        assert code == 1
        assert capsys.readouterr().err.startswith("error\tValueError\tall 1 queries failed")
        assert (out / "failures.tsv").read_text().startswith("e\tValueError\t")


def with_query_a00(ws, root, n_events):
    """--queries and --judgments flags of the micro benchmark plus one
    query "a00" of ``n_events`` events with one judged positive."""
    root.mkdir()
    corpus_id = next(iter(load_corpus(ws.data / "corpus.jsonl")))
    judgments = root / "judgments.tsv"
    judgments.write_text((ws.data / "judgments.tsv").read_text() + f"a00\t{corpus_id}\t1\n")
    queries = root / "queries.jsonl"
    queries.write_text((ws.data / "queries.jsonl").read_text() + json.dumps(
        {"id": "a00", "horizon": 41.0,
         "events": [[i + 1.0, i % 3] for i in range(n_events)]}) + "\n")
    return ["--queries", queries, "--judgments", judgments]


class TestEval:
    def test_both_modes(self, ws, tmp_path, capsys):
        out = tmp_path / "e"
        run_cli(["eval", "--out", out, "--queries", ws.data / "queries.jsonl",
                 "--judgments", ws.data / "judgments.tsv",
                 "--pool-negatives", 8, "--seed", 7] + ws.pipeline_args)
        printed = capsys.readouterr().out
        assert "mode=hashed" in printed and "mode=exhaustive" in printed
        for mode in ("hashed", "exhaustive"):
            report = dict(
                line.split("\t", 1) for line in
                (out / f"report_{mode}.tsv").read_text().splitlines()
                if not line.startswith("ap\t"))
            assert report["mode"] == mode
            assert report["queries"] == "6"
            assert 0.0 <= float(report["map"]) <= 1.0
            assert (out / f"results_{mode}.tsv").exists()
        exh = dict(line.split("\t", 1) for line in
                   (out / "report_exhaustive.tsv").read_text().splitlines()
                   if not line.startswith("ap\t"))
        assert float(exh["reduction"]) == 0.0

    def test_split_file_restricts_to_test_role(self, ws, tmp_path):
        out = tmp_path / "e"
        run_cli(["eval", "--out", out, "--queries", ws.data / "queries.jsonl",
                 "--judgments", ws.data / "judgments.tsv",
                 "--split-file", ws.cross / "split.tsv", "--mode", "exhaustive",
                 "--pool-negatives", 8] + ws.pipeline_args)
        report = dict(line.split("\t", 1) for line in
                      (out / "report_exhaustive.tsv").read_text().splitlines()
                      if not line.startswith("ap\t"))
        assert report["queries"] == "2"

    def test_failing_query_is_recorded_and_skipped(self, ws, tmp_path):
        # "a00" sorts first, so its pool is drawn before every other one.  The
        # same query id ranks in the "ok" run and fails (longer than n_max)
        # in the "bad" run; every other query must rank exactly as before.
        for name, n_events in (("ok", 4), ("bad", 40)):
            run_cli(["eval", "--out", tmp_path / name, "--pool-negatives", 8, "--seed", 7]
                    + with_query_a00(ws, tmp_path / name, n_events) + ws.pipeline_args)

        def rows(name, kind, mode):
            text = (tmp_path / name / f"{kind}_{mode}.tsv").read_text()
            return [line.split("\t") for line in text.splitlines()]

        for mode in ("hashed", "exhaustive"):
            ok, bad = rows("ok", "report", mode), rows("bad", "report", mode)
            ok_rows = {row[0]: row[1:] for row in ok if row[0] != "ap"}
            bad_rows = {row[0]: row[1:] for row in bad if row[0] != "ap"}
            assert "failed" not in ok_rows
            assert bad_rows["failed"] == ["a00:SequenceLengthError"]
            assert (ok_rows["queries"], bad_rows["queries"]) == (["7"], ["6"])
            assert [row for row in ok if row[0] == "ap" and row[1] != "a00"] \
                == [row for row in bad if row[0] == "ap"]
            assert [row for row in rows("ok", "results", mode) if row[0] != "a00"] \
                == rows("bad", "results", mode)

    def test_every_query_failing_exits_1(self, ws, tmp_path, capsys):
        split = tmp_path / "split.tsv"
        split.write_text("a00\ttest\n")
        argv = (["eval", "--out", tmp_path / "o", "--split-file", split, "--mode", "exhaustive"]
                + with_query_a00(ws, tmp_path / "inputs", 40) + ws.pipeline_args)
        assert cli.main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == ("error\tValueError\tno query could be evaluated; "
                                           "failed: a00:SequenceLengthError\n")


class TestBench:
    ARGS = ["--pool-negatives", 8, "--tables", 4, "--bits-grid", "2:4"]

    def run_bench(self, ws, out):
        run_cli(["bench", "--out", out, "--queries", ws.data / "queries.jsonl",
                 "--judgments", ws.data / "judgments.tsv"] + self.ARGS + ws.pipeline_args)

    def test_tradeoff_rows(self, ws, tmp_path, capsys):
        out = tmp_path / "b"
        self.run_bench(ws, out)
        lines = (out / "tradeoff.tsv").read_text().splitlines()
        assert lines[0] == "bits_per_table\treduction\tndcg@10\tmap"
        assert len(lines) == 4
        exhaustive = lines[1].split("\t")
        assert exhaustive[0] == "-" and float(exhaustive[1]) == 0.0
        assert [line.split("\t")[0] for line in lines[2:]] == ["2", "4"]
        for line in lines[2:]:
            assert len(line.split("\t")) == 4
            assert 0.0 <= float(line.split("\t")[1]) <= 1.0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == lines[0] + "\tseconds"
        assert [row.rsplit("\t", 1)[0] for row in printed[1:]] == lines[1:]

    def test_failing_query_is_named_on_stderr(self, ws, tmp_path, capsys):
        out = tmp_path / "b"
        run_cli(["bench", "--out", out] + self.ARGS
                + with_query_a00(ws, tmp_path / "inputs", 40) + ws.pipeline_args)
        assert capsys.readouterr().err.splitlines() == ["failed\ta00:SequenceLengthError"] * 3
        assert len((out / "tradeoff.tsv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("flags,message", [
        (["--bits-grid", "0:4"], "bits_per_table must be at least 1, got 0"),
        (["--tables", 0], "tables must be at least 1, got 0"),
    ])
    def test_empty_geometry_is_one_error_line(self, ws, tmp_path, capsys, flags, message):
        argv = (["bench", "--out", tmp_path / "b", "--queries", ws.data / "queries.jsonl",
                 "--judgments", ws.data / "judgments.tsv"] + ws.pipeline_args + flags)
        assert cli.main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error\tValueError\t{message}\n"
        assert not (tmp_path / "b").exists()

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        self.run_bench(ws, tmp_path / "one")
        self.run_bench(ws, tmp_path / "two")
        assert ((tmp_path / "one" / "tradeoff.tsv").read_bytes()
                == (tmp_path / "two" / "tradeoff.tsv").read_bytes())


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("bases=4\nsubs=3:4\nwindow=5:6\nmarks=3\n")
        run_cli(["gen", "--out", tmp_path / "a", "--config", cfg, "--seed", 1])
        assert "4 query sequences" in capsys.readouterr().out

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("bases=4\nsubs=3:4\nwindow=5:6\nmarks=3\n")
        run_cli(["gen", "--out", tmp_path / "b", "--config", cfg, "--seed", 1,
                 "--bases", 2])
        assert "2 query sequences" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("nonsense=1\n")
        code = cli.main(["gen", "--out", str(tmp_path / "c"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error\tValueError\t")

    def test_store_false_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("unwarp=true\n")
        args = cli._parse_args(["train", "--corpus", "c", "--queries", "q", "--judgments", "j",
                                "--out", "o", "--no-unwarp", "--config", str(cfg)])
        assert args.unwarp is False

    def test_file_sets_boolean(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("unwarp=false\nepochs=7\nunbias-sigma=inf\nvariant=self\n")
        args = cli._parse_args(["train", "--corpus", "c", "--queries", "q", "--judgments", "j",
                                "--out", "o", "--config", str(cfg)])
        assert args.unwarp is False and args.epochs == 7 and args.variant == "self"
        assert args.unbias_sigma == float("inf")

    @pytest.mark.parametrize("command,line", [
        ("gen", "bases=abc"), ("gen", "bases=2.5"), ("gen", "warp=cubic"),
        ("train", "unwarp=maybe"), ("train", "variant=foo"), ("train", "config=x"),
        ("eval", "mode=foo"), ("query", "exhaustive=1"), ("bench", "vectors=v.bin"),
    ])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, command, line):
        # rejected before any input is read: none of the path flags exist
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        pipeline = ["--corpus", "c", "--score-checkpoint", "s", "--index-checkpoint", "i",
                    "--encoder", "e", "--index", "x", "--queries", "q"]
        paths = {"gen": [], "query": pipeline,
                 "train": ["--corpus", "c", "--queries", "q", "--judgments", "j"],
                 "eval": pipeline + ["--judgments", "j"], "bench": pipeline + ["--judgments", "j"]}
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--config", str(cfg)] + paths[command]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        key = line.split("=")[0]
        assert len(err) == 1 and err[0].startswith(f"error\tValueError\tconfig key {key!r}")
        assert not out.exists()


class TestErrorProtocol:
    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path / "o"),
                         "--corpus", str(tmp_path / "absent.jsonl"),
                         "--queries", str(tmp_path / "absent.jsonl"),
                         "--judgments", str(tmp_path / "absent.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tFileNotFoundError\t")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--unbias-sigma", "nan"), ("train", "--noise-sigma", "nan"),
        ("index", "--hash-lr", "nan"), ("index", "--etas", "nan:0.3:0.3"),
        ("gen", "--mu", "nan:0.0"), ("gen", "--sigma", "0.3:inf"),
        ("gen", "--warp-range", "0.5:nan"), ("gen", "--alpha", "nan"),
        ("train", "--split", "nan:0.5:0.5"),
    ])
    def test_nan_setting_is_one_error_line(self, ws, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        argv = {
            "gen": ["gen", "--out", out] + GEN_ARGS,
            "train": ["train", "--out", out, "--corpus", ws.data / "corpus.jsonl",
                      "--queries", ws.data / "queries.jsonl",
                      "--judgments", ws.data / "judgments.tsv"] + TRAIN_ARGS,
            "index": ["index", "--out", out, "--corpus", ws.data / "corpus.jsonl",
                      "--checkpoint", ws.own / "checkpoint.bin", "--bits", 8, "--hidden", 8,
                      "--hash-epochs", 4, "--tables", 4, "--bits-per-table", 4],
        }[command] + [flag, value]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_range_too_wide_to_sample_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["gen", "--out", str(out), "--bases", "2", "--mu=-1e308:1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t") and len(err.splitlines()) == 1
        assert "mu_range is too wide" in err
        assert not out.exists()

    def test_invalid_value(self, tmp_path, capsys):
        code = cli.main(["gen", "--out", str(tmp_path / "o"), "--bases", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error\tValueError\t")

    @pytest.mark.parametrize("command,artifact,keep", [
        ("query", "index", 0.5), ("index", "checkpoint", 20),
    ])
    def test_truncated_artifact(self, ws, tmp_path, capsys, command, artifact, keep):
        source = {"index": ws.idx / "index.bin", "checkpoint": ws.own / "checkpoint.bin"}[artifact]
        raw = source.read_bytes()
        cut = tmp_path / source.name
        cut.write_bytes(raw[:int(len(raw) * keep) if keep < 1 else keep])
        out = tmp_path / "o"
        queries = ["--queries", ws.data / "queries.jsonl"]
        argv = {
            "query": ["query", "--out", out] + queries + ws.pipeline_args[:-2]
                     + ["--index", cut],
            "index": ["index", "--out", out, "--corpus", ws.data / "corpus.jsonl",
                      "--checkpoint", cut],
        }[command]
        code = cli.main([str(a) for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tArtifactError\t") and len(err.splitlines()) == 1
        assert str(cut) in err

    def test_encoder_passed_as_index(self, ws, tmp_path, capsys):
        argv = (["query", "--out", tmp_path / "o", "--queries", ws.data / "queries.jsonl"]
                + ws.pipeline_args[:-2] + ["--index", ws.idx / "encoder.bin"])
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tArtifactError\t")
        assert str(ws.idx / "encoder.bin") in err and "'encoder'" in err and "'index'" in err

    def test_index_checkpoint_must_match_index(self, ws, tmp_path, capsys):
        params, unwarp = load_checkpoint(ws.own / "checkpoint.bin")
        params.arrays["start"] = params.arrays["start"] + 1e-3
        other = tmp_path / "other.bin"
        save_checkpoint(other, params, unwarp)
        args = list(ws.pipeline_args)
        args[args.index("--index-checkpoint") + 1] = other
        argv = ["query", "--out", tmp_path / "o", "--queries", ws.data / "queries.jsonl"] + args
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tArtifactError\t") and str(other) in err

    def test_judgment_naming_unknown_corpus_id(self, ws, tmp_path, capsys):
        judgments = tmp_path / "judgments.tsv"
        qid = (ws.data / "judgments.tsv").read_text().split("\t", 1)[0]
        judgments.write_text((ws.data / "judgments.tsv").read_text()
                             + f"{qid}\tno-such-sequence\t1\n")
        argv = ["eval", "--out", tmp_path / "o", "--queries", ws.data / "queries.jsonl",
                "--judgments", judgments] + ws.pipeline_args
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tCorpusFormatError\t") and "no-such-sequence" in err

    @pytest.mark.parametrize("event,record_id", [
        ([1.0, 0], 7), ([float("nan"), 0], "zz"), ([1.0, True], "zz"), ([1.0, 1.7], "zz"),
    ], ids=["numeric-id", "nan-time", "bool-mark", "float-mark"])
    def test_hostile_query_record(self, ws, tmp_path, capsys, event, record_id):
        queries = tmp_path / "queries.jsonl"
        queries.write_text((ws.data / "queries.jsonl").read_text()
                           + json.dumps({"id": record_id, "horizon": 5.0,
                                         "events": [event]}) + "\n")
        argv = ["query", "--out", tmp_path / "o", "--queries", queries] + ws.pipeline_args
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tCorpusFormatError\t") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k", [-3, 0])
    def test_non_positive_k(self, tmp_path, capsys, k):
        # rejected before any input is read: none of these files exist
        absent = [str(tmp_path / name) for name in ("c", "s", "i", "e", "x", "q")]
        argv = ["query", "--out", str(tmp_path / "o"), "--corpus", absent[0],
                "--score-checkpoint", absent[1], "--index-checkpoint", absent[2],
                "--encoder", absent[3], "--index", absent[4], "--queries", absent[5],
                "--k", str(k)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error\tValueError\t--k must be at least 1, got {k}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flag", [
        ("train", "--eval-negatives"), ("eval", "--pool-negatives"),
        ("bench", "--pool-negatives"),
    ])
    def test_pool_without_negatives(self, ws, tmp_path, capsys, command, flag):
        inputs = ["--queries", ws.data / "queries.jsonl", "--judgments", ws.data / "judgments.tsv"]
        out = tmp_path / "o"
        argv = {
            "train": ["train", "--out", out, "--corpus", ws.data / "corpus.jsonl"] + inputs
                     + TRAIN_ARGS,
            "eval": ["eval", "--out", out] + inputs + ws.pipeline_args,
            "bench": ["bench", "--out", out] + inputs + ws.pipeline_args,
        }[command] + [flag, 0]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\t") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("gamma", ["nan", "-1"])
    @pytest.mark.parametrize("command", ["query", "eval", "bench"])
    def test_bad_gamma(self, ws, tmp_path, capsys, command, gamma):
        inputs = ["--queries", ws.data / "queries.jsonl"]
        if command != "query":
            inputs += ["--judgments", ws.data / "judgments.tsv"]
        argv = [command, "--out", tmp_path / "o"] + inputs + ws.pipeline_args + ["--gamma", gamma]
        assert cli.main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error\tValueError\tgamma") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["index", "--out", "o", "--corpus", "c", "--checkpoint", "k",
                      "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
