"""Command-line interface: subcommands, exit codes, and the full run."""
from __future__ import annotations

import ast
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import bridgekit.cli
import bridgekit.ingest
import bridgekit.records
from bridgekit.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPELINE,
    OUTPUT_DIR_ENV,
    PipelineConfig,
    load_config,
    main,
)
from bridgekit.errors import ConfigError
from bridgekit.gbdt import DEFAULT_LEMMA_TOP_K, HyperParams
from bridgekit.harmonize import harmonize_corpus
from bridgekit.ingest import DIALECTS, emit_bracket, emit_canonical, parse_canonical, read_documents
from bridgekit.synth import planted_rule_corpus

ARRAU_POOL = ("person", "concrete", "space", "abstract", "plan")


def write_bracket(path: Path, docs) -> None:
    path.write_bytes(b"".join(emit_bracket(doc) for doc in docs))


def base_config(tmp: Path) -> dict:
    """Two small corpora in different dialects, written relative to tmp."""
    a = planted_rule_corpus(100, n_docs=8, single_link_per_anaphor=True)
    write_bracket(tmp / "a_train.brk", a[:6])
    write_bracket(tmp / "a_test.brk", a[6:])
    b = planted_rule_corpus(
        200, n_docs=8, label_pool=ARRAU_POOL, schema="arrau_like", surface_definiteness=True
    )
    write_dialect(tmp / "b_train", "standoff", b[:6])
    write_dialect(tmp / "b_test", "standoff", b[6:])
    return {
        "seed": 13,
        "output_dir": str(tmp / "runs"),
        "corpora": [
            {"name": "corpusA", "dialect": "bracket",
             "train": ["a_train.brk"], "test": ["a_test.brk"]},
            {"name": "corpusB", "dialect": "standoff",
             "train": ["b_train.sff"], "test": ["b_test.sff"]},
        ],
        "grid": [
            {"n_rounds": 20, "max_depth": 3, "learning_rate": 0.3},
            {"n_rounds": 40, "max_depth": 4, "learning_rate": 0.3},
        ],
        "cv_folds": 3,
    }


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    """One full run, shared by every assertion over its outputs."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config = base_config(tmp)
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(config_path)])
    assert code == EXIT_OK
    run_dir = next((tmp / "runs").iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    return {"tmp": tmp, "config_path": config_path, "run_dir": run_dir, "report": report}


def run_files(run_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


# sha256 of pure-Python artifacts of the base_config run; resolved_config.json
# is hashed with the temporary directory replaced by "TMP".
GOLDEN_RUN_ID = "run-c52f9fd6fbd1"
GOLDEN_SHA256 = {
    "analysis/corpusA_pair_types.csv": "51abe0acf754efbb83fe44281ffdf68efae876c6d8ca03e5940c8742f61d316a",
    "analysis/corpusB_pair_types.csv": "3007a67349c04539fd59b04d18320ac263c28802068d501075bac5464700582c",
    "datasets/corpusA_eval.jsonl": "139e31f3d28c785fb81a207d2f088e9998850dbc1601111ca5ba71132c90d887",
    "datasets/corpusA_train.jsonl": "273cdd19d2cd59eb76336f0f6065e67d52b1d79c6afe281dfb6e45200aaa9976",
    "datasets/corpusB_eval.jsonl": "d536a7360069e0824b50bc6266e0005b5e3375e45c975c6437eacc310a1073af",
    "datasets/corpusB_train.jsonl": "0be7724d7826ac6f22891776286757be07e1a1ab0acbc7a98e64878c2bc88bf7",
    "harmonize_report_corpusA.json": "5043f19435176f9e21659d757a284c9b5e77354171847fe448b8589dc42a5d7e",
    "harmonize_report_corpusB.json": "5043f19435176f9e21659d757a284c9b5e77354171847fe448b8589dc42a5d7e",
    "harmonized/corpusA_eval.jsonl": "518f3bb1c56cea616ffd412c4587cec7f276f341915aedaecc68bc6c9e1e3f88",
    "harmonized/corpusA_train.jsonl": "46c0563d7c475f4cf08509a1ede91cbf220095337d522773086e708e47f183c4",
    "harmonized/corpusB_eval.jsonl": "effbb876f82379ddc8a8d2b3757d99a9b64cb655dc68acc3fa1f4cce36f4eff8",
    "harmonized/corpusB_train.jsonl": "c97a31a013768106f4e68277e52d69cddb124b8e1a7810fd1c5cec36c5e5eb7d",
    "resolved_config.json": "f24a516ae284923a0d113d9cf7280d5366f326dd17791f913f4f005f755ecb56",
}


class TestConvert:
    def test_bracket_to_canonical(self, tmp_path, capsys):
        docs = planted_rule_corpus(1, n_docs=2, single_link_per_anaphor=True)
        write_bracket(tmp_path / "in.brk", docs)
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--in", str(tmp_path / "in.brk"), "--out", str(out)]) == EXIT_OK
        assert "wrote 2 documents" in capsys.readouterr().out
        key = lambda m: m.id
        for original, converted in zip(docs, parse_canonical(out.read_bytes())):
            assert sorted(converted.mentions, key=key) == sorted(original.mentions, key=key)

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.brk"
        bad.write_text("1\tonly\tfour\tfields\n")
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--in", str(bad), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"1\ta\ta\tNN\tsing\tdep\t99999\t_\n",  # token head out of range
            b"1\ta\ta\tNN\tsing\tdep\t0\t_\n\xff\n",  # not UTF-8
        ],
    )
    def test_structurally_invalid_input_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.brk"
        bad.write_bytes(content)
        assert main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_PARSE
        assert "bad.brk" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "links, message",
        [
            ("BRG\tm2 m1+m1 _\n", "repeated antecedent"),
            ("BRG\tm2 m1 _\nBRG\tm2 m1 _\n", "duplicate link"),
        ],
    )
    def test_invalid_standoff_links_exit_2(self, tmp_path, capsys, links, message):
        bad = tmp_path / "bad.sff"
        bad.write_text(
            "DOC\td g\nTOK\t1 a a NN sing dep 0\nTOK\t2 b b NN sing dep 1\n"
            "MEN\tm1 1-1 object _\nMEN\tm2 2-2 object _\n" + links
        )
        assert main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "bad.sff" in err and message in err

    @pytest.mark.parametrize("command", ["convert", "harmonize"])
    @pytest.mark.parametrize("dialect", ["bracket", "standoff"])
    def test_each_document_is_validated_once(self, tmp_path, monkeypatch, command, dialect):
        if dialect == "bracket":
            docs = planted_rule_corpus(1, n_docs=3, single_link_per_anaphor=True)
        else:
            docs = planted_rule_corpus(1, n_docs=3, label_pool=ARRAU_POOL, schema="arrau_like")
        path = write_dialect(tmp_path / "in", dialect, docs)
        checked = []
        validate = bridgekit.ingest.validate_document

        def spy(doc):
            checked.append(doc.doc_id)
            validate(doc)

        monkeypatch.setattr(bridgekit.ingest, "validate_document", spy)
        code = main([command, "--in", str(path), "--out", str(tmp_path / "out.jsonl")])
        assert code == EXIT_OK
        assert checked == [doc.doc_id for doc in docs]

    def test_missing_input_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.brk"
        assert main(["convert", "--in", str(missing), "--out", str(tmp_path / "o.jsonl")]) == EXIT_CONFIG
        assert "missing.brk" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nope", "nope.brk", "."])
    def test_an_unreadable_input_exits_1_whatever_its_suffix(self, tmp_path, capsys, name):
        path = tmp_path / name
        out = tmp_path / "x.jsonl"
        assert main(["convert", "--in", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read corpus file {path}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_readable_input_with_an_unknown_suffix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        path.write_text("x\n")
        out = tmp_path / "x.jsonl"
        assert main(["convert", "--in", str(path), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed corpus file {path}: ValidationError: "
            f"cannot infer dialect from suffix '.txt' of {path}\n"
        )
        assert not out.exists()

    def test_explicit_dialect_overrides_suffix(self, tmp_path):
        docs = planted_rule_corpus(1, n_docs=1, label_pool=ARRAU_POOL, schema="arrau_like")
        data = tmp_path / "corpus.data"
        data.write_bytes(b"".join(map(DIALECTS["standoff"].emit, docs)))
        out = tmp_path / "out.jsonl"
        code = main(["convert", "--in", str(data), "--dialect", "standoff", "--out", str(out)])
        assert code == EXIT_OK


class TestHarmonize:
    def test_fixture_report_lands_on_disk(self, fixture_path, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        report_path = tmp_path / "report.json"
        code = main([
            "harmonize", "--in", str(fixture_path), "--out", str(out),
            "--report", str(report_path),
        ])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["removed_split_antecedent"] == 3
        assert report["removed_given_anaphor"] == 2
        assert report["flattened_discontinuous"] == 4
        assert report["entity_type_remaps"] == 17
        printed = capsys.readouterr().out
        assert "removed split-antecedent links" in printed
        docs = parse_canonical(out.read_bytes())
        assert all(not m.discontinuous for doc in docs for m in doc.mentions)

    def test_second_pass_reports_nothing_to_do(self, fixture_path, tmp_path):
        first = tmp_path / "h1.jsonl"
        second = tmp_path / "h2.jsonl"
        report_path = tmp_path / "r2.json"
        main(["harmonize", "--in", str(fixture_path), "--out", str(first)])
        code = main([
            "harmonize", "--in", str(first), "--out", str(second),
            "--report", str(report_path),
        ])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["removed_split_antecedent"] == 0
        assert report["flattened_discontinuous"] == 0
        assert report["entity_type_remaps"] == 0
        assert second.read_bytes() == first.read_bytes()

    def test_unknown_labels_warn_on_stderr_without_failing(self, tmp_path, capsys):
        text = (
            "DOC\td1 news\n"
            "TOK\t1 a a NN sing dep 0\n"
            "TOK\t2 b b NN sing dep 1\n"
            "MEN\tm1 1-1 gadget _\n"
            "MEN\tm2 2-2 person _\n"
            "BRG\tm2 m1 _\n"
        )
        src = tmp_path / "u.sff"
        src.write_text(text)
        code = main(["harmonize", "--in", str(src), "--out", str(tmp_path / "u.jsonl")])
        assert code == EXIT_OK
        assert "unresolved entity type labels: gadget" in capsys.readouterr().err

    def test_exclusion_list_is_applied(self, fixture_path, tmp_path):
        excl = tmp_path / "excl.tsv"
        excl.write_text("fixdoc1\tm17\n")
        report_path = tmp_path / "r.json"
        main([
            "harmonize", "--in", str(fixture_path), "--out", str(tmp_path / "h.jsonl"),
            "--report", str(report_path), "--exclusions", str(excl),
        ])
        report = json.loads(report_path.read_text())
        assert report["excluded_links"] == 1
        docs = parse_canonical((tmp_path / "h.jsonl").read_bytes())
        assert all(not doc.bridging for doc in docs)


def write_dialect(path_stem: Path, dialect: str, docs) -> Path:
    """`docs` in `dialect`, at `path_stem` with that dialect's suffix."""
    path = path_stem.with_suffix(DIALECTS[dialect].suffix)
    path.write_bytes(b"".join(map(DIALECTS[dialect].emit, docs)))
    return path


def dialect_corpus(dialect: str, n_docs: int = 4):
    if dialect == "bracket":
        return planted_rule_corpus(1, n_docs=n_docs, single_link_per_anaphor=True)
    return planted_rule_corpus(1, n_docs=n_docs, label_pool=ARRAU_POOL, schema="arrau_like",
                               surface_definiteness=True)


class TestCorpusOutputs:
    """`convert`, `harmonize` and `run` write canonical documents one at a
    time, and a failure leaves no partial file."""

    @staticmethod
    def argv(command: str, path: Path, out_dir: Path) -> list[str]:
        """`convert` or `harmonize --report` of `path`, writing `x.jsonl`
        (and `r.json`) in `out_dir`."""
        argv = [command.split()[0], "--in", str(path), "--out", str(out_dir / "x.jsonl")]
        if command.endswith("--report"):
            argv += ["--report", str(out_dir / "r.json")]
        return argv

    @pytest.mark.parametrize("command", ["convert", "harmonize"])
    @pytest.mark.parametrize("dialect", ["bracket", "standoff", "canonical"])
    def test_output_is_emit_canonical_of_the_documents(self, tmp_path, command, dialect):
        path = write_dialect(tmp_path / "in", dialect, dialect_corpus(dialect))
        docs = read_documents(path)
        if command == "harmonize":
            docs, _ = harmonize_corpus(docs)
        out = tmp_path / "out.jsonl"
        assert main([command, "--in", str(path), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == emit_canonical(docs)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("command", ["convert", "harmonize --report"])
    def test_a_failure_on_the_second_document_leaves_no_file(
        self, tmp_path, monkeypatch, command, error
    ):
        path = write_dialect(tmp_path / "in", "standoff", dialect_corpus("standoff"))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        calls = []
        emit = bridgekit.cli.emit_canonical

        def failing(docs):
            calls.append(docs)
            if len(calls) == 2:
                raise error("second document")
            return emit(docs)

        monkeypatch.setattr(bridgekit.cli, "emit_canonical", failing)
        with pytest.raises(error):
            main(self.argv(command, path, out_dir))
        assert len(calls) == 2
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["convert", "harmonize --report"])
    def test_a_parse_error_in_the_last_document_leaves_no_file(self, tmp_path, capsys, command):
        path = write_dialect(tmp_path / "in", "standoff", dialect_corpus("standoff"))
        path.write_text(path.read_text() + "DOC\tlast g\nTOK\t1 a a NN sing dep 7\n")
        out_dir = tmp_path / "out"
        assert main(self.argv(command, path, out_dir)) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {path}: doc 'last'.")
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_each_emit_call_gets_one_document(self, tmp_path, monkeypatch):
        """What keeps the output from being held whole."""
        sizes = []
        emit = bridgekit.cli.emit_canonical

        def spy(docs):
            sizes.append(len(docs))
            return emit(docs)

        monkeypatch.setattr(bridgekit.cli, "emit_canonical", spy)
        path = write_dialect(tmp_path / "in", "standoff", dialect_corpus("standoff", n_docs=5))
        for command in ("convert", "harmonize"):
            assert main([command, "--in", str(path), "--out", str(tmp_path / "o.jsonl")]) == EXIT_OK
            assert sizes == [1] * 5, command
            sizes.clear()
        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 2, "max_depth": 2}]
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_OK
        # two corpora of 8 documents each, each written once as harmonized
        # train and eval splits
        assert sizes == [1] * 16

    @pytest.mark.parametrize("command", ["convert", "harmonize --report"])
    def test_output_mode_is_that_of_a_plain_write(self, tmp_path, command):
        path = write_dialect(tmp_path / "in", "bracket", dialect_corpus("bracket"))
        previous = os.umask(0o022)
        try:
            (tmp_path / "plain").write_bytes(b"")
            assert main(self.argv(command, path, tmp_path)) == EXIT_OK
        finally:
            os.umask(previous)
        mode = (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "x.jsonl").stat().st_mode == mode
        if command.endswith("--report"):
            assert (tmp_path / "r.json").stat().st_mode == mode


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """pairs -> train artifacts shared by the single-subcommand tests."""
    tmp = tmp_path_factory.mktemp("chain")
    docs = planted_rule_corpus(7, n_docs=10, single_link_per_anaphor=True)
    write_bracket(tmp / "corpus.brk", docs)
    pairs = tmp / "pairs.jsonl"
    code = main([
        "pairs", "--in", str(tmp / "corpus.brk"), "--seed", "5",
        "--out", str(pairs), "--csv", str(tmp / "pairs.csv"),
        "--harmonize", "--corpus", "plant", "--partition", "all",
    ])
    assert code == EXIT_OK
    model = tmp / "model.json"
    code = main([
        "train", "--pairs", str(pairs), "--seed", "5", "--out", str(model),
        "--n-rounds", "30", "--max-depth", "3",
    ])
    assert code == EXIT_OK
    return {"tmp": tmp, "pairs": pairs, "model": model}


class TestPairsTrainEvalChain:
    def test_pairs_output_is_balanced_and_deterministic(self, chain, capsys):
        from bridgekit.pairgen import dataset_from_jsonl

        ds = dataset_from_jsonl(chain["pairs"].read_bytes())
        counts = ds.label_counts()
        assert counts["bridging"] == counts["coref"] == counts["none"] > 0
        again = chain["tmp"] / "again.jsonl"
        main([
            "pairs", "--in", str(chain["tmp"] / "corpus.brk"), "--seed", "5",
            "--out", str(again), "--harmonize", "--corpus", "plant", "--partition", "all",
        ])
        assert again.read_bytes() == chain["pairs"].read_bytes()
        assert (chain["tmp"] / "pairs.csv").read_text().startswith("doc_id,")

    def test_train_writes_a_loadable_model(self, chain):
        from bridgekit.gbdt import load_model

        model = load_model(chain["model"])
        assert model.params.n_rounds == 30
        assert model.schema is not None

    def test_eval_reports_model_and_baseline(self, chain, capsys):
        out = chain["tmp"] / "metrics.json"
        code = main([
            "eval", "--model", str(chain["model"]), "--pairs", str(chain["pairs"]),
            "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["model"]["f1"] > 0.9  # training-set fit on an exact rule
        assert 0.0 < payload["random_baseline"]["f1"] < 0.6
        assert json.loads(capsys.readouterr().out) == payload

    def test_importance_reports_both_measures(self, chain):
        out = chain["tmp"] / "imp.json"
        code = main([
            "importance", "--model", str(chain["model"]), "--pairs", str(chain["pairs"]),
            "--repeats", "2", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {"gain", "mda"}
        assert payload["gain"]["n_definite"] > 0
        assert payload["mda"]["n_definite"] > 0.05

    def test_importance_takes_a_negative_seed(self, chain, tmp_path, capsys):
        out = tmp_path / "imp.json"
        code = main([
            "importance", "--model", str(chain["model"]), "--pairs", str(chain["pairs"]),
            "--repeats", "2", "--seed", "-1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["mda"]["n_definite"] > 0.05

    def test_analyze_covers_residuals_distributions_and_errors(self, chain, capsys):
        out = chain["tmp"] / "analysis.json"
        code = main([
            "analyze", "--pairs", str(chain["pairs"]),
            "--docs", str(chain["tmp"] / "corpus.brk"),
            "--model", str(chain["model"]), "--tau", "0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["residuals"]["observed"][0][0] > 0
        assert payload["pair_type_distribution"]
        assert payload["anaphor_entity_distribution"]
        assert payload["subtype_distribution"]
        assert isinstance(payload["confident_errors"], list)
        printed = capsys.readouterr().out
        assert "definiteness residuals:" in printed
        assert "bridging subtypes:" in printed

    def test_analyze_prints_nothing_when_its_docs_are_missing(self, chain, tmp_path, capsys):
        missing = tmp_path / "nope.brk"
        code = main(["analyze", "--pairs", str(chain["pairs"]), "--docs", str(missing)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read corpus file {missing}: ")
        assert captured.err.count("\n") == 1

    def test_analyze_docs_without_a_file_is_a_usage_error(self, chain, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--pairs", str(chain["pairs"]), "--docs", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --docs: expected at least one argument" in captured.err
        assert not out.exists()

    def test_analyze_prints_nothing_when_its_model_is_malformed(self, chain, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("not a model\n")
        out = tmp_path / "analysis.json"
        code = main([
            "analyze", "--pairs", str(chain["pairs"]),
            "--docs", str(chain["tmp"] / "corpus.brk"), "--model", str(bad), "--out", str(out),
        ])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed model {bad}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_pairs_line_without_a_key_exits_2(self, chain, tmp_path, capsys):
        lines = chain["pairs"].read_text().splitlines()
        example = json.loads(lines[1])
        del example["label"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(example)] + lines[2:]) + "\n")
        assert main(["analyze", "--pairs", str(bad)]) == EXIT_PARSE
        assert "bad.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["eval", "--baseline-p", "nan"], "baseline_p must be a finite number, got nan"),
            (["eval", "--baseline-p=-inf"], "baseline_p must be a finite number, got -inf"),
            (["analyze", "--tau", "nan", "--threshold", "inf"],
             "tau must be a finite number, got nan"),
            (["analyze", "--threshold", "inf"],
             "distribution_threshold must be a finite number, got inf"),
            (["analyze", "--tau=-inf"], "tau must be a finite number, got -inf"),
            (["train", "--seed", "1", "--folds", "1"], "cv_folds must be >= 2"),
            (["eval", "--baseline-runs", "0"], "baseline_runs must be >= 1"),
            (["importance", "--repeats", "0"], "baseline_runs must be >= 1"),
            (["eval", "--baseline-p", "2"], "baseline_p must be between 0 and 1"),
            (["analyze", "--tau", "-3"], "tau must be between 0 and 1"),
            (["analyze", "--threshold", "5"], "distribution_threshold must be between 0 and 1"),
            (["train", "--seed", "1", "--learning-rate", "0"], "learning_rate must be positive"),
            (["train", "--seed", "1", "--learning-rate", "x"],
             "learning_rate must be a number, got 'x'"),
            (["train", "--seed", "1", "--n-rounds", "-1"], "n_rounds must be >= 0"),
            (["train", "--seed", "1", "--n-rounds", "2.5"], "n_rounds must be an integer, got '2.5'"),
            (["train", "--seed", "1", "--max-depth", "0"], "max_depth must be >= 1"),
            (["train", "--seed", "1", "--l2-leaf-penalty", "-1"], "l2_leaf_penalty must be >= 0"),
            (["train", "--seed", "1", "--split-gain-threshold", "nan"],
             "split_gain_threshold must be a finite number, got nan"),
            (["train", "--seed", "1", "--min-child-hessian=-inf"],
             "min_child_hessian must be a finite number, got -inf"),
        ],
    )
    def test_a_flag_outside_its_config_key_exits_1_with_the_key_message(
        self, chain, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out.json"
        inputs = ["--pairs", str(chain["pairs"])]
        if argv[0] != "train":
            inputs += ["--model", str(chain["model"])]
        code = main([*argv, *inputs, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pairs", "train", "eval", "importance", "run"])
    def test_a_seed_that_is_not_an_integer_exits_1_with_one_line(
        self, chain, tmp_path, capsys, command
    ):
        out = tmp_path / "out.json"
        argv = {
            "pairs": ["--in", chain["tmp"] / "corpus.brk", "--out", out],
            "train": ["--pairs", chain["pairs"], "--out", out],
            "eval": ["--model", chain["model"], "--pairs", chain["pairs"], "--out", out],
            "importance": ["--model", chain["model"], "--pairs", chain["pairs"], "--out", out],
            "run": ["--config", tmp_path / "config.json", "--out-dir", out],
        }[command]
        for seed in ("abc", "1.5", ""):
            assert main([command, "--seed", seed, *map(str, argv)]) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"error: seed must be an integer, got {seed!r}\n")
        assert not out.exists()

    def test_hyperparameters_are_checked_before_the_pairs_are_read(self, tmp_path, capsys):
        code = main([
            "train", "--pairs", str(tmp_path / "missing.jsonl"), "--seed", "5",
            "--out", str(tmp_path / "model.json"), "--learning-rate", "0",
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: learning_rate must be positive\n"

    def test_train_without_any_leaf_regularizer_exits_1(self, chain, tmp_path, capsys):
        code = main([
            "train", "--pairs", str(chain["pairs"]), "--seed", "5",
            "--out", str(tmp_path / "model.json"),
            "--l2-leaf-penalty", "0", "--min-child-hessian", "0",
        ])
        assert code == EXIT_CONFIG
        assert "cannot both be 0" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_train_whose_margins_leave_the_finite_numbers_exits_3(self, chain, tmp_path, capsys):
        out = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--pairs", str(chain["pairs"]), "--seed", "1",
                         "--n-rounds", "3", "--learning-rate", "1e308", "--out", str(out)])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith("error: boosting round 1 of 3 left a margin that is not finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [[], ["--grid", "small"], ["--n-rounds", "5"]])
    def test_train_on_an_empty_dataset_exits_3(self, tmp_path, capsys, args):
        pairs = tmp_path / "empty.jsonl"
        pairs.write_text('{"n_examples":0,"provenance":{"corpus":"","max_distance":35,'
                         '"partition":"","seed":3},"warnings":[]}\n')
        out = tmp_path / "model.json"
        code = main(["train", "--pairs", str(pairs), "--seed", "1", "--out", str(out), *args])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and "empty dataset" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_model_that_is_not_json_exits_2(self, chain, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("not a model\n")
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert "model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [999, -1])
    def test_model_splitting_on_a_missing_column_exits_2(self, chain, tmp_path, capsys, column):
        obj = json.loads(chain["model"].read_text())
        tree = next(t for t in obj["trees"] if "column" in t)
        tree["column"] = column
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed model {bad}: ValidationError: "
            f"split column {column} outside 0..{obj['n_features'] - 1}\n"
        )

    def test_model_whose_width_differs_from_its_schema_exits_2(self, chain, tmp_path, capsys):
        obj = json.loads(chain["model"].read_text())
        width = obj["n_features"]
        obj["n_features"] = 1000
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed model {bad}: ValidationError: "
            f"n_features 1000 differs from the encoder schema's {width} columns\n"
        )

    def test_model_with_a_hyperparameter_too_large_for_a_float_exits_2(
        self, chain, tmp_path, capsys
    ):
        obj = json.loads(chain["model"].read_text())
        obj["params"]["learning_rate"] = 10**400
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed model {bad}: OverflowError: int too large to convert to float\n"
        )

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda obj, i: obj["trees"][i].update(column=2.5),
             "model.trees[{i}].column: expected an integer"),
            (lambda obj, i: obj["trees"][i].update(threshold="0.5"),
             "model.trees[{i}].threshold: expected a number"),
            (lambda obj, i: obj["params"].update(n_rounds=None),
             "model.params.n_rounds: expected an integer"),
            (lambda obj, i: obj["params"].update(learning_rate=None),
             "model.params.learning_rate: expected a number"),
        ],
    )
    def test_mistyped_model_field_exits_2_naming_file_and_field(
        self, chain, tmp_path, capsys, edit, message
    ):
        obj = json.loads(chain["model"].read_text())
        i = next(i for i, tree in enumerate(obj["trees"]) if "column" in tree)
        edit(obj, i)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed model {bad}: ValidationError: {message.format(i=i)}\n"
        )

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda obj, i: obj.update(base_score=float("nan")),
             "model.base_score: expected a finite number"),
            (lambda obj, i: obj["trees"][i].update(threshold=float("-inf")),
             "model.trees[{i}].threshold: expected a finite number"),
            (lambda obj, i: obj["training_loss"].append(float("inf")),
             "model.training_loss: expected a list of finite numbers"),
            (lambda obj, i: obj["params"].update(learning_rate=float("nan")),
             "model.params.learning_rate: expected a finite number"),
        ],
    )
    def test_non_finite_model_number_exits_2_naming_file_and_field(
        self, chain, tmp_path, capsys, edit, message
    ):
        # json reads the literals NaN, Infinity and -Infinity as floats
        obj = json.loads(chain["model"].read_text())
        i = next(i for i, tree in enumerate(obj["trees"]) if "column" in tree)
        edit(obj, i)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--model", str(bad), "--pairs", str(chain["pairs"])]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: malformed model {bad}: ValidationError: {message.format(i=i)}\n"
        )

    @pytest.mark.parametrize(
        ("line", "edit", "message"),
        [
            (2, lambda text: json.dumps({**json.loads(text), "doc_id": 5}),
             "ValidationError: example[0].doc_id: expected a string"),
            (1, lambda text: json.dumps({**json.loads(text), "warnings": "abc"}),
             "ValidationError: header.warnings: expected a list of strings"),
            (5, lambda text: "{broken",
             "ParseError: line 5: invalid JSON: Expecting property name enclosed in double quotes"),
        ],
    )
    def test_malformed_pair_dataset_exits_2_naming_the_file(
        self, chain, tmp_path, capsys, line, edit, message
    ):
        lines = chain["pairs"].read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        bad = tmp_path / "pairs.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--pairs", str(bad), "--model", str(chain["model"]), "--tau", "1"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: malformed pair dataset {bad}: {message}\n"

    def test_analyze_refuses_a_model_without_an_encoder_schema(self, chain, tmp_path, capsys):
        obj = json.loads(chain["model"].read_text())
        obj["schema"] = None
        schemaless = tmp_path / "model.json"
        schemaless.write_text(json.dumps(obj))
        code = main(["analyze", "--pairs", str(chain["pairs"]), "--model", str(schemaless)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: model carries no encoder schema\n"


# The range of each setting that a flag mirrors, a config key or a
# hyperparameter, written out here and not read from the code: (flag, key,
# type, low, high), where a low or high of None is no bound. The low bound of
# learning_rate is exclusive, every other bound inclusive.
SEED_FLAG = ("--seed", "seed", int, None, None)
MIRRORED_FLAGS = {
    "train": [("--folds", "cv_folds", int, 2, None),
              ("--lemma-top-k", "lemma_top_k", int, 0, None),
              SEED_FLAG,
              ("--n-rounds", "n_rounds", int, 0, None),
              ("--max-depth", "max_depth", int, 1, None),
              ("--learning-rate", "learning_rate", float, 0, None),
              ("--l2-leaf-penalty", "l2_leaf_penalty", float, 0, None),
              ("--split-gain-threshold", "split_gain_threshold", float, 0, None),
              ("--min-child-hessian", "min_child_hessian", float, 0, None)],
    "eval": [("--baseline-p", "baseline_p", float, 0, 1),
             ("--baseline-runs", "baseline_runs", int, 1, None),
             SEED_FLAG],
    "importance": [("--repeats", "baseline_runs", int, 1, None), SEED_FLAG],
    "analyze": [("--tau", "tau", float, 0, 1),
                ("--threshold", "distribution_threshold", float, 0, 1)],
}
FLOAT_TEXTS = ("nan", "inf", "-inf", "-1", "0", "0.5", "1", "2", "1e308")
INT_TEXTS = ("-1", "0", "1", "2", str(10**400))
# Each subcommand's input flags and the chain file that a valid one names.
INPUT_FLAGS = {
    "train": {"--pairs": "pairs.jsonl"},
    "eval": {"--model": "model.json", "--pairs": "pairs.jsonl"},
    "importance": {"--model": "model.json", "--pairs": "pairs.jsonl"},
    "analyze": {"--pairs": "pairs.jsonl", "--model": "model.json", "--docs": "corpus.brk"},
}
PATH_KINDS = ("valid", "missing", "directory", "empty", "not_utf8")


def _in_range(key: str, kind: type, low, high, text: str) -> bool:
    try:
        value = kind(text)
    except ValueError:
        return False
    finite = kind is int or math.isfinite(value)
    above = low is None or (value > low if key == "learning_rate" else value >= low)
    return finite and above and (high is None or value <= high)


class TestFlagSurface:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_mirrored_flag_value_and_input_path_ends_in_an_exit_code(self, chain, data):
        command = data.draw(st.sampled_from(sorted(MIRRORED_FLAGS)))
        flag, key, kind, low, high = data.draw(st.sampled_from(MIRRORED_FLAGS[command]))
        # 10**400 is in range for baseline_runs and n_rounds, but
        # random_baseline and mda_importance loop range(runs), and train
        # range(n_rounds), so a run would never end
        texts = FLOAT_TEXTS + INT_TEXTS
        if key in ("baseline_runs", "n_rounds"):
            texts = texts[:-1]
        text = data.draw(st.sampled_from(texts))
        # about half of the paths drawn are valid, so that commands also run
        path_kinds = st.one_of(st.just("valid"), st.sampled_from(PATH_KINDS))
        kinds = {name: data.draw(path_kinds) for name in INPUT_FLAGS[command]}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "out.json"
            argv = [command, f"{flag}={text}", "--out", str(out)]
            if command == "train":
                argv += ["--grid", "small"] + (["--seed", "1"] if flag != "--seed" else [])
            for name, path_kind in kinds.items():
                valid = chain["tmp"] / INPUT_FLAGS[command][name]
                path = valid if path_kind == "valid" else tmp / (path_kind + valid.suffix)
                if path_kind == "directory":
                    path.mkdir()
                elif path_kind in ("empty", "not_utf8"):
                    path.write_bytes(b"" if path_kind == "empty" else b"\xff\xfe\n")
                argv += [name, str(path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            err = stderr.getvalue()
            event(f"{command} exits {code}")
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_PIPELINE), err
            assert "Traceback" not in err
            if code != EXIT_OK:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert not out.exists()
            if not _in_range(key, kind, low, high, text):
                assert code == EXIT_CONFIG and err.startswith(f"error: {key} must be "), err


class TestUnwritableOutputs:
    @pytest.mark.parametrize(
        "command",
        ["convert", "harmonize", "harmonize --report", "harmonize --report --out", "pairs",
         "pairs --csv", "train", "eval", "importance", "analyze"],
    )
    def test_an_output_that_is_a_directory_exits_1_naming_it(
        self, chain, tmp_path, capsys, command
    ):
        out = tmp_path / "taken"
        out.mkdir()
        corpus, pairs, model = chain["tmp"] / "corpus.brk", chain["pairs"], chain["model"]
        argv = {
            "convert": ["convert", "--in", corpus, "--out", out],
            "harmonize": ["harmonize", "--in", corpus, "--out", out],
            "harmonize --report": ["harmonize", "--in", corpus, "--out", tmp_path / "h.jsonl",
                                   "--report", out],
            "harmonize --report --out": ["harmonize", "--in", corpus, "--out", out,
                                         "--report", tmp_path / "r.json"],
            "pairs": ["pairs", "--in", corpus, "--seed", "5", "--out", out],
            "pairs --csv": ["pairs", "--in", corpus, "--seed", "5", "--out", tmp_path / "p.jsonl",
                            "--csv", out],
            "train": ["train", "--pairs", pairs, "--seed", "5", "--out", out, "--n-rounds", "2"],
            "eval": ["eval", "--model", model, "--pairs", pairs, "--out", out],
            "importance": ["importance", "--model", model, "--pairs", pairs, "--repeats", "1",
                           "--out", out],
            "analyze": ["analyze", "--pairs", pairs, "--out", out],
        }[command]
        assert main([str(arg) for arg in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        # an earlier output of the same command (h.jsonl, r.json, p.jsonl) is
        # removed, and the directory is left as it was
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any(out.iterdir())

    def test_an_output_under_a_regular_file_exits_1_naming_it(self, chain, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x.jsonl"
        code = main(["convert", "--in", str(chain["tmp"] / "corpus.brk"), "--out", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: File exists\n"
        assert captured.out == ""

    def test_missing_parent_directories_are_created(self, chain, tmp_path):
        out = tmp_path / "new" / "dir" / "x.jsonl"
        code = main(["convert", "--in", str(chain["tmp"] / "corpus.brk"), "--out", str(out)])
        assert code == EXIT_OK
        assert read_documents(out)

    def test_run_whose_report_path_is_a_directory_fails_at_the_report_stage(
        self, tmp_path, capsys
    ):
        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 2, "max_depth": 2}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "runs" / load_config(path).run_id()
        (run_dir / "report.json").mkdir(parents=True)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        message = f"cannot write {run_dir / 'report.json'}: Is a directory"
        assert capsys.readouterr().err == f"error: stage report: {message}\n"
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert (partial["failed_stage"], partial["error"]) == ("report", message)


class _StopsAfter100Bytes:
    """A file opened for writing that writes 100 bytes, then raises `exc`."""

    def __init__(self, out, exc: BaseException):
        self.out, self.exc = out, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.out.close()

    def write(self, chunk: bytes) -> None:
        self.out.write(chunk[:100])
        raise self.exc


class TestInterruptedModelWrites:
    @pytest.mark.parametrize(
        "exc", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["ENOSPC", "KeyboardInterrupt"],
    )
    @pytest.mark.parametrize("command", ["train", "run"])
    def test_a_model_write_that_stops_part_way_leaves_no_file(
        self, chain, tmp_path, capsys, monkeypatch, command, exc
    ):
        def open_model_stopping(path, mode="r", *args, **kwargs):
            out = open(path, mode, *args, **kwargs)
            return _StopsAfter100Bytes(out, exc) if Path(path).parent.name == "models" else out

        monkeypatch.setattr(bridgekit.records, "open", open_model_stopping, raising=False)
        if command == "train":
            model = tmp_path / "models" / "m.json"
            argv = ["train", "--pairs", str(chain["pairs"]), "--seed", "5", "--n-rounds", "2",
                    "--out", str(model)]
        else:
            config = base_config(tmp_path)
            config["grid"] = [{"n_rounds": 2, "max_depth": 2}]
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            model = tmp_path / "runs" / load_config(path).run_id() / "models" / "corpusA.json"
            argv = ["run", "--config", str(path)]
        if isinstance(exc, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == EXIT_CONFIG
            stage = "stage train:corpusA: " if command == "run" else ""
            assert capsys.readouterr().err == (
                f"error: {stage}cannot write {model}: No space left on device\n"
            )
        assert not model.exists()
        assert not any(model.parent.iterdir())


class TestConfig:
    def write(self, tmp_path, payload) -> Path:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def minimal(self, tmp_path) -> dict:
        """The required keys only, with one corpus file on disk."""
        (tmp_path / "f.brk").write_text("1\ta\ta\tNN\tsing\tdep\t0\t_\n")
        return {
            "seed": 1,
            "corpora": [
                {"name": "x", "dialect": "bracket", "train": ["f.brk"], "test": ["f.brk"]}
            ],
        }

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        ("payload", "message"),
        [
            ({}, "integer seed"),
            ({"seed": None}, "integer seed"),
            ({"seed": "7", "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"],
                                        "test": ["f"]}]},
             "^seed must be an integer, got '7'$"),
            ({"seed": True, "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"],
                                         "test": ["f"]}]},
             "^seed must be an integer, got True$"),
            ({"seed": 1}, "non-empty corpora"),
            ({"seed": 1, "corpora": [{"name": "x"}]}, "name and dialect"),
            ({"seed": 1, "corpora": [{"name": "x", "dialect": ["bracket"]}]}, "name and dialect"),
            ({"seed": 1, "corpora": [{"name": ["x"], "dialect": "bracket"}]}, "name and dialect"),
            (
                {"seed": 1, "corpora": [{"name": "x", "dialect": "bracket", "train": "f"}]},
                "train must be a list of strings",
            ),
            ({"seed": 1, "corpora": [{"name": "x", "dialect": "xml"}]}, "unknown dialect"),
            (
                {"seed": 1, "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"],
                                         "tset": ["f"]}]},
                "corpus 'x' has unknown key 'tset'",
            ),
            (
                {"seed": 1, "corpora": [{"name": "x", "dialect": "bracket", "test": ["f"]}]},
                "no training files",
            ),
            (
                {"seed": 1, "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"]}]},
                "no evaluation files",
            ),
            (
                {"seed": 1, "grid": [],
                 "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"], "test": ["f"]}]},
                "grid must be",
            ),
            (
                {"seed": 1, "residual_source": "tea-leaves",
                 "corpora": [{"name": "x", "dialect": "bracket", "train": ["f"], "test": ["f"]}]},
                "residual_source",
            ),
        ],
    )
    def test_rejected_configs(self, tmp_path, payload, message):
        with pytest.raises(ConfigError, match=message):
            load_config(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("lemma_top_k", "x", "lemma_top_k must be an integer"),
            ("tau", "a", "tau must be a number"),
            ("pronoun_tags", 5, "pronoun_tags must be a list of strings"),
            ("exclusion_list", 5, "exclusion_list must be a string"),
            ("output_dir", 5, "output_dir must be a string"),
            ("grid", [{"n_rounds": 2.5, "max_depth": 3}], "n_rounds must be an integer"),
            ("cv_fold", 3, "config has unknown key 'cv_fold'"),
            ("grid", [{"l2_leaf_penalty": float("nan")}], "l2_leaf_penalty must be a finite"),
        ],
    )
    def test_mistyped_values_exit_1_naming_the_key(self, tmp_path, capsys, key, value, message):
        payload = {**self.minimal(tmp_path), key: value}
        assert main(["run", "--config", str(self.write(tmp_path, payload))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["baseline_p", "tau", "distribution_threshold"])
    def test_a_non_finite_number_exits_1_naming_the_key(self, tmp_path, capsys, key, value):
        # json reads the literals NaN, Infinity and -Infinity as floats
        path = self.write(tmp_path, {**self.minimal(tmp_path), key: value})
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {value!r}\n"
        assert not (tmp_path / "runs").exists()

    def test_subcommand_flag_defaults_are_the_config_defaults(self):
        parser = bridgekit.cli.build_parser()
        for argv, flag, key in [
            (["pairs", "--in", "c", "--seed", "1", "--out", "o"], "pronoun_tags", "pronoun_tags"),
            (["train", "--pairs", "p", "--seed", "1", "--out", "o"], "folds", "cv_folds"),
            (["train", "--pairs", "p", "--seed", "1", "--out", "o"], "lemma_top_k", "lemma_top_k"),
            (["eval", "--model", "m", "--pairs", "p"], "baseline_p", "baseline_p"),
            (["eval", "--model", "m", "--pairs", "p"], "baseline_runs", "baseline_runs"),
            (["importance", "--model", "m", "--pairs", "p"], "repeats", "baseline_runs"),
            (["analyze", "--pairs", "p"], "tau", "tau"),
            (["analyze", "--pairs", "p"], "threshold", "distribution_threshold"),
        ]:
            default = getattr(parser.parse_args(argv), flag)
            assert default == getattr(PipelineConfig, key), (argv[0], flag)
        assert PipelineConfig.lemma_top_k == DEFAULT_LEMMA_TOP_K

    def test_null_values_load_as_the_field_defaults(self, tmp_path):
        payload = self.minimal(tmp_path)
        plain = load_config(self.write(tmp_path, payload))
        optional = [f.name for f in fields(PipelineConfig) if f.name not in payload]
        nulls = load_config(self.write(tmp_path, {**payload, **dict.fromkeys(optional)}))
        assert nulls.cv_folds == 5
        assert nulls == plain
        # and so do the file lists of a corpus
        payload["corpora"][0].update(dev=None, extra_test=None)
        assert load_config(self.write(tmp_path, payload)) == plain

    def test_readme_config_block_loads_as_the_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Pipeline config\n\n```json\n", 1)[1].split("```", 1)[0]
        raw = json.loads(block)
        for corpus in raw["corpora"]:
            for role in ("train", "dev", "test"):
                for rel in corpus.get(role, []):
                    (tmp_path / rel).touch()
        path = tmp_path / "config.json"
        path.write_text(block)
        config = load_config(path)
        assert config == PipelineConfig(seed=raw["seed"], corpora=config.corpora)

    def test_readme_hyperparameter_table_matches_the_declarations(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Key | Type | Range | Default | Flag that sets it |\n", 1)[1]
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in table.split("\n\n", 1)[0].splitlines()[1:]]
        declared = {f.name: f for f in fields(HyperParams)}
        assert [row[0] for row in rows] == list(declared)
        for key, kind, bounds, default, flag in rows:
            setting = declared[key].metadata["setting"]
            assert kind == {int: "integer", float: "number"}[setting.kind]
            assert bounds == ("> 0" if key == "learning_rate" else f">= {setting.low}")
            assert setting.check(key, json.loads(default)) == declared[key].default
            assert flag == "train --" + key.replace("_", "-")

    def test_duplicate_corpus_names_are_rejected(self, tmp_path):
        (tmp_path / "f.brk").write_text("1\ta\ta\tNN\tsing\tdep\t0\t_\n")
        payload = {
            "seed": 1,
            "corpora": [
                {"name": "x", "dialect": "bracket", "train": ["f.brk"], "test": ["f.brk"]},
                {"name": "x", "dialect": "bracket", "train": ["f.brk"], "test": ["f.brk"]},
            ],
        }
        with pytest.raises(ConfigError, match="unique"):
            load_config(self.write(tmp_path, payload))

    def test_missing_input_paths_are_reported(self, tmp_path):
        payload = {
            "seed": 1,
            "corpora": [
                {"name": "x", "dialect": "bracket", "train": ["ghost.brk"], "test": ["g.brk"]}
            ],
        }
        with pytest.raises(ConfigError, match="ghost.brk"):
            load_config(self.write(tmp_path, payload))

    def test_run_id_ignores_output_dir_but_tracks_everything_else(self, tmp_path):
        config = base_config(tmp_path)
        path = self.write(tmp_path, config)
        base = load_config(path)
        moved = load_config(path, {"output_dir": str(tmp_path / "elsewhere")})
        reseeded = load_config(path, {"seed": 14})
        assert base.run_id() == moved.run_id()
        assert base.run_id() != reseeded.run_id()

    def test_null_pronoun_tags_fall_back_to_defaults_but_empty_stays_empty(self, tmp_path):
        (tmp_path / "f.brk").write_text("1\ta\ta\tNN\tsing\tdep\t0\t_\n")
        payload = {
            "seed": 1,
            "pronoun_tags": None,
            "corpora": [
                {"name": "x", "dialect": "bracket", "train": ["f.brk"], "test": ["f.brk"]}
            ],
        }
        assert load_config(self.write(tmp_path, payload)).pronoun_tags == (
            "PRP", "PRP$", "WP", "WP$",
        )
        payload["pronoun_tags"] = []
        assert load_config(self.write(tmp_path, payload)).pronoun_tags == ()

    def test_environment_variable_overrides_output_dir(self, tmp_path, monkeypatch):
        config = base_config(tmp_path)
        path = self.write(tmp_path, config)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
        loaded = load_config(path)
        assert loaded.output_dir == str(tmp_path / "from_env")

    def test_relative_paths_ignore_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        (tmp_path / "cwd" / "only_here.brk").write_text("1\ta\ta\tNN\tsing\tdep\t0\t_\n")
        payload = {
            "seed": 1,
            "corpora": [
                {"name": "x", "dialect": "bracket", "train": ["only_here.brk"],
                 "test": ["only_here.brk"]}
            ],
        }
        (tmp_path / "conf").mkdir()
        with pytest.raises(ConfigError, match="only_here.brk"):
            load_config(self.write(tmp_path / "conf", payload))

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "name": "\xff"}')
        with pytest.raises(ConfigError, match="UTF-8"):
            load_config(path)

    def test_config_error_exits_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {"seed": "x"})
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "nested too deeply", "too many digits"])
    def test_an_unreadable_config_exits_1_with_one_error_line(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
            message = f"cannot read config {path}: Is a directory"
        elif kind == "nested too deeply":
            path.write_text("[" * 100_000)
            message = "config is not valid JSON: nested too deeply"
        else:
            # Python refuses to read an integer of more than 4,300 digits
            path.write_text('{"seed": 1' + "0" * 5000 + "}")
            message = "config is not valid JSON: an integer has too many digits"
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        ("grid", "message"),
        [
            ([{"n_round": 3}], "grid entry has unknown key 'n_round'"),
            ([{"n_rounds": 3}, {"max_depth": 2, "rate": 0.1, "depth": 2}],
             "grid entry has unknown key 'depth', 'rate'"),
            ([5], 'grid must be "default" or a non-empty list of objects'),
            ([{"n_rounds": 3}, None], 'grid must be "default" or a non-empty list of objects'),
            ([{"n_rounds": None}], "n_rounds must be an integer, got None"),
            ([{"learning_rate": 0}], "learning_rate must be positive"),
            ([{"max_depth": 0}], "max_depth must be >= 1"),
            ([{"split_gain_threshold": -0.5}], "split_gain_threshold must be >= 0"),
        ],
    )
    def test_a_bad_grid_entry_exits_1_naming_the_key(self, tmp_path, capsys, grid, message):
        payload = {**self.minimal(tmp_path), "grid": grid}
        assert main(["run", "--config", str(self.write(tmp_path, payload))]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_grid_value_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        payload = {**self.minimal(tmp_path), "grid": [{"learning_rate": 10**400}]}
        assert main(["run", "--config", str(self.write(tmp_path, payload))]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bad grid entry: int too large to convert to float\n"
        )

    @pytest.mark.parametrize("value", [True, False, "x", None, [0.3]])
    @pytest.mark.parametrize(
        "key", ["learning_rate", "l2_leaf_penalty", "split_gain_threshold", "min_child_hessian"]
    )
    def test_a_float_hyperparameter_that_is_not_a_number_exits_1(
        self, tmp_path, capsys, key, value
    ):
        # a boolean would otherwise be saved in a model file that cannot be read back
        payload = {**self.minimal(tmp_path), "grid": [{"n_rounds": 2, key: value}]}
        assert main(["run", "--config", str(self.write(tmp_path, payload))]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key} must be a number, got {value!r}\n"


class TestRun:
    def test_an_integer_learning_rate_gives_the_run_of_its_float(self, tmp_path):
        config = base_config(tmp_path)
        path = tmp_path / "config.json"
        runs = []
        for rate in (1, 1.0):
            config["grid"] = [{"n_rounds": 3, "max_depth": 2, "learning_rate": rate}]
            path.write_text(json.dumps(config))
            assert main(["run", "--config", str(path)]) == EXIT_OK
            (run_dir,) = (tmp_path / "runs").iterdir()
            runs.append((run_dir.name, run_files(run_dir)))
            run_dir.rename(tmp_path / f"run_{len(runs)}")
        (first_id, first), (second_id, second) = runs
        assert first_id == second_id
        assert first == second
        assert {"resolved_config.json", "cv/corpusA.json", "models/corpusA.json"} <= first.keys()

    def test_outputs_land_in_the_hashed_run_directory(self, pipeline_run):
        run_dir = pipeline_run["run_dir"]
        assert run_dir.name == pipeline_run["report"]["run_id"]
        for rel in [
            "resolved_config.json",
            "harmonized/corpusA_train.jsonl",
            "harmonized/corpusB_eval.jsonl",
            "harmonize_report_corpusA.json",
            "datasets/corpusA_train.jsonl",
            "datasets/corpusB_eval.csv",
            "cv/corpusA.json",
            "models/corpusA.json",
            "models/corpusB.json",
            "eval/metrics.json",
            "importance/corpusB.json",
            "analysis/corpusA_pair_types.csv",
            "report.json",
        ]:
            assert (run_dir / rel).exists(), rel

    def test_report_covers_every_model_corpus_combination(self, pipeline_run):
        report = pipeline_run["report"]
        names = {"corpusA", "corpusB"}
        assert set(report["metrics"]) == names
        for model_name in names:
            assert set(report["metrics"][model_name]) == names
            for metrics in report["metrics"][model_name].values():
                assert 0.0 <= metrics["f1"] <= 1.0
        assert set(report["baselines"]) == names
        assert set(report["importance"]) == names
        assert set(report["residuals"]) == names
        assert set(report["confident_errors"]) == {
            "corpusA_on_corpusA", "corpusA_on_corpusB",
            "corpusB_on_corpusA", "corpusB_on_corpusB",
        }

    def test_in_domain_models_learn_the_planted_rule(self, pipeline_run):
        report = pipeline_run["report"]
        assert report["metrics"]["corpusA"]["corpusA"]["f1"] > 0.6
        assert report["metrics"]["corpusB"]["corpusB"]["f1"] > 0.6
        for name in ("corpusA", "corpusB"):
            assert report["metrics"][name][name]["f1"] > report["baselines"][name]["f1"]

    def test_residual_signs_match_the_planted_definiteness_rule(self, pipeline_run):
        for name in ("corpusA", "corpusB"):
            residuals = pipeline_run["report"]["residuals"][name]["residuals"]
            assert residuals[0][0] > 0  # definite anaphors over-represent bridging
            assert residuals[0][1] < 0
            assert residuals[1][0] < 0
            assert residuals[1][1] > 0

    def test_chosen_params_come_from_the_configured_grid(self, pipeline_run):
        report = pipeline_run["report"]
        allowed = [
            {"n_rounds": 20, "max_depth": 3, "learning_rate": 0.3,
             "l2_leaf_penalty": 1.0, "split_gain_threshold": 0.0, "min_child_hessian": 1.0},
            {"n_rounds": 40, "max_depth": 4, "learning_rate": 0.3,
             "l2_leaf_penalty": 1.0, "split_gain_threshold": 0.0, "min_child_hessian": 1.0},
        ]
        for name in ("corpusA", "corpusB"):
            assert report["corpora"][name]["best_params"] in allowed
            cv = json.loads((pipeline_run["run_dir"] / "cv" / f"{name}.json").read_text())
            assert len(cv) == 2 and all(len(entry["fold_f1"]) == 3 for entry in cv)

    def test_harmonize_reports_and_rates_are_recorded(self, pipeline_run):
        report = pipeline_run["report"]
        for name in ("corpusA", "corpusB"):
            corpus = report["corpora"][name]
            assert corpus["harmonize"]["entity_type_remaps"] > 0
            assert corpus["bridging_rate_per_1k"] > 0
            assert set(corpus["dataset_counts"]) == {"train", "eval"}
            counts = corpus["dataset_counts"]["train"]
            assert counts["bridging"] > 0

    def test_rerun_is_byte_identical(self, pipeline_run):
        before = run_files(pipeline_run["run_dir"])
        code = main(["run", "--config", str(pipeline_run["config_path"])])
        assert code == EXIT_OK
        assert run_files(pipeline_run["run_dir"]) == before

    def test_pure_python_artifacts_match_golden_hashes(self, pipeline_run):
        run_dir = pipeline_run["run_dir"]
        assert run_dir.name == GOLDEN_RUN_ID
        files = run_files(run_dir)
        tmp = str(pipeline_run["tmp"]).encode()
        files["resolved_config.json"] = files["resolved_config.json"].replace(tmp, b"TMP")
        assert {
            rel: hashlib.sha256(files[rel]).hexdigest() for rel in GOLDEN_SHA256
        } == GOLDEN_SHA256

    def test_seed_override_creates_a_sibling_run(self, pipeline_run):
        code = main(["run", "--config", str(pipeline_run["config_path"]), "--seed", "14"])
        assert code == EXIT_OK
        runs = list((pipeline_run["tmp"] / "runs").iterdir())
        assert len(runs) == 2

    def test_out_dir_flag_beats_the_environment_variable(self, tmp_path, monkeypatch):
        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 5, "max_depth": 2}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        assert main(["run", "--config", str(path), "--out-dir", str(flag_out)]) == EXIT_OK
        assert len(list(flag_out.glob("run-*/report.json"))) == 1
        assert not (tmp_path / "env_out").exists()
        assert not (tmp_path / "runs").exists()

    def test_parse_failure_leaves_a_partial_report_and_exits_2(self, tmp_path, capsys):
        config = base_config(tmp_path)
        (tmp_path / "a_train.brk").write_text("1\tbroken\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            f"error: stage load:corpusA: {tmp_path / 'a_train.brk'}: line 1: "
        )
        run_dir = next((tmp_path / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert partial["failed_stage"] == "load:corpusA"
        assert "line 1" in partial["error"]
        assert not (run_dir / "report.json").exists()

    def test_invalid_corpus_content_exits_2_with_the_failed_stage(self, tmp_path):
        config = base_config(tmp_path)
        (tmp_path / "b_test.sff").write_bytes(b"DOC\td g\nTOK\t1 a a NN sing dep 7\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_PARSE
        run_dir = next((tmp_path / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert partial["failed_stage"] == "load:corpusB"
        assert "b_test.sff" in partial["error"]

    def test_any_exception_leaves_a_partial_report(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("harmonizer broke")

        monkeypatch.setattr(bridgekit.cli, "harmonize_corpus", broken)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path)))
        with pytest.raises(RuntimeError, match="harmonizer broke"):
            main(["run", "--config", str(path)])
        run_dir = next((tmp_path / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert partial["failed_stage"] == "harmonize:corpusA"
        assert partial["error"] == "harmonizer broke"
        assert not (run_dir / "report.json").exists()

    def test_relative_corpus_paths_resolve_against_the_config_directory(
        self, tmp_path, monkeypatch
    ):
        config_dir = tmp_path / "conf"
        config_dir.mkdir()
        config = base_config(config_dir)
        path = config_dir / "config.json"
        path.write_text(json.dumps(config))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        (cwd / "a_train.brk").write_text("1\tdecoy\n")  # would fail to parse
        monkeypatch.chdir(cwd)

        def stop(*args, **kwargs):
            raise RuntimeError("stop after loading")

        monkeypatch.setattr(bridgekit.cli, "cross_validate", stop)
        with pytest.raises(RuntimeError, match="stop after loading"):
            main(["run", "--config", str(path)])
        run_dir = next((config_dir / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert partial["failed_stage"] == "cv:corpusA"

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("lemma_top_k", -1, "lemma_top_k must be >= 0"),
            ("cv_folds", 1, "cv_folds must be >= 2"),
            ("baseline_runs", 0, "baseline_runs must be >= 1"),
            ("baseline_p", 2.0, "baseline_p must be between 0 and 1"),
            pytest.param("baseline_p", 10**400, "baseline_p must be between 0 and 1",
                         id="baseline_p-10**400"),
            ("tau", -3, "tau must be between 0 and 1"),
            ("distribution_threshold", 5, "distribution_threshold must be between 0 and 1"),
        ],
    )
    def test_out_of_range_settings_exit_1_before_any_stage(
        self, tmp_path, capsys, key, value, message
    ):
        config = base_config(tmp_path)
        config.update({key: value, "grid": [{"n_rounds": 2, "max_depth": 2}]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_negative_seed_runs_to_the_end(self, tmp_path, capsys, where):
        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 5, "max_depth": 2}]
        flags = ["--seed", "-1"] if where == "flag" else []
        if where == "config":
            config["seed"] = -1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), *flags]) == EXIT_OK
        assert capsys.readouterr().err == ""
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert json.loads((run_dir / "resolved_config.json").read_text())["seed"] == -1
        assert (run_dir / "report.json").is_file()
        assert not (run_dir / "report.partial.json").exists()

    @pytest.mark.parametrize(
        ("binding", "stage", "code", "message"),
        [
            ("read_documents", "load:corpusA", EXIT_PARSE,
             "malformed corpus file {tmp}/a_train.brk: EmptyDatasetError: boom"),
            ("harmonize_corpus", "harmonize:corpusA", EXIT_PIPELINE, "boom"),
            ("build_balanced_dataset", "datasets:corpusA", EXIT_PIPELINE, "boom"),
            ("cross_validate", "cv:corpusA", EXIT_PIPELINE, "boom"),
            ("train", "train:corpusA", EXIT_PIPELINE, "boom"),
            ("evaluate", "evaluate", EXIT_PIPELINE, "boom"),
            ("gain_importance", "importance:corpusA", EXIT_PIPELINE, "boom"),
            ("chi_square_residuals", "analysis", EXIT_PIPELINE, "boom"),
            ("confident_errors", "analysis", EXIT_PIPELINE, "boom"),
            (None, "load", EXIT_PARSE,
             "malformed exclusion list {tmp}/exclusions.tsv: ParseError: "
             "line 1: expected 'doc_id<TAB>anaphor_id', got 'no-tab'"),
        ],
    )
    def test_each_stage_reports_its_own_failure(
        self, tmp_path, capsys, monkeypatch, binding, stage, code, message
    ):
        from bridgekit.errors import EmptyDatasetError

        def boom(*args, **kwargs):
            raise EmptyDatasetError("boom")

        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 2, "max_depth": 2}]
        if binding is None:
            (tmp_path / "exclusions.tsv").write_text("no-tab\n")
            config["exclusion_list"] = "exclusions.tsv"
        else:
            monkeypatch.setattr(bridgekit.cli, binding, boom)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == code
        message = message.format(tmp=tmp_path)
        assert capsys.readouterr().err == f"error: stage {stage}: {message}\n"
        run_dir = next((tmp_path / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert (partial["failed_stage"], partial["error"]) == (stage, message)
        assert not (run_dir / "report.json").exists()

    def test_corpus_residual_source_tabulates_the_harmonized_eval_documents(self, tmp_path):
        from bridgekit.stats import chi_square_residuals, definiteness_contingency_corpus

        config = base_config(tmp_path)
        config.update({"grid": [{"n_rounds": 2, "max_depth": 2}], "residual_source": "corpus"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        run_dir = next((tmp_path / "runs").iterdir())
        report = json.loads((run_dir / "report.json").read_text())
        for name in ("corpusA", "corpusB"):
            eval_docs = read_documents(run_dir / "harmonized" / f"{name}_eval.jsonl")
            table = definiteness_contingency_corpus(eval_docs)
            expected = json.loads(json.dumps(chi_square_residuals(table).to_dict()))
            assert report["residuals"][name] == expected
            # every mention counts once, not every pair
            assert sum(map(sum, expected["observed"])) == sum(
                len(doc.mentions) for doc in eval_docs
            )

    def test_pipeline_failure_exits_3_with_the_failed_stage(self, tmp_path):
        config = base_config(tmp_path)
        # an eval split without a single bridging link cannot define the
        # distance cap, which is a pipeline (data) error, not a parse error
        linkless = planted_rule_corpus(300, n_docs=1, definite_prob=0.0)
        assert not linkless[0].bridging
        write_bracket(tmp_path / "a_test.brk", linkless)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == EXIT_PIPELINE
        run_dir = next((tmp_path / "runs").iterdir())
        partial = json.loads((run_dir / "report.partial.json").read_text())
        assert partial["failed_stage"] == "datasets:corpusA"


# The planted corpus of each dialect that TestRunIsItsChain draws: the
# bracket dialect carries one link per anaphor, and the standoff corpus
# marks definiteness on the surface, as in base_config.
CHAIN_CORPORA = {
    "bracket": {"single_link_per_anaphor": True},
    "standoff": {"schema": "arrau_like", "surface_definiteness": True},
    "canonical": {},
}


def _ok(*argv) -> tuple[str, str]:
    """Run one command in-process; it must succeed. Its stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    assert code == EXIT_OK, stderr.getvalue()
    return stdout.getvalue(), stderr.getvalue()


def _chain_corpus(tmp: Path, name: str, dialect: str, docs, dev: bool, extra: bool, n_eval: int):
    """Write `docs` as corpus `name`'s files, the last `n_eval` for evaluation,
    splitting off one document into `dev` and one into `extra_test` when
    asked. Its config entry, and its training documents."""
    parts = {"train": docs[:-n_eval], "test": docs[-n_eval:]}
    if dev:
        parts["train"], parts["dev"] = parts["train"][:-1], parts["train"][-1:]
    if extra:
        parts["test"], parts["extra_test"] = parts["test"][:-1], parts["test"][-1:]
    entry = {"name": name, "dialect": dialect}
    for part, chunk in parts.items():
        entry[part] = [write_dialect(tmp / f"{name}_{part}", dialect, chunk).name]
    return entry, parts["train"] + parts.get("dev", [])


def _run_and_chain(tmp: Path, config: dict) -> None:
    """`run` on `config`, then every run output rebuilt by the subcommands
    from the same input files: byte for byte for the files the subcommands
    write, and as parsed values for the payloads that `run` nests in
    `eval/metrics.json` and `report.json`. What no subcommand makes (the
    harmonize report of a whole corpus, a custom grid's CV, the pair-types
    CSV, the bridging rate and corpus residuals) comes from the library call
    that README *CLI* names for it."""
    from bridgekit.cli import _dump_json
    from bridgekit.gbdt import HyperParams, cross_validate
    from bridgekit.harmonize import read_exclusion_list
    from bridgekit.pairgen import bridging_rate_per_1k, dataset_from_jsonl
    from bridgekit.stats import (
        chi_square_residuals, definiteness_contingency_corpus, entity_pair_distribution,
    )

    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    _ok("run", "--config", config_path)
    (run_dir,) = (tmp / "runs").iterdir()
    files = run_files(run_dir)
    report = json.loads(files["report.json"])

    chain = tmp / "chain"
    seed = config["seed"]
    exclusions = frozenset()
    exclusion_flags = []
    if "exclusion_list" in config:
        exclusions = read_exclusion_list(tmp / config["exclusion_list"])
        exclusion_flags = ["--exclusions", tmp / config["exclusion_list"]]
    rebuilt: dict[str, bytes] = {}
    expected = {"run_id": run_dir.name, "config": report["config"], "corpora": {},
                "metrics": {}, "baselines": {}, "importance": {}, "residuals": {},
                "distributions": {}, "confident_errors": {}}
    harmonize_warnings, dataset_warnings = [], []
    names = [corpus["name"] for corpus in config["corpora"]]
    for corpus in config["corpora"]:
        name, dialect = corpus["name"], corpus["dialect"]
        roles = {"train": corpus.get("train", []) + corpus.get("dev", []),
                 "eval": corpus.get("test", []) + corpus.get("extra_test", [])}
        raw, docs = [], []
        for role, inputs in roles.items():
            harmonized = chain / f"harmonized/{name}_{role}.jsonl"
            harmonized.parent.mkdir(parents=True, exist_ok=True)
            chunks = []
            for rel in inputs:
                _ok("harmonize", "--in", tmp / rel, "--dialect", dialect,
                    "--out", chain / "h.jsonl", *exclusion_flags)
                chunks.append((chain / "h.jsonl").read_bytes())
                raw += read_documents(tmp / rel, dialect)
            rebuilt[f"harmonized/{name}_{role}.jsonl"] = b"".join(chunks)
            harmonized.write_bytes(b"".join(chunks))
            docs += read_documents(harmonized)
            _, err = _ok("pairs", "--in", harmonized, "--seed", seed, "--corpus", name,
                         "--partition", role, "--out", chain / f"datasets/{name}_{role}.jsonl",
                         "--csv", chain / f"datasets/{name}_{role}.csv")
            dataset_warnings += [f"{name}/{role}: {line.removeprefix('warning: ')}"
                                 for line in err.splitlines()]
            for suffix in ("jsonl", "csv"):
                rel = f"datasets/{name}_{role}.{suffix}"
                rebuilt[rel] = (chain / rel).read_bytes()
        harmonize_report = harmonize_corpus(raw, exclusions)[1].to_dict()
        rebuilt[f"harmonize_report_{name}.json"] = _dump_json(harmonize_report).encode()
        harmonize_warnings += [f"{name}: unresolved entity type {label!r}"
                               for label in harmonize_report["unresolved_entity_types"]]
        datasets = {role: dataset_from_jsonl(rebuilt[f"datasets/{name}_{role}.jsonl"])
                    for role in roles}
        expected["corpora"][name] = {
            "harmonize": json.loads(_dump_json(harmonize_report)),
            "bridging_rate_per_1k": bridging_rate_per_1k(docs),
            "dataset_counts": {role: ds.label_counts() for role, ds in datasets.items()},
            "max_distance": {role: ds.provenance.max_distance for role, ds in datasets.items()},
        }

        train_pairs = chain / f"datasets/{name}_train.jsonl"
        common = ["--pairs", train_pairs, "--seed", seed,
                  "--lemma-top-k", config["lemma_top_k"]]
        chosen = report["corpora"][name]["best_params"]
        out, _ = _ok("train", *common, *(
            arg for key, value in chosen.items()
            for arg in ("--" + key.replace("_", "-"), repr(value))
        ), "--out", chain / f"models/{name}.json")
        summary = json.loads(out)
        rebuilt[f"models/{name}.json"] = (chain / f"models/{name}.json").read_bytes()
        expected["corpora"][name].update(best_params=summary["params"],
                                         final_training_loss=summary["final_training_loss"])
        if config["grid"] == "default":
            out, _ = _ok("train", *common, "--grid", "default", "--folds", config["cv_folds"],
                         "--out", chain / f"models/{name}_cv.json")
            cv = json.loads(out)["cv"]
            cv_model = (chain / f"models/{name}_cv.json").read_bytes()
            assert cv_model == rebuilt[f"models/{name}.json"]
        else:
            _, results = cross_validate(
                datasets["train"], [HyperParams(**entry) for entry in config["grid"]],
                k=config["cv_folds"], seed=seed, lemma_top_k=config["lemma_top_k"])
            cv = [{"params": asdict(r.params), "mean_f1": r.mean_f1, "fold_f1": list(r.fold_f1)}
                  for r in results]
        rebuilt[f"cv/{name}.json"] = _dump_json(cv).encode()

        distribution = entity_pair_distribution(docs, config["distribution_threshold"])
        rebuilt[f"analysis/{name}_pair_types.csv"] = distribution.to_csv().encode()

    runs = config["baseline_runs"]
    for name in names:
        eval_pairs = chain / f"datasets/{name}_eval.jsonl"
        eval_docs = chain / f"harmonized/{name}_eval.jsonl"
        _ok("importance", "--model", chain / f"models/{name}.json", "--pairs", eval_pairs,
            "--repeats", runs, "--seed", seed, "--out", chain / f"importance/{name}.json")
        for model in names:
            out, _ = _ok("eval", "--model", chain / f"models/{model}.json", "--pairs", eval_pairs,
                         "--seed", seed, "--baseline-p", config["baseline_p"],
                         "--baseline-runs", runs)
            payload = json.loads(out)
            expected["metrics"].setdefault(model, {})[name] = payload["model"]
            expected["baselines"][name] = payload["random_baseline"]
            _ok("analyze", "--pairs", eval_pairs, "--docs", eval_docs,
                "--model", chain / f"models/{model}.json", "--tau", config["tau"],
                "--threshold", config["distribution_threshold"], "--out", chain / "analysis.json")
            analysis = json.loads((chain / "analysis.json").read_text())
            expected["confident_errors"][f"{model}_on_{name}"] = analysis["confident_errors"]
        rebuilt[f"importance/{name}.json"] = (chain / f"importance/{name}.json").read_bytes()
        expected["importance"][name] = json.loads(rebuilt[f"importance/{name}.json"])
        # residuals and distributions do not depend on the model analyze reads
        if config["residual_source"] == "dataset":
            expected["residuals"][name] = analysis["residuals"]
        else:
            table = definiteness_contingency_corpus(read_documents(eval_docs))
            residuals = chi_square_residuals(table).to_dict()
            expected["residuals"][name] = json.loads(_dump_json(residuals))
        # run's pair-type distribution counts the links of the training and
        # the evaluation documents, its other two the evaluation documents only
        _ok("analyze", "--pairs", eval_pairs,
            "--docs", chain / f"harmonized/{name}_train.jsonl", eval_docs,
            "--threshold", config["distribution_threshold"], "--out", chain / "pair_types.json")
        expected["distributions"][name] = {
            "pair_types": json.loads((chain / "pair_types.json").read_text())[
                "pair_type_distribution"],
            "anaphor_entity": analysis["anaphor_entity_distribution"],
            "subtypes": analysis["subtype_distribution"],
        }
    expected["warnings"] = harmonize_warnings + dataset_warnings

    assert sorted(files) == sorted([*rebuilt, "eval/metrics.json", "report.json",
                                    "resolved_config.json"])
    for rel, data in rebuilt.items():
        assert files[rel] == data, rel
    assert json.loads(files["eval/metrics.json"]) == {
        "models": expected["metrics"], "baselines": expected["baselines"]}
    assert report == expected


class TestRunIsItsChain:
    """`run` is its subcommand chain: harmonize, pairs, train, eval,
    importance and analyze, on the same input files, make every output of a
    run (README *CLI* lists which command makes which, and what differs)."""

    @settings(max_examples=5, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_every_run_output_is_what_its_subcommand_makes(self, data):
        config = {
            "seed": data.draw(st.integers(-9, 9), label="seed"),
            "corpora": [],
            "cv_folds": data.draw(st.sampled_from((2, 3)), label="cv_folds"),
            "grid": data.draw(st.lists(st.fixed_dictionaries({
                "n_rounds": st.integers(1, 10),
                "max_depth": st.integers(1, 3),
                "learning_rate": st.sampled_from((0.3, 0.5)),
            }), min_size=1, max_size=2), label="grid"),
            "lemma_top_k": data.draw(st.sampled_from((0, 3, 200)), label="lemma_top_k"),
            "baseline_p": data.draw(st.sampled_from((0.25, 1 / 3)), label="baseline_p"),
            "baseline_runs": data.draw(st.integers(1, 3), label="baseline_runs"),
            "tau": data.draw(st.sampled_from((0.0, 0.1, 0.5)), label="tau"),
            "distribution_threshold": data.draw(st.sampled_from((0.0, 0.01, 0.2)),
                                                label="distribution_threshold"),
            "residual_source": data.draw(st.sampled_from(("dataset", "corpus")),
                                         label="residual_source"),
        }
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config["output_dir"] = str(tmp / "runs")
            train_links = []
            for i in range(data.draw(st.integers(1, 2), label="corpora")):
                dialect = data.draw(st.sampled_from(sorted(CHAIN_CORPORA)), label="dialect")
                docs = planted_rule_corpus(data.draw(st.integers(0, 99), label="corpus seed"),
                                           n_docs=data.draw(st.integers(6, 10), label="n_docs"),
                                           **CHAIN_CORPORA[dialect])
                entry, train_docs = _chain_corpus(
                    tmp, f"c{i}", dialect, docs, dev=data.draw(st.booleans(), label="dev"),
                    extra=data.draw(st.booleans(), label="extra_test"),
                    n_eval=data.draw(st.integers(2, 3), label="n_eval"))
                config["corpora"].append(entry)
                train_links += [(doc.doc_id, link.anaphor_id)
                                for doc in train_docs for link in doc.bridging]
            if data.draw(st.booleans(), label="exclusion list"):
                doc_id, anaphor_id = data.draw(st.sampled_from(train_links), label="excluded")
                (tmp / "skip.tsv").write_text(f"{doc_id}\t{anaphor_id}\n")
                config["exclusion_list"] = "skip.tsv"
            _run_and_chain(tmp, config)

    def test_the_default_grid_cv_is_what_train_grid_default_prints(self, tmp_path):
        docs = planted_rule_corpus(4, n_docs=6, single_link_per_anaphor=True)
        entry, train_docs = _chain_corpus(tmp_path, "tiny", "bracket", docs,
                                          dev=False, extra=False, n_eval=2)
        link = train_docs[0].bridging[0]
        (tmp_path / "skip.tsv").write_text(f"{train_docs[0].doc_id}\t{link.anaphor_id}\n")
        config = {"seed": 3, "output_dir": str(tmp_path / "runs"), "corpora": [entry],
                  "grid": "default", "cv_folds": 2, "lemma_top_k": 200,
                  "exclusion_list": "skip.tsv", "baseline_p": 1 / 3,
                  "baseline_runs": 2, "tau": 0.1, "distribution_threshold": 0.01,
                  "residual_source": "dataset"}
        _run_and_chain(tmp_path, config)


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        docs = planted_rule_corpus(1, n_docs=1, single_link_per_anaphor=True)
        write_bracket(tmp_path / "in.brk", docs)
        proc = subprocess.run(
            [sys.executable, "-m", "bridgekit.cli", "convert",
             "--in", str(tmp_path / "in.brk"), "--out", str(tmp_path / "out.jsonl")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 1 documents" in proc.stdout
        assert read_documents(tmp_path / "out.jsonl")


@pytest.fixture
def collector_state():
    """Restore the cyclic collector's state and debug flags after the test."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(flags)
    gc.garbage.clear()
    if enabled:
        gc.enable()
    else:
        gc.disable()


class _Cycle:
    """An object in a reference cycle: only a cyclic collection frees it."""

    def __init__(self) -> None:
        self.me = self


class TestCollectorPause:
    """`main` runs each command with the cyclic collector paused, then
    collects once; documents, datasets and models hold no cycles."""

    def test_commands_leave_no_cycles_of_their_own_objects(self, tmp_path, collector_state):
        gum = planted_rule_corpus(3, n_docs=6, single_link_per_anaphor=True)
        arrau = planted_rule_corpus(
            4, n_docs=6, label_pool=ARRAU_POOL, schema="arrau_like", surface_definiteness=True
        )
        write_bracket(tmp_path / "c.brk", gum)
        write_dialect(tmp_path / "c", "standoff", arrau)
        (tmp_path / "c.jsonl").write_bytes(emit_canonical(gum))
        gc.collect()
        # nothing is collected until the end, and what that collection finds
        # unreachable, hence part of a cycle, is kept in gc.garbage
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for name in ("c.brk", "c.sff", "c.jsonl"):
            out = str(tmp_path / f"{name}.h.jsonl")
            assert main(["harmonize", "--in", str(tmp_path / name), "--out", out,
                         "--report", out + ".report.json"]) == EXIT_OK
        pairs = str(tmp_path / "pairs.jsonl")
        assert main(["pairs", "--in", str(tmp_path / "c.brk"), str(tmp_path / "c.sff"),
                     "--seed", "1", "--harmonize", "--out", pairs]) == EXIT_OK
        model = str(tmp_path / "model.json")
        assert main(["train", "--pairs", pairs, "--seed", "1", "--grid", "small",
                     "--folds", "2", "--out", model]) == EXIT_OK
        for command in (["eval"], ["importance", "--repeats", "1"],
                        ["analyze", "--docs", str(tmp_path / "c.brk")]):
            assert main([*command, "--pairs", pairs, "--model", model]) == EXIT_OK
        gc.collect()
        found = {
            type(obj).__module__ + "." + type(obj).__qualname__
            for garbage in gc.garbage
            for obj in (garbage, *gc.get_referents(garbage))
            if type(obj).__module__.startswith("bridgekit")
            or isinstance(obj, (np.ndarray, types.FrameType))
        }
        assert not found

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize(
        "case", ["ok", "config", "parse", "pipeline", "usage", "unexpected"]
    )
    def test_main_restores_the_collector_and_collects_once(
        self, tmp_path, monkeypatch, collector_state, case, caller_enabled
    ):
        good = tmp_path / "good.brk"
        write_bracket(good, planted_rule_corpus(1, n_docs=1, single_link_per_anaphor=True))
        (tmp_path / "bad.brk").write_text("1\tonly\tfour\tfields\n")
        write_bracket(tmp_path / "linkless.brk",
                      planted_rule_corpus(300, n_docs=1, definite_prob=0.0))
        out = str(tmp_path / "out.jsonl")
        argv, expected = {
            "ok": (["convert", "--in", str(good), "--out", out], EXIT_OK),
            "config": (["convert", "--in", str(tmp_path / "missing.brk"), "--out", out],
                       EXIT_CONFIG),
            "parse": (["convert", "--in", str(tmp_path / "bad.brk"), "--out", out], EXIT_PARSE),
            "pipeline": (["pairs", "--in", str(tmp_path / "linkless.brk"), "--seed", "1",
                          "--out", out], EXIT_PIPELINE),
            "usage": (["convert", "--no-such-option"], SystemExit),
            "unexpected": (["convert", "--in", str(good), "--out", out], RuntimeError),
        }[case]
        seen = []
        convert = bridgekit.cli.cmd_convert

        def command(args):
            seen.append(gc.isenabled())
            cycle = _Cycle()
            seen.append(weakref.ref(cycle))
            del cycle
            if case == "unexpected":
                raise RuntimeError("boom")
            return convert(args)

        monkeypatch.setattr(bridgekit.cli, "cmd_convert", command)
        (gc.enable if caller_enabled else gc.disable)()
        if isinstance(expected, int):
            assert main(argv) == expected
        else:
            with pytest.raises(expected):
                main(argv)
        assert gc.isenabled() == caller_enabled
        if seen:
            paused, cycle = seen
            assert not paused
            # with the collector back on, main collected once on the way out
            assert (cycle() is None) == caller_enabled


def _import_time_imports(node):
    """The absolute module names that importing the module of `node`
    imports: every import statement outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            if not child.level:
                yield child.module
        else:
            yield from _import_time_imports(child)


def _fresh_python(code: str, *args: str) -> str:
    """The standard output of `code` run with `args` by a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs `main` on each JSON argument list given, and after each prints a
# line "numpy: " and the numpy submodules loaded so far as a JSON list.
_COMMANDS_THEN_NUMPY = """
import json, sys
from bridgekit.cli import main
for argv in sys.argv[1:]:
    assert main(json.loads(argv)) == 0, argv
    print("numpy:", json.dumps(sorted(name for name in sys.modules if name.startswith("numpy."))))
"""


class TestNumpyLoadsOnFirstUse:
    def test_corpus_commands_never_load_numpy_and_train_does(self, tmp_path):
        corpus = str(tmp_path / "c.brk")
        write_bracket(Path(corpus), planted_rule_corpus(7, n_docs=6, single_link_per_anaphor=True))
        out = {name: str(tmp_path / name) for name in ("c.jsonl", "h.jsonl", "p.jsonl", "m.json")}
        commands = [
            ["convert", "--in", corpus, "--out", out["c.jsonl"]],
            ["harmonize", "--in", corpus, "--out", out["h.jsonl"]],
            ["pairs", "--in", corpus, "--seed", "5", "--harmonize", "--out", out["p.jsonl"]],
            ["analyze", "--pairs", out["p.jsonl"], "--docs", corpus],
            ["train", "--pairs", out["p.jsonl"], "--seed", "5", "--n-rounds", "5",
             "--out", out["m.json"]],
        ]
        printed = _fresh_python(_COMMANDS_THEN_NUMPY, *map(json.dumps, commands))
        loaded = [json.loads(line.removeprefix("numpy: "))
                  for line in printed.splitlines() if line.startswith("numpy: ")]
        assert loaded[:4] == [[], [], [], []]
        assert "numpy.linalg" in loaded[4]

    def test_train_importance_and_run_load_neither_numpy_random_nor_numpy_ma(
        self, chain, tmp_path
    ):
        config = base_config(tmp_path)
        config["grid"] = [{"n_rounds": 5, "max_depth": 2}]
        (tmp_path / "config.json").write_text(json.dumps(config))
        model = str(tmp_path / "m.json")
        commands = [
            ["train", "--pairs", str(chain["pairs"]), "--seed", "5", "--n-rounds", "5",
             "--out", model],
            ["importance", "--model", model, "--pairs", str(chain["pairs"]), "--repeats", "2",
             "--out", str(tmp_path / "imp.json")],
            ["run", "--config", str(tmp_path / "config.json")],
        ]
        printed = _fresh_python(_COMMANDS_THEN_NUMPY, *map(json.dumps, commands))
        loaded = [json.loads(line.removeprefix("numpy: "))
                  for line in printed.splitlines() if line.startswith("numpy: ")]
        assert len(loaded) == 3
        assert "numpy.linalg" in loaded[-1]
        assert [name for name in loaded[-1]
                if name.split(".")[1] in ("random", "ma")] == []

    def test_a_fresh_train_writes_the_bytes_of_one_with_numpy_imported(self, chain, tmp_path):
        argv = ["train", "--pairs", str(chain["pairs"]), "--seed", "5", "--grid", "small",
                "--folds", "3"]
        _fresh_python(_COMMANDS_THEN_NUMPY, json.dumps(argv + ["--out", str(tmp_path / "a.json")]))
        assert main(argv + ["--out", str(tmp_path / "b.json")]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_the_helper_returns_an_imported_numpy_unchanged(self):
        from bridgekit.gbdt import boosting, lazy_numpy

        assert lazy_numpy() is np
        assert boosting.np is np
        assert type(np) is types.ModuleType

    def test_the_helper_defers_numpy_and_fails_as_an_import_without_it(self):
        code = """
import sys
from bridgekit.gbdt import lazy_numpy
np = lazy_numpy()
print(lazy_numpy() is np, [n for n in sys.modules if n.startswith("numpy.")])
print(np.float64(2.5) * 2, lazy_numpy() is np is sys.modules["numpy"])
sys.modules["numpy"] = None
try:
    lazy_numpy()
except ModuleNotFoundError as exc:
    print(exc.name)
"""
        assert _fresh_python(code) == "True []\n5.0 True\nnumpy\n"

    def test_no_module_of_the_package_imports_numpy_when_it_is_imported(self):
        package = Path(bridgekit.cli.__file__).parent
        eager = [
            (str(path.relative_to(package)), name)
            for path in sorted(package.rglob("*.py"))
            for name in _import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
            if name.split(".")[0] == "numpy"
        ]
        assert eager == []
