"""The benchmark's four workloads.

Each workload writes its inputs from the benchmark seed with the
`bridgekit.synth` generators, names the `bridgekit` CLI invocations that
make up one iteration, and checks what those invocations wrote. The
program sees only the generated files; every path handed to it is relative
to the workload's working directory, so its outputs do not depend on where
that directory lives.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

from bridgekit.cli import main as cli_main
from bridgekit.ingest import emit_bracket, emit_canonical
from bridgekit.synth import planted_rule_corpus, random_corpus, standoff_text

# Original labels of the arrau-like entity map, for planted standoff corpora.
ARRAU_POOL = ("person", "concrete", "space", "abstract", "plan")

# Planted-rule F1 floors (in-domain, cross-domain) per size. The rule is
# exact on the bracket and canonical corpora and recovered from surface
# "the" tokens on the standoff one, so a correct trainer clears these on
# every seed with a wide margin; tiny inputs train weaker models.
F1_FLOORS = {"full": (0.70, 0.40), "tiny": (0.50, 0.30)}

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Corpus:
    """One planted corpus written as train and test files.

    With `pairs` set, the train split takes documents from the front half
    of `n_docs` generated ones and the test split from the back half,
    skipping any that would overshoot, until each holds its number of
    bridging pairs (or, rarely, a few fewer). The seed then changes the
    content of the work but hardly its size, which the pair count sets: a
    balanced dataset has three examples per bridging pair. Without `pairs`
    the last `n_test` of `n_docs` documents are the test split.
    """

    name: str
    dialect: str
    seed: int
    n_docs: int
    n_test: int = 0
    pairs: tuple[int, int] | None = None
    n_chains: int = 4
    n_free: int = 12

    @property
    def suffix(self) -> str:
        return {"bracket": "brk", "standoff": "sff", "canonical": "jsonl"}[self.dialect]

    def files(self) -> tuple[str, str]:
        return f"{self.name}_train.{self.suffix}", f"{self.name}_test.{self.suffix}"

    def documents(self):
        if self.dialect == "standoff":
            return planted_rule_corpus(
                self.seed, n_docs=self.n_docs, n_chains=self.n_chains, n_free=self.n_free,
                label_pool=ARRAU_POOL, schema="arrau_like", surface_definiteness=True,
            )
        return planted_rule_corpus(
            self.seed, n_docs=self.n_docs, n_chains=self.n_chains, n_free=self.n_free,
            single_link_per_anaphor=self.dialect == "bracket",
        )

    def splits(self) -> tuple[list, list]:
        docs = self.documents()
        if self.pairs is None:
            cut = len(docs) - self.n_test
            return docs[:cut], docs[cut:]
        half = len(docs) // 2
        train = _take_pairs(docs[:half], self.pairs[0])
        test = _take_pairs(docs[half:][::-1], self.pairs[1])[::-1]
        return train, test

    def write(self, workdir: Path) -> None:
        for name, part in zip(self.files(), self.splits()):
            (workdir / name).write_bytes(render(part, self.dialect))


def _take_pairs(pool: list, target: int) -> list:
    """Documents of the pool, in order, skipping any that would take the
    bridging-pair count past the target; stops when it is reached. Should
    no subset found this way reach it, the count ends a few pairs short."""
    taken, total = [], 0
    for doc in pool:
        pairs = sum(len(link.antecedent_ids) for link in doc.bridging)
        if total + pairs <= target:
            taken.append(doc)
            total += pairs
        if total == target:
            break
    return taken


def render(docs, dialect: str) -> bytes:
    if dialect == "bracket":
        return b"".join(emit_bracket(doc) for doc in docs)
    if dialect == "standoff":
        return standoff_text(docs).encode("utf-8")
    return emit_canonical(docs)


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in this process; return its exit code and stderr.

    Standard output is captured and dropped: the payloads that eval and
    importance print are part of the work, but not of the benchmark's output.
    An exception that escapes the CLI is a failed invocation with code -1.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc(file=err)
    return code, err.getvalue()


def digest(workdir: Path, names: list[str]) -> str:
    """sha256 over the given files, each prefixed by its relative path."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode("utf-8") + b"\0")
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one iteration's checks found."""

    failures: list[str]
    digest: str = ""
    f1_in_domain: float | None = None
    f1_cross_domain: float | None = None


class Workload:
    name = ""
    # Span names, or layers, that every traced iteration must record.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.size = size

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def operations(self) -> list[list[str]]:
        """CLI argument lists for one iteration, run in order."""
        raise NotImplementedError

    def check(self, workdir: Path) -> Outcome:
        raise NotImplementedError

    def reset(self, workdir: Path) -> None:
        """Remove the previous iteration's outputs; called before each iteration."""
        shutil.rmtree(workdir / "out", ignore_errors=True)
        (workdir / "out").mkdir()


def _missing(workdir: Path, names: list[str]) -> list[str]:
    return [f"missing output {name}" for name in names if not (workdir / name).is_file()]


class RunWorkload(Workload):
    """`bridgekit run` on planted corpora, one bracket and one standoff."""

    expected_spans = (
        "ingest.parse", "ingest.emit", "model.validate", "harmonize",
        "pairgen.build", "pairgen.io", "encoding", "boosting.train",
        "boosting.predict", "boosting.model_io", "evaluation.cv", "evaluation.eval",
        "importance", "stats",
    )

    def corpora(self) -> tuple[Corpus, ...]:
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, workdir: Path) -> None:
        for corpus in self.corpora():
            corpus.write(workdir)
        config = dict(self.config(), seed=self.seed, output_dir="out")
        config["corpora"] = [
            {"name": c.name, "dialect": c.dialect,
             "train": [c.files()[0]], "test": [c.files()[1]]}
            for c in self.corpora()
        ]
        (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")

    def operations(self) -> list[list[str]]:
        return [["run", "--config", "config.json"]]

    def check(self, workdir: Path) -> Outcome:
        runs = sorted((workdir / "out").glob("run-*"))
        if len(runs) != 1:
            return Outcome([f"expected one run directory, found {len(runs)}"])
        run = runs[0].relative_to(workdir).as_posix()
        names = [c.name for c in self.corpora()]
        expected = [f"{run}/report.json", f"{run}/resolved_config.json",
                    f"{run}/eval/metrics.json"]
        for c in names:
            expected += [
                f"{run}/harmonized/{c}_train.jsonl", f"{run}/harmonized/{c}_eval.jsonl",
                f"{run}/harmonize_report_{c}.json", f"{run}/cv/{c}.json",
                f"{run}/models/{c}.json", f"{run}/importance/{c}.json",
                f"{run}/analysis/{c}_pair_types.csv",
            ]
            expected += [f"{run}/datasets/{c}_{role}.{ext}"
                         for role in ("train", "eval") for ext in ("jsonl", "csv")]
        failures = _missing(workdir, expected)
        if failures:
            return Outcome(failures)
        report = json.loads((workdir / run / "report.json").read_text(encoding="utf-8"))
        f1 = {(m, c): report["metrics"][m][c]["f1"] for m in names for c in names}
        in_domain = sum(v for (m, c), v in f1.items() if m == c) / len(names)
        cross = [v for (m, c), v in f1.items() if m != c]
        cross_domain = sum(cross) / len(cross)
        in_floor, cross_floor = F1_FLOORS[self.size]
        if in_domain < in_floor:
            failures.append(f"in-domain F1 {in_domain:.4f} below {in_floor}")
        if cross_domain < cross_floor:
            failures.append(f"cross-domain F1 {cross_domain:.4f} below {cross_floor}")
        stable = [f"{run}/report.json"] + [
            f"{run}/datasets/{c}_{role}.jsonl" for c in names for role in ("train", "eval")
        ]
        return Outcome(failures, digest(workdir, stable), in_domain, cross_domain)


class CvGrid(RunWorkload):
    """Small corpora, a 12-point grid, 3 folds: the trainer does the work."""

    name = "cv-grid"

    # Training cost follows the number of split searches, which follows how
    # fast the trees fit the corpus. With half these training pairs and
    # rounds (5, 10, 20) it varied by 12% (quartile spread) over ten seeds;
    # with these, by 4%, at about the same cost.
    def corpora(self) -> tuple[Corpus, ...]:
        scale = 1 if self.size == "full" else 3
        return (
            Corpus("bracketland", "bracket", self.seed, 60 // scale,
                   pairs=(48 // scale, 24 // scale)),
            Corpus("standofflandia", "standoff", self.seed + 1, 60 // scale,
                   pairs=(96 // scale, 48 // scale)),
        )

    def config(self) -> dict:
        rounds = (3, 6, 12) if self.size == "full" else (2, 3, 4)
        grid = [
            {"n_rounds": n, "max_depth": d, "learning_rate": 0.3, "min_child_hessian": h}
            for n in rounds for d in (3, 6) for h in (1.0, 5.0)
        ]
        return {"grid": grid, "cv_folds": 3}


class LongDocs(RunWorkload):
    """Documents of 256 mentions, one grid point: pairgen does the work."""

    name = "long-docs"

    def corpora(self) -> tuple[Corpus, ...]:
        if self.size == "full":
            shape = {"n_docs": 3, "n_test": 1, "n_chains": 32, "n_free": 128}
        else:
            shape = {"n_docs": 4, "n_test": 2, "n_chains": 8, "n_free": 32}
        return (
            Corpus("bracketland", "bracket", self.seed, **shape),
            Corpus("standofflandia", "standoff", self.seed + 1, **shape),
        )

    def config(self) -> dict:
        rounds = 10 if self.size == "full" else 3
        grid = [{"n_rounds": rounds, "max_depth": 3, "learning_rate": 0.3}]
        return {"grid": grid, "cv_folds": 2}


class ScoreModel(Workload):
    """eval, importance and analyze --model on a deep model trained in setup."""

    name = "score-model"
    expected_spans = (
        "pairgen.io", "encoding", "boosting.predict", "boosting.model_io",
        "evaluation.eval", "importance", "stats",
    )
    outputs = ("eval.json", "importance.json", "analyze.json")

    def corpus(self) -> Corpus:
        if self.size == "full":
            return Corpus("planted", "canonical", self.seed, 200, pairs=(60, 900))
        return Corpus("planted", "canonical", self.seed, 30, pairs=(40, 60))

    def setup(self, workdir: Path) -> None:
        corpus = self.corpus()
        corpus.write(workdir)
        train_file, test_file = corpus.files()
        rounds, depth = (200, 6) if self.size == "full" else (5, 3)
        for argv in (
            ["pairs", "--in", train_file, "--seed", str(self.seed), "--out", "train.jsonl",
             "--harmonize", "--corpus", corpus.name, "--partition", "train"],
            ["pairs", "--in", test_file, "--seed", str(self.seed), "--out", "eval.jsonl",
             "--harmonize", "--corpus", corpus.name, "--partition", "eval"],
            ["train", "--pairs", "train.jsonl", "--seed", str(self.seed), "--out", "model.json",
             "--n-rounds", str(rounds), "--max-depth", str(depth)],
        ):
            code, err = quiet_cli(argv)
            if code != 0:
                raise RuntimeError(f"setup step {argv[0]} exited with code {code}: {err}")

    def operations(self) -> list[list[str]]:
        seed = str(self.seed)
        return [
            ["eval", "--model", "model.json", "--pairs", "eval.jsonl", "--seed", seed,
             "--out", "out/eval.json"],
            ["importance", "--model", "model.json", "--pairs", "eval.jsonl", "--seed", seed,
             "--out", "out/importance.json"],
            ["analyze", "--pairs", "eval.jsonl", "--model", "model.json",
             "--out", "out/analyze.json"],
        ]

    def check(self, workdir: Path) -> Outcome:
        names = [f"out/{name}" for name in self.outputs]
        failures = _missing(workdir, names)
        if failures:
            return Outcome(failures)
        f1 = json.loads((workdir / "out/eval.json").read_text(encoding="utf-8"))["model"]["f1"]
        floor = F1_FLOORS[self.size][0]
        if f1 < floor:
            failures.append(f"in-domain F1 {f1:.4f} below {floor}")
        return Outcome(failures, digest(workdir, names), f1_in_domain=f1)


class CorpusConvert(Workload):
    """harmonize and convert on many short documents and on long ones."""

    name = "corpus-convert"
    expected_spans = ("ingest.parse", "ingest.emit", "model.validate", "harmonize")

    def documents(self) -> dict[str, int]:
        """Input file name -> number of documents it holds."""
        full = self.size == "full"
        return {"short.sff": 3000 if full else 40, "long.brk": 8 if full else 2}

    def setup(self, workdir: Path) -> None:
        n = self.documents()
        short = random_corpus(self.seed, n["short.sff"], flavor="arrau_like")
        (workdir / "short.sff").write_bytes(render(short, "standoff"))
        long_docs = planted_rule_corpus(
            self.seed + 1, n_docs=n["long.brk"], n_chains=32 if self.size == "full" else 8,
            n_free=128 if self.size == "full" else 32, single_link_per_anaphor=True,
        )
        (workdir / "long.brk").write_bytes(render(long_docs, "bracket"))

    def operations(self) -> list[list[str]]:
        ops = []
        for name in self.documents():
            stem = name.split(".")[0]
            ops.append(["harmonize", "--in", name, "--out", f"out/{stem}.harmonized.jsonl",
                        "--report", f"out/{stem}.report.json"])
            ops.append(["convert", "--in", name, "--out", f"out/{stem}.jsonl"])
        return ops

    def check(self, workdir: Path) -> Outcome:
        outputs = {}
        for name, count in self.documents().items():
            stem = name.split(".")[0]
            outputs.update({f"out/{stem}.harmonized.jsonl": count, f"out/{stem}.jsonl": count,
                            f"out/{stem}.report.json": None})
        failures = _missing(workdir, list(outputs))
        if failures:
            return Outcome(failures)
        for name, count in outputs.items():
            lines = (workdir / name).read_bytes().count(b"\n")
            if count is not None and lines != count:
                failures.append(f"{name} holds {lines} documents, not {count}")
        return Outcome(failures, digest(workdir, list(outputs)))


WORKLOADS = {w.name: w for w in (CvGrid, LongDocs, ScoreModel, CorpusConvert)}
