"""Command-line pipelines: convert, harmonize, pairs, train, eval,
importance, analyze, and the end-to-end run command.

Exit codes: 0 success, 1 configuration error, 2 parse error, 3 pipeline
error. Every run-command output lands under a directory named from a hash
of the resolved configuration (excluding the output directory itself), so
identical configurations map to identical paths and byte-identical
reports; nothing in the outputs depends on the clock.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import BridgekitError, ConfigError, ParseError
from .gbdt import (
    DEFAULT_LEMMA_TOP_K,
    HyperParams,
    cross_validate,
    default_grid,
    encode,
    evaluate,
    gain_importance,
    load_model,
    mda_importance,
    random_baseline,
    save_model,
    train,
)
from .harmonize import format_report, harmonize_corpus, read_exclusion_list
from .ingest import DIALECTS, emit_canonical, read_documents
from .model import Document
from .pairgen import (
    DEFAULT_PRONOUN_TAGS,
    PairDataset,
    bridging_rate_per_1k,
    build_balanced_dataset,
    dataset_from_jsonl,
    dataset_to_csv,
    dataset_to_jsonl,
)
from .records import check_settings, setting, write_file
from .stats import (
    anaphor_entity_distribution,
    chi_square_residuals,
    confident_errors,
    definiteness_contingency,
    definiteness_contingency_corpus,
    entity_pair_distribution,
    subtype_distribution,
)

OUTPUT_DIR_ENV = "BRIDGEKIT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_PIPELINE = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


@contextmanager
def _output(path: str | Path):
    """Create `path`'s parent directory; an OSError is a ConfigError naming `path`."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(path: str | Path, payload) -> None:
    """Write `payload` to `path` through `write_file`. It is `bytes`, a `str`
    (written as UTF-8), an iterator of `bytes` chunks (each written as it is
    made, so the whole output is never held), or anything else, as JSON."""
    if not isinstance(payload, (str, bytes, Iterator)):
        payload = _dump_json(payload)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    with _output(path):
        write_file(path, (payload,) if isinstance(payload, bytes) else payload)


def _canonical_lines(docs) -> Iterator[bytes]:
    """Each document's canonical JSONL line, made when `_write` takes it."""
    return (emit_canonical((doc,)) for doc in docs)


def _write_all(outputs: list[tuple[str | Path, object]]) -> None:
    """`_write` each `(path, payload)` in turn. When one fails, the files
    already written are removed, so a failed command leaves none behind."""
    written: list[Path] = []
    try:
        for path, payload in outputs:
            _write(path, payload)
            written.append(Path(path))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    dialect: str
    train: tuple[str, ...] = setting((), tuple)
    dev: tuple[str, ...] = setting((), tuple)
    test: tuple[str, ...] = setting((), tuple)
    extra_test: tuple[str, ...] = setting((), tuple)

    __post_init__ = check_settings

    @property
    def train_files(self) -> tuple[str, ...]:
        return self.train + self.dev

    @property
    def eval_files(self) -> tuple[str, ...]:
        return self.test + self.extra_test


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = setting(MISSING, int)
    corpora: tuple[CorpusSpec, ...]
    output_dir: str = setting("runs", str)
    exclusion_list: str | None = setting(None, str)
    pronoun_tags: tuple[str, ...] = setting(tuple(sorted(DEFAULT_PRONOUN_TAGS)), tuple)
    lemma_top_k: int = setting(DEFAULT_LEMMA_TOP_K, int, low=0)
    cv_folds: int = setting(5, int, low=2)
    grid: tuple[HyperParams, ...] = field(default_factory=lambda: tuple(default_grid()))
    baseline_p: float = setting(1.0 / 3.0, float, low=0, high=1)
    baseline_runs: int = setting(5, int, low=1)
    tau: float = setting(0.10, float, low=0, high=1)
    residual_source: str = setting("dataset", str, choices=("dataset", "corpus"))
    distribution_threshold: float = setting(0.01, float, low=0, high=1)

    __post_init__ = check_settings

    def run_id(self) -> str:
        payload = asdict(self)
        del payload["output_dir"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        return f"run-{digest[:12]}"


def _reject_unknown_keys(obj: dict, cls: type, where: str) -> None:
    """A key that is no field of `cls` is a typo, never something to skip."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where} has unknown key {', '.join(map(repr, unknown))}")


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise ConfigError("config is not valid UTF-8")
    except (ValueError, RecursionError) as exc:
        # json raises a plain ValueError only for an integer of over 4,300 digits
        reason = ("nested too deeply" if isinstance(exc, RecursionError)
                  else getattr(exc, "msg", "an integer has too many digits"))
        raise ConfigError(f"config is not valid JSON: {reason}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    overrides = overrides or {}
    raw.update(overrides)
    _reject_unknown_keys(raw, PipelineConfig, "config")
    # a null key is left out, so it takes its default
    raw = {key: value for key, value in raw.items() if value is not None}

    if "seed" not in raw:
        raise ConfigError("config requires an integer seed; no clock-based default exists")
    corpora_raw = raw.get("corpora")
    if not isinstance(corpora_raw, list) or not corpora_raw:
        raise ConfigError("config requires a non-empty corpora list")
    corpora = []
    for entry in corpora_raw:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("name", "dialect")
        ):
            raise ConfigError("each corpus needs at least a string name and dialect")
        _reject_unknown_keys(entry, CorpusSpec, f"corpus {entry['name']!r}")
        if entry["dialect"] not in DIALECTS:
            raise ConfigError(f"unknown dialect {entry['dialect']!r}")
        spec = CorpusSpec(**{key: value for key, value in entry.items() if value is not None})
        if not spec.train_files:
            raise ConfigError(f"corpus {spec.name!r} has no training files")
        if not spec.eval_files:
            raise ConfigError(f"corpus {spec.name!r} has no evaluation files")
        corpora.append(spec)
    if len({c.name for c in corpora}) != len(corpora):
        raise ConfigError("corpus names must be unique")

    grid_raw = raw.get("grid", "default")
    if grid_raw == "default":
        grid = tuple(default_grid())
    elif isinstance(grid_raw, list) and grid_raw and all(isinstance(e, dict) for e in grid_raw):
        for entry in grid_raw:
            _reject_unknown_keys(entry, HyperParams, "grid entry")
        grid = tuple(HyperParams(**entry) for entry in grid_raw)
    else:
        raise ConfigError("grid must be \"default\" or a non-empty list of objects")

    if "output_dir" not in overrides and os.environ.get(OUTPUT_DIR_ENV):
        raw["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    raw.update(corpora=tuple(corpora), grid=grid)
    config = PipelineConfig(**raw)
    _check_paths(config, base=Path(path).parent)
    return config


def _check_paths(config: PipelineConfig, base: Path) -> None:
    """Relative paths resolve against the config directory `base`;
    absolute paths stay as they are."""
    for corpus in config.corpora:
        for rel in corpus.train_files + corpus.eval_files:
            if not (base / rel).exists():
                raise ConfigError(f"corpus {corpus.name!r}: input path does not exist: {rel}")
    if config.exclusion_list is not None and not (base / config.exclusion_list).exists():
        raise ConfigError(f"exclusion list does not exist: {config.exclusion_list}")


# ---------------------------------------------------------------------------
# stage helpers shared by the subcommands and the run

# Hyperparameter names, in HyperParams field order; each is also a train flag.
PARAM_KEYS = tuple(f.name for f in fields(HyperParams))

SMALL_GRID = tuple(HyperParams(n_rounds=n, max_depth=d) for n in (25, 50) for d in (3, 4))

PAIR_TYPE_KEYS = ("ante_type", "ana_type", "proportion", "visible")
LABEL_KEYS = ("label", "count", "proportion")


def _load(what: str, path, loader):
    """`loader(path)` for one input file. A file that cannot be read is a
    configuration error; malformed content is a parse error that names the
    file, as one from `read_documents` already does."""
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (BridgekitError, AttributeError, KeyError, TypeError, ValueError,
            RecursionError, OverflowError) as exc:
        if isinstance(exc, ParseError) and str(exc).startswith(f"{path}: "):
            raise
        raise ParseError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from exc


def _read_many(paths, dialect: str | None) -> list[Document]:
    return [doc for path in paths
            for doc in _load("corpus file", path, lambda p: read_documents(p, dialect))]


def _read_pairs(path) -> PairDataset:
    return _load("pair dataset", path, lambda p: dataset_from_jsonl(Path(p).read_bytes()))


def _exclusions(path) -> frozenset[tuple[str, str]]:
    return _load("exclusion list", path, read_exclusion_list) if path else frozenset()


def _pair_dataset(docs, seed, corpus, partition, pronoun_tags, out, csv) -> PairDataset:
    dataset = build_balanced_dataset(docs, seed=seed, corpus=corpus, partition=partition,
                                     pronoun_tags=frozenset(pronoun_tags))
    outputs = [(out, dataset_to_jsonl(dataset))]
    if csv:
        outputs.append((csv, dataset_to_csv(dataset)))
    _write_all(outputs)
    return dataset


def _fit(dataset: PairDataset, best: HyperParams, cv_results, seed: int, lemma_top_k: int, out):
    """The final model on all of `dataset`, saved to `out`, and its summary."""
    X, y, schema = encode(dataset, lemma_top_k=lemma_top_k)
    model = train(X, y, best, seed=seed, schema=schema)
    with _output(out):
        save_model(model, out)
    return model, {
        "params": asdict(best),
        "final_training_loss": model.training_loss[-1],
        "cv": [
            {"params": asdict(r.params), "mean_f1": r.mean_f1, "fold_f1": list(r.fold_f1)}
            for r in cv_results
        ],
    }


def _importance(model, dataset: PairDataset, repeats: int, seed: int) -> dict:
    return {
        "gain": gain_importance(model),
        "mda": mda_importance(model, dataset, repeats=repeats, seed=seed),
    }


def _records(rows, keys: tuple[str, ...]) -> list[dict]:
    return [dict(zip(keys, row)) for row in rows]


# ---------------------------------------------------------------------------
# simple subcommands


def cmd_convert(args) -> int:
    docs = _read_many([args.input], args.dialect)
    _write(args.out, _canonical_lines(docs))
    print(f"wrote {len(docs)} documents to {args.out}")
    return EXIT_OK


def cmd_harmonize(args) -> int:
    docs = _read_many([args.input], args.dialect)
    harmonized, report = harmonize_corpus(docs, _exclusions(args.exclusions))
    # The report goes to text first, so that its dict, large when many
    # mentions were flattened, is freed before the documents are serialized.
    outputs = [(args.report, _dump_json(report.to_dict()))] if args.report else []
    outputs.append((args.out, _canonical_lines(harmonized)))
    _write_all(outputs)
    print(format_report(report))
    _warn_unresolved(report)
    return EXIT_OK


def _warn_unresolved(report) -> None:
    if report.unresolved_entity_types:
        print(
            "warning: unresolved entity type labels: "
            + ", ".join(report.unresolved_entity_types),
            file=sys.stderr,
        )


def cmd_pairs(args) -> int:
    docs = _read_many(args.input, args.dialect)
    if args.harmonize:
        docs, report = harmonize_corpus(docs)
        _warn_unresolved(report)
    dataset = _pair_dataset(docs, args.seed, args.corpus, args.partition, args.pronoun_tags,
                            args.out, args.csv)
    counts = dataset.label_counts()
    print(
        f"{len(dataset.examples)} examples "
        f"(bridging {counts['bridging']}, coref {counts['coref']}, none {counts['none']}), "
        f"distance cap {dataset.provenance.max_distance}"
    )
    for warning in dataset.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    given = {k: getattr(args, k) for k in PARAM_KEYS if getattr(args, k) is not None}
    # the hyperparameters are checked before any input is read
    best = HyperParams(**given) if given else None
    dataset = _read_pairs(args.pairs)
    cv_results = []
    if best is None:
        grid = default_grid() if args.grid == "default" else list(SMALL_GRID)
        best, cv_results = cross_validate(
            dataset, grid, k=args.folds, seed=args.seed, lemma_top_k=args.lemma_top_k
        )
    _, summary = _fit(dataset, best, cv_results, args.seed, args.lemma_top_k, args.out)
    print(_dump_json(summary), end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load("model", args.model, load_model)
    dataset = _read_pairs(args.pairs)
    metrics = evaluate(model, dataset)
    baseline = random_baseline(dataset, p=args.baseline_p, runs=args.baseline_runs, seed=args.seed)
    payload = {"model": asdict(metrics), "random_baseline": asdict(baseline)}
    if args.out:
        _write(args.out, payload)
    print(_dump_json(payload), end="")
    return EXIT_OK


def cmd_importance(args) -> int:
    model = _load("model", args.model, load_model)
    dataset = _read_pairs(args.pairs)
    payload = _importance(model, dataset, args.repeats, args.seed)
    if args.out:
        _write(args.out, payload)
    print(_dump_json(payload), end="")
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Reads every input, then computes every table, and prints only when
    all of them are made, so a failure prints nothing but its error."""
    dataset = _read_pairs(args.pairs)
    docs = _read_many(args.docs, args.dialect) if args.docs else None
    model = _load("model", args.model, load_model) if args.model else None

    table = definiteness_contingency(dataset)
    residuals = chi_square_residuals(table, adjusted=args.adjusted)
    payload: dict = {"residuals": residuals.to_dict()}
    text = ["definiteness residuals:", residuals.to_text()]

    if docs is not None:
        pair_types = entity_pair_distribution(docs, threshold=args.threshold)
        anaphor_types = anaphor_entity_distribution(docs)
        subtypes = subtype_distribution(docs)
        payload["pair_type_distribution"] = _records(pair_types.rows(), PAIR_TYPE_KEYS)
        payload["anaphor_entity_distribution"] = _records(anaphor_types.rows(), LABEL_KEYS)
        payload["subtype_distribution"] = _records(subtypes.rows(), LABEL_KEYS)
        text += ["\nanaphor entity types:", anaphor_types.to_text(),
                 "\nbridging subtypes:", subtypes.to_text()]

    if model is not None:
        errors = confident_errors(model, dataset, tau=args.tau)
        payload["confident_errors"] = [asdict(e) for e in errors]
        text.append(f"\n{len(errors)} gold bridging pairs under probability {args.tau}")

    if args.out:
        _write(args.out, payload)
    print("\n".join(text))
    return EXIT_OK


# ---------------------------------------------------------------------------
# end-to-end run


def _pipeline(config: PipelineConfig, base: Path, run_dir: Path, report: dict):
    """The run's work: yields each stage's name just before that stage's
    work, and fills `report`, which the last stage writes."""
    yield "load"
    exclusions = _exclusions(base / config.exclusion_list if config.exclusion_list else None)

    splits: dict[str, dict[str, list[Document]]] = {}
    for corpus in config.corpora:
        name = corpus.name
        yield f"load:{name}"
        raw_train = _read_many([base / rel for rel in corpus.train_files], corpus.dialect)
        raw_eval = _read_many([base / rel for rel in corpus.eval_files], corpus.dialect)

        yield f"harmonize:{name}"
        harmonized, harmonize_report = harmonize_corpus(raw_train + raw_eval, exclusions)
        splits[name] = {"train": harmonized[:len(raw_train)], "eval": harmonized[len(raw_train):]}
        for role, docs in splits[name].items():
            _write(run_dir / f"harmonized/{name}_{role}.jsonl", _canonical_lines(docs))
        harmonize_summary = harmonize_report.to_dict()
        _write(run_dir / f"harmonize_report_{name}.json", harmonize_summary)
        report["corpora"][name] = {
            "harmonize": harmonize_summary,
            "bridging_rate_per_1k": bridging_rate_per_1k(harmonized),
        }
        report["warnings"].extend(
            f"{name}: unresolved entity type {label!r}"
            for label in harmonize_report.unresolved_entity_types
        )

    datasets: dict[str, dict[str, PairDataset]] = {}
    for name in splits:
        yield f"datasets:{name}"
        datasets[name] = {}
        for role in ("train", "eval"):
            dataset = datasets[name][role] = _pair_dataset(
                splits[name][role], config.seed, name, role, config.pronoun_tags,
                run_dir / f"datasets/{name}_{role}.jsonl", run_dir / f"datasets/{name}_{role}.csv",
            )
            report["warnings"].extend(f"{name}/{role}: {w}" for w in dataset.warnings)
        report["corpora"][name]["dataset_counts"] = {
            role: ds.label_counts() for role, ds in datasets[name].items()
        }
        report["corpora"][name]["max_distance"] = {
            role: ds.provenance.max_distance for role, ds in datasets[name].items()
        }

    models = {}
    for name in splits:
        yield f"cv:{name}"
        best, cv_results = cross_validate(
            datasets[name]["train"], list(config.grid), k=config.cv_folds,
            seed=config.seed, lemma_top_k=config.lemma_top_k,
        )
        yield f"train:{name}"
        models[name], summary = _fit(
            datasets[name]["train"], best, cv_results, config.seed, config.lemma_top_k,
            run_dir / "models" / f"{name}.json",
        )
        _write(run_dir / f"cv/{name}.json", summary["cv"])
        report["corpora"][name]["best_params"] = summary["params"]
        report["corpora"][name]["final_training_loss"] = summary["final_training_loss"]

    yield "evaluate"
    for model_name, model in models.items():
        report["metrics"][model_name] = {
            name: asdict(evaluate(model, datasets[name]["eval"])) for name in splits
        }
    for name in splits:
        report["baselines"][name] = asdict(random_baseline(
            datasets[name]["eval"], p=config.baseline_p, runs=config.baseline_runs, seed=config.seed
        ))
    _write(run_dir / "eval/metrics.json",
           {"models": report["metrics"], "baselines": report["baselines"]})

    for name in splits:
        yield f"importance:{name}"
        report["importance"][name] = _importance(
            models[name], datasets[name]["eval"], config.baseline_runs, config.seed
        )
        _write(run_dir / f"importance/{name}.json", report["importance"][name])

    yield "analysis"
    for name in splits:
        eval_docs = splits[name]["eval"]
        if config.residual_source == "dataset":
            table = definiteness_contingency(datasets[name]["eval"])
        else:
            table = definiteness_contingency_corpus(eval_docs)
        report["residuals"][name] = chi_square_residuals(table).to_dict()
        pair_types = entity_pair_distribution(
            splits[name]["train"] + eval_docs, threshold=config.distribution_threshold
        )
        report["distributions"][name] = {
            "pair_types": _records(pair_types.rows(), PAIR_TYPE_KEYS),
            "anaphor_entity": _records(anaphor_entity_distribution(eval_docs).rows(), LABEL_KEYS),
            "subtypes": _records(subtype_distribution(eval_docs).rows(), LABEL_KEYS),
        }
        _write(run_dir / f"analysis/{name}_pair_types.csv", pair_types.to_csv())

    for model_name, model in models.items():
        for name in splits:
            errors = confident_errors(model, datasets[name]["eval"], tau=config.tau)
            report["confident_errors"][f"{model_name}_on_{name}"] = [asdict(e) for e in errors]

    yield "report"
    _write(run_dir / "report.json", report)


def cmd_run(args) -> int:
    overrides = {"seed": args.seed, "output_dir": args.out_dir}
    config = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
    run_id = config.run_id()
    run_dir = Path(config.output_dir) / run_id
    report: dict = {"run_id": run_id, "config": asdict(config), "warnings": []}
    for section in ("corpora", "metrics", "baselines", "importance", "residuals",
                    "distributions", "confident_errors"):
        report[section] = {}
    _write(run_dir / "resolved_config.json", report["config"])
    try:
        for stage in _pipeline(config, Path(args.config).parent, run_dir, report):
            pass
    except Exception as exc:
        report["failed_stage"] = stage
        report["error"] = str(exc)
        _write(run_dir / "report.partial.json", report)
        if not isinstance(exc, BridgekitError):
            raise
        print(f"error: stage {stage}: {exc}", file=sys.stderr)
        return _exit_code(exc)

    print(f"run complete: {run_dir / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _flag(key: str, cls: type = PipelineConfig, **keywords) -> dict:
    """add_argument keywords for a flag that sets setting `key` of `cls`:
    its text is read as the setting's type and checked as the setting's
    value is (text that does not read is passed on, for the check to
    refuse), and its default is the setting's unless `keywords` give one."""
    f = next(f for f in fields(cls) if f.name == key)

    def read(text: str):
        # the parser ends as cyclic garbage, so this reaches the Setting
        # through its field and holds no bridgekit object of its own
        try:
            value = f.metadata["setting"].kind(text)
        except ValueError:
            value = text
        return f.metadata["setting"].check(key, value)
    return {"type": read, "default": f.default, **keywords}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgekit",
        description="Bridging-anaphora corpus harmonization and pair classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a corpus file to canonical JSONL")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("harmonize", help="apply harmonization rules")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--exclusions", default=None)
    p.set_defaults(func=cmd_harmonize)

    p = sub.add_parser("pairs", help="build a balanced mention-pair dataset")
    p.add_argument("--in", dest="input", nargs="+", required=True)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default=None)
    p.add_argument("--seed", **_flag("seed", required=True))
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--corpus", default="")
    p.add_argument("--partition", default="")
    p.add_argument("--harmonize", action="store_true",
                   help="harmonize documents before pairing")
    p.add_argument("--pronoun-tags", nargs="+", default=PipelineConfig.pronoun_tags)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train", help="cross-validate and train a model")
    p.add_argument("--pairs", required=True)
    p.add_argument("--seed", **_flag("seed", required=True))
    p.add_argument("--out", required=True)
    p.add_argument("--folds", **_flag("cv_folds"))
    p.add_argument("--grid", choices=("default", "small"), default="default")
    p.add_argument("--lemma-top-k", **_flag("lemma_top_k"))
    for f in fields(HyperParams):
        p.add_argument("--" + f.name.replace("_", "-"), **_flag(f.name, HyperParams, default=None))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a pair dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--seed", **_flag("seed", default=0))
    p.add_argument("--baseline-p", **_flag("baseline_p"))
    p.add_argument("--baseline-runs", **_flag("baseline_runs"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", help="gain and permutation importance")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--repeats", **_flag("baseline_runs"))
    p.add_argument("--seed", **_flag("seed", default=0))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("analyze", help="residuals, distributions, confident errors")
    p.add_argument("--pairs", required=True)
    p.add_argument("--docs", nargs="+", default=None)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--tau", **_flag("tau"))
    p.add_argument("--threshold", **_flag("distribution_threshold"))
    p.add_argument("--adjusted", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", **_flag("seed", default=None))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def _exit_code(exc: BridgekitError) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    return EXIT_PIPELINE


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the command. Documents,
    records and trees hold no reference cycles, so reference counting frees
    them, and the full collections that allocating them would trigger walk
    every live object and free nothing. One collection at the end sweeps the
    little cyclic garbage left (argparse and the JSON encoder make some).
    A caller that had disabled the collector finds it still disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BridgekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


if __name__ == "__main__":
    sys.exit(main())
