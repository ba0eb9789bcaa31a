"""Spans around the calls into each bridgekit layer, recorded from outside.

A traced iteration replaces the layer functions as they are bound in the
modules that call them (`bridgekit.cli`, `bridgekit.gbdt.evaluation`,
`bridgekit.gbdt.importance`, `bridgekit.stats`, `bridgekit.ingest` and
`bridgekit.pairgen`) with wrappers. A span wrapper records the span's
name, start, end and parent, plus a few facts about its arguments and
result, taken after the call's end time; counting wrappers on hot inner
calls only count. The per-layer metrics are computed from the spans after
the iteration ends. A layer's self time is its spans'
time minus the time of the spans they caused; the self times of all layers
plus `cli.self_s` add up to the iteration's wall time.

Tracing fails loudly, with `TraceError`, when a wrapped function no longer
exists or a workload's iteration records none of the spans it must, so a
refactor of the program cannot turn into silent zeros.
"""
from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path


class TraceError(RuntimeError):
    pass


def _read_facts(args: dict, result) -> dict:
    return {"path": args["path"], "docs": len(result),
            "mentions": sum(len(doc.mentions) for doc in result)}


def _docs_facts(args: dict, result) -> dict:
    return {"docs": len(args["docs"])}


def _build_facts(args: dict, result) -> dict:
    return {"candidates": sum(_candidate_pairs(doc) for doc in args["docs"]),
            "kept": len(result.examples)}


def _encode_facts(args: dict, result) -> dict:
    return {"rows": result[0].shape[0], "columns": result[0].shape[1]}


def _train_facts(args: dict, result) -> dict:
    return {"model": result}


def _predict_facts(args: dict, result) -> dict:
    rows = args["X"].shape[0] if getattr(args["X"], "ndim", 1) == 2 else 1
    return {"visits": rows * len(args["model"].trees)}


def _cv_facts(args: dict, result) -> dict:
    return {"scores": len(args["grid"]) * args["k"]}


# (module, attribute, span name, facts). Span names are "<layer>.<call>".
SPANS = (
    ("bridgekit.cli", "read_documents", "ingest.parse", _read_facts),
    ("bridgekit.cli", "emit_canonical", "ingest.emit", None),
    ("bridgekit.ingest", "validate_document", "model.validate", None),
    ("bridgekit.cli", "harmonize_corpus", "harmonize.corpus", _docs_facts),
    ("bridgekit.cli", "format_report", "harmonize.format_report", None),
    ("bridgekit.cli", "build_balanced_dataset", "pairgen.build", _build_facts),
    ("bridgekit.cli", "dataset_to_jsonl", "pairgen.io", None),
    ("bridgekit.cli", "dataset_to_csv", "pairgen.io", None),
    ("bridgekit.cli", "dataset_from_jsonl", "pairgen.io", None),
    ("bridgekit.cli", "encode", "encoding.encode", _encode_facts),
    ("bridgekit.gbdt.evaluation", "encode", "encoding.encode", _encode_facts),
    ("bridgekit.gbdt.evaluation", "fit_schema", "encoding.fit_schema", None),
    ("bridgekit.gbdt.importance", "encode", "encoding.encode", _encode_facts),
    ("bridgekit.stats", "encode", "encoding.encode", _encode_facts),
    ("bridgekit.cli", "train", "boosting.train", _train_facts),
    ("bridgekit.gbdt.evaluation", "train", "boosting.train", _train_facts),
    ("bridgekit.gbdt.evaluation", "predict_proba", "boosting.predict", _predict_facts),
    ("bridgekit.gbdt.importance", "predict_proba", "boosting.predict", _predict_facts),
    ("bridgekit.stats", "predict_proba", "boosting.predict", _predict_facts),
    ("bridgekit.cli", "save_model", "boosting.model_io", None),
    ("bridgekit.cli", "load_model", "boosting.model_io", None),
    ("bridgekit.cli", "cross_validate", "evaluation.cv", _cv_facts),
    ("bridgekit.cli", "evaluate", "evaluation.eval", None),
    ("bridgekit.cli", "random_baseline", "evaluation.baseline", None),
    ("bridgekit.cli", "gain_importance", "importance.gain", None),
    ("bridgekit.cli", "mda_importance", "importance.mda", None),
    ("bridgekit.cli", "definiteness_contingency", "stats.contingency", None),
    ("bridgekit.cli", "definiteness_contingency_corpus", "stats.contingency", None),
    ("bridgekit.cli", "chi_square_residuals", "stats.residuals", None),
    ("bridgekit.cli", "entity_pair_distribution", "stats.distribution", None),
    ("bridgekit.cli", "anaphor_entity_distribution", "stats.distribution", None),
    ("bridgekit.cli", "subtype_distribution", "stats.distribution", None),
    ("bridgekit.cli", "confident_errors", "stats.confident_errors", None),
)

# Hot inner calls: counted, never timed.
COUNTS = (
    ("bridgekit.pairgen", "extract_features", "pairgen.extract_features"),
    ("bridgekit.pairgen", "enumerate_labeled_pairs", "pairgen.enumerate_labeled_pairs"),
)

# The layer self times that, with cli.self_s, add up to the wall time.
SELF_TIMES = (
    "ingest.parse_s", "ingest.emit_s", "model.validate_s", "harmonize.s",
    "pairgen.build_s", "pairgen.io_s", "encoding.s", "boosting.train_s",
    "boosting.predict_s", "boosting.model_io_s", "evaluation.self_s",
    "importance.self_s", "stats.s", "cli.self_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    facts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, records one iteration's spans at a time, and
    turns them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, facts in SPANS:
                self._replace(module, attr, lambda fn, n=name, f=facts: self._span(fn, n, f))
            for module, attr, name in COUNTS:
                self._replace(module, attr, lambda fn, n=name: self._count(fn, n))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceError(f"{module_name}.{attr} no longer exists; update perfbench/tracing.py")
        self._originals.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _span(self, fn, name: str, facts):
        signature = inspect.signature(fn) if facts else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, {})
            if facts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index].facts = facts(bound.arguments, result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def metrics(self, wall: float, expected: tuple[str, ...], out_dir: Path) -> dict[str, float]:
        """Per-layer metrics of the iteration just recorded, which took `wall`
        seconds and wrote its outputs under `out_dir`."""
        spans = self.spans
        names = {s.name for s in spans}
        present = names | {name.split(".")[0] for name in names}
        missing = [name for name in expected if name not in present]
        if missing:
            raise TraceError(f"no span recorded for {', '.join(missing)}; "
                             "the program no longer calls these through the traced bindings")
        if "pairgen.build" in names:
            for _, _, name in COUNTS:
                if not self.counts[name]:
                    raise TraceError(f"{name} was never called while building datasets")

        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, s in enumerate(spans):
            self_s[s.name] += s.duration - child_time[i]
            total_s[s.name] += s.duration
            calls[s.name] += 1

        def layer_self(layer: str) -> float:
            return sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0)

        def under(span: Span, name: str) -> bool:
            while span.parent is not None:
                span = spans[span.parent]
                if span.name == name:
                    return True
            return False

        def facts(name: str) -> list[dict]:
            return [s.facts for s in spans if s.name == name]

        parsed = facts("ingest.parse")
        models = [f["model"] for f in facts("boosting.train")]
        encoded = facts("encoding.encode")
        features_built = self.counts["pairgen.extract_features"]
        kept = sum(f["kept"] for f in facts("pairgen.build"))
        rounds = sum(len(m.trees) for m in models)
        train_s = self_s["boosting.train"]
        cv_scores = sum(f["scores"] for f in facts("evaluation.cv"))
        cv_fits = sum(1 for s in spans if s.name == "boosting.train" and under(s, "evaluation.cv"))

        m = {
            "ingest.parse_s": self_s["ingest.parse"],
            "ingest.emit_s": self_s["ingest.emit"],
            "ingest.docs": sum(f["docs"] for f in parsed),
            "ingest.mentions": sum(f["mentions"] for f in parsed),
            "ingest.bytes_in": sum(os.path.getsize(f["path"]) for f in parsed),
            "model.validate_s": self_s["model.validate"],
            "model.validate_calls": calls["model.validate"],
            "harmonize.s": layer_self("harmonize"),
            "harmonize.docs": sum(f["docs"] for f in facts("harmonize.corpus")),
            "pairgen.build_s": self_s["pairgen.build"],
            "pairgen.candidates": sum(f["candidates"] for f in facts("pairgen.build")),
            "pairgen.features_built": features_built,
            "pairgen.kept": kept,
            "pairgen.kept_ratio": kept / features_built if features_built else 0.0,
            "pairgen.io_s": self_s["pairgen.io"],
            "encoding.s": layer_self("encoding"),
            "encoding.rows": sum(f["rows"] for f in encoded),
            "encoding.columns": max((f["columns"] for f in encoded), default=0),
            "boosting.train_s": train_s,
            "boosting.train_calls": calls["boosting.train"],
            "boosting.rounds": rounds,
            "boosting.nodes": sum(_nodes(tree) for model in models for tree in model.trees),
            "boosting.s_per_round": train_s / rounds if rounds else 0.0,
            "boosting.predict_s": self_s["boosting.predict"],
            "boosting.tree_visits": sum(f["visits"] for f in facts("boosting.predict")),
            "boosting.model_io_s": self_s["boosting.model_io"],
            "evaluation.cv_s": total_s["evaluation.cv"],
            "evaluation.cv_self_s": self_s["evaluation.cv"],
            "evaluation.cv_scores": cv_scores,
            "evaluation.cv_fits": cv_fits,
            "evaluation.fits_per_score": cv_fits / cv_scores if cv_scores else 0.0,
            "evaluation.self_s": layer_self("evaluation"),
            "importance.mda_s": total_s["importance.mda"],
            "importance.predict_calls": sum(
                1 for s in spans if s.name == "boosting.predict" and under(s, "importance.mda")
            ),
            "importance.self_s": layer_self("importance"),
            "stats.s": layer_self("stats"),
            "cli.self_s": wall - sum(s.duration for s in spans if s.parent is None),
            "cli.bytes_written": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
            "trace.wall_s": wall,
        }
        accounted = sum(m[name] for name in SELF_TIMES)
        if abs(accounted - wall) > 1e-6 * max(1.0, wall):
            raise TraceError(f"layer self times add up to {accounted}, not the wall time {wall}")
        return m


def _candidate_pairs(doc) -> int:
    """Ordered mention pairs whose anaphor starts after the antecedent."""
    starts = sorted(m.spans[0][0] for m in doc.mentions)
    pairs, same, prev = 0, 0, None
    for i, start in enumerate(starts):
        same = same + 1 if start == prev else 0
        pairs += i - same
        prev = start
    return pairs


def _nodes(tree) -> int:
    stack, count = [tree], 0
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "left"):
            stack.extend((node.left, node.right))
    return count
