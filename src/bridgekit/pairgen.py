"""Candidate-pair enumeration, feature extraction, and balanced dataset
construction for antecedent-anaphor classification.

A pair example carries the anaphor (n_) and antecedent (t_) sides of the
feature set: entity type, definiteness, phrase length, and the dependency
relation, part of speech, number, and lemma of each mention's syntactic
head, plus the antecedent's information status and the token distance
between the two mention starts.
"""
from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from dataclasses import dataclass, fields

from .errors import EmptyDatasetError, UndefinedDistanceError, ValidationError
from .model import Document, Mention, is_given, mention_order_key, mention_start
from .records import json_lines, record_reader, record_writer

LABELS = ("bridging", "coref", "none")

DEFAULT_PRONOUN_TAGS = frozenset({"PRP", "PRP$", "WP", "WP$"})

# First-token lemmas that signal a definite phrase.
_DEFINITE_LEMMAS = frozenset({"the", "this", "that", "these", "those"})
_POSSESSIVE_TAGS = frozenset({"PRP$", "WP$", "POS"})
_PROPER_TAGS = frozenset({"NNP", "NNPS"})


@dataclass(frozen=True)
class FeatureVector:
    t_entity_type: str
    n_entity_type: str
    t_definite: str
    n_definite: str
    t_phrase_len: int
    n_phrase_len: int
    t_head_deprel: str
    n_head_deprel: str
    t_head_xpos: str
    n_head_xpos: str
    t_head_lemma: str
    n_head_lemma: str
    t_head_number: str
    n_head_number: str
    t_infstat: str
    t_a_dist: int


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))
NUMERIC_FEATURES = tuple(f.name for f in fields(FeatureVector) if f.type == "int")


@dataclass(frozen=True)
class PairExample:
    doc_id: str
    antecedent_id: str
    anaphor_id: str
    features: FeatureVector
    label: str


@dataclass(frozen=True)
class Provenance:
    corpus: str
    partition: str
    seed: int
    max_distance: int


@dataclass(frozen=True)
class PairDataset:
    examples: tuple[PairExample, ...]
    provenance: Provenance
    warnings: tuple[str, ...] = ()

    def label_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in LABELS}
        for ex in self.examples:
            counts[ex.label] += 1
        return counts


def derive_definiteness(doc: Document, m: Mention) -> str:
    """Annotated definiteness when present, otherwise a surface heuristic.

    Definite if the span starts with a definite determiner or a possessive,
    or is headed by a proper noun or pronoun; indefinite otherwise.
    """
    if m.definiteness != "none":
        return m.definiteness
    first = doc.tokens[m.spans[0][0] - 1]
    head = doc.tokens[m.head_index - 1]
    if first.lemma.lower() in _DEFINITE_LEMMAS or first.xpos in _POSSESSIVE_TAGS:
        return "def"
    if head.xpos in _PROPER_TAGS or head.xpos in DEFAULT_PRONOUN_TAGS:
        return "def"
    return "ind"


def derive_infstat(doc: Document, m: Mention) -> str:
    """Annotated information status when present, otherwise chain-derived."""
    if m.infstat != "none":
        return m.infstat
    return "giv" if is_given(doc, m) else "new"


def is_pronoun(doc: Document, m: Mention, pronoun_tags: frozenset[str] = DEFAULT_PRONOUN_TAGS) -> bool:
    return doc.tokens[m.head_index - 1].xpos in pronoun_tags


def extract_features(doc: Document, ante: Mention, ana: Mention) -> FeatureVector:
    distance = mention_start(ana) - mention_start(ante)
    if distance < 0:
        raise ValidationError(f"antecedent {ante.id!r} does not precede anaphor {ana.id!r}")
    t_head = doc.tokens[ante.head_index - 1]
    n_head = doc.tokens[ana.head_index - 1]
    return FeatureVector(
        t_entity_type=ante.entity_type_unified,
        n_entity_type=ana.entity_type_unified,
        t_definite=derive_definiteness(doc, ante),
        n_definite=derive_definiteness(doc, ana),
        t_phrase_len=ante.n_tokens,
        n_phrase_len=ana.n_tokens,
        t_head_deprel=t_head.deprel,
        n_head_deprel=n_head.deprel,
        t_head_xpos=t_head.xpos,
        n_head_xpos=n_head.xpos,
        t_head_lemma=t_head.lemma,
        n_head_lemma=n_head.lemma,
        t_head_number=t_head.number,
        n_head_number=n_head.number,
        t_infstat=derive_infstat(doc, ante),
        t_a_dist=distance,
    )


def max_bridging_distance(docs: list[Document]) -> int:
    distances = []
    for doc in docs:
        for link in doc.bridging:
            ana = doc.mention_by_id[link.anaphor_id]
            for ante_id in link.antecedent_ids:
                ante = doc.mention_by_id[ante_id]
                distances.append(mention_start(ana) - mention_start(ante))
    if not distances:
        raise UndefinedDistanceError("no bridging links in corpus, distance cap undefined")
    return max(distances)


def enumerate_labeled_pairs(
    doc: Document, max_distance: int | None = None
) -> list[tuple[Mention, Mention, str]]:
    """All ordered mention pairs with the antecedent strictly earlier, as
    ``(antecedent, anaphor, label)`` triples in document order.

    A pair matching a bridging link is labeled bridging; otherwise shared
    chain membership yields coref; everything else is none. With
    `max_distance`, only pairs whose anaphor starts at most that many tokens
    after the antecedent are enumerated.
    """
    bridged = {
        (ante_id, link.anaphor_id)
        for link in doc.bridging
        for ante_id in link.antecedent_ids
    }
    ordered = sorted(doc.mentions, key=lambda m: mention_order_key(doc, m))
    starts = [mention_start(m) for m in ordered]
    pairs = []
    for i, ante in enumerate(ordered):
        # starts are non-decreasing: skip the anaphors that share the
        # antecedent's start and stop at the first one beyond the distance
        first = bisect_right(starts, starts[i], lo=i)
        stop = len(ordered) if max_distance is None else bisect_right(
            starts, starts[i] + max_distance, lo=first
        )
        for ana in ordered[first:stop]:
            if (ante.id, ana.id) in bridged:
                label = "bridging"
            elif ante.chain_id is not None and ante.chain_id == ana.chain_id:
                label = "coref"
            else:
                label = "none"
            pairs.append((ante, ana, label))
    return pairs


def _candidate_sort_key(candidate: tuple[Document, Mention, Mention]) -> tuple[str, str, str]:
    doc, ante, ana = candidate
    return (doc.doc_id, ante.id, ana.id)


def build_balanced_dataset(
    docs: list[Document],
    seed: int,
    corpus: str = "",
    partition: str = "",
    pronoun_tags: frozenset[str] = DEFAULT_PRONOUN_TAGS,
) -> PairDataset:
    """Balanced bridging / coref / none dataset over a harmonized corpus.

    Every bridging pair is kept. Negatives are sampled uniformly without
    replacement, one draw per class, from candidates whose anaphor is not a
    pronoun and whose distance does not exceed the longest attested
    bridging distance, the cap at which enumeration stops. Classes short of
    candidates are taken whole with a recorded warning. Features are
    extracted for the kept pairs only. The result is a deterministic
    function of (docs, seed).
    """
    cap = max_bridging_distance(docs)

    pools: dict[str, list[tuple[Document, Mention, Mention]]] = {label: [] for label in LABELS}
    for doc in docs:
        pronouns = {m.id for m in doc.mentions if is_pronoun(doc, m, pronoun_tags)}
        for ante, ana, label in enumerate_labeled_pairs(doc, cap):
            if label != "bridging" and ana.id in pronouns:
                continue
            pools[label].append((doc, ante, ana))

    n_bridging = len(pools["bridging"])
    if n_bridging == 0:
        raise EmptyDatasetError("no bridging pairs in corpus")

    rng = random.Random(seed)
    warnings = []
    chosen: list[PairExample] = []
    for label in LABELS:
        pool = sorted(pools[label], key=_candidate_sort_key)
        if label != "bridging":
            if len(pool) < n_bridging:
                warnings.append(
                    f"only {len(pool)} {label} candidates for {n_bridging} bridging pairs"
                )
            else:
                pool = sorted(rng.sample(pool, n_bridging), key=_candidate_sort_key)
        chosen.extend(
            PairExample(doc.doc_id, ante.id, ana.id, extract_features(doc, ante, ana), label)
            for doc, ante, ana in pool
        )

    return PairDataset(
        examples=tuple(chosen),
        provenance=Provenance(corpus=corpus, partition=partition, seed=seed, max_distance=cap),
        warnings=tuple(warnings),
    )


def bridging_rate_per_1k(docs: list[Document]) -> float:
    tokens = sum(len(doc.tokens) for doc in docs)
    if tokens == 0:
        raise EmptyDatasetError("zero tokens, rate undefined")
    links = sum(len(doc.bridging) for doc in docs)
    return 1000.0 * links / tokens


# ---------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class _Header:
    """The first line of a pair-dataset file."""
    provenance: Provenance
    warnings: tuple[str, ...]
    n_examples: int


_write_example = record_writer(FeatureVector, PairExample)
_read_example = record_reader(FeatureVector, PairExample)
_write_header = record_writer(Provenance, _Header)
_read_header = record_reader(Provenance, _Header)


def dataset_to_jsonl(dataset: PairDataset) -> bytes:
    """A header line, then one line per example: the bytes of sorted-key,
    compact `json.dumps`, each line written from its record layout."""
    header = _Header(dataset.provenance, dataset.warnings, len(dataset.examples))
    lines = [_write_header(header), *map(_write_example, dataset.examples)]
    return "".join([f"{line}\n" for line in lines]).encode("utf-8")


def dataset_from_jsonl(data: bytes | str) -> PairDataset:
    """Read the header and each example from their record layouts. A line
    that is not JSON raises ParseError naming its line; a mistyped, missing
    or unknown field raises ValidationError naming its path."""
    lines = json_lines(data)
    header = next(lines, None)
    if header is None:
        raise EmptyDatasetError("empty dataset file")
    if not isinstance(header, dict) or "provenance" not in header:
        raise ValidationError("first line must be the provenance header")
    header = _read_header(header, "header")
    examples = []
    for i, obj in enumerate(lines):
        example = _read_example(obj, f"example[{i}]")
        if example.label not in LABELS:
            raise ValidationError(f"example {i}: unknown label {example.label!r}")
        examples.append(example)
    if header.n_examples != len(examples):
        raise ValidationError(
            f"header declares {header.n_examples} examples, found {len(examples)}"
        )
    return PairDataset(tuple(examples), header.provenance, header.warnings)


def dataset_to_csv(dataset: PairDataset) -> str:
    """Flat export: ids, one column per feature, label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["doc_id", "antecedent_id", "anaphor_id", *FEATURE_NAMES, "label"])
    for ex in dataset.examples:
        feats = vars(ex.features)
        writer.writerow(
            [ex.doc_id, ex.antecedent_id, ex.anaphor_id]
            + [feats[name] for name in FEATURE_NAMES]
            + [ex.label]
        )
    return buf.getvalue()
