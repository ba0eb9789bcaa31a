"""Harmonization rules that reduce rich standoff-style annotation to the
stricter scope shared by both corpora, plus entity-type unification.

`harmonize_document` makes two passes. The mention pass flattens each
discontinuous mention to its envelope and unifies its entity type, building
each changed mention once. The link pass drops, in this order, excluded
links, links with split antecedents and links whose anaphor is given, and
checks the subtype of each link it keeps. Givenness is read from the
flattened mentions, because flattening can move a mention's start and so its
givenness; the fixed order makes every reported count deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, UnknownEntityTypeError, ValidationError
from .model import BridgingLink, Document, Mention, UNRESOLVED
from .records import read_text, record_maker

# Original-label -> unified-label maps. Keys are lowercase; lookup lowercases
# the input because corpus releases vary in casing.
GUM_ENTITY_MAP = {
    "person": "person",
    "place": "place",
    "organization": "organization",
    "object": "concrete",
    "plant": "concrete",
    "event": "event",
    "time": "time",
    "substance": "substance",
    "animal": "animate",
    "abstract": "abstract",
}

ARRAU_ENTITY_MAP = {
    "person": "person",
    "space": "place",
    "organization": "organization",
    "concrete": "concrete",
    "plan": "event",
    "time": "time",
    "substance": "substance",
    "medicine": "substance",
    "animate": "animate",
    "abstract": "abstract",
    "undersp-onto": "abstract",
    "disease": "abstract",
    "numerical": "abstract",
    "none": "abstract",
}

# The two inventories never disagree on a shared label, so documents already
# in canonical form resolve against the union.
_COMBINED_ENTITY_MAP = {**GUM_ENTITY_MAP, **ARRAU_ENTITY_MAP}

ENTITY_MAPS = {
    "gum_like": GUM_ENTITY_MAP,
    "arrau_like": ARRAU_ENTITY_MAP,
    "canonical": _COMBINED_ENTITY_MAP,
}

# Bridging subtype inventory; an absent subtype (None) counts as unmarked and
# is always acceptable.
VALID_SUBTYPES = frozenset(
    {"poss", "poss-inv", "element", "element-inv", "subset", "subset-inv",
     "other", "other-inv", "undersp-rel"}
)

_make_mention = record_maker(Mention)
_make_document = record_maker(Document)


@dataclass
class HarmonizeReport:
    removed_split_antecedent: int = 0
    removed_given_anaphor: int = 0
    flattened_discontinuous: int = 0
    entity_type_remaps: int = 0
    unresolved_entity_types: list[str] = field(default_factory=list)
    subtype_violations: list[tuple[str, BridgingLink]] = field(default_factory=list)
    excluded_links: int = 0
    merge_conflicts: list[tuple[str, str, str]] = field(default_factory=list)
    chain_type_conflicts: list[tuple[str, str]] = field(default_factory=list)
    # Pre-flatten spans kept for audit, keyed by (doc_id, mention_id).
    flattened_spans: dict[tuple[str, str], tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )

    def merge(self, other: "HarmonizeReport") -> None:
        self.removed_split_antecedent += other.removed_split_antecedent
        self.removed_given_anaphor += other.removed_given_anaphor
        self.flattened_discontinuous += other.flattened_discontinuous
        self.entity_type_remaps += other.entity_type_remaps
        for label in other.unresolved_entity_types:
            if label not in self.unresolved_entity_types:
                self.unresolved_entity_types.append(label)
        self.subtype_violations.extend(other.subtype_violations)
        self.excluded_links += other.excluded_links
        self.merge_conflicts.extend(other.merge_conflicts)
        self.chain_type_conflicts.extend(other.chain_type_conflicts)
        self.flattened_spans.update(other.flattened_spans)

    def to_dict(self) -> dict:
        return {
            "removed_split_antecedent": self.removed_split_antecedent,
            "removed_given_anaphor": self.removed_given_anaphor,
            "flattened_discontinuous": self.flattened_discontinuous,
            "entity_type_remaps": self.entity_type_remaps,
            "unresolved_entity_types": list(self.unresolved_entity_types),
            "subtype_violations": [
                {
                    "doc_id": doc_id,
                    "anaphor_id": link.anaphor_id,
                    "antecedent_ids": list(link.antecedent_ids),
                    "subtype": link.subtype,
                }
                for doc_id, link in self.subtype_violations
            ],
            "excluded_links": self.excluded_links,
            "merge_conflicts": [list(entry) for entry in self.merge_conflicts],
            "chain_type_conflicts": [list(entry) for entry in self.chain_type_conflicts],
            "flattened_spans": {
                f"{doc_id}/{mention_id}": [list(span) for span in spans]
                for (doc_id, mention_id), spans in sorted(self.flattened_spans.items())
            },
        }


def format_report(report: HarmonizeReport) -> str:
    """Human-readable summary table for terminal output."""
    rows = [
        ("excluded links", report.excluded_links),
        ("flattened discontinuous mentions", report.flattened_discontinuous),
        ("removed split-antecedent links", report.removed_split_antecedent),
        ("removed given-anaphor links", report.removed_given_anaphor),
        ("entity type remaps", report.entity_type_remaps),
        ("unresolved entity type labels", len(report.unresolved_entity_types)),
        ("subtype violations", len(report.subtype_violations)),
        ("envelope merge conflicts", len(report.merge_conflicts)),
        ("chains with conflicting types", len(report.chain_type_conflicts)),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
    if report.unresolved_entity_types:
        lines.append("unresolved labels: " + ", ".join(report.unresolved_entity_types))
    return "\n".join(lines)


def read_exclusion_list(path: str | Path) -> frozenset[tuple[str, str]]:
    """One ``doc_id <tab> anaphor_mention_id`` per line; blank lines ignored."""
    pairs = set()
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not all(fields):
            raise ParseError(f"expected 'doc_id<TAB>anaphor_id', got {raw!r}", line_no)
        pairs.add((fields[0], fields[1]))
    return frozenset(pairs)


def unify_entity_type(schema: str, original: str) -> str:
    """Map an original entity label to the unified inventory.

    Case-insensitive on input. Labels outside the inventory raise
    UnknownEntityTypeError; corpus-level runs collect these instead of
    failing.
    """
    if schema not in ENTITY_MAPS:
        raise ValidationError(f"unknown schema {schema!r} for entity type unification")
    mapping = ENTITY_MAPS[schema]
    label = original.lower()
    if label not in mapping:
        raise UnknownEntityTypeError(schema, original)
    return mapping[label]


def harmonize_document(
    doc: Document, exclusions: frozenset[tuple[str, str]] = frozenset()
) -> tuple[Document, HarmonizeReport]:
    """One pass over the mentions, then one over the links, each counting
    into the report; the document is returned unchanged when no rule applies.

    `exclusions` holds (doc_id, anaphor mention id) pairs whose bridging
    links are dropped before any rule runs; it covers manual error-spotting
    decisions that are not expressible as a rule. A link that more than one
    rule drops is counted under the first of them.
    """
    report = HarmonizeReport()
    unknown = report.unresolved_entity_types
    types_by_chain: dict[str, set[str]] = {}
    mentions = []
    for m in doc.mentions:
        spans, unified = m.spans, m.entity_type_unified
        if m.discontinuous:
            report.flattened_spans[(doc.doc_id, m.id)] = spans
            spans = ((spans[0][0], spans[-1][1]),)
            report.flattened_discontinuous += 1
        if unified == UNRESOLVED:
            try:
                unified = unify_entity_type(doc.schema, m.entity_type_original)
            except UnknownEntityTypeError:
                if m.entity_type_original not in unknown:
                    unknown.append(m.entity_type_original)
            else:
                report.entity_type_remaps += 1
        # one rebuild, whichever rules changed the mention
        if spans is not m.spans or unified is not m.entity_type_unified:
            m = _make_mention(m.id, spans, m.head_index, m.entity_type_original,
                              unified, m.infstat, m.definiteness, m.chain_id)
        mentions.append(m)
        if m.chain_id is not None and unified != UNRESOLVED:
            types_by_chain.setdefault(m.chain_id, set()).add(unified)
    report.chain_type_conflicts = [
        (doc.doc_id, chain_id)
        for chain_id, types in sorted(types_by_chain.items())
        if len(types) > 1
    ]
    if report.flattened_discontinuous:
        # two mentions of one chain left with the same span are reported,
        # not merged
        first_by_key: dict[tuple, str] = {}
        for m in mentions:
            if m.chain_id is not None:
                first = first_by_key.setdefault((m.spans, m.chain_id), m.id)
                if first != m.id:
                    report.merge_conflicts.append((doc.doc_id, first, m.id))
    # a rebuilt document starts with an empty instance dict, so its cached
    # lookup tables are computed from its own mentions
    if report.flattened_discontinuous or report.entity_type_remaps:
        doc = _make_document(doc.doc_id, doc.genre, doc.schema, doc.tokens,
                             tuple(mentions), doc.bridging)

    # givenness is read from the flattened mentions: an envelope can move a
    # mention's start and so its place in its chain
    kept = []
    for link in doc.bridging:
        if (doc.doc_id, link.anaphor_id) in exclusions:
            report.excluded_links += 1
        elif link.split_antecedent:
            report.removed_split_antecedent += 1
        elif link.anaphor_id in doc.given_mention_ids:
            report.removed_given_anaphor += 1
        else:
            kept.append(link)
            if link.subtype is not None and link.subtype not in VALID_SUBTYPES:
                report.subtype_violations.append((doc.doc_id, link))
    if len(kept) < len(doc.bridging):
        doc = _make_document(doc.doc_id, doc.genre, doc.schema, doc.tokens,
                             doc.mentions, tuple(kept))
    return doc, report


def harmonize_corpus(
    docs: list[Document], exclusions: frozenset[tuple[str, str]] = frozenset()
) -> tuple[list[Document], HarmonizeReport]:
    """Harmonize each document independently and sum the per-document
    reports in document order."""
    out = []
    total = HarmonizeReport()
    for doc in docs:
        harmonized, report = harmonize_document(doc, exclusions)
        out.append(harmonized)
        total.merge(report)
    return out, total
