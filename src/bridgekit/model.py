"""Canonical in-memory document model shared by every stage of the toolkit.

Token indices are 1-based and contiguous within a document. Mention spans are
inclusive ``(start, end)`` token ranges, so a single-token mention is
``(k, k)``. All types are frozen dataclasses: documents are never mutated in
place, transformations construct new ones, which makes everything safe to
share across concurrent readers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ValidationError

SCHEMAS = ("gum_like", "arrau_like", "canonical")
NUMBER_VALUES = ("sing", "plur", "none")
INFSTAT_VALUES = ("new", "giv", "acc", "none")
DEFINITENESS_VALUES = ("def", "ind", "none")

UNIFIED_ENTITY_TYPES = (
    "person",
    "place",
    "organization",
    "concrete",
    "event",
    "time",
    "substance",
    "animate",
    "abstract",
)
#: Placeholder for mentions whose entity type has not been unified yet.
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class Token:
    index: int  # 1-based position in the document
    form: str
    lemma: str
    xpos: str
    number: str  # sing | plur | none
    deprel: str
    head: int  # token index of the dependency head, 0 for root


@dataclass(frozen=True)
class Mention:
    id: str
    spans: tuple[tuple[int, int], ...]
    head_index: int
    entity_type_original: str
    entity_type_unified: str = UNRESOLVED
    infstat: str = "none"
    definiteness: str = "none"
    chain_id: str | None = None

    @property
    def discontinuous(self) -> bool:
        return len(self.spans) > 1

    @property
    def n_tokens(self) -> int:
        return sum(end - start + 1 for start, end in self.spans)

    def covers(self, index: int) -> bool:
        return any(start <= index <= end for start, end in self.spans)


@dataclass(frozen=True)
class BridgingLink:
    anaphor_id: str
    antecedent_ids: tuple[str, ...]
    subtype: str | None = None  # None means no subtype annotation

    @property
    def split_antecedent(self) -> bool:
        return len(self.antecedent_ids) > 1


@dataclass(frozen=True)
class Document:
    doc_id: str
    genre: str
    schema: str
    tokens: tuple[Token, ...] = field(default_factory=tuple)
    mentions: tuple[Mention, ...] = field(default_factory=tuple)
    bridging: tuple[BridgingLink, ...] = field(default_factory=tuple)

    @cached_property
    def mention_by_id(self) -> dict[str, Mention]:
        return {m.id: m for m in self.mentions}

    @cached_property
    def mention_position(self) -> dict[str, int]:
        return {m.id: i for i, m in enumerate(self.mentions)}

    @cached_property
    def token_by_index(self) -> dict[int, Token]:
        return {t.index: t for t in self.tokens}

    def chain_members(self, chain_id: str) -> list[Mention]:
        return [m for m in self.mentions if m.chain_id == chain_id]


def mention_start(mention: Mention) -> int:
    """Start token of the first span; the document-order anchor of a mention."""
    return mention.spans[0][0]


def mention_order_key(doc: Document, mention: Mention) -> tuple[int, int, int]:
    """Sort key for document order.

    Start of the first span, then its end, then position in the mention list,
    so that mentions sharing a start token still order deterministically.
    """
    start, end = mention.spans[0]
    return (start, end, doc.mention_position[mention.id])


def is_given(doc: Document, mention: Mention) -> bool:
    """True iff an earlier mention of the same coreference chain exists.

    A mention without a chain is discourse-new by definition. Exactly one
    member of every chain (the earliest in document order) is not given.
    """
    if mention.chain_id is None:
        return False
    key = mention_order_key(doc, mention)
    return any(
        m.id != mention.id and mention_order_key(doc, m) < key
        for m in doc.mentions
        if m.chain_id == mention.chain_id
    )


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{path}: {message}")


def validate_document(doc: Document) -> None:
    """Raise ValidationError naming the offending field path on any breach."""
    where = f"doc {doc.doc_id!r}"
    _check(doc.schema in SCHEMAS, f"{where}.schema", f"unknown schema {doc.schema!r}")

    n = len(doc.tokens)
    for i, tok in enumerate(doc.tokens):
        path = f"{where}.tokens[{i}]"
        _check(tok.index == i + 1, f"{path}.index", f"expected {i + 1}, got {tok.index}")
        _check(tok.number in NUMBER_VALUES, f"{path}.number", f"bad value {tok.number!r}")
        _check(
            0 <= tok.head <= n and tok.head != tok.index,
            f"{path}.head",
            f"head {tok.head} out of range or self-referential",
        )

    seen_ids: set[str] = set()
    for i, m in enumerate(doc.mentions):
        path = f"{where}.mentions[{i}]"
        _check(m.id not in seen_ids, f"{path}.id", f"duplicate mention id {m.id!r}")
        seen_ids.add(m.id)
        _check(len(m.spans) > 0, f"{path}.spans", "mention has no spans")
        prev_end = 0
        for j, (start, end) in enumerate(m.spans):
            span_path = f"{path}.spans[{j}]"
            _check(start <= end, span_path, f"start {start} > end {end}")
            _check(1 <= start and end <= n, span_path, f"[{start},{end}] outside tokens 1..{n}")
            _check(start > prev_end, span_path, "spans not sorted or overlapping")
            prev_end = end
        _check(m.covers(m.head_index), f"{path}.head_index", f"{m.head_index} not inside any span")
        _check(m.infstat in INFSTAT_VALUES, f"{path}.infstat", f"bad value {m.infstat!r}")
        _check(
            m.definiteness in DEFINITENESS_VALUES,
            f"{path}.definiteness",
            f"bad value {m.definiteness!r}",
        )
        _check(
            m.entity_type_unified == UNRESOLVED or m.entity_type_unified in UNIFIED_ENTITY_TYPES,
            f"{path}.entity_type_unified",
            f"bad value {m.entity_type_unified!r}",
        )

    seen_links: set[tuple[str, frozenset[str]]] = set()
    for i, link in enumerate(doc.bridging):
        path = f"{where}.bridging[{i}]"
        antecedents = frozenset(link.antecedent_ids)
        _check(len(antecedents) > 0, f"{path}.antecedent_ids", "empty antecedent list")
        _check(len(antecedents) == len(link.antecedent_ids), f"{path}.antecedent_ids", "repeated antecedent")
        _check((link.anaphor_id, antecedents) not in seen_links, path, f"duplicate link for anaphor {link.anaphor_id!r}")
        seen_links.add((link.anaphor_id, antecedents))
        _check(
            link.anaphor_id in seen_ids,
            f"{path}.anaphor_id",
            f"unknown mention {link.anaphor_id!r}",
        )
        for ante in link.antecedent_ids:
            _check(ante in seen_ids, f"{path}.antecedent_ids", f"unknown mention {ante!r}")
            _check(
                ante != link.anaphor_id,
                f"{path}.antecedent_ids",
                f"anaphor {ante!r} listed as its own antecedent",
            )
