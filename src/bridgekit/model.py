"""Canonical in-memory document model shared by every stage of the toolkit.

Token indices are 1-based and contiguous within a document. Mention spans are
inclusive ``(start, end)`` token ranges, so a single-token mention is
``(k, k)``. All types are frozen dataclasses: documents are never mutated in
place, transformations construct new ones, which makes everything safe to
share across concurrent readers.

`Token`, `Mention` and `BridgingLink` are slotted (``slots=True``): a reader
builds tens of thousands of them per corpus, and a slotted record stores its
fields in the object itself, with no instance dict, so it is smaller and its
fields are set faster. `Document` keeps its instance dict, because its
`cached_property` lookup tables are stored there.
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


@dataclass(frozen=True, slots=True)
class Token:
    index: int  # 1-based position in the document
    form: str
    lemma: str
    xpos: str
    number: str  # sing | plur | none
    deprel: str
    head: int  # token index of the dependency head, 0 for root


@dataclass(frozen=True, slots=True)
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
    def entity_type(self) -> str:
        """The unified entity type once resolved, otherwise the original label."""
        if self.entity_type_unified != UNRESOLVED:
            return self.entity_type_unified
        return self.entity_type_original

    @property
    def discontinuous(self) -> bool:
        return len(self.spans) > 1

    @property
    def n_tokens(self) -> int:
        return sum(end - start + 1 for start, end in self.spans)

    def covers(self, index: int) -> bool:
        return any(start <= index <= end for start, end in self.spans)


@dataclass(frozen=True, slots=True)
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
    def given_mention_ids(self) -> frozenset[str]:
        """Ids of the mentions that `is_given` holds for: every chain member
        but the chain's first in document order."""
        first: dict[str, Mention] = {}
        for m in self.mentions:
            # visited in list order, so a later mention comes first in
            # document order (`mention_order_key`) only on a smaller span
            if m.chain_id is not None and (
                m.chain_id not in first or m.spans[0] < first[m.chain_id].spans[0]
            ):
                first[m.chain_id] = m
        return frozenset(
            m.id for m in self.mentions
            if m.chain_id is not None and first[m.chain_id] is not m
        )


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
    return mention.id in doc.given_mention_ids


def validate_document(doc: Document) -> None:
    """Raise ValidationError naming the offending field path on any breach.

    The checks are bare conditions: a message is formatted only when one fails.
    """
    where = f"doc {doc.doc_id!r}"
    if doc.schema not in SCHEMAS:
        raise ValidationError(f"{where}.schema: unknown schema {doc.schema!r}")

    n = len(doc.tokens)
    for i, tok in enumerate(doc.tokens):
        if tok.index != i + 1:
            raise ValidationError(f"{where}.tokens[{i}].index: expected {i + 1}, got {tok.index}")
        if tok.number not in NUMBER_VALUES:
            raise ValidationError(f"{where}.tokens[{i}].number: bad value {tok.number!r}")
        if not 0 <= tok.head <= n or tok.head == tok.index:
            raise ValidationError(f"{where}.tokens[{i}].head: head {tok.head} out of range or self-referential")

    seen_ids: set[str] = set()
    for i, m in enumerate(doc.mentions):
        if m.id in seen_ids:
            raise ValidationError(f"{where}.mentions[{i}].id: duplicate mention id {m.id!r}")
        seen_ids.add(m.id)
        if not m.spans:
            raise ValidationError(f"{where}.mentions[{i}].spans: mention has no spans")
        prev_end = 0
        for j, (start, end) in enumerate(m.spans):
            if start > end:
                raise ValidationError(f"{where}.mentions[{i}].spans[{j}]: start {start} > end {end}")
            if start < 1 or end > n:
                raise ValidationError(f"{where}.mentions[{i}].spans[{j}]: [{start},{end}] outside tokens 1..{n}")
            if start <= prev_end:
                raise ValidationError(f"{where}.mentions[{i}].spans[{j}]: spans not sorted or overlapping")
            prev_end = end
        if not m.covers(m.head_index):
            raise ValidationError(f"{where}.mentions[{i}].head_index: {m.head_index} not inside any span")
        if m.infstat not in INFSTAT_VALUES:
            raise ValidationError(f"{where}.mentions[{i}].infstat: bad value {m.infstat!r}")
        if m.definiteness not in DEFINITENESS_VALUES:
            raise ValidationError(f"{where}.mentions[{i}].definiteness: bad value {m.definiteness!r}")
        if m.entity_type_unified != UNRESOLVED and m.entity_type_unified not in UNIFIED_ENTITY_TYPES:
            raise ValidationError(
                f"{where}.mentions[{i}].entity_type_unified: bad value {m.entity_type_unified!r}"
            )

    seen_links: set[tuple[str, frozenset[str]]] = set()
    for i, link in enumerate(doc.bridging):
        antecedents = frozenset(link.antecedent_ids)
        if not antecedents:
            raise ValidationError(f"{where}.bridging[{i}].antecedent_ids: empty antecedent list")
        if len(antecedents) != len(link.antecedent_ids):
            raise ValidationError(f"{where}.bridging[{i}].antecedent_ids: repeated antecedent")
        if (link.anaphor_id, antecedents) in seen_links:
            raise ValidationError(f"{where}.bridging[{i}]: duplicate link for anaphor {link.anaphor_id!r}")
        seen_links.add((link.anaphor_id, antecedents))
        if link.anaphor_id not in seen_ids:
            raise ValidationError(f"{where}.bridging[{i}].anaphor_id: unknown mention {link.anaphor_id!r}")
        for ante in link.antecedent_ids:
            if ante not in seen_ids:
                raise ValidationError(f"{where}.bridging[{i}].antecedent_ids: unknown mention {ante!r}")
            if ante == link.anaphor_id:
                raise ValidationError(
                    f"{where}.bridging[{i}].antecedent_ids: anaphor {ante!r} listed as its own antecedent"
                )
