"""Parsers and serializers for the three on-disk formats.

Bracket dialect (``.brk``)
    One token per line, tab-separated:
    ``index form lemma xpos number deprel head annotation``. A blank line
    ends a document. Two optional comment headers, ``# doc_id = X`` and
    ``# genre = Y``, precede the token lines; each appears at most once,
    and its value is read stripped of surrounding whitespace. The
    annotation field is ``_`` when empty, otherwise comma-separated items:
    ``(ID-TYPE-INFSTAT-DEF`` opens a mention, ``ID)`` closes it,
    ``(ID-TYPE-INFSTAT-DEF)`` is a single-token mention. Closing items
    (including the single-token form) may carry ``;Bridge=ANTEID<ID``,
    ``;Chain=CHAINID`` and ``;Subtype=LABEL`` suffixes. Spans are
    continuous, brackets must nest, and a bridge names exactly one
    antecedent.

Standoff dialect (``.sff``)
    Tagged records, one per line. ``DOC <tab> doc_id genre`` starts a
    document; ``TOK <tab> index form lemma xpos number deprel head`` adds a
    token; ``MEN <tab> id spans entity_type chain_id`` adds a mention where
    spans is ``s1-e1,s2-e2,...`` and chain_id may be ``_``;
    ``BRG <tab> anaphor_id ante1+ante2+... subtype`` adds a bridging link
    where subtype may be ``_``. Discontinuous spans and split antecedents
    are permitted.

Canonical file (``.jsonl``)
    One JSON document per line mirroring the in-memory model field for
    field, with sorted keys and compact separators so emission is
    deterministic. ``chain_id`` and ``subtype`` are omitted when absent.
    The writer is generated from the dataclass fields and writes the bytes
    ``json.dumps(sort_keys=True, ensure_ascii=False, separators=(",", ":"))``
    gives for each record's field dict.

All parsers are pure functions over the input bytes and never silently drop
annotations: every annotation item either lands in the output document or
raises.

A document is checked against the model invariants (`validate_document`)
once, where it is built: by a reader here or by `synth`. `emit_canonical`
does not check again; its output is a lossless dump that the canonical
reader checks on the way back in. `emit_bracket` does, because its dialect
is lossy: it writes a link on its anaphor's closing bracket, so a link whose
anaphor is no mention would vanish silently.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from json.encoder import encode_basestring
from pathlib import Path

from .errors import DialectViolationError, ParseError, ValidationError
from .model import (
    BridgingLink,
    DEFINITENESS_VALUES,
    Document,
    INFSTAT_VALUES,
    Mention,
    Token,
    UNRESOLVED,
    validate_document,
)

_EMPTY_FIELD = "_"
_SUFFIX_KEYS = ("Bridge", "Chain", "Subtype")
# Characters with structural meaning somewhere in the bracket dialect.
_BRACKET_RESERVED = set("();,<=\t\n ")
# A standoff span; `[0-9]`, as `\d` also matches non-ASCII digits.
_SPAN = re.compile(r"([0-9]+)-([0-9]+)")


def _decode(data: bytes | str) -> str:
    return data.decode("utf-8") if isinstance(data, bytes) else data


def find_head(tokens: tuple[Token, ...], spans: tuple[tuple[int, int], ...]) -> int:
    """Token inside the spans whose dependency head lies outside them.

    ``tokens`` is in index order, ``tokens[k].index == k + 1``, as the
    bracket and standoff parsers enforce. Leftmost such token wins; if every
    head stays inside, fall back to the last token of the last span.
    """
    covered = {i for start, end in spans for i in range(start, end + 1)}
    for start, end in spans:
        for i in range(start, end + 1):
            if tokens[i - 1].head not in covered:
                return i
    return spans[-1][1]


def _assemble(doc_id: str, genre: str, schema: str, tokens: tuple[Token, ...],
              mentions: list[dict], links: list[dict]) -> Document:
    """The document a builder's records describe, checked once. The builder's
    line-numbered checks ran first, so every span lies within ``tokens``."""
    doc = Document(
        doc_id=doc_id,
        genre=genre,
        schema=schema,
        tokens=tokens,
        mentions=tuple(
            Mention(
                id=rec["id"],
                spans=rec["spans"],
                head_index=find_head(tokens, rec["spans"]),
                entity_type_original=rec["etype"],
                entity_type_unified=UNRESOLVED,
                infstat=rec["infstat"],
                definiteness=rec["definite"],
                chain_id=rec["chain"],
            )
            for rec in mentions
        ),
        bridging=tuple(
            BridgingLink(link["anaphor"], link["antes"], link["subtype"]) for link in links
        ),
    )
    validate_document(doc)
    return doc


# ---------------------------------------------------------------------------
# bracket dialect


def _parse_suffixes(parts: list[str], line: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"malformed suffix {part!r}", line)
        key, value = part.split("=", 1)
        if key not in _SUFFIX_KEYS:
            raise ParseError(f"unknown suffix key {key!r}", line)
        if key in out:
            raise ParseError(f"duplicate suffix {key!r}", line)
        if not value:
            raise ParseError(f"empty value for suffix {key!r}", line)
        out[key] = value
    return out


def _parse_open_core(core: str, line: int) -> tuple[str, str, str, str]:
    fields = core.split("-")
    if len(fields) < 4 or not all(fields[:1] + fields[-2:]):
        raise ParseError(f"malformed mention item {core!r}", line)
    mention_id = fields[0]
    entity_type = "-".join(fields[1:-2])
    infstat, definiteness = fields[-2], fields[-1]
    if not entity_type:
        raise ParseError(f"empty entity type in {core!r}", line)
    if infstat not in INFSTAT_VALUES:
        raise ParseError(f"unknown information status {infstat!r}", line)
    if definiteness not in DEFINITENESS_VALUES:
        raise ParseError(f"unknown definiteness {definiteness!r}", line)
    return mention_id, entity_type, infstat, definiteness


class _BracketDocBuilder:
    def __init__(self) -> None:
        self.headers: dict[str, str] = {}
        self.tokens: list[Token] = []
        self.stack: list[dict] = []
        self.records: dict[str, dict] = {}  # mention id -> record, in opening order
        self.links: list[dict] = []

    @property
    def started(self) -> bool:
        return "doc_id" in self.headers or bool(self.tokens)

    def header(self, key: str, value: str, line: int) -> None:
        if self.tokens:
            raise ParseError("header after token lines", line)
        if key not in ("doc_id", "genre"):
            raise ParseError(f"unknown header {key!r}", line)
        if key in self.headers:
            raise ParseError(f"repeated header {key!r}", line)
        self.headers[key] = value

    def token_line(self, fields: list[str], line: int) -> None:
        if len(fields) != 8:
            raise ParseError(f"expected 8 tab-separated fields, got {len(fields)}", line)
        idx_s, form, lemma, xpos, number, deprel, head_s, annotation = fields
        # plain ASCII decimals only: `int` also takes signs, underscores,
        # surrounding whitespace and non-ASCII digits
        if not (idx_s.isascii() and idx_s.isdigit() and head_s.isascii() and head_s.isdigit()):
            raise ParseError(f"non-integer token index or head: {idx_s!r}/{head_s!r}", line)
        idx, head = int(idx_s), int(head_s)
        if idx != len(self.tokens) + 1:
            raise ParseError(f"token index {idx} breaks 1..N ordering", line)
        self.tokens.append(Token(idx, form, lemma, xpos, number, deprel, head))
        if annotation not in ("", _EMPTY_FIELD):
            for item in annotation.split(","):
                self._item(item, idx, line)

    def _item(self, item: str, tok_index: int, line: int) -> None:
        parts = item.split(";")
        core, suffix_parts = parts[0], parts[1:]
        if core.startswith("(") and core.endswith(")") and len(core) > 2:
            mention_id, etype, infstat, definite = _parse_open_core(core[1:-1], line)
            self._add_record(mention_id, etype, infstat, definite, ((tok_index, tok_index),), line)
            self._suffixes(mention_id, suffix_parts, line)
        elif core.startswith("("):
            if suffix_parts:
                raise ParseError("suffixes are only allowed on closing items", line)
            mention_id, etype, infstat, definite = _parse_open_core(core[1:], line)
            # record in opening order with the span still unknown, so mention
            # order is the order brackets open in the text
            rec = self._add_record(mention_id, etype, infstat, definite, None, line)
            rec["start"] = tok_index
            self.stack.append(rec)
        elif core.endswith(")") and len(core) > 1:
            mention_id = core[:-1]
            if not self.stack or self.stack[-1]["id"] != mention_id:
                opened = self.stack[-1]["id"] if self.stack else None
                raise ParseError(
                    f"closing {mention_id!r} does not match innermost open mention {opened!r}",
                    line,
                )
            rec = self.stack.pop()
            rec["spans"] = ((rec["start"], tok_index),)
            self._suffixes(mention_id, suffix_parts, line)
        else:
            raise ParseError(f"malformed annotation item {item!r}", line)

    def _add_record(self, mention_id, etype, infstat, definite, spans, line) -> dict:
        if mention_id in self.records:
            raise ParseError(f"duplicate mention id {mention_id!r}", line)
        rec = {"id": mention_id, "etype": etype, "infstat": infstat,
               "definite": definite, "spans": spans, "chain": None, "line": line}
        self.records[mention_id] = rec
        return rec

    def _suffixes(self, mention_id: str, suffix_parts: list[str], line: int) -> None:
        suffixes = _parse_suffixes(suffix_parts, line)
        rec = self.records[mention_id]
        if "Chain" in suffixes:
            rec["chain"] = suffixes["Chain"]
        if "Subtype" in suffixes and "Bridge" not in suffixes:
            raise ParseError("Subtype without a Bridge on the same item", line)
        if "Bridge" in suffixes:
            value = suffixes["Bridge"]
            if "<" not in value:
                raise ParseError(f"malformed bridge {value!r}, expected ANTE<ANA", line)
            ante, ana = value.split("<", 1)
            if ana != mention_id:
                raise ParseError(
                    f"bridge anaphor {ana!r} does not match closing mention {mention_id!r}", line
                )
            if "+" in ante or "," in ante:
                raise DialectViolationError(
                    f"line {line}: multiple antecedents {ante!r} are not representable "
                    "in the bracket dialect"
                )
            if not ante:
                raise ParseError("empty bridge antecedent", line)
            self.links.append(
                {"anaphor": ana, "antes": (ante,), "subtype": suffixes.get("Subtype"), "line": line}
            )

    def finish(self, seq: int, line: int) -> Document:
        if self.stack:
            rec = self.stack[-1]
            raise ParseError(f"mention {rec['id']!r} opened on line {rec['line']} never closes", line)
        for link in self.links:
            if link["antes"][0] not in self.records:
                raise ParseError(
                    f"bridge antecedent {link['antes'][0]!r} does not resolve to a mention",
                    link["line"],
                )
        return _assemble(
            self.headers.get("doc_id", f"doc_{seq}"),
            self.headers.get("genre", ""),
            "gum_like",
            tuple(self.tokens),
            list(self.records.values()),
            self.links,
        )


_HEADER_RE = re.compile(r"^#\s*(\w+)\s*=\s*(.*)$")


def parse_bracket(data: bytes | str) -> list[Document]:
    """Parse bracket-dialect text into documents (schema ``gum_like``)."""
    docs: list[Document] = []
    builder = _BracketDocBuilder()
    line_no = 0
    for line_no, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if builder.started:
                docs.append(builder.finish(len(docs) + 1, line_no))
                builder = _BracketDocBuilder()
            continue
        if line.startswith("#"):
            match = _HEADER_RE.match(line)
            if match is None:
                raise ParseError(f"malformed header {line!r}", line_no)
            builder.header(match.group(1), match.group(2).strip(), line_no)
            continue
        builder.token_line(line.split("\t"), line_no)
    if builder.started:
        docs.append(builder.finish(len(docs) + 1, line_no))
    return docs


def _bracket_label_ok(label: str, allow_hyphen: bool) -> bool:
    if not label:
        return False
    banned = _BRACKET_RESERVED if allow_hyphen else _BRACKET_RESERVED | {"-"}
    return not any(ch in banned for ch in label)


def _effective_type(mention: Mention) -> str:
    if mention.entity_type_unified != UNRESOLVED:
        return mention.entity_type_unified
    return mention.entity_type_original


def _check_bracket_representable(doc: Document) -> dict[str, BridgingLink]:
    # the header reader strips its values and a newline ends the header line
    for field, value in (("doc_id", doc.doc_id), ("genre", doc.genre)):
        if "\n" in value or value != value.strip():
            raise DialectViolationError(f"doc {doc.doc_id!r}: {field} {value!r} not representable")
    for m in doc.mentions:
        if m.discontinuous:
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: mention {m.id!r} is discontinuous; harmonize first"
            )
        if not _bracket_label_ok(m.id, allow_hyphen=False):
            raise DialectViolationError(f"doc {doc.doc_id!r}: mention id {m.id!r} uses reserved characters")
        if not _bracket_label_ok(_effective_type(m), allow_hyphen=True):
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: entity type {_effective_type(m)!r} uses reserved characters"
            )
        if m.chain_id is not None and not _bracket_label_ok(m.chain_id, allow_hyphen=True):
            raise DialectViolationError(f"doc {doc.doc_id!r}: chain id {m.chain_id!r} uses reserved characters")
    by_anaphor: dict[str, BridgingLink] = {}
    for link in doc.bridging:
        if link.split_antecedent:
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: link from {link.anaphor_id!r} has split antecedents; harmonize first"
            )
        if link.anaphor_id in by_anaphor:
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: multiple bridging links share anaphor {link.anaphor_id!r}"
            )
        if link.subtype is not None and not _bracket_label_ok(link.subtype, allow_hyphen=True):
            raise DialectViolationError(f"doc {doc.doc_id!r}: subtype {link.subtype!r} uses reserved characters")
        by_anaphor[link.anaphor_id] = link
    for field in ("form", "lemma", "xpos", "deprel", "number"):
        for t in doc.tokens:
            value = getattr(t, field)
            if "\t" in value or "\n" in value or not value:
                raise DialectViolationError(
                    f"doc {doc.doc_id!r}: token {t.index} {field} {value!r} not representable"
                )
    return by_anaphor


def emit_bracket(doc: Document) -> bytes:
    """Serialize one document to bracket-dialect bytes.

    Raises DialectViolationError for structure the dialect cannot carry
    (discontinuous mentions, split antecedents, crossing spans, reserved
    characters in labels). Entity types are written as the unified label
    when one has been resolved, otherwise as the original label.
    """
    validate_document(doc)
    link_by_anaphor = _check_bracket_representable(doc)

    opens: dict[int, list[Mention]] = {}
    singles: dict[int, list[Mention]] = {}
    for m in doc.mentions:
        start, end = m.spans[0]
        if start == end:
            singles.setdefault(start, []).append(m)
        else:
            opens.setdefault(start, []).append(m)
    for group in opens.values():
        group.sort(key=lambda m: (-m.spans[0][1], doc.mention_position[m.id]))

    def closing_suffixes(m: Mention) -> str:
        parts = []
        link = link_by_anaphor.get(m.id)
        if link is not None:
            parts.append(f"Bridge={link.antecedent_ids[0]}<{m.id}")
        if m.chain_id is not None:
            parts.append(f"Chain={m.chain_id}")
        if link is not None and link.subtype is not None:
            parts.append(f"Subtype={link.subtype}")
        return "".join(";" + p for p in parts)

    lines = [f"# doc_id = {doc.doc_id}"]
    if doc.genre:
        lines.append(f"# genre = {doc.genre}")
    stack: list[Mention] = []
    for tok in doc.tokens:
        items: list[str] = []
        for m in opens.get(tok.index, []):
            items.append(f"({m.id}-{_effective_type(m)}-{m.infstat}-{m.definiteness}")
            stack.append(m)
        for m in singles.get(tok.index, []):
            items.append(
                f"({m.id}-{_effective_type(m)}-{m.infstat}-{m.definiteness}){closing_suffixes(m)}"
            )
        while stack and stack[-1].spans[0][1] == tok.index:
            m = stack.pop()
            items.append(f"{m.id}){closing_suffixes(m)}")
        if any(m.spans[0][1] < tok.index for m in stack):
            bad = next(m for m in stack if m.spans[0][1] < tok.index)
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: mention {bad.id!r} crosses another mention's span"
            )
        annotation = ",".join(items) if items else _EMPTY_FIELD
        lines.append(
            f"{tok.index}\t{tok.form}\t{tok.lemma}\t{tok.xpos}\t{tok.number}\t"
            f"{tok.deprel}\t{tok.head}\t{annotation}"
        )
    lines.append("")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# standoff dialect


class _StandoffDocBuilder:
    def __init__(self, doc_id: str, genre: str, line: int) -> None:
        self.doc_id = doc_id
        self.genre = genre
        self.line = line
        self.tokens: list[Token] = []
        self.mentions: list[dict] = []
        self.links: list[dict] = []

    def finish(self) -> Document:
        n = len(self.tokens)
        seen: set[str] = set()
        for rec in self.mentions:
            if rec["id"] in seen:
                raise ParseError(f"duplicate mention id {rec['id']!r}", rec["line"])
            seen.add(rec["id"])
            for start, end in rec["spans"]:
                if not (1 <= start <= end <= n):
                    raise ParseError(
                        f"span {start}-{end} out of token range 1..{n}", rec["line"]
                    )
        return _assemble(
            self.doc_id, self.genre, "arrau_like", tuple(self.tokens), self.mentions, self.links
        )


def _split_payload(payload: str, arity: int, line: int) -> list[str]:
    fields = payload.split(" ")
    if len(fields) != arity or not all(fields):
        raise ParseError(f"expected {arity} space-separated fields, got {payload!r}", line)
    return fields


def _parse_spans(text: str, line: int) -> tuple[tuple[int, int], ...]:
    spans = []
    for chunk in text.split(","):
        m = _SPAN.fullmatch(chunk)
        if m is None:
            raise ParseError(f"malformed span {chunk!r}", line)
        start, end = int(m.group(1)), int(m.group(2))
        if start > end:
            raise ParseError(f"span {chunk} ends before it starts", line)
        spans.append((start, end))
    return tuple(spans)


def parse_standoff(data: bytes | str) -> list[Document]:
    """Parse standoff-dialect text into documents (schema ``arrau_like``)."""
    docs: list[Document] = []
    builder: _StandoffDocBuilder | None = None
    for line_no, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(f"missing record tag separator in {line!r}", line_no)
        tag, payload = line.split("\t", 1)
        if tag == "DOC":
            if builder is not None:
                docs.append(builder.finish())
            fields = payload.split(" ")
            if not fields[0]:
                raise ParseError("DOC record without a document id", line_no)
            if len(fields) > 2:
                raise ParseError(f"expected at most 2 space-separated fields, got {payload!r}", line_no)
            genre = fields[1] if len(fields) > 1 and fields[1] != _EMPTY_FIELD else ""
            builder = _StandoffDocBuilder(fields[0], genre, line_no)
            continue
        if builder is None:
            raise ParseError(f"{tag} record before any DOC record", line_no)
        if tag == "TOK":
            f = _split_payload(payload, 7, line_no)
            idx_s, head_s = f[0], f[6]
            if not (idx_s.isascii() and idx_s.isdigit() and head_s.isascii() and head_s.isdigit()):
                raise ParseError(f"non-integer token index or head in {payload!r}", line_no)
            idx, head = int(idx_s), int(head_s)
            if idx != len(builder.tokens) + 1:
                raise ParseError(f"token index {idx} breaks 1..N ordering", line_no)
            builder.tokens.append(Token(idx, f[1], f[2], f[3], f[4], f[5], head))
        elif tag == "MEN":
            f = _split_payload(payload, 4, line_no)
            builder.mentions.append(
                {
                    "id": f[0],
                    "spans": _parse_spans(f[1], line_no),
                    "etype": f[2],
                    "infstat": "none",
                    "definite": "none",
                    "chain": None if f[3] == _EMPTY_FIELD else f[3],
                    "line": line_no,
                }
            )
        elif tag == "BRG":
            f = _split_payload(payload, 3, line_no)
            antes = tuple(a for a in f[1].split("+") if a)
            if not antes:
                raise ParseError(f"empty antecedent list in {payload!r}", line_no)
            builder.links.append(
                {
                    "anaphor": f[0],
                    "antes": antes,
                    "subtype": None if f[2] == _EMPTY_FIELD else f[2],
                    "line": line_no,
                }
            )
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)
    if builder is not None:
        docs.append(builder.finish())
    return docs


# ---------------------------------------------------------------------------
# canonical JSONL


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{path}: {message}")


# Layout of each record class, read from its dataclass fields: all keys, the
# required keys (every field but those defaulting to None), and each scalar
# field with the check its annotation implies (annotations are strings, as
# they are postponed). Container fields are checked by the caller.
_SCALAR_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "expected an integer"),
    "str": (lambda v: isinstance(v, str), "expected a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "expected a string"),
}
_LAYOUTS = {
    cls: (
        frozenset(f.name for f in fields(cls)),
        frozenset(f.name for f in fields(cls) if f.default is not None),
        tuple((f.name, *_SCALAR_CHECKS[f.type]) for f in fields(cls) if f.type in _SCALAR_CHECKS),
    )
    for cls in (Document, Token, Mention, BridgingLink)
}


def _scalar_fields(obj, cls: type, path: str) -> dict:
    """Check `obj` against the layout of `cls`; return its scalar fields."""
    _expect(isinstance(obj, dict), path, "expected an object")
    known, required, scalars = _LAYOUTS[cls]
    keys = obj.keys()
    _expect(required <= keys, path, f"missing keys {sorted(required - keys)}")
    extra = keys - known
    _expect(not extra, path, f"unexpected keys {sorted(extra)}")
    values = {}
    for name, check, message in scalars:
        value = values[name] = obj.get(name)
        _expect(check(value), f"{path}.{name}", message)
    return values


def document_from_dict(obj: dict, path: str = "doc") -> Document:
    values = _scalar_fields(obj, Document, path)
    for key in ("tokens", "mentions", "bridging"):
        _expect(isinstance(obj[key], list), f"{path}.{key}", "expected a list")

    tokens = tuple(
        Token(**_scalar_fields(tok, Token, f"{path}.tokens[{i}]"))
        for i, tok in enumerate(obj["tokens"])
    )

    mentions = []
    for i, men in enumerate(obj["mentions"]):
        mpath = f"{path}.mentions[{i}]"
        scalars = _scalar_fields(men, Mention, mpath)
        _expect(isinstance(men["spans"], list) and men["spans"], f"{mpath}.spans", "expected a non-empty list")
        spans = []
        for j, span in enumerate(men["spans"]):
            _expect(
                isinstance(span, list) and len(span) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in span),
                f"{mpath}.spans[{j}]",
                "expected a [start, end] integer pair",
            )
            spans.append((span[0], span[1]))
        mentions.append(Mention(spans=tuple(spans), **scalars))

    bridging = []
    for i, link in enumerate(obj["bridging"]):
        lpath = f"{path}.bridging[{i}]"
        scalars = _scalar_fields(link, BridgingLink, lpath)
        antes = link["antecedent_ids"]
        _expect(
            isinstance(antes, list) and antes and all(isinstance(a, str) for a in antes),
            f"{lpath}.antecedent_ids",
            "expected a non-empty list of strings",
        )
        bridging.append(BridgingLink(antecedent_ids=tuple(antes), **scalars))

    doc = Document(tokens=tokens, mentions=tuple(mentions), bridging=tuple(bridging), **values)
    validate_document(doc)
    return doc


# The canonical writer is generated from the same dataclass fields, so each
# layout is still declared once. Each class gets one f-string function that
# writes its fields in sorted key order: the bytes `json.dumps(sort_keys=True,
# ensure_ascii=False, separators=(",", ":"))` gives for the dict of the
# fields, without building that dict. Each entry renders a value `%s` of one
# annotation; strings go through `encode_basestring`, the escaper `json.dumps`
# itself uses without `ensure_ascii`. A `str | None` field is left out when it
# is None. An annotation missing here raises at import, so a new field cannot
# be dropped or mis-written unnoticed.
_JSON_VALUES = {
    "int": "{%s}",
    "str": "{_s(%s)}",
    "tuple[str, ...]": '[{",".join(map(_s, %s))}]',
    "tuple[tuple[int, int], ...]": '[{",".join([f"[{a},{b}]" for a, b in %s])}]',
}
_OPTIONAL = "str | None"


def _writer_source(cls: type, values: dict[str, str]) -> str:
    """Source of `_write_<cls>`, which writes one `cls` as a JSON object."""
    layout = sorted(fields(cls), key=lambda f: f.name)
    unknown = [f"{f.name}: {f.type}" for f in layout
               if f.type not in values and f.type != _OPTIONAL]
    required = [i for i, f in enumerate(layout) if f.type != _OPTIONAL]
    if unknown or not required:
        raise TypeError(f"no canonical layout for {cls.__name__}: {unknown or 'no required field'}")
    # commas go between present fields: an optional field before the first
    # required one carries a trailing comma, every later field a leading one
    first = required[0]
    pieces = []
    for i, f in enumerate(layout):
        value = f"r.{f.name}"
        if f.type == _OPTIONAL:
            key = repr(f'"{f.name}":' if i < first else f',"{f.name}":')
            tail = " + ','" if i < first else ""
            pieces.append(f'{{"" if {value} is None else {key} + _s({value}){tail}}}')
        else:
            pieces.append(("," if i > first else "") + f'"{f.name}":' + values[f.type] % value)
    return f"def _write_{cls.__name__}(r):\n    return f'''{{{{{''.join(pieces)}}}}}'''\n"


def _document_writer():
    """The writer of a Document, which calls those of its records."""
    namespace = {"_s": encode_basestring}
    values = dict(_JSON_VALUES)
    for cls in (Token, Mention, BridgingLink, Document):
        exec(_writer_source(cls, values), namespace)
        values[f"tuple[{cls.__name__}, ...]"] = '[{",".join(map(_write_%s, %%s))}]' % cls.__name__
    return namespace["_write_Document"]


_write_document = _document_writer()


def emit_canonical(docs: list[Document]) -> bytes:
    """Serialize documents to canonical JSONL, one per line, sorted keys.
    Each document was checked when it was built and is not checked again."""
    return "".join([f"{_write_document(doc)}\n" for doc in docs]).encode("utf-8")


def parse_canonical(data: bytes | str) -> list[Document]:
    """Parse canonical JSONL; input order is preserved."""
    docs = []
    for line_no, line in enumerate(_decode(data).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no)
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply", line_no)
        docs.append(document_from_dict(obj, path=f"doc[{len(docs)}]"))
    return docs


# ---------------------------------------------------------------------------
# file helpers

DIALECT_PARSERS = {
    "bracket": parse_bracket,
    "standoff": parse_standoff,
    "canonical": parse_canonical,
}

SUFFIX_DIALECTS = {".brk": "bracket", ".sff": "standoff", ".jsonl": "canonical"}


def guess_dialect(path: str | Path) -> str:
    suffix = Path(path).suffix
    if suffix not in SUFFIX_DIALECTS:
        raise ValidationError(f"cannot infer dialect from suffix {suffix!r} of {path}")
    return SUFFIX_DIALECTS[suffix]


def read_documents(path: str | Path, dialect: str | None = None) -> list[Document]:
    """Parse one corpus file. Any malformed content, including bytes that
    are not UTF-8 and documents that break a model invariant, raises
    ParseError or DialectViolationError."""
    dialect = dialect or guess_dialect(path)
    if dialect not in DIALECT_PARSERS:
        raise ValidationError(f"unknown dialect {dialect!r}")
    data = Path(path).read_bytes()
    try:
        return DIALECT_PARSERS[dialect](data)
    except (ValidationError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
