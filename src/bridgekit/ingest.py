"""Parsers and serializers for the three on-disk formats.

Bracket dialect (``.brk``)
    One token per line, tab-separated:
    ``index form lemma xpos number deprel head annotation``. A blank line
    ends a document. Two optional comment headers, ``# doc_id = X`` and
    ``# genre = Y``, precede the token lines; each appears at most once,
    and its value is read stripped of surrounding whitespace. A header or
    a token line starts a document, so a block of headers alone is an
    empty document. The annotation field is ``_`` when empty, otherwise
    comma-separated items: ``(ID-TYPE-INFSTAT-DEF`` opens a mention,
    ``ID)`` closes it, ``(ID-TYPE-INFSTAT-DEF)`` is a single-token
    mention. Closing items
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
    are permitted. A link naming no mention of its document is a parse
    error on its ``BRG`` line.

Canonical file (``.jsonl``)
    One JSON document per line mirroring the in-memory model field for
    field, with sorted keys and compact separators so emission is
    deterministic. ``chain_id`` and ``subtype`` are omitted when absent.
    The writer is generated from the dataclass fields and writes the bytes
    ``json.dumps(sort_keys=True, ensure_ascii=False, separators=(",", ":"))``
    gives for each record's field dict. The reader is generated from the
    same fields: it checks every record's keys and value types, naming the
    field path of the first fault.

Every reader here builds its records with makers generated from the same
fields (`record_maker`), which store the fields without the frozen
dataclass `__init__`.

All parsers are pure functions over the input bytes and never silently drop
annotations: every annotation item either lands in the output document or
raises.

The bracket and standoff readers collect a document's records in one
shared builder, which names the input line of a duplicate mention id, a
span out of range or a link to no mention. A document is checked against
the model invariants (`validate_document`) once, where it is built: by a
reader here or by `synth`. `emit_canonical` does not check again; its
output is a lossless dump that the canonical reader checks on the way back
in. `emit_bracket` does, because its dialect is lossy: it writes a link on
its anaphor's closing bracket, so a link whose anaphor is no mention would
vanish silently.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator, NoReturn

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
    """The text of `data`; bytes that are not UTF-8 raise ParseError naming
    the line of the first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ParseError(f"not valid utf-8: {exc.reason}", line) from None


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, with "\\r\\n" and "\\r" read as "\\n", as a
    file opened in text mode reads them; bytes that are not UTF-8 raise
    ParseError naming their line. No byte of a multi-byte UTF-8 character
    is a line end, so the line ends are replaced before decoding."""
    return _decode(Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n"))


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


class _DocBuilder:
    """One document as a reader meets it: its tokens, mention records and
    link records. Each record keeps the line it came from, and every check
    here names that line. `finish` assembles the `Document` and checks it
    once against the model invariants."""

    def __init__(self, schema: str, doc_id: str = "", genre: str = "") -> None:
        self.schema = schema
        self.doc_id = doc_id
        self.genre = genre
        self.tokens: list[Token] = []
        self.mentions: dict[str, dict] = {}  # mention id -> record, in order of appearance
        self.links: list[tuple[str, tuple[str, ...], str | None, int]] = []

    def mention(self, mention_id: str, spans: tuple[tuple[int, int], ...] | None, etype: str,
                infstat: str, definite: str, chain: str | None, line: int) -> dict:
        """Add a mention record and return it. A bracket mention is recorded
        when it opens, so its record gets its spans and chain when it closes."""
        if mention_id in self.mentions:
            raise ParseError(f"duplicate mention id {mention_id!r}", line)
        rec = self.mentions[mention_id] = {
            "spans": spans, "etype": etype, "infstat": infstat, "definite": definite,
            "chain": chain, "line": line,
        }
        return rec

    def finish(self) -> Document:
        n = len(self.tokens)
        for rec in self.mentions.values():
            for start, end in rec["spans"]:
                if not 1 <= start <= end <= n:
                    raise ParseError(f"span {start}-{end} out of token range 1..{n}", rec["line"])
        for anaphor, antes, _, line in self.links:
            for role, ids in (("anaphor", (anaphor,)), ("antecedent", antes)):
                for mention_id in ids:
                    if mention_id not in self.mentions:
                        raise ParseError(
                            f"bridge {role} {mention_id!r} does not resolve to a mention", line
                        )
        tokens = tuple(self.tokens)
        doc = _make_document(
            self.doc_id,
            self.genre,
            self.schema,
            tokens,
            tuple([
                _make_mention(mention_id, rec["spans"], find_head(tokens, rec["spans"]),
                              rec["etype"], UNRESOLVED, rec["infstat"], rec["definite"],
                              rec["chain"])
                for mention_id, rec in self.mentions.items()
            ]),
            tuple([_make_link(anaphor, antes, subtype) for anaphor, antes, subtype, _ in self.links]),
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


class _BracketDocBuilder(_DocBuilder):
    """The shared records plus what only the bracket dialect has: the header
    values and the mentions still open."""

    def __init__(self) -> None:
        super().__init__("gum_like")
        self.headers: dict[str, str] = {}
        self.stack: list[tuple[str, int, dict]] = []  # (id, start, record), innermost last

    @property
    def started(self) -> bool:
        return bool(self.headers or self.tokens)

    def header(self, key: str, value: str, line: int) -> None:
        if self.tokens:
            raise ParseError("header after token lines", line)
        if key not in ("doc_id", "genre"):
            raise ParseError(f"unknown header {key!r}", line)
        if key in self.headers:
            raise ParseError(f"repeated header {key!r}", line)
        self.headers[key] = value

    def item(self, item: str, tok_index: int, line: int) -> None:
        parts = item.split(";")
        core, suffix_parts = parts[0], parts[1:]
        if core.startswith("(") and core.endswith(")") and len(core) > 2:
            mention_id, etype, infstat, definite = _parse_open_core(core[1:-1], line)
            rec = self.mention(mention_id, ((tok_index, tok_index),), etype, infstat, definite,
                               None, line)
            self._suffixes(mention_id, rec, suffix_parts, line)
        elif core.startswith("("):
            if suffix_parts:
                raise ParseError("suffixes are only allowed on closing items", line)
            mention_id, etype, infstat, definite = _parse_open_core(core[1:], line)
            # record in opening order with the span still unknown, so mention
            # order is the order brackets open in the text
            rec = self.mention(mention_id, None, etype, infstat, definite, None, line)
            self.stack.append((mention_id, tok_index, rec))
        elif core.endswith(")") and len(core) > 1:
            mention_id = core[:-1]
            if not self.stack or self.stack[-1][0] != mention_id:
                opened = self.stack[-1][0] if self.stack else None
                raise ParseError(
                    f"closing {mention_id!r} does not match innermost open mention {opened!r}",
                    line,
                )
            _, start, rec = self.stack.pop()
            rec["spans"] = ((start, tok_index),)
            self._suffixes(mention_id, rec, suffix_parts, line)
        else:
            raise ParseError(f"malformed annotation item {item!r}", line)

    def _suffixes(self, mention_id: str, rec: dict, suffix_parts: list[str], line: int) -> None:
        suffixes = _parse_suffixes(suffix_parts, line)
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
            self.links.append((ana, (ante,), suffixes.get("Subtype"), line))

    def close(self, seq: int, line: int) -> Document:
        if self.stack:
            mention_id, _, rec = self.stack[-1]
            raise ParseError(f"mention {mention_id!r} opened on line {rec['line']} never closes", line)
        self.doc_id = self.headers.get("doc_id", f"doc_{seq}")
        self.genre = self.headers.get("genre", "")
        return self.finish()


_HEADER_RE = re.compile(r"^#\s*(\w+)\s*=\s*(.*)$")


def parse_bracket(data: bytes | str) -> list[Document]:
    """Parse bracket-dialect text into documents (schema ``gum_like``).
    A header or a token line starts a document and a blank line ends it."""
    docs: list[Document] = []
    builder = _BracketDocBuilder()
    line_no = 0
    for line_no, raw in enumerate(_decode(data).split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if builder.started:
                docs.append(builder.close(len(docs) + 1, line_no))
                builder = _BracketDocBuilder()
            continue
        if line.startswith("#"):
            match = _HEADER_RE.match(line)
            if match is None:
                raise ParseError(f"malformed header {line!r}", line_no)
            builder.header(match.group(1), match.group(2).strip(), line_no)
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            raise ParseError(f"expected 8 tab-separated fields, got {len(fields)}", line_no)
        idx_s, form, lemma, xpos, number, deprel, head_s, annotation = fields
        # plain ASCII decimals only: `int` also takes signs, underscores,
        # surrounding whitespace and non-ASCII digits
        if not (idx_s.isascii() and idx_s.isdigit() and head_s.isascii() and head_s.isdigit()):
            raise ParseError(f"non-integer token index or head: {idx_s!r}/{head_s!r}", line_no)
        idx, head = int(idx_s), int(head_s)
        if idx != len(builder.tokens) + 1:
            raise ParseError(f"token index {idx} breaks 1..N ordering", line_no)
        builder.tokens.append(_make_token(idx, form, lemma, xpos, number, deprel, head))
        if annotation not in ("", _EMPTY_FIELD):
            for item in annotation.split(","):
                builder.item(item, idx, line_no)
    if builder.started:
        docs.append(builder.close(len(docs) + 1, line_no))
    return docs


def _bracket_label_ok(label: str, allow_hyphen: bool) -> bool:
    if not label:
        return False
    banned = _BRACKET_RESERVED if allow_hyphen else _BRACKET_RESERVED | {"-"}
    return not any(ch in banned for ch in label)


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
        if not _bracket_label_ok(m.entity_type, allow_hyphen=True):
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: entity type {m.entity_type!r} uses reserved characters"
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
            items.append(f"({m.id}-{m.entity_type}-{m.infstat}-{m.definiteness}")
            stack.append(m)
        for m in singles.get(tok.index, []):
            items.append(
                f"({m.id}-{m.entity_type}-{m.infstat}-{m.definiteness}){closing_suffixes(m)}"
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
    builder: _DocBuilder | None = None
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
            builder = _DocBuilder("arrau_like", fields[0], genre)
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
            builder.tokens.append(_make_token(idx, f[1], f[2], f[3], f[4], f[5], head))
        elif tag == "MEN":
            f = _split_payload(payload, 4, line_no)
            builder.mention(f[0], _parse_spans(f[1], line_no), f[2], "none", "none",
                            None if f[3] == _EMPTY_FIELD else f[3], line_no)
        elif tag == "BRG":
            f = _split_payload(payload, 3, line_no)
            antes = tuple(a for a in f[1].split("+") if a)
            if not antes:
                raise ParseError(f"empty antecedent list in {payload!r}", line_no)
            builder.links.append((f[0], antes, None if f[2] == _EMPTY_FIELD else f[2], line_no))
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)
    if builder is not None:
        docs.append(builder.finish())
    return docs


# ---------------------------------------------------------------------------
# canonical JSONL


# Both directions are generated from the record layouts, the dataclass
# fields, so each layout is declared once. Per annotation, `_JSON_VALUES`
# says how to write a value and `_JSON_READS` how to read one back; each
# class adds entries to both as it is generated, for one nested record and a
# tuple of them (and to the reader's, for a record or null). `pairgen` reads
# and writes its pair datasets, and `gbdt.boosting` reads its model files,
# with the same generators. An annotation missing from either table raises
# at import, so a new field cannot be dropped, mis-written or read unchecked
# unnoticed.
#
# The writer gives each class one f-string function that writes its fields in
# sorted key order: the bytes `json.dumps(sort_keys=True, ensure_ascii=False,
# separators=(",", ":"))` gives for the dict of the fields, without building
# that dict. Each entry renders a value `%s`; strings go through
# `encode_basestring`, the escaper `json.dumps` itself uses without
# `ensure_ascii`. A `str | None` field is left out when it is None.
#
# The reader gives each class one function that checks an object's key set
# and reads its fields in layout order, then builds the record with the
# class's maker (`record_maker`); a key annotated `... | None` may be
# absent. Each entry takes a JSON value, the record's path and the field
# name, and returns the field value or raises naming `path.name`. A list
# entry also takes a tuple, as `dataclasses.asdict` gives one.
_OPTIONAL = "str | None"
_JSON_VALUES = {
    "int": "{%s}",
    "str": "{_s(%s)}",
    "tuple[str, ...]": '[{",".join(map(_s, %s))}]',
    "tuple[tuple[int, int], ...]": '[{",".join([f"[{a},{b}]" for a, b in %s])}]',
}


def _fail(path: str, name: str, message: str) -> NoReturn:
    raise ValidationError(f"{path}.{name}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_spans(value, path: str, name: str) -> tuple[tuple[int, int], ...]:
    if not (isinstance(value, list) and value):
        _fail(path, name, "expected a non-empty list")
    for j, span in enumerate(value):
        if not (isinstance(span, list) and len(span) == 2 and _is_int(span[0]) and _is_int(span[1])):
            _fail(path, f"{name}[{j}]", "expected a [start, end] integer pair")
    return tuple([(start, end) for start, end in value])


_JSON_READS = {
    "int": lambda v, path, name: v if _is_int(v) else _fail(path, name, "expected an integer"),
    "float": lambda v, path, name: v if _is_number(v) else _fail(path, name, "expected a number"),
    "str": lambda v, path, name: v if isinstance(v, str) else _fail(path, name, "expected a string"),
    _OPTIONAL: lambda v, path, name: (
        v if v is None or isinstance(v, str) else _fail(path, name, "expected a string")
    ),
    "tuple[str, ...]": lambda v, path, name: (
        tuple(v) if isinstance(v, (list, tuple)) and all(isinstance(a, str) for a in v)
        else _fail(path, name, "expected a list of strings")
    ),
    "tuple[float, ...]": lambda v, path, name: (
        tuple(v) if isinstance(v, (list, tuple)) and all(map(_is_number, v))
        else _fail(path, name, "expected a list of numbers")
    ),
    "tuple[tuple[int, int], ...]": _read_spans,
}


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


def record_writer(*classes: type):
    """The writer of the last of `classes`, which calls those of the others:
    a field may hold one record of an earlier class, or a tuple of them."""
    namespace = {"_s": encode_basestring}
    values = dict(_JSON_VALUES)
    for cls in classes:
        name = cls.__name__
        exec(_writer_source(cls, values), namespace)
        values[name] = "{_write_%s(%%s)}" % name
        values[f"tuple[{name}, ...]"] = '[{",".join(map(_write_%s, %%s))}]' % name
    return namespace[f"_write_{classes[-1].__name__}"]


def record_maker(cls: type):
    """`make(f1, ..., fn)`, which builds one `cls` from all its fields,
    positional in layout order, at the cost of storing them: the dataclass
    `__init__` of a frozen class sets each field through
    `object.__setattr__`. A slotted class's fields are set through their
    slot descriptors, and any other class's are written into the fresh
    instance dict, which holds nothing else yet. A class that checks its
    fields in `__post_init__` raises TypeError; build it with its
    constructor."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has __post_init__; call its constructor")
    names = [f.name for f in fields(cls)]
    # the maker's own names are dunders, so no field name shadows them
    namespace = {"__new__": object.__new__, "__cls__": cls}
    lines = ["__record__ = __new__(__cls__)"]
    if "__slots__" in cls.__dict__:
        for i, name in enumerate(names):
            namespace[f"__set{i}__"] = getattr(cls, name).__set__
            lines.append(f"__set{i}__(__record__, {name})")
    else:
        lines.append("__fields__ = __record__.__dict__")
        lines.extend(f"__fields__[{name!r}] = {name}" for name in names)
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def make({', '.join(names)}):\n{body}    return __record__\n", namespace)
    return namespace["make"]


def _class_reader(cls: type, reads: dict):
    """`read(obj, path)`, which reads one `cls` from a JSON object."""
    layout = fields(cls)
    unknown = [f"{f.name}: {f.type}" for f in layout if f.type not in reads]
    if unknown:
        raise TypeError(f"no canonical layout for {cls.__name__}: {unknown}")
    known = frozenset(f.name for f in layout)
    required = frozenset(f.name for f in layout if not f.type.endswith(" | None"))
    steps = [(f.name, reads[f.type]) for f in layout]
    # a class that checks its fields in `__post_init__` is built by its constructor
    make = cls if hasattr(cls, "__post_init__") else record_maker(cls)

    def read(obj, path: str):
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        keys = obj.keys()
        if not required <= keys:
            raise ValidationError(f"{path}: missing keys {sorted(required - keys)}")
        if not keys <= known:
            raise ValidationError(f"{path}: unexpected keys {sorted(keys - known)}")
        return make(*[read_value(obj.get(name), path, name) for name, read_value in steps])

    return read


def record_entries(name: str, read) -> dict:
    """The reader entries of a record type `name` that `read(obj, path)`
    reads: one nested record, one or null, and a tuple of them."""
    def read_tuple(value, path: str, field: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            _fail(path, field, "expected a list")
        return tuple([read(obj, f"{path}.{field}[{i}]") for i, obj in enumerate(value)])

    return {
        name: lambda value, path, field: read(value, f"{path}.{field}"),
        f"{name} | None": lambda value, path, field: (
            None if value is None else read(value, f"{path}.{field}")
        ),
        f"tuple[{name}, ...]": read_tuple,
    }


def record_reader(*classes: type, reads: dict | None = None):
    """The reader `read(obj, path)` of the last of `classes`, which calls
    those of the others: a field may hold one record of an earlier class, one
    or null, or a tuple of them. `reads` adds entries to the base table or
    replaces some of them."""
    table = {**_JSON_READS, **(reads or {})}
    for cls in classes:
        read = _class_reader(cls, table)
        table.update(record_entries(cls.__name__, read))
    return read


def json_value(text: str, first_line: int = 1):
    """The JSON value of `text`, whose first line is line `first_line` of
    its input. Text that is not JSON raises ParseError naming its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", first_line + exc.lineno - 1)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", first_line)


def json_lines(data: bytes | str) -> Iterator:
    """The JSON value of each non-blank line, in order. A line that is not
    JSON raises ParseError naming its line."""
    for line_no, line in enumerate(_decode(data).split("\n"), start=1):
        if line.strip():
            yield json_value(line, line_no)


_make_token = record_maker(Token)
_make_mention = record_maker(Mention)
_make_link = record_maker(BridgingLink)
_make_document = record_maker(Document)
_write_document = record_writer(Token, Mention, BridgingLink, Document)
# the antecedents of a bridging link are never empty
_read_document = record_reader(Token, Mention, BridgingLink, Document, reads={
    "tuple[str, ...]": lambda v, path, name: (
        tuple(v) if isinstance(v, list) and v and all(isinstance(a, str) for a in v)
        else _fail(path, name, "expected a non-empty list of strings")
    ),
})


def emit_canonical(docs: list[Document]) -> bytes:
    """Serialize documents to canonical JSONL, one per line, sorted keys.
    Each document was checked when it was built and is not checked again."""
    return "".join([f"{_write_document(doc)}\n" for doc in docs]).encode("utf-8")


def document_from_dict(obj: dict, path: str = "doc") -> Document:
    """The document one canonical line holds, checked once."""
    doc = _read_document(obj, path)
    validate_document(doc)
    return doc


def parse_canonical(data: bytes | str) -> list[Document]:
    """Parse canonical JSONL; input order is preserved."""
    return [document_from_dict(obj, path=f"doc[{i}]") for i, obj in enumerate(json_lines(data))]


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
    ParseError or DialectViolationError. A ParseError names the file
    first, then the line when it is known, which it keeps as `.line`."""
    dialect = dialect or guess_dialect(path)
    if dialect not in DIALECT_PARSERS:
        raise ValidationError(f"unknown dialect {dialect!r}")
    data = Path(path).read_bytes()
    try:
        return DIALECT_PARSERS[dialect](data)
    except (ParseError, ValidationError) as exc:
        located = ParseError(f"{path}: {exc}")
        located.line = getattr(exc, "line", None)
        raise located from exc
