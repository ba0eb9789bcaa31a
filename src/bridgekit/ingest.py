"""Readers and writers of the three corpus dialects, and `DIALECTS`, the one
table of each dialect's suffix, reader and per-document writer.

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
    Its writer and reader are generated by the record codec, `records`,
    which also builds every record the readers here make.

All parsers are pure functions over the input bytes and never silently drop
annotations: every annotation item either lands in the output document or
raises.

The bracket and standoff readers collect a document's records in one
shared builder, which names the input line of a duplicate mention id, a
span out of range or a link to no mention. A document is checked against
the model invariants (`validate_document`) once, where it is built: by a
reader here or by `synth`. `emit_canonical` does not check again; its
output is a lossless dump that the canonical reader checks on the way back
in, and nor does `emit_standoff`, whose reader refuses a link to no
mention. `emit_bracket` does, because its dialect is lossy: it writes a link
on its anaphor's closing bracket, so a link whose anaphor is no mention
would vanish silently.

The bracket and standoff readers pass every label string of the records they
make (token form, lemma, xpos, number and deprel, mention ids, entity types,
chain ids, link subtypes) through `sys.intern`, so equal labels are one
object in the process and a parsed corpus costs its records plus its
vocabulary. On 3,000 short standoff documents (53,631 tokens), tracemalloc
under CPython 3.11 puts the parsed corpus at 9.2 MiB, against 24.9 MiB with
a copy of each label per record.
"""
from __future__ import annotations

import re
from operator import attrgetter
from pathlib import Path
from sys import intern
from typing import Callable, NamedTuple, NoReturn

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
from .records import _decode, json_lines, record_maker, record_reader, record_writer

_EMPTY_FIELD = "_"
_SUFFIX_KEYS = ("Bridge", "Chain", "Subtype")
_TOKEN_LABELS = ("form", "lemma", "xpos", "deprel", "number")
_token_labels = attrgetter(*_TOKEN_LABELS)
# A label with no character that has structural meaning somewhere in the
# bracket dialect, and a mention id, which has no "-" either.
_bracket_label_ok = re.compile(r"[^();,<=\t\n ]+").fullmatch
_bracket_id_ok = re.compile(r"[^();,<=\t\n -]+").fullmatch
_bracket_token_label_ok = re.compile(r"[^\t\n]+").fullmatch
# A standoff span; `[0-9]`, as `\d` also matches non-ASCII digits.
_SPAN = re.compile(r"([0-9]+)-([0-9]+)")

_make_token = record_maker(Token)
_make_mention = record_maker(Mention)
_make_link = record_maker(BridgingLink)
_make_document = record_maker(Document)


def find_head(tokens: tuple[Token, ...], spans: tuple[tuple[int, int], ...]) -> int:
    """Token inside the spans whose dependency head lies outside them.

    ``tokens`` is in index order, ``tokens[k].index == k + 1``, as the
    bracket and standoff parsers enforce. Leftmost such token wins; if every
    head stays inside, fall back to the last token of the last span.
    """
    if len(spans) == 1:
        start, end = spans[0]
        for i in range(start, end + 1):
            if not start <= tokens[i - 1].head <= end:
                return i
        return end
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
        rec = self.mentions[intern(mention_id)] = {
            "spans": spans, "etype": intern(etype), "infstat": intern(infstat),
            "definite": intern(definite), "chain": None if chain is None else intern(chain),
            "line": line,
        }
        return rec

    def link(self, anaphor: str, antes: tuple[str, ...], subtype: str | None, line: int) -> None:
        self.links.append((intern(anaphor), tuple([intern(a) for a in antes]),
                           None if subtype is None else intern(subtype), line))

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
            # a link record is (anaphor, antecedents, subtype, line)
            tuple([_make_link(*link[:3]) for link in self.links]),
        )
        validate_document(doc)
        return doc


def _refuse(doc: Document, what: str, label: str, reason: str = "not representable") -> NoReturn:
    """Refuse `label`, the `what` of `doc`, for a writer that cannot carry it."""
    raise DialectViolationError(f"doc {doc.doc_id!r}: {what} {label!r} {reason}")


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
            rec["chain"] = intern(suffixes["Chain"])
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
            self.link(ana, (ante,), suffixes.get("Subtype"), line)

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
        builder.tokens.append(_make_token(idx, intern(form), intern(lemma), intern(xpos),
                                          intern(number), intern(deprel), head))
        if annotation not in ("", _EMPTY_FIELD):
            for item in annotation.split(","):
                builder.item(item, idx, line_no)
    if builder.started:
        docs.append(builder.close(len(docs) + 1, line_no))
    return docs


def _check_bracket_representable(doc: Document) -> dict[str, BridgingLink]:
    # the header reader strips its values and a newline ends the header line
    for field, value in (("doc_id", doc.doc_id), ("genre", doc.genre)):
        if "\n" in value or value != value.strip():
            _refuse(doc, field, value)
    for m in doc.mentions:
        if m.discontinuous:
            _refuse(doc, "mention", m.id, "is discontinuous; harmonize first")
        if not _bracket_id_ok(m.id):
            _refuse(doc, "mention id", m.id, "uses reserved characters")
        if not _bracket_label_ok(m.entity_type):
            _refuse(doc, "entity type", m.entity_type, "uses reserved characters")
        if m.chain_id is not None and not _bracket_label_ok(m.chain_id):
            _refuse(doc, "chain id", m.chain_id, "uses reserved characters")
    by_anaphor: dict[str, BridgingLink] = {}
    for link in doc.bridging:
        if link.split_antecedent:
            _refuse(doc, "link from", link.anaphor_id, "has split antecedents; harmonize first")
        if link.anaphor_id in by_anaphor:
            raise DialectViolationError(
                f"doc {doc.doc_id!r}: multiple bridging links share anaphor {link.anaphor_id!r}"
            )
        if "+" in link.antecedent_ids[0]:  # the reader reads a list of several
            _refuse(doc, "antecedent", link.antecedent_ids[0], "uses reserved characters")
        if link.subtype is not None and not _bracket_label_ok(link.subtype):
            _refuse(doc, "subtype", link.subtype, "uses reserved characters")
        by_anaphor[link.anaphor_id] = link
    # each distinct label is checked once, and only a failure looks for its token
    if not all(map(_bracket_token_label_ok, set().union(*map(_token_labels, doc.tokens)))):
        for field in _TOKEN_LABELS:
            for t in doc.tokens:
                if not _bracket_token_label_ok(getattr(t, field)):
                    _refuse(doc, f"token {t.index} {field}", getattr(t, field))
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
            _refuse(doc, "mention", bad.id, "crosses another mention's span")
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
        tag, sep, payload = line.partition("\t")
        # token records are most of a corpus, so they take the shortest path
        if tag == "TOK" and sep and builder is not None:
            f = payload.split(" ")
            if len(f) != 7 or not all(f):
                raise ParseError(f"expected 7 space-separated fields, got {payload!r}", line_no)
            idx_s, form, lemma, xpos, number, deprel, head_s = f
            if not (idx_s.isascii() and idx_s.isdigit() and head_s.isascii() and head_s.isdigit()):
                raise ParseError(f"non-integer token index or head in {payload!r}", line_no)
            idx = int(idx_s)
            if idx != len(builder.tokens) + 1:
                raise ParseError(f"token index {idx} breaks 1..N ordering", line_no)
            builder.tokens.append(_make_token(idx, intern(form), intern(lemma), intern(xpos),
                                              intern(number), intern(deprel), int(head_s)))
            continue
        if not line.strip():
            continue
        if not sep:
            raise ParseError(f"missing record tag separator in {line!r}", line_no)
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
        if tag == "MEN":
            f = _split_payload(payload, 4, line_no)
            builder.mention(f[0], _parse_spans(f[1], line_no), f[2], "none", "none",
                            None if f[3] == _EMPTY_FIELD else f[3], line_no)
        elif tag == "BRG":
            f = _split_payload(payload, 3, line_no)
            antes = tuple(a for a in f[1].split("+") if a)
            if not antes:
                raise ParseError(f"empty antecedent list in {payload!r}", line_no)
            builder.link(f[0], antes, None if f[2] == _EMPTY_FIELD else f[2], line_no)
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)
    if builder is not None:
        docs.append(builder.finish())
    return docs


_READS_AS_ABSENT = "is not representable in the standoff dialect, which reads it as absent"
# A label the standoff reader reads back as one field: it splits a record at
# spaces and strips the trailing "\r" of a line.
_standoff_label_ok = re.compile(r"[^ \t\n]*[^ \t\n\r]").fullmatch


def emit_standoff(doc: Document) -> bytes:
    """Serialize one document to standoff-dialect bytes, dropping infstat,
    definiteness and unified entity types, and writing an absent genre,
    chain id or subtype as "_". A label that would not read back as written
    raises DialectViolationError naming the document and the field."""
    if doc.genre == _EMPTY_FIELD:
        _refuse(doc, "genre", doc.genre, _READS_AS_ABSENT)
    lines = [f"DOC\t{doc.doc_id} {doc.genre or _EMPTY_FIELD}"]
    lines += [f"TOK\t{t.index} {t.form} {t.lemma} {t.xpos} {t.number} {t.deprel} {t.head}"
              for t in doc.tokens]
    for m in doc.mentions:
        if m.chain_id == _EMPTY_FIELD:
            _refuse(doc, f"mention {m.id!r} chain id", m.chain_id, _READS_AS_ABSENT)
        chain = m.chain_id if m.chain_id is not None else _EMPTY_FIELD
        spans = ",".join([f"{s}-{e}" for s, e in m.spans])
        lines.append(f"MEN\t{m.id} {spans} {m.entity_type_original} {chain}")
    for link in doc.bridging:
        if link.subtype == _EMPTY_FIELD:
            _refuse(doc, f"link from {link.anaphor_id!r} subtype", link.subtype, _READS_AS_ABSENT)
        for ante in link.antecedent_ids:
            # the reader splits the antecedent list at "+"
            if "+" in ante or not _standoff_label_ok(ante):
                _refuse(doc, "antecedent", ante)
        subtype = link.subtype if link.subtype is not None else _EMPTY_FIELD
        lines.append(f"BRG\t{link.anaphor_id} {'+'.join(link.antecedent_ids)} {subtype}")
    text = "\n".join(lines) + "\n"
    # Text with no tab, newline or space but those between fields, no "\r"
    # and no empty field reads back; only other text has its labels checked.
    spaces = 1 + 6 * len(doc.tokens) + 3 * len(doc.mentions) + 2 * len(doc.bridging)
    if (text.count("\t") != len(lines) or text.count("\n") != len(lines)
            or text.count(" ") != spaces or "\r" in text
            or "\t " in text or "  " in text or " \n" in text):
        labels = [("doc_id", doc.doc_id), ("genre", doc.genre or _EMPTY_FIELD)]
        labels += [(f"token {t.index} {field}", getattr(t, field))
                   for t in doc.tokens for field in _TOKEN_LABELS]
        for m in doc.mentions:
            chain = m.chain_id if m.chain_id is not None else _EMPTY_FIELD
            labels += (("mention id", m.id), ("entity type", m.entity_type_original), ("chain id", chain))
        labels += [("subtype", link.subtype) for link in doc.bridging if link.subtype is not None]
        for what, label in labels:
            if not _standoff_label_ok(label):
                _refuse(doc, what, label)
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# canonical JSONL


_write_document = record_writer(Token, Mention, BridgingLink, Document)
# the antecedents of a bridging link are never empty
_read_document = record_reader(Token, Mention, BridgingLink, Document, reads={
    "tuple[str, ...]": "tuple(%(v)s) if isinstance(%(v)s, list) and %(v)s and all([isinstance(a, str)"
    " for a in %(v)s]) else _fail(path, %(name)r, 'expected a non-empty list of strings')",
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

class Dialect(NamedTuple):
    """A corpus dialect: its file suffix, reader and per-document writer."""

    suffix: str
    read: Callable[[bytes | str], list[Document]]
    emit: Callable[[Document], bytes]


DIALECTS = {
    "bracket": Dialect(".brk", parse_bracket, emit_bracket),
    "standoff": Dialect(".sff", parse_standoff, emit_standoff),
    "canonical": Dialect(".jsonl", parse_canonical, lambda doc: emit_canonical((doc,))),
}


def guess_dialect(path: str | Path) -> str:
    suffix = Path(path).suffix
    for name, dialect in DIALECTS.items():
        if dialect.suffix == suffix:
            return name
    raise ValidationError(f"cannot infer dialect from suffix {suffix!r} of {path}")


def read_documents(path: str | Path, dialect: str | None = None) -> list[Document]:
    """Parse one corpus file. Any malformed content, including bytes that
    are not UTF-8 and documents that break a model invariant, raises
    ParseError or DialectViolationError. A ParseError names the file
    first, then the line when it is known, which it keeps as `.line`. The
    file is read before its dialect is guessed, so a path that cannot be
    read raises OSError whatever its suffix."""
    data = Path(path).read_bytes()
    dialect = dialect or guess_dialect(path)
    if dialect not in DIALECTS:
        raise ValidationError(f"unknown dialect {dialect!r}")
    try:
        return DIALECTS[dialect].read(data)
    except (ParseError, ValidationError) as exc:
        located = ParseError(f"{path}: {exc}")
        located.line = getattr(exc, "line", None)
        raise located from exc
