"""Parsing and serialization for all three on-disk formats."""
from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import bridgekit.records
from bridgekit.errors import BridgekitError, DialectViolationError, ParseError, ValidationError
from bridgekit.gbdt import HyperParams, encode, model_from_dict, model_to_dict, train
from bridgekit.harmonize import harmonize_corpus
from bridgekit.ingest import (
    DIALECTS,
    document_from_dict,
    emit_bracket,
    emit_canonical,
    emit_standoff,
    find_head,
    guess_dialect,
    parse_bracket,
    parse_canonical,
    parse_standoff,
    read_documents,
)
from bridgekit.model import UNRESOLVED, BridgingLink, Document, Mention, Token, validate_document
from bridgekit.pairgen import (
    PairDataset,
    build_balanced_dataset,
    dataset_from_jsonl,
    dataset_to_jsonl,
)
from bridgekit.synth import planted_rule_corpus, random_corpus, random_document

BRACKET_DOC = """\
# doc_id = demo
# genre = news
1\tThe\tthe\tDT\tnone\tdet\t2\t(m1-person-new-def
2\tcaptain\tcaptain\tNN\tsing\tnsubj\t3\tm1);Chain=c1
3\tsailed\tsail\tVBD\tnone\troot\t0\t_
4\tthe\tthe\tDT\tnone\tdet\t5\t(m2-object-new-def
5\tship\tship\tNN\tsing\tobj\t3\tm2)
6\tThe\tthe\tDT\tnone\tdet\t7\t(m3-object-acc-def
7\tsails\tsail\tNNS\tplur\tnsubj\t8\tm3);Bridge=m2<m3;Subtype=element
8\ttore\ttear\tVBD\tnone\tconj\t3\t_
9\the\the\tPRP\tsing\tnsubj\t10\t(m4-person-giv-def);Chain=c1
10\tswore\tswear\tVBD\tnone\tconj\t3\t_
"""


def parse_one(text: str) -> Document:
    docs = parse_bracket(text)
    assert len(docs) == 1
    return docs[0]


class TestBracketParsing:
    def test_demo_document(self):
        doc = parse_one(BRACKET_DOC)
        assert doc.doc_id == "demo"
        assert doc.genre == "news"
        assert doc.schema == "gum_like"
        assert len(doc.tokens) == 10
        assert doc.tokens[1].form == "captain" and doc.tokens[1].head == 3
        assert [m.id for m in doc.mentions] == ["m1", "m2", "m3", "m4"]
        m1 = doc.mention_by_id["m1"]
        assert m1.spans == ((1, 2),)
        assert (m1.entity_type_original, m1.infstat, m1.definiteness) == ("person", "new", "def")
        assert m1.chain_id == "c1"
        assert doc.mention_by_id["m2"].chain_id is None
        assert doc.mention_by_id["m4"].spans == ((9, 9),)
        assert doc.bridging == (BridgingLink("m3", ("m2",), "element"),)

    def test_head_is_token_pointing_outside_the_span(self):
        doc = parse_one(BRACKET_DOC)
        # captain's head (3) is outside [1,2]; "The"'s head (2) is inside
        assert doc.mention_by_id["m1"].head_index == 2

    def test_mention_order_is_bracket_opening_order(self):
        text = (
            "1\ta\ta\tNN\tsing\tdep\t0\t(outer-person-new-def,(inner-person-new-def\n"
            "2\tb\tb\tNN\tsing\tdep\t1\tinner)\n"
            "3\tc\tc\tNN\tsing\tdep\t1\touter)\n"
        )
        doc = parse_one(text)
        assert [m.id for m in doc.mentions] == ["outer", "inner"]
        assert doc.mention_by_id["outer"].spans == ((1, 3),)
        assert doc.mention_by_id["inner"].spans == ((1, 2),)

    def test_hyphenated_entity_types_survive(self):
        doc = parse_one("1\ta\ta\tNN\tsing\tdep\t0\t(m1-undersp-onto-new-def)\n")
        assert doc.mention_by_id["m1"].entity_type_original == "undersp-onto"

    def test_two_documents_split_on_blank_line(self):
        text = (
            "# doc_id = one\n1\ta\ta\tNN\tsing\tdep\t0\t_\n\n"
            "# doc_id = two\n1\tb\tb\tNN\tsing\tdep\t0\t_\n"
        )
        docs = parse_bracket(text)
        assert [d.doc_id for d in docs] == ["one", "two"]

    def test_document_without_header_gets_sequential_id(self):
        docs = parse_bracket("1\ta\ta\tNN\tsing\tdep\t0\t_\n\n1\tb\tb\tNN\tsing\tdep\t0\t_\n")
        assert [d.doc_id for d in docs] == ["doc_1", "doc_2"]

    @pytest.mark.parametrize(
        ("text", "shape"),
        [
            # a block of headers alone ends as an empty document, whichever
            # header it holds; it is neither dropped nor carried forward
            (
                "1\tx\tx\tNN\tsing\tdep\t0\t_\n\n# doc_id = d\n",
                [("doc_1", "", 1), ("d", "", 0)],
            ),
            (
                "1\tx\tx\tNN\tsing\tdep\t0\t_\n\n# genre = a\n",
                [("doc_1", "", 1), ("doc_2", "a", 0)],
            ),
            (
                "# genre = a\n\n# doc_id = d\n1\tx\tx\tNN\tsing\tdep\t0\t_\n",
                [("doc_1", "a", 0), ("d", "", 1)],
            ),
            (
                "# genre = a\n\n# doc_id = d\n# genre = b\n1\tx\tx\tNN\tsing\tdep\t0\t_\n",
                [("doc_1", "a", 0), ("d", "b", 1)],
            ),
        ],
    )
    def test_a_header_starts_a_document(self, text, shape):
        docs = parse_bracket(text)
        assert [(d.doc_id, d.genre, len(d.tokens)) for d in docs] == shape
        assert [doc for d in docs for doc in parse_bracket(emit_bracket(d))] == docs

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("1\ta\ta\tNN\tsing\tdep\t0\n", "expected 8 tab-separated fields"),
            ("2\ta\ta\tNN\tsing\tdep\t0\t_\n", "breaks 1..N ordering"),
            ("1\ta\ta\tNN\tsing\tdep\tx\t_\n", "non-integer token"),
            # token index and head are plain ASCII decimals, which `int` alone
            # would not enforce
            ("+1\ta\ta\tNN\tsing\tdep\t0\t_\n", "line 1: non-integer token"),
            (
                "1\ta\ta\tNN\tsing\tdep\t0\t_\n2\tb\tb\tNN\tsing\tdep\t0_1\t_\n",
                "line 2: non-integer token",
            ),
            (
                "1\ta\ta\tNN\tsing\tdep\t0\t_\n\uff12\tb\tb\tNN\tsing\tdep\t1\t_\n",
                "line 2: non-integer token",
            ),
            ("1\ta\ta\tNN\tsing\tdep\t-0\t_\n", "line 1: non-integer token"),
            ("1\ta\ta\tNN\tsing\tdep\t0 \t_\n", "line 1: non-integer token"),
            ("# owner = me\n1\ta\ta\tNN\tsing\tdep\t0\t_\n", "unknown header"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t_\n# genre = x\n", "header after token lines"),
            ("# doc_id demo\n", "malformed header"),
            # a second header would silently replace the first
            (
                "# doc_id = a\n# doc_id = b\n1\ta\ta\tNN\tsing\tdep\t0\t_\n",
                "line 2: repeated header 'doc_id'",
            ),
            (
                "# genre = a\n# doc_id = d\n# genre = b\n1\ta\ta\tNN\tsing\tdep\t0\t_\n",
                "line 3: repeated header 'genre'",
            ),
            ("1\ta\ta\tNN\tsing\tdep\t0\tm1-person\n", "malformed annotation item"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-def)\n", "malformed mention item"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-old-def)\n", "unknown information status"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-some)\n", "unknown definiteness"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1--new-def)\n", "empty entity type"),
            ("1\ta\ta\tNN\tsing\tdep\t0\tm1)\n", "does not match innermost open mention"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def\n", "never closes"),
            (
                "1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def)\n"
                "2\tb\tb\tNN\tsing\tdep\t1\t(m1-person-new-def)\n",
                "duplicate mention id",
            ),
            (
                "1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def;Chain=c1\n"
                "2\tb\tb\tNN\tsing\tdep\t1\tm1)\n",
                "only allowed on closing items",
            ),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Color=red\n", "unknown suffix key"),
            (
                "1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Chain=c1;Chain=c2\n",
                "duplicate suffix",
            ),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Chain=\n", "empty value"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Subtype=poss\n", "Subtype without a Bridge"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Bridge=m9<m2\n", "does not match closing mention"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Bridge=m9<m1\n", "does not resolve"),
            ("1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def);Bridge=m1\n", "expected ANTE<ANA"),
        ],
    )
    def test_malformed_input_raises_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_bracket(text)

    def test_parse_errors_carry_line_numbers(self):
        text = "# doc_id = demo\n1\ta\ta\tNN\tsing\tdep\t0\t_\n2\tb\tb\tNN\tsing\tdep\t0\n"
        with pytest.raises(ParseError, match="line 3:"):
            parse_bracket(text)

    def test_crossing_brackets_are_rejected_at_parse_time(self):
        text = (
            "1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def\n"
            "2\tb\tb\tNN\tsing\tdep\t1\t(m2-person-new-def\n"
            "3\tc\tc\tNN\tsing\tdep\t1\tm1)\n"
            "4\td\td\tNN\tsing\tdep\t1\tm2)\n"
        )
        with pytest.raises(ParseError, match="does not match innermost"):
            parse_bracket(text)

    def test_split_antecedent_bridge_violates_the_dialect(self):
        text = (
            "1\ta\ta\tNN\tsing\tdep\t0\t(m1-person-new-def)\n"
            "2\tb\tb\tNN\tsing\tdep\t1\t(m2-person-new-def)\n"
            "3\tc\tc\tNN\tsing\tdep\t1\t(m3-person-new-def);Bridge=m1+m2<m3\n"
        )
        with pytest.raises(DialectViolationError, match="multiple antecedents"):
            parse_bracket(text)


class TestBracketEmission:
    def test_demo_round_trips_to_identical_bytes(self):
        doc = parse_one(BRACKET_DOC)
        out = emit_bracket(doc)
        assert parse_bracket(out)[0] == doc
        assert emit_bracket(parse_bracket(out)[0]) == out

    def test_unified_entity_type_is_preferred_when_resolved(self):
        doc = parse_one(BRACKET_DOC)
        resolved = dataclasses.replace(
            doc,
            mentions=tuple(
                dataclasses.replace(m, entity_type_unified="concrete") for m in doc.mentions
            ),
        )
        assert b"(m2-concrete-new-def" in emit_bracket(resolved)

    def test_empty_annotation_field_is_an_underscore(self):
        doc = parse_one(BRACKET_DOC)
        line = emit_bracket(doc).decode().splitlines()[4]
        assert line.endswith("\t_")

    def test_discontinuous_mention_is_not_representable(self):
        base = parse_one(BRACKET_DOC)
        bad = dataclasses.replace(
            base,
            mentions=base.mentions
            + (Mention(id="m9", spans=((3, 3), (8, 8)), head_index=3, entity_type_original="event"),),
        )
        with pytest.raises(DialectViolationError, match="discontinuous"):
            emit_bracket(bad)

    def test_split_antecedent_link_is_not_representable(self):
        base = parse_one(BRACKET_DOC)
        bad = dataclasses.replace(base, bridging=(BridgingLink("m4", ("m1", "m2")),))
        with pytest.raises(DialectViolationError, match="split antecedents"):
            emit_bracket(bad)

    def test_second_link_on_one_anaphor_is_not_representable(self):
        base = parse_one(BRACKET_DOC)
        bad = dataclasses.replace(
            base, bridging=base.bridging + (BridgingLink("m3", ("m1",)),)
        )
        with pytest.raises(DialectViolationError, match="share anaphor"):
            emit_bracket(bad)

    def test_crossing_spans_are_not_representable(self):
        tokens = tuple(
            Token(i, f"w{i}", f"w{i}", "NN", "sing", "dep", 0 if i == 1 else 1) for i in range(1, 5)
        )
        doc = Document(
            doc_id="x",
            genre="",
            schema="gum_like",
            tokens=tokens,
            mentions=(
                Mention(id="a", spans=((1, 3),), head_index=1, entity_type_original="person"),
                Mention(id="b", spans=((2, 4),), head_index=2, entity_type_original="person"),
            ),
        )
        with pytest.raises(DialectViolationError, match="crosses"):
            emit_bracket(doc)

    def test_link_from_a_non_mention_is_a_validation_error(self):
        # Links are written on their anaphor's closing bracket, so without the
        # check a link whose anaphor is no mention would vanish silently.
        base = parse_one(BRACKET_DOC)
        bad = dataclasses.replace(base, bridging=(BridgingLink("ghost", ("m1",)),))
        with pytest.raises(ValidationError, match=r"anaphor_id: unknown mention 'ghost'"):
            emit_bracket(bad)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("doc_id", " pad "), ("doc_id", "a\nb"), ("doc_id", "d\r"), ("genre", "news "),
         ("genre", "a\nb")],
    )
    def test_header_values_that_do_not_read_back_are_not_representable(self, field, value):
        # the header reader strips values, and a newline would end the header
        bad = dataclasses.replace(parse_one(BRACKET_DOC), **{field: value})
        message = re.escape(f"{field} {value!r} not representable")
        with pytest.raises(DialectViolationError, match=message):
            emit_bracket(bad)

    def test_reserved_characters_in_ids_are_not_representable(self):
        base = parse_one(BRACKET_DOC)
        bad = dataclasses.replace(
            base,
            mentions=base.mentions[:-1]
            + (dataclasses.replace(base.mentions[-1], id="m;4"),),
        )
        with pytest.raises(DialectViolationError, match="reserved characters"):
            emit_bracket(bad)

    def test_an_antecedent_id_with_a_plus_is_refused(self):
        # the reader refuses "a+b" as two antecedents, so the writer does
        doc = planted_rule_corpus(5, n_docs=1, single_link_per_anaphor=True)[0]
        link = doc.bridging[0]
        bad = _renamed_mention(doc, link.antecedent_ids[0], "a+b")
        message = "doc 'plant_1': antecedent 'a+b' uses reserved characters"
        with pytest.raises(DialectViolationError, match=re.escape(message)):
            emit_bracket(bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_documents_round_trip_byte_stably(self, seed):
        for doc in random_corpus(seed, n_docs=2, flavor="gum_like"):
            out = emit_bracket(doc)
            again = parse_bracket(out)
            assert len(again) == 1
            # mention lists are normalized to bracket-opening order, but no
            # annotation is lost and re-emission is byte-identical
            key = lambda m: m.id
            assert sorted(again[0].mentions, key=key) == sorted(doc.mentions, key=key)
            assert sorted(again[0].bridging, key=lambda l: l.anaphor_id) == sorted(
                doc.bridging, key=lambda l: l.anaphor_id
            )
            assert again[0].tokens == doc.tokens
            assert (again[0].doc_id, again[0].genre) == (doc.doc_id, doc.genre)
            assert emit_bracket(again[0]) == out


STANDOFF_DOC = """\
DOC\tsdoc news
TOK\t1 the the DT none det 2
TOK\t2 fleet fleet NN sing nsubj 0
TOK\t3 left leave VBD none root 2
TOK\t4 two two CD plur nummod 5
TOK\t5 ships ship NNS plur obj 3
TOK\t6 behind behind RB none advmod 3
MEN\tm1 1-2 organization c1
MEN\tm2 4-5 concrete _
MEN\tm3 4-4,6-6 numerical _
BRG\tm2 m1 element
BRG\tm3 m1+m2 _
"""


class TestStandoffParsing:
    def test_demo_document(self):
        docs = parse_standoff(STANDOFF_DOC)
        assert len(docs) == 1
        doc = docs[0]
        assert (doc.doc_id, doc.genre, doc.schema) == ("sdoc", "news", "arrau_like")
        assert len(doc.tokens) == 6
        m3 = doc.mention_by_id["m3"]
        assert m3.spans == ((4, 4), (6, 6))
        assert m3.discontinuous
        # the dialect has no infstat/definiteness slots
        assert m3.infstat == "none" and m3.definiteness == "none"
        assert doc.mention_by_id["m1"].chain_id == "c1"
        assert doc.bridging == (
            BridgingLink("m2", ("m1",), "element"),
            BridgingLink("m3", ("m1", "m2"), None),
        )

    def test_genre_underscore_means_empty(self):
        docs = parse_standoff("DOC\td1 _\nTOK\t1 a a NN sing dep 0\n")
        assert docs[0].genre == ""

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("TOK\t1 a a NN sing dep 0\n", "before any DOC record"),
            ("DOC\td1 x\nROW\tstuff\n", "unknown record tag"),
            ("DOC\td1 x\njust words\n", "missing record tag separator"),
            ("DOC\td1 x\nTOK\t1 a a NN sing dep\n", "expected 7 space-separated fields"),
            ("DOC\td1 x\nTOK\tone a a NN sing dep 0\n", "non-integer token"),
            ("DOC\td1 x\nTOK\t+1 a a NN sing dep 0\n", "line 2: non-integer token"),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nTOK\t2 b b NN sing dep 0_1\n",
                "line 3: non-integer token",
            ),
            ("DOC\td1 x\nTOK\t\u0661 a a NN sing dep 0\n", "line 2: non-integer token"),
            ("DOC\td1 news extra\nTOK\t1 a a NN sing dep 0\n", "line 1: expected at most 2"),
            ("DOC\td1 x\nTOK\t5 a a NN sing dep 0\n", "breaks 1..N ordering"),
            ("DOC\t\n", "without a document id"),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 1-3 person _\n",
                r"span 1-3 out of token range 1\.\.1",
            ),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 1;3 person _\n",
                "malformed span",
            ),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 \u0661-\u0661 person _\n",
                "line 3: malformed span",
            ),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nTOK\t2 b b NN sing dep 1\n"
                "TOK\t3 c c NN sing dep 1\nMEN\tm1 1-1,3-2 person _\n",
                "line 5: span 3-2 ends before it starts",
            ),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\n"
                "MEN\tm1 1-1 person _\nMEN\tm1 1-1 person _\n",
                "duplicate mention id",
            ),
            (
                "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 1-1 person _\nBRG\tm1 + _\n",
                "empty antecedent list",
            ),
        ],
    )
    def test_malformed_input_raises_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_standoff(text)

    @pytest.mark.parametrize("record", ["TOK", "MEN", "BRG", "TOK\r"])
    def test_a_bare_record_tag_is_missing_its_separator(self, record):
        # a bare tag is a line without a tab, not a record with no fields
        text = f"DOC\td1 x\n{record}\nTOK\t1 a a NN sing dep 0\n"
        message = f"line 2: missing record tag separator in {record.rstrip(chr(13))!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_standoff(text)

    @pytest.mark.parametrize(
        ("brg", "message"),
        [
            ("BRG\tm1 ghost _", "line 4: bridge antecedent 'ghost' does not resolve to a mention"),
            ("BRG\tm1 m2+ghost _", "line 4: bridge antecedent 'ghost' does not resolve"),
            ("BRG\tghost m1 _", "line 4: bridge anaphor 'ghost' does not resolve to a mention"),
        ],
    )
    def test_links_to_unknown_mentions_name_the_brg_line(self, brg, message):
        text = f"DOC\td x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 1-1 person _\n{brg}\nMEN\tm2 1-1 thing _\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_standoff(text)
        # a mention of another document does not resolve either
        other = "DOC\te x\nTOK\t1 a a NN sing dep 0\nMEN\tghost 1-1 person _\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_standoff(text + other)

    def test_a_link_may_precede_the_mentions_it_names(self):
        text = "DOC\td x\nTOK\t1 a a NN sing dep 0\nBRG\tm2 m1 _\nMEN\tm1 1-1 person _\nMEN\tm2 1-1 thing _\n"
        assert parse_standoff(text)[0].bridging == (BridgingLink("m2", ("m1",)),)

    def test_span_errors_carry_the_men_record_line(self):
        text = "DOC\td1 x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 2-2 person _\n"
        with pytest.raises(ParseError, match="line 3:"):
            parse_standoff(text)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_fixture_emitter_round_trips(self, seed):
        docs = random_corpus(seed, n_docs=2, flavor="arrau_like")
        assert parse_standoff(b"".join(map(emit_standoff, docs))) == docs


def _renamed_mention(doc: Document, old: str, new: str) -> Document:
    """`doc` with mention `old` renamed `new`, in its links too."""
    name = lambda i: new if i == old else i
    return dataclasses.replace(
        doc,
        mentions=tuple(dataclasses.replace(m, id=name(m.id)) for m in doc.mentions),
        bridging=tuple(dataclasses.replace(link, anaphor_id=name(link.anaphor_id),
                                           antecedent_ids=tuple(map(name, link.antecedent_ids)))
                       for link in doc.bridging),
    )


def _with_token(doc: Document, **fields) -> Document:
    return dataclasses.replace(doc, tokens=(dataclasses.replace(doc.tokens[0], **fields),)
                               + doc.tokens[1:])


def _with_mention(doc: Document, **fields) -> Document:
    return dataclasses.replace(doc, mentions=(dataclasses.replace(doc.mentions[0], **fields),)
                               + doc.mentions[1:])


def _with_link(doc: Document, **fields) -> Document:
    return dataclasses.replace(doc, bridging=(dataclasses.replace(doc.bridging[0], **fields),)
                               + doc.bridging[1:])


class TestStandoffEmission:
    @pytest.mark.parametrize(
        ("edit", "field"),
        [
            (lambda doc: dataclasses.replace(doc, genre="_"), "genre"),
            (lambda doc: _with_mention(doc, chain_id="_"), "mention 'm1' chain id"),
            (lambda doc: _with_link(doc, subtype="_"), "link from"),
        ],
    )
    def test_a_value_the_reader_takes_for_absent_is_refused(self, edit, field):
        # the standoff reader reads "_" as an absent genre, chain id or subtype
        doc = edit(planted_rule_corpus(5, n_docs=1)[0])
        message = f"doc 'plant_1': {field}.* '_' is not representable"
        with pytest.raises(DialectViolationError, match=message):
            emit_standoff(doc)

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda doc: _with_token(doc, form="New York"), "token 1 form 'New York'"),
            (lambda doc: _with_token(doc, lemma="a\tb"), "token 1 lemma 'a\\tb'"),
            (lambda doc: _with_token(doc, deprel=""), "token 1 deprel ''"),
            (lambda doc: dataclasses.replace(doc, genre="news wire"), "genre 'news wire'"),
            (lambda doc: dataclasses.replace(doc, genre="synth\r"), "genre 'synth\\r'"),
            (lambda doc: _renamed_mention(doc, "m1", "m 1"), "mention id 'm 1'"),
            (lambda doc: _with_mention(doc, entity_type_original="a\nb"), "entity type 'a\\nb'"),
            (lambda doc: _with_mention(doc, chain_id=""), "chain id ''"),
            (lambda doc: _with_mention(doc, chain_id="c\r"), "chain id 'c\\r'"),
            (lambda doc: _with_link(doc, subtype="sub type"), "subtype 'sub type'"),
        ],
    )
    def test_a_label_the_reader_would_not_read_back_is_refused(self, edit, message):
        doc = edit(planted_rule_corpus(5, n_docs=1)[0])
        with pytest.raises(DialectViolationError,
                           match=re.escape(f"doc 'plant_1': {message} not representable")):
            emit_standoff(doc)

    @pytest.mark.parametrize("doc_id", ["plant 1", "", "p\n1", "p\r"])
    def test_a_doc_id_the_reader_would_not_read_back_is_refused(self, doc_id):
        doc = dataclasses.replace(planted_rule_corpus(5, n_docs=1)[0], doc_id=doc_id)
        with pytest.raises(DialectViolationError,
                           match=re.escape(f"doc {doc_id!r}: doc_id {doc_id!r} not representable")):
            emit_standoff(doc)

    def test_an_antecedent_id_with_a_plus_is_refused(self):
        # the reader would take "m+1" for the two antecedents m and 1
        doc = planted_rule_corpus(5, n_docs=1)[0]
        ante = doc.bridging[0].antecedent_ids[0]
        with pytest.raises(DialectViolationError, match="antecedent 'm\\+1' not representable"):
            emit_standoff(_renamed_mention(doc, ante, "m+1"))
        # the id of a mention that is no antecedent may hold a "+"
        free = next(m.id for m in doc.mentions
                    if all(m.id not in link.antecedent_ids for link in doc.bridging))
        assert "x+y" in parse_standoff(emit_standoff(_renamed_mention(doc, free, "x+y")))[0].mention_by_id

    def test_an_empty_antecedent_id_is_refused(self):
        # the document is not validated, and the reader would drop the
        # empty id from "m1+" without a word
        doc = planted_rule_corpus(5, n_docs=1)[0]
        link = doc.bridging[0]
        doc = _with_link(doc, antecedent_ids=link.antecedent_ids + ("",))
        with pytest.raises(DialectViolationError, match="antecedent '' not representable"):
            emit_standoff(doc)


# Characters that split a field of some dialect, or that one reads as absent
# or as a list: the round trip swaps labels for text drawn from them.
_AWKWARD = st.text(alphabet="ab_+ \t\n\r();,<=-", max_size=3)


def _swapped(doc: Document, swap: dict[str, str], resolve: bool) -> Document:
    """`doc` with each label in `swap` replaced, and with every mention's
    entity type unified as "person" when `resolve`."""
    s = lambda label: swap.get(label, label)
    optional = lambda label: None if label is None else s(label)
    return dataclasses.replace(
        doc,
        doc_id=s(doc.doc_id),
        genre=s(doc.genre),
        tokens=tuple(dataclasses.replace(t, form=s(t.form), lemma=s(t.lemma), xpos=s(t.xpos),
                                         deprel=s(t.deprel)) for t in doc.tokens),
        mentions=tuple(dataclasses.replace(
            m, id=s(m.id), entity_type_original=s(m.entity_type_original),
            entity_type_unified="person" if resolve else m.entity_type_unified,
            chain_id=optional(m.chain_id)) for m in doc.mentions),
        bridging=tuple(dataclasses.replace(
            link, anaphor_id=s(link.anaphor_id), antecedent_ids=tuple(map(s, link.antecedent_ids)),
            subtype=optional(link.subtype)) for link in doc.bridging),
    )


def _in_id_order(doc: Document) -> Document:
    return dataclasses.replace(doc, mentions=tuple(sorted(doc.mentions, key=lambda m: m.id)),
                               bridging=tuple(sorted(doc.bridging, key=lambda l: l.anaphor_id)))


# What each dialect's reader gives back for a document its writer accepted:
# standoff drops infstat, definiteness and unified types; bracket writes the
# entity type, unified when resolved, and lists mentions as their brackets
# open and links as their mentions close.
READS_BACK = {
    "bracket": lambda doc: _in_id_order(dataclasses.replace(doc, schema="gum_like", mentions=tuple(
        dataclasses.replace(m, entity_type_original=m.entity_type, entity_type_unified=UNRESOLVED)
        for m in doc.mentions))),
    "standoff": lambda doc: dataclasses.replace(doc, schema="arrau_like", mentions=tuple(
        dataclasses.replace(m, entity_type_unified=UNRESOLVED, infstat="none", definiteness="none")
        for m in doc.mentions)),
    "canonical": lambda doc: doc,
}


class TestDialectRoundTrip:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(flavor=st.sampled_from(["canonical", "gum_like", "arrau_like"]),
           seed=st.integers(0, 10**6), data=st.data())
    def test_each_writer_refuses_or_its_reader_gives_the_document_back(self, flavor, seed, data):
        doc = random_document(random.Random(seed), 1, flavor)
        labels = sorted({doc.doc_id, doc.genre}
                        | {label for t in doc.tokens for label in (t.form, t.xpos, t.deprel)}
                        | {label for m in doc.mentions
                           for label in (m.id, m.entity_type_original, m.chain_id) if label}
                        | {link.subtype for link in doc.bridging if link.subtype})
        swap = data.draw(st.dictionaries(st.sampled_from(labels), _AWKWARD, max_size=3))
        doc = _swapped(doc, swap, data.draw(st.booleans()))
        assume(len({m.id for m in doc.mentions}) == len(doc.mentions))
        for name, dialect in DIALECTS.items():
            try:
                text = dialect.emit(doc)
            except DialectViolationError:
                continue
            read_back = dialect.read(text)
            if name == "bracket":
                read_back = [_in_id_order(d) for d in read_back]
            assert read_back == [READS_BACK[name](doc)], name


# sha256 of emit_canonical(random_corpus(3, 40, flavor)); between them the
# corpora hold discontinuous spans, split antecedents, and mentions and links
# with and without chain_id and subtype.
CANONICAL_SHA256 = {
    "gum_like": "3206656e75e99e768867fb066921b249ef39cd8b8faaafe6f30f691e26a861d8",
    "arrau_like": "75d26a1780842187499946713f25ff4b21de635584e8a94f709c9c4c545d54c8",
    "canonical": "ee7e8e3f503d51f6ea175f013c3157ade625dcd306fd6795c7924be2073792f8",
}


def reference_emit_canonical(docs: list[Document]) -> bytes:
    """The canonical writer as a dict per record dumped by `json.dumps`: the
    reference the generated writer must match byte for byte."""
    def record(obj) -> dict:
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return {key: value for key, value in values.items() if value is not None}

    lines = [
        json.dumps(
            {
                "doc_id": doc.doc_id,
                "genre": doc.genre,
                "schema": doc.schema,
                "tokens": [record(t) for t in doc.tokens],
                "mentions": [record(m) for m in doc.mentions],
                "bridging": [record(link) for link in doc.bridging],
            },
            sort_keys=True, ensure_ascii=False, separators=(",", ":"),
        )
        for doc in docs
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def reference_document_from_dict(obj: dict, path: str = "doc") -> Document:
    """The canonical reader as hand-written checks per record: the reference
    the reader generated from the record layouts must match, document for
    document and message for message, on inputs with one fault."""
    def expect(condition: bool, path: str, message: str) -> None:
        if not condition:
            raise ValidationError(f"{path}: {message}")

    scalar_checks = {
        "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "expected an integer"),
        "str": (lambda v: isinstance(v, str), "expected a string"),
        "str | None": (lambda v: v is None or isinstance(v, str), "expected a string"),
    }
    layouts = {
        cls: (
            frozenset(f.name for f in dataclasses.fields(cls)),
            frozenset(f.name for f in dataclasses.fields(cls) if f.default is not None),
            tuple((f.name, *scalar_checks[f.type])
                  for f in dataclasses.fields(cls) if f.type in scalar_checks),
        )
        for cls in (Document, Token, Mention, BridgingLink)
    }

    def scalar_fields(obj, cls: type, path: str) -> dict:
        expect(isinstance(obj, dict), path, "expected an object")
        known, required, scalars = layouts[cls]
        keys = obj.keys()
        expect(required <= keys, path, f"missing keys {sorted(required - keys)}")
        extra = keys - known
        expect(not extra, path, f"unexpected keys {sorted(extra)}")
        values = {}
        for name, check, message in scalars:
            value = values[name] = obj.get(name)
            expect(check(value), f"{path}.{name}", message)
        return values

    values = scalar_fields(obj, Document, path)
    for key in ("tokens", "mentions", "bridging"):
        expect(isinstance(obj[key], list), f"{path}.{key}", "expected a list")

    tokens = tuple(
        Token(**scalar_fields(tok, Token, f"{path}.tokens[{i}]"))
        for i, tok in enumerate(obj["tokens"])
    )

    mentions = []
    for i, men in enumerate(obj["mentions"]):
        mpath = f"{path}.mentions[{i}]"
        scalars = scalar_fields(men, Mention, mpath)
        expect(isinstance(men["spans"], list) and men["spans"], f"{mpath}.spans", "expected a non-empty list")
        spans = []
        for j, span in enumerate(men["spans"]):
            expect(
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
        scalars = scalar_fields(link, BridgingLink, lpath)
        antes = link["antecedent_ids"]
        expect(
            isinstance(antes, list) and antes and all(isinstance(a, str) for a in antes),
            f"{lpath}.antecedent_ids",
            "expected a non-empty list of strings",
        )
        bridging.append(BridgingLink(antecedent_ids=tuple(antes), **scalars))

    doc = Document(tokens=tokens, mentions=tuple(mentions), bridging=tuple(bridging), **values)
    validate_document(doc)
    return doc


# Values that put one fault into a canonical record: a wrong scalar type, an
# empty or malformed list, a record that is no object or lacks keys.
_FAULTY_VALUES = (None, True, 0, 7, -1, 1.5, "", "s", [], [0], [1, 2, 3], [[1, 1]], [True, 1],
                  ["m1"], {}, {"id": "m1"})
_ADDED_KEYS = ("extra", "form", "spans", "chain_id", "subtype")


def _json_sites(node, out: dict, path: str = "") -> dict:
    """Every (container, key or index) pair of a parsed JSON tree, grouped by
    its path with list indices left out, such as `mentions.#.spans.#`."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        site = f"{path}.{key if isinstance(node, dict) else '#'}"
        out.setdefault(site, []).append((node, key))
        if isinstance(value, (dict, list)):
            _json_sites(value, out, site)
    return out


def _read_outcome(read, obj) -> Document | str:
    """The document `read` makes of `obj`, or the message it refuses it with."""
    try:
        return read(obj)
    except ValidationError as exc:
        return str(exc)


# Strings JSON must escape or that are easy to mis-encode: quotes,
# backslashes, C0 controls and DEL, the JavaScript line separators, and
# characters outside the Basic Multilingual Plane.
_TEXT = st.text(
    st.sampled_from(['"', "\\", "/", "a", "Z", "\u00e9", "\u2028", "\u2029", "\x7f",
                     "\U0001f600", "\U00010000"])
    | st.characters(max_codepoint=0x1F),
    max_size=6,
)
_INTS = st.integers(min_value=0, max_value=10**12)
_TOKENS = st.builds(Token, _INTS, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT, _INTS)
_MENTIONS = st.builds(
    Mention,
    id=_TEXT,
    spans=st.lists(st.tuples(_INTS, _INTS), min_size=1, max_size=3).map(tuple),
    head_index=_INTS,
    entity_type_original=_TEXT,
    entity_type_unified=_TEXT,
    infstat=_TEXT,
    definiteness=_TEXT,
    chain_id=st.none() | _TEXT,
)
_LINKS = st.builds(
    BridgingLink,
    anaphor_id=_TEXT,
    antecedent_ids=st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
    subtype=st.none() | _TEXT,
)
_DOCUMENTS = st.builds(
    Document,
    doc_id=_TEXT,
    genre=_TEXT,
    schema=_TEXT,
    tokens=st.lists(_TOKENS, max_size=3).map(tuple),
    mentions=st.lists(_MENTIONS, max_size=3).map(tuple),
    bridging=st.lists(_LINKS, max_size=3).map(tuple),
)


class TestCanonical:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_DOCUMENTS, max_size=2))
    def test_writer_matches_json_dumps_of_the_field_dicts(self, docs):
        assert emit_canonical(docs) == reference_emit_canonical(docs)

    def test_lone_surrogate_fails_in_both_writers(self):
        doc = dataclasses.replace(
            parse_one(BRACKET_DOC), tokens=(Token(1, "\ud800", "a", "NN", "sing", "root", 0),)
        )
        for emit in (emit_canonical, reference_emit_canonical):
            with pytest.raises(UnicodeEncodeError):
                emit([doc])

    def test_each_record_writes_exactly_its_fields_but_absent_optionals(self):
        docs = parse_standoff(STANDOFF_DOC) + random_corpus(3, 10, flavor="canonical")
        lines = emit_canonical(docs).decode().splitlines()

        def expected(obj) -> set[str]:
            return {f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None}

        for doc, line in zip(docs, lines, strict=True):
            out = json.loads(line)
            assert set(out) == expected(doc)
            for key in ("tokens", "mentions", "bridging"):
                records = getattr(doc, key)
                assert [set(obj) for obj in out[key]] == [expected(r) for r in records]
        # both optionals occur present and absent
        assert {m.chain_id is None for d in docs for m in d.mentions} == {True, False}
        assert {link.subtype is None for d in docs for link in d.bridging} == {True, False}

    @pytest.mark.parametrize("flavor", sorted(CANONICAL_SHA256))
    def test_emitted_bytes_match_golden_hashes(self, flavor):
        data = emit_canonical(random_corpus(3, 40, flavor=flavor))
        assert hashlib.sha256(data).hexdigest() == CANONICAL_SHA256[flavor]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_round_trip_preserves_documents_exactly(self, seed):
        docs = random_corpus(seed, n_docs=3, flavor="canonical")
        data = emit_canonical(docs)
        assert parse_canonical(data) == docs
        assert emit_canonical(parse_canonical(data)) == data

    @settings(max_examples=1000, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        flavor=st.sampled_from(["gum_like", "arrau_like", "canonical"]),
        kind=st.sampled_from(["drop", "add", "replace"]),
        data=st.data(),
    )
    def test_reader_matches_the_hand_written_reader_on_one_fault(self, seed, flavor, kind, data):
        obj = json.loads(emit_canonical(random_corpus(seed, 1, flavor)))
        # each field of each record kind is as likely a target as any other
        sites = _json_sites(obj, {})
        container, key = data.draw(st.sampled_from(sites[data.draw(st.sampled_from(sorted(sites)))]))
        if kind == "drop":
            del container[key]
        elif kind == "add":
            target = container if isinstance(container, dict) else obj
            target[data.draw(st.sampled_from(_ADDED_KEYS))] = data.draw(st.sampled_from(_FAULTY_VALUES))
        else:
            container[key] = data.draw(st.sampled_from(_FAULTY_VALUES))
        expected = _read_outcome(reference_document_from_dict, obj)
        assert _read_outcome(document_from_dict, obj) == expected

    def test_emission_is_compact_and_key_sorted(self):
        docs = random_corpus(5, n_docs=1)
        line = emit_canonical(docs).decode().splitlines()[0]
        obj = json.loads(line)
        assert json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")) == line

    def test_absent_chain_and_subtype_are_omitted_not_null(self):
        docs = parse_standoff(STANDOFF_DOC)
        text = emit_canonical(docs).decode()
        assert "null" not in text
        objs = json.loads(text.splitlines()[0])
        assert "chain_id" not in objs["mentions"][1]
        assert "chain_id" in objs["mentions"][0]
        assert "subtype" not in objs["bridging"][1]

    def test_blank_lines_are_ignored(self):
        data = emit_canonical(random_corpus(5, n_docs=2)).decode()
        first, second = data.splitlines()
        assert len(parse_canonical(f"\n{first}\n\n{second}\n\n")) == 2

    def test_invalid_json_reports_the_line(self):
        good = emit_canonical(random_corpus(5, n_docs=1)).decode()
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            parse_canonical(good + "{broken\n")
        with pytest.raises(ParseError, match="line 2: invalid JSON: nested too deeply"):
            parse_canonical(good + "[" * 100_000 + "\n")

    @pytest.mark.parametrize(
        ("mutate", "message"),
        [
            (lambda obj: obj.pop("genre"), r"missing keys \['genre'\]"),
            (lambda obj: obj.update(extra=1), r"unexpected keys \['extra'\]"),
            (lambda obj: obj["tokens"][0].update(index="1"), r"tokens\[0\]\.index: expected an integer"),
            (lambda obj: obj["mentions"][0].update(spans=[[1, 2, 3]]), r"spans\[0\]"),
            (lambda obj: obj["mentions"][0].pop("infstat"), r"missing keys \['infstat'\]"),
            (lambda obj: obj["bridging"][0].update(antecedent_ids=[]), "non-empty list"),
            (lambda obj: obj["bridging"][0].update(subtype=3), "expected a string"),
        ],
    )
    def test_schema_violations_name_the_field_path(self, mutate, message):
        obj = json.loads(emit_canonical(parse_standoff(STANDOFF_DOC)).decode())
        mutate(obj)
        with pytest.raises(ValidationError, match=message):
            parse_canonical(json.dumps(obj))


@functools.cache
def _record_files() -> tuple[str, str]:
    """A small pair-dataset file and the JSON of a model trained on it."""
    docs, _ = harmonize_corpus(planted_rule_corpus(3, n_docs=4))
    full = build_balanced_dataset(docs, seed=1)
    dataset = PairDataset(full.examples[::10], full.provenance, ("a warning",))
    X, y, schema = encode(dataset)
    model = train(X, y, HyperParams(n_rounds=3, max_depth=2), schema=schema)
    assert any("column" in tree for tree in model_to_dict(model)["trees"])
    return dataset_to_jsonl(dataset).decode(), json.dumps(model_to_dict(model))


def _put_one_fault(root, kind: str, added_keys: tuple[str, ...], data, top: dict) -> None:
    """Drop, add or replace one value of a parsed JSON tree, each site as
    likely as any other; a key added to a list goes to `top`."""
    sites = _json_sites(root, {})
    container, key = data.draw(st.sampled_from(sites[data.draw(st.sampled_from(sorted(sites)))]))
    if kind == "drop":
        del container[key]
    elif kind == "add":
        target = container if isinstance(container, dict) else top
        target[data.draw(st.sampled_from(added_keys))] = data.draw(st.sampled_from(_FAULTY_VALUES))
    else:
        container[key] = data.draw(st.sampled_from(_FAULTY_VALUES))


class TestOtherRecordFiles:
    """Pair-dataset and model files are read by the reader generated from
    their record layouts: any one fault in them is a BridgekitError."""

    @settings(max_examples=500, deadline=None)
    @given(kind=st.sampled_from(["drop", "add", "replace"]), data=st.data())
    def test_one_fault_in_a_pair_dataset_file_is_a_bridgekit_error(self, kind, data):
        lines = [json.loads(line) for line in _record_files()[0].splitlines()]
        _put_one_fault(lines, kind, ("extra", "label", "t_a_dist", "seed", "n_examples"),
                       data, lines[0])
        try:
            assert isinstance(dataset_from_jsonl("\n".join(map(json.dumps, lines))), PairDataset)
        except BridgekitError:
            pass

    @settings(max_examples=500, deadline=None)
    @given(kind=st.sampled_from(["drop", "add", "replace"]), data=st.data())
    def test_one_fault_in_a_model_file_is_a_bridgekit_error(self, kind, data):
        obj = json.loads(_record_files()[1])
        _put_one_fault(obj, kind, ("extra", "weight", "column", "schema", "format_version"),
                       data, obj)
        try:
            assert model_from_dict(obj) is not None
        except BridgekitError:
            pass


def _one_site_outcomes(root, read) -> list[str]:
    """What `read` makes of `root` with each site of it dropped once and,
    in turn, replaced by each of `_FAULTY_VALUES`: `ok`, or the type and
    message of the BridgekitError it raises. Each fault is undone after
    its read."""
    def outcome() -> str:
        try:
            read(root)
        except BridgekitError as exc:
            return f"{type(exc).__name__}: {exc}"
        return "ok"

    outcomes = []
    for sites in _json_sites(root, {}).values():
        for container, key in sites:
            value = container[key]
            del container[key]
            outcomes.append(outcome())
            if isinstance(container, list):
                container.insert(key, value)
            for faulty in _FAULTY_VALUES:
                container[key] = faulty
                outcomes.append(outcome())
            container[key] = value
    return outcomes


# sha256 of the joined outcomes of `_one_site_outcomes` on each record file;
# every reader message, and the path it names, is pinned by these.
_ONE_SITE_OUTCOMES_SHA256 = {
    "canonical": "b72b0e7c6c1115e8a598dbdf83fb9912ff55e4dbb99e30cf228f4671b4b47207",
    "pair dataset": "790f3644cae2f982629983d77f9941ca900615274f5dd5ac82b8657e33280aa6",
    "model": "1997d6ecdeb751930fc4ed000b75949cf2a888254d0950d906d4e9b553cb6a88",
}


class TestReaderMessages:
    @pytest.mark.parametrize("kind", sorted(_ONE_SITE_OUTCOMES_SHA256))
    def test_each_one_site_fault_gives_its_pinned_outcome(self, kind):
        dataset, model = _record_files()
        root, read = {
            "canonical": (json.loads(emit_canonical(parse_standoff(STANDOFF_DOC))), document_from_dict),
            "pair dataset": ([json.loads(line) for line in dataset.splitlines()],
                             lambda lines: dataset_from_jsonl("\n".join(map(json.dumps, lines)))),
            "model": (json.loads(model), model_from_dict),
        }[kind]
        outcomes = _one_site_outcomes(root, read)
        assert "ok" in outcomes and len(set(outcomes)) > 20
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == _ONE_SITE_OUTCOMES_SHA256[kind]


# sha256 of emit_canonical(planted_rule_corpus(1, n_docs=4,
# single_link_per_anaphor=True)), which the bracket dialect carries whole
PLANTED_BRACKET_SHA256 = "8d8d3d589036f4a812cb7b99f171a8d8d5763f3f6b7c4ff8871359107ffd8763"
# sha256 of the standoff bytes of random_corpus(3, 40, "arrau_like"), as
# written before the writer moved from synth to ingest
STANDOFF_SHA256 = "80505fae3186b6e30cdfd785b8702653b351982a725c6cad2155d2758c8c386e"


def _labels(docs: list[Document]) -> dict[str, list[str]]:
    """The label strings of `docs` by kind of label."""
    tokens = [t for doc in docs for t in doc.tokens]
    mentions = [m for doc in docs for m in doc.mentions]
    links = [link for doc in docs for link in doc.bridging]
    labels = {f: [getattr(t, f) for t in tokens] for f in ("form", "lemma", "xpos", "number", "deprel")}
    labels |= {f: [getattr(m, f) for m in mentions]
               for f in ("id", "entity_type_original", "infstat", "definiteness")}
    labels["chain_id"] = [m.chain_id for m in mentions if m.chain_id is not None]
    labels["subtype"] = [link.subtype for link in links if link.subtype is not None]
    labels["link ids"] = [i for link in links for i in (link.anaphor_id, *link.antecedent_ids)]
    return labels


class TestInternedLabels:
    @pytest.mark.parametrize("dialect", ["standoff", "bracket"])
    def test_equal_labels_are_one_object_and_the_bytes_are_kept(self, dialect):
        if dialect == "standoff":
            source = random_corpus(3, 40, flavor="arrau_like")
            data = b"".join(map(emit_standoff, source))
            assert hashlib.sha256(data).hexdigest() == STANDOFF_SHA256
            docs, golden = parse_standoff(data), CANONICAL_SHA256["arrau_like"]
        else:
            source = planted_rule_corpus(1, n_docs=4, single_link_per_anaphor=True)
            docs = parse_bracket(b"".join(emit_bracket(doc) for doc in source))
            golden = PLANTED_BRACKET_SHA256
        assert docs == source
        assert hashlib.sha256(emit_canonical(docs)).hexdigest() == golden
        a = docs[0].tokens[0]
        b = next(t for doc in docs[1:] for t in doc.tokens if t.form == a.form)
        assert a.form is b.form
        labels = _labels(docs)
        for kind, values in labels.items():
            assert values and len({id(v) for v in values}) == len(set(values)), kind
        # one object names a mention and every link to it, across documents
        ids = labels["id"] + labels["link ids"]
        assert len({id(v) for v in ids}) == len(set(labels["id"]))


class TestCodecModule:
    def test_the_codec_imports_only_the_errors_module(self):
        tree = ast.parse(inspect.getsource(bridgekit.records))
        relative = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        absolute |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level}
        assert relative == {"errors"}
        assert not [name for name in absolute if name.split(".")[0] == "bridgekit"]

    def test_record_file_readers_do_not_load_the_corpus_dialects(self):
        code = ("import sys, bridgekit.gbdt, bridgekit.pairgen, bridgekit.harmonize; "
                "print('bridgekit.ingest' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == "False\n"


class TestFindHead:
    def test_prefers_leftmost_token_with_external_head(self):
        tokens = tuple(
            Token(i, f"w{i}", f"w{i}", "NN", "sing", "dep", h)
            for i, h in ((1, 2), (2, 5), (3, 2), (4, 5), (5, 0))
        )
        assert find_head(tokens, ((1, 3),)) == 2

    def test_falls_back_to_last_token_when_all_heads_internal(self):
        tokens = (
            Token(1, "a", "a", "NN", "sing", "dep", 2),
            Token(2, "b", "b", "NN", "sing", "dep", 1),
        )
        assert find_head(tokens, ((1, 2),)) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_covered_set_scan(self, data):
        n = data.draw(st.integers(1, 12))
        tokens = tuple(Token(i, "w", "w", "NN", "sing", "dep", data.draw(st.integers(0, n)))
                       for i in range(1, n + 1))
        bounds = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=6)))
        if len(bounds) % 2:
            bounds.append(bounds[-1])
        spans = tuple(zip(bounds[::2], bounds[1::2]))
        covered = {i for start, end in spans for i in range(start, end + 1)}
        expected = next((i for i in sorted(covered) if tokens[i - 1].head not in covered),
                        spans[-1][1])
        assert find_head(tokens, spans) == expected


class TestFileHelpers:
    def test_dialect_guessing(self):
        assert guess_dialect("x/corpus.brk") == "bracket"
        assert guess_dialect("corpus.sff") == "standoff"
        assert guess_dialect("corpus.jsonl") == "canonical"
        with pytest.raises(ValidationError, match="cannot infer dialect"):
            guess_dialect("corpus.txt")

    def test_read_and_write_round_trip(self, tmp_path):
        docs = random_corpus(11, n_docs=2)
        path = tmp_path / "c.jsonl"
        path.write_bytes(emit_canonical(docs))
        assert read_documents(path) == docs
        assert read_documents(path, dialect="canonical") == docs
        with pytest.raises(ValidationError, match="unknown dialect"):
            read_documents(path, dialect="xml")

    def test_invalid_utf8_and_model_invariant_breaches_are_parse_errors(self, tmp_path):
        path = tmp_path / "bad.brk"
        path.write_bytes(b"1\ta\ta\tNN\tsing\tdep\t0\t_\n\xff\n")
        with pytest.raises(ParseError, match="utf-8"):
            read_documents(path)
        path.write_text("1\ta\ta\tNN\tsing\tdep\t99999\t_\n")
        with pytest.raises(ParseError, match="head 99999"):
            read_documents(path)

    @pytest.mark.parametrize(
        ("name", "text", "line"),
        [
            ("bad.brk", "1\tbroken\n", 1),
            ("bad.sff", "DOC\td x\nTOK\t1 a a NN sing dep 0\nMEN\tm1 1-1 person _\n"
                        "BRG\tm1 ghost _\n", 4),
            ("bad.jsonl", "\n{\n", 2),
        ],
    )
    def test_a_parse_error_names_the_file_then_the_line(self, tmp_path, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read_documents(path)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert info.value.line == line

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dialect=st.sampled_from(sorted(DIALECTS)), data=st.data())
    def test_any_bytes_yield_documents_or_a_typed_input_error(self, tmp_path, dialect, data):
        valid = VALID_INPUT[dialect]
        edits = st.lists(
            st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), min_size=1, max_size=4
        )
        raw = data.draw(st.one_of(
            st.binary(max_size=300),
            st.tuples(edits, st.integers(0, len(valid))).map(lambda e: _mutate(valid, *e)),
        ))
        path = tmp_path / "fuzz"
        path.write_bytes(raw)
        try:
            docs = read_documents(path, dialect)
        except (ParseError, DialectViolationError):
            return
        assert all(isinstance(doc, Document) for doc in docs)

    @pytest.mark.parametrize("dialect", sorted(DIALECTS))
    def test_crlf_line_ends_parse_as_lf(self, tmp_path, dialect):
        docs = planted_rule_corpus(5, n_docs=3, single_link_per_anaphor=True)
        text = b"".join(map(DIALECTS[dialect].emit, docs))
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.write_bytes(text)
        crlf.write_bytes(text.replace(b"\n", b"\r\n"))
        expected = read_documents(lf, dialect)
        assert len(expected) == 3
        assert read_documents(crlf, dialect) == expected

    def test_read_documents_honors_explicit_dialect_over_suffix(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(BRACKET_DOC)
        docs = read_documents(path, dialect="bracket")
        assert docs[0].doc_id == "demo"


VALID_INPUT = {
    "bracket": BRACKET_DOC.encode(),
    "standoff": STANDOFF_DOC.encode(),
    "canonical": emit_canonical(parse_standoff(STANDOFF_DOC)),
}


def _mutate(valid: bytes, edits: list[tuple[int, int]], cut: int) -> bytes:
    """`valid` with the given byte overwrites, truncated to `cut` bytes."""
    out = bytearray(valid)
    for position, value in edits:
        out[position] = value
    return bytes(out[:cut])
