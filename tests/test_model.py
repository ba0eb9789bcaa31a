"""Document model invariants and validation error reporting."""
from __future__ import annotations

import dataclasses

import pytest

from bridgekit.errors import ValidationError
from bridgekit.model import (
    BridgingLink,
    Document,
    Mention,
    Token,
    is_given,
    mention_order_key,
    mention_start,
    validate_document,
)


def tok(i: int, head: int = 0, **kw) -> Token:
    defaults = dict(form=f"w{i}", lemma=f"w{i}", xpos="NN", number="sing", deprel="dep")
    defaults.update(kw)
    return Token(index=i, head=head, **defaults)


def make_doc(mentions=(), bridging=(), n_tokens=10) -> Document:
    return Document(
        doc_id="d1",
        genre="test",
        schema="canonical",
        tokens=tuple(tok(i) for i in range(1, n_tokens + 1)),
        mentions=tuple(mentions),
        bridging=tuple(bridging),
    )


class TestMention:
    def test_single_span_is_continuous(self):
        m = Mention(id="m1", spans=((2, 4),), head_index=3, entity_type_original="person")
        assert not m.discontinuous
        assert m.n_tokens == 3

    def test_multi_span_is_discontinuous(self):
        m = Mention(id="m1", spans=((2, 4), (6, 6)), head_index=2, entity_type_original="person")
        assert m.discontinuous
        assert m.n_tokens == 4

    def test_covers_checks_every_span(self):
        m = Mention(id="m1", spans=((2, 4), (6, 6)), head_index=2, entity_type_original="person")
        assert m.covers(2) and m.covers(4) and m.covers(6)
        assert not m.covers(5) and not m.covers(1) and not m.covers(7)

    def test_mentions_are_immutable(self):
        m = Mention(id="m1", spans=((1, 1),), head_index=1, entity_type_original="person")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.id = "m2"


class TestBridgingLink:
    def test_split_antecedent_flag(self):
        assert not BridgingLink("m2", ("m1",)).split_antecedent
        assert BridgingLink("m3", ("m1", "m2")).split_antecedent


class TestOrdering:
    def test_mention_start_uses_first_span(self):
        m = Mention(id="m1", spans=((3, 4), (7, 8)), head_index=3, entity_type_original="x")
        assert mention_start(m) == 3

    def test_order_key_breaks_ties_by_end_then_list_position(self):
        a = Mention(id="a", spans=((2, 5),), head_index=2, entity_type_original="x")
        b = Mention(id="b", spans=((2, 3),), head_index=2, entity_type_original="x")
        c = Mention(id="c", spans=((2, 3),), head_index=3, entity_type_original="x")
        doc = make_doc(mentions=[a, b, c])
        keys = [mention_order_key(doc, m) for m in (a, b, c)]
        assert keys[1] < keys[0]  # shorter span first on equal start
        assert keys[1] < keys[2]  # list position breaks the remaining tie


class TestIsGiven:
    def test_chainless_mention_is_not_given(self):
        m = Mention(id="m1", spans=((1, 1),), head_index=1, entity_type_original="x")
        doc = make_doc(mentions=[m])
        assert not is_given(doc, m)

    def test_first_chain_member_is_not_given_but_later_ones_are(self):
        first = Mention(id="m1", spans=((1, 1),), head_index=1, entity_type_original="x", chain_id="c")
        second = Mention(id="m2", spans=((4, 4),), head_index=4, entity_type_original="x", chain_id="c")
        third = Mention(id="m3", spans=((8, 8),), head_index=8, entity_type_original="x", chain_id="c")
        doc = make_doc(mentions=[first, second, third])
        assert not is_given(doc, first)
        assert is_given(doc, second)
        assert is_given(doc, third)

    def test_membership_in_other_chains_is_ignored(self):
        other = Mention(id="m1", spans=((1, 1),), head_index=1, entity_type_original="x", chain_id="c1")
        target = Mention(id="m2", spans=((4, 4),), head_index=4, entity_type_original="x", chain_id="c2")
        doc = make_doc(mentions=[other, target])
        assert not is_given(doc, target)


class TestDocumentLookups:
    def test_lookup_tables(self):
        m1 = Mention(id="m1", spans=((1, 2),), head_index=1, entity_type_original="x", chain_id="c")
        m2 = Mention(id="m2", spans=((4, 4),), head_index=4, entity_type_original="x", chain_id="c")
        doc = make_doc(mentions=[m1, m2])
        assert doc.mention_by_id["m2"] is m2
        assert doc.mention_position == {"m1": 0, "m2": 1}
        assert doc.token_by_index[3].form == "w3"
        assert [m.id for m in doc.chain_members("c")] == ["m1", "m2"]
        assert doc.chain_members("missing") == []


class TestValidation:
    def ok_mention(self, **kw):
        defaults = dict(id="m1", spans=((2, 3),), head_index=2, entity_type_original="person")
        defaults.update(kw)
        return Mention(**defaults)

    def test_valid_document_passes(self):
        doc = make_doc(mentions=[self.ok_mention()], bridging=[])
        validate_document(doc)

    def test_unknown_schema_is_rejected(self):
        doc = dataclasses.replace(make_doc(), schema="tabular")
        with pytest.raises(ValidationError, match=r"\.schema"):
            validate_document(doc)

    def test_non_contiguous_token_indices_are_rejected(self):
        doc = make_doc()
        bad = doc.tokens[:4] + (tok(6),)
        with pytest.raises(ValidationError, match=r"tokens\[4\]\.index"):
            validate_document(dataclasses.replace(doc, tokens=bad))

    def test_self_referential_head_is_rejected(self):
        doc = make_doc()
        bad = (tok(1, head=1),) + doc.tokens[1:]
        with pytest.raises(ValidationError, match=r"tokens\[0\]\.head"):
            validate_document(dataclasses.replace(doc, tokens=bad))

    def test_duplicate_mention_id_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention(), self.ok_mention(spans=((5, 5),), head_index=5)])
        with pytest.raises(ValidationError, match="duplicate mention id"):
            validate_document(doc)

    def test_span_outside_token_range_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention(spans=((9, 11),), head_index=9)])
        with pytest.raises(ValidationError, match=r"spans\[0\]"):
            validate_document(doc)

    def test_overlapping_spans_are_rejected(self):
        doc = make_doc(mentions=[self.ok_mention(spans=((2, 5), (4, 6)), head_index=2)])
        with pytest.raises(ValidationError, match="not sorted or overlapping"):
            validate_document(doc)

    def test_head_outside_spans_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention(head_index=7)])
        with pytest.raises(ValidationError, match=r"\.head_index"):
            validate_document(doc)

    def test_bad_infstat_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention(infstat="old")])
        with pytest.raises(ValidationError, match=r"\.infstat"):
            validate_document(doc)

    def test_link_to_unknown_mention_is_rejected(self):
        doc = make_doc(
            mentions=[self.ok_mention()],
            bridging=[BridgingLink("m1", ("ghost",))],
        )
        with pytest.raises(ValidationError, match="unknown mention 'ghost'"):
            validate_document(doc)

    def test_self_link_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention()], bridging=[BridgingLink("m1", ("m1",))])
        with pytest.raises(ValidationError, match="its own antecedent"):
            validate_document(doc)

    def test_empty_antecedent_list_is_rejected(self):
        doc = make_doc(mentions=[self.ok_mention()], bridging=[BridgingLink("m1", ())])
        with pytest.raises(ValidationError, match="empty antecedent list"):
            validate_document(doc)

    def three_mentions(self):
        return [
            self.ok_mention(id="m1", spans=((1, 1),), head_index=1),
            self.ok_mention(id="m2", spans=((3, 3),), head_index=3),
            self.ok_mention(id="m3", spans=((5, 5),), head_index=5),
        ]

    def test_repeated_antecedent_is_rejected(self):
        doc = make_doc(mentions=self.three_mentions(), bridging=[BridgingLink("m2", ("m1", "m1"))])
        with pytest.raises(ValidationError, match=r"bridging\[0\]\.antecedent_ids: repeated antecedent"):
            validate_document(doc)

    @pytest.mark.parametrize("second", [("m1",), ("m1", "m2")])
    def test_duplicate_link_is_rejected(self, second):
        first = BridgingLink("m3", second[::-1], subtype="part")
        doc = make_doc(mentions=self.three_mentions(), bridging=[first, BridgingLink("m3", second)])
        with pytest.raises(ValidationError, match=r"bridging\[1\]: duplicate link for anaphor 'm3'"):
            validate_document(doc)

    def test_split_and_single_links_sharing_a_pair_are_valid(self):
        doc = make_doc(
            mentions=self.three_mentions(),
            bridging=[BridgingLink("m3", ("m1", "m2")), BridgingLink("m3", ("m1",))],
        )
        validate_document(doc)
