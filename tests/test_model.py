"""Document model invariants and validation error reporting."""
from __future__ import annotations

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from bridgekit.errors import ConfigError, ValidationError
from bridgekit.gbdt import (
    FeatureBlock,
    GbdtModel,
    HyperParams,
    Leaf,
    model_from_dict,
    model_to_dict,
)
from bridgekit.ingest import record_maker
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
from bridgekit.synth import planted_rule_corpus, random_corpus


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

    def test_entity_type_is_the_unified_type_once_resolved(self):
        m = Mention(id="m1", spans=((1, 1),), head_index=1, entity_type_original="space")
        assert m.entity_type == "space"
        assert dataclasses.replace(m, entity_type_unified="place").entity_type == "place"

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


def reference_is_given(doc: Document, mention: Mention) -> bool:
    """The per-call chain scan that the cached given set replaced."""
    if mention.chain_id is None:
        return False
    key = mention_order_key(doc, mention)
    return any(
        m.id != mention.id and mention_order_key(doc, m) < key
        for m in doc.mentions
        if m.chain_id == mention.chain_id
    )


class TestGivenMentionIds:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["canonical", "gum_like", "arrau_like", "planted"]),
    )
    def test_cached_given_set_matches_the_chain_scan(self, seed, kind):
        if kind == "planted":
            docs = planted_rule_corpus(seed, n_docs=2)
        else:
            docs = random_corpus(seed, 4, flavor=kind)
        for doc in docs:
            for m in doc.mentions:
                assert is_given(doc, m) == reference_is_given(doc, m)

    def test_a_later_listed_mention_with_a_shorter_span_comes_first(self):
        a = Mention(id="a", spans=((2, 5),), head_index=2, entity_type_original="x", chain_id="c")
        b = Mention(id="b", spans=((2, 3),), head_index=2, entity_type_original="x", chain_id="c")
        c = Mention(id="c", spans=((2, 3),), head_index=3, entity_type_original="x", chain_id="c")
        doc = make_doc(mentions=[a, b, c])
        # b precedes a on the shorter span and c on its list position
        assert doc.given_mention_ids == frozenset({"a", "c"})


class TestDocumentLookups:
    def test_lookup_tables(self):
        m1 = Mention(id="m1", spans=((1, 2),), head_index=1, entity_type_original="x", chain_id="c")
        m2 = Mention(id="m2", spans=((4, 4),), head_index=4, entity_type_original="x", chain_id="c")
        doc = make_doc(mentions=[m1, m2])
        assert doc.mention_by_id["m2"] is m2
        assert doc.mention_position == {"m1": 0, "m2": 1}


def men(id="m1", spans=((2, 3),), head_index=2, **kw) -> Mention:
    return Mention(id=id, spans=spans, head_index=head_index, entity_type_original="person", **kw)


def with_token(k: int, **kw) -> Document:
    """``make_doc()`` with fields of its k-th token (1-based) replaced."""
    doc = make_doc()
    tokens = list(doc.tokens)
    tokens[k - 1] = dataclasses.replace(tokens[k - 1], **kw)
    return dataclasses.replace(doc, tokens=tuple(tokens))


def three_mentions() -> list[Mention]:
    return [men("m1", ((1, 1),), 1), men("m2", ((3, 3),), 3), men("m3", ((5, 5),), 5)]


# Each row breaks exactly one check of validate_document (a mention without
# spans, or with start > end, cannot cover its head either, but those checks
# come first) and gives the exact str() of the ValidationError it raises.
INVALID_DOCUMENTS = [
    pytest.param(
        lambda: dataclasses.replace(make_doc(), schema="tabular"),
        "doc 'd1'.schema: unknown schema 'tabular'",
        id="schema",
    ),
    pytest.param(
        lambda: dataclasses.replace(make_doc(), doc_id="it's", schema="tabular"),
        "doc \"it's\".schema: unknown schema 'tabular'",
        id="doc-id-repr",
    ),
    pytest.param(
        lambda: with_token(5, index=6),
        "doc 'd1'.tokens[4].index: expected 5, got 6",
        id="token-index",
    ),
    pytest.param(
        lambda: with_token(3, number="dual"),
        "doc 'd1'.tokens[2].number: bad value 'dual'",
        id="token-number",
    ),
    pytest.param(
        lambda: with_token(1, head=1),
        "doc 'd1'.tokens[0].head: head 1 out of range or self-referential",
        id="token-head-self",
    ),
    pytest.param(
        lambda: with_token(4, head=11),
        "doc 'd1'.tokens[3].head: head 11 out of range or self-referential",
        id="token-head-above-range",
    ),
    pytest.param(
        lambda: with_token(4, head=-1),
        "doc 'd1'.tokens[3].head: head -1 out of range or self-referential",
        id="token-head-negative",
    ),
    pytest.param(
        lambda: make_doc([men(), men(spans=((5, 5),), head_index=5)]),
        "doc 'd1'.mentions[1].id: duplicate mention id 'm1'",
        id="mention-duplicate-id",
    ),
    pytest.param(
        lambda: make_doc([men(spans=())]),
        "doc 'd1'.mentions[0].spans: mention has no spans",
        id="mention-no-spans",
    ),
    pytest.param(
        lambda: make_doc([men(spans=((2, 3), (6, 4)))]),
        "doc 'd1'.mentions[0].spans[1]: start 6 > end 4",
        id="span-start-after-end",
    ),
    pytest.param(
        lambda: make_doc([men(spans=((9, 11),), head_index=9)]),
        "doc 'd1'.mentions[0].spans[0]: [9,11] outside tokens 1..10",
        id="span-after-last-token",
    ),
    pytest.param(
        lambda: make_doc([men(spans=((0, 2),), head_index=1)]),
        "doc 'd1'.mentions[0].spans[0]: [0,2] outside tokens 1..10",
        id="span-before-first-token",
    ),
    pytest.param(
        lambda: make_doc([men(spans=((2, 5), (4, 6)))]),
        "doc 'd1'.mentions[0].spans[1]: spans not sorted or overlapping",
        id="spans-overlapping",
    ),
    pytest.param(
        lambda: make_doc([men(spans=((6, 7), (2, 3)), head_index=6)]),
        "doc 'd1'.mentions[0].spans[1]: spans not sorted or overlapping",
        id="spans-unsorted",
    ),
    pytest.param(
        lambda: make_doc([men(head_index=7)]),
        "doc 'd1'.mentions[0].head_index: 7 not inside any span",
        id="head-index",
    ),
    pytest.param(
        lambda: make_doc([men(infstat="old")]),
        "doc 'd1'.mentions[0].infstat: bad value 'old'",
        id="infstat",
    ),
    pytest.param(
        lambda: make_doc([men(definiteness="maybe")]),
        "doc 'd1'.mentions[0].definiteness: bad value 'maybe'",
        id="definiteness",
    ),
    pytest.param(
        lambda: make_doc([men(entity_type_unified="Person")]),
        "doc 'd1'.mentions[0].entity_type_unified: bad value 'Person'",
        id="entity-type-unified",
    ),
    pytest.param(
        lambda: make_doc([men()], [BridgingLink("m1", ())]),
        "doc 'd1'.bridging[0].antecedent_ids: empty antecedent list",
        id="empty-antecedents",
    ),
    pytest.param(
        lambda: make_doc(three_mentions(), [BridgingLink("m2", ("m1", "m1"))]),
        "doc 'd1'.bridging[0].antecedent_ids: repeated antecedent",
        id="repeated-antecedent",
    ),
    pytest.param(
        lambda: make_doc(
            three_mentions(),
            [BridgingLink("m3", ("m1",), subtype="part"), BridgingLink("m3", ("m1",))],
        ),
        "doc 'd1'.bridging[1]: duplicate link for anaphor 'm3'",
        id="duplicate-link",
    ),
    pytest.param(
        lambda: make_doc(
            three_mentions(),
            [BridgingLink("m3", ("m2", "m1"), subtype="part"), BridgingLink("m3", ("m1", "m2"))],
        ),
        "doc 'd1'.bridging[1]: duplicate link for anaphor 'm3'",
        id="duplicate-split-link",
    ),
    pytest.param(
        lambda: make_doc(three_mentions(), [BridgingLink("ghost", ("m1",))]),
        "doc 'd1'.bridging[0].anaphor_id: unknown mention 'ghost'",
        id="unknown-anaphor",
    ),
    pytest.param(
        lambda: make_doc(three_mentions(), [BridgingLink("m3", ("m1", "ghost"))]),
        "doc 'd1'.bridging[0].antecedent_ids: unknown mention 'ghost'",
        id="unknown-antecedent",
    ),
    pytest.param(
        lambda: make_doc(three_mentions(), [BridgingLink("m3", ("m1", "m3"))]),
        "doc 'd1'.bridging[0].antecedent_ids: anaphor 'm3' listed as its own antecedent",
        id="self-antecedent",
    ),
]


class TestValidation:
    def test_valid_document_passes(self):
        validate_document(make_doc(mentions=[men()], bridging=[]))

    @pytest.mark.parametrize(("build", "message"), INVALID_DOCUMENTS)
    def test_each_breach_raises_its_exact_message(self, build, message):
        with pytest.raises(ValidationError) as info:
            validate_document(build())
        assert str(info.value) == message

    def test_split_and_single_links_sharing_a_pair_are_valid(self):
        doc = make_doc(
            mentions=three_mentions(),
            bridging=[BridgingLink("m3", ("m1", "m2")), BridgingLink("m3", ("m1",))],
        )
        validate_document(doc)

    @pytest.mark.parametrize(
        ("faults", "message"),
        [
            ({7: {"number": "dual"}, 3: {"head": 12}},
             "doc 'd1'.tokens[2].head: head 12 out of range or self-referential"),
            ({2: {"head": 2}, 9: {"index": 1}},
             "doc 'd1'.tokens[1].head: head 2 out of range or self-referential"),
            ({4: {"index": 9, "number": "dual", "head": -1}},
             "doc 'd1'.tokens[3].index: expected 4, got 9"),
            ({4: {"number": "dual", "head": -1}}, "doc 'd1'.tokens[3].number: bad value 'dual'"),
        ],
    )
    def test_the_first_token_fault_is_reported(self, faults, message):
        doc = make_doc()
        tokens = list(doc.tokens)
        for k, kw in faults.items():
            tokens[k - 1] = dataclasses.replace(tokens[k - 1], **kw)
        with pytest.raises(ValidationError) as info:
            validate_document(dataclasses.replace(doc, tokens=tuple(tokens)))
        assert str(info.value) == message

    def test_token_faults_are_reported_as_the_scalar_loop_finds_them(self):
        faulty = 0
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            tokens = [tok(i, head=rng.choice([h for h in range(n + 1) if h != i]))
                      for i in range(1, n + 1)]
            bad = {"index": [0, -1, n + 1, n + 5], "number": ["dual", "", "Sing"],
                   "head": [-1, n + 1, 10**6]}
            for _ in range(rng.randint(0, 4)):
                k = rng.randrange(n)
                field = rng.choice(sorted(bad))
                # a head may also point at its own token
                value = rng.choice(bad[field] + ([tokens[k].index] if field == "head" else []))
                tokens[k] = dataclasses.replace(tokens[k], **{field: value})
            doc = dataclasses.replace(make_doc(), tokens=tuple(tokens))
            expected = reference_token_fault(doc)
            try:
                validate_document(doc)
            except ValidationError as exc:
                assert str(exc) == expected, f"seed {seed}"
                faulty += 1
            else:
                assert expected is None, f"seed {seed}"
        # most documents carry a fault, and some carry none
        assert 250 < faulty < 400


def reference_token_fault(doc: Document) -> str | None:
    """The message of the first token fault of `doc`, token by token and,
    within a token, index before number before head; None if there is none."""
    n = len(doc.tokens)
    for i, t in enumerate(doc.tokens):
        if t.index != i + 1:
            return f"doc {doc.doc_id!r}.tokens[{i}].index: expected {i + 1}, got {t.index}"
        if t.number not in ("sing", "plur", "none"):
            return f"doc {doc.doc_id!r}.tokens[{i}].number: bad value {t.number!r}"
        if not 0 <= t.head <= n or t.head == t.index:
            return f"doc {doc.doc_id!r}.tokens[{i}].head: head {t.head} out of range or self-referential"
    return None


MAKERS = {cls: record_maker(cls) for cls in (Token, Mention, BridgingLink, Document)}


def field_values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def made_and_built(doc: Document) -> list[tuple[object, object, tuple]]:
    """(maker's record, constructor's record, field values) for each record
    of `doc` and for the document itself."""
    out = []
    for record in (*doc.tokens, *doc.mentions, *doc.bridging, doc):
        cls, values = type(record), field_values(record)
        out.append((MAKERS[cls](*values), cls(*values), values))
    return out


class TestRecordMakers:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["canonical", "gum_like", "arrau_like"]),
    )
    def test_a_made_record_equals_the_constructed_one(self, seed, flavor):
        for doc in random_corpus(seed, 2, flavor=flavor):
            records = made_and_built(doc)
            for made, built, values in records:
                assert type(made) is type(built)
                assert made == built
                assert hash(made) == hash(built)
                assert repr(made) == repr(built)
                assert all(a is b for a, b in zip(field_values(made), values))
                again = pickle.loads(pickle.dumps(made))
                assert again == built and field_values(again) == values
                assert dataclasses.replace(made) == built
            made_doc = records[-1][0]
            assert made_doc.mention_by_id == doc.mention_by_id
            assert made_doc.mention_position == doc.mention_position
            assert made_doc.given_mention_ids == doc.given_mention_ids

    def test_made_records_are_frozen_and_only_the_document_has_a_dict(self):
        (doc,) = random_corpus(5, 1, flavor="arrau_like")
        assert doc.tokens and doc.mentions and doc.bridging
        for made, _, _ in made_and_built(doc):
            name = dataclasses.fields(made)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, name, None)
            assert hasattr(made, "__dict__") == isinstance(made, Document)
        for cls in (Token, Mention, BridgingLink):
            assert "__slots__" in cls.__dict__

    def test_the_maker_takes_every_field_in_layout_order(self):
        make = MAKERS[BridgingLink]
        assert make("m2", ("m1",), None) == BridgingLink("m2", ("m1",))
        with pytest.raises(TypeError):
            make("m2", ("m1",))

    @pytest.mark.parametrize("cls", [HyperParams, FeatureBlock])
    def test_a_class_with_post_init_has_no_maker(self, cls):
        with pytest.raises(TypeError, match="__post_init__"):
            record_maker(cls)

    def test_a_model_file_still_checks_its_hyperparameters(self):
        model = GbdtModel(base_score=0.0, trees=(Leaf(0.5),), params=HyperParams(),
                          seed=0, n_features=1)
        obj = model_to_dict(model)
        assert model_from_dict(obj) == model
        obj["params"]["max_depth"] = 0
        with pytest.raises(ConfigError, match="max_depth must be >= 1"):
            model_from_dict(obj)
