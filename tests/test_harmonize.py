"""Harmonization rules, entity-type unification, and the change report."""
from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from bridgekit.errors import ParseError, UnknownEntityTypeError, ValidationError
from bridgekit.harmonize import (
    ARRAU_ENTITY_MAP,
    ENTITY_MAPS,
    GUM_ENTITY_MAP,
    HarmonizeReport,
    VALID_SUBTYPES,
    format_report,
    harmonize_corpus,
    harmonize_document,
    read_exclusion_list,
    unify_entity_type,
)
from bridgekit.ingest import emit_canonical, read_documents
from bridgekit.model import (
    BridgingLink,
    Document,
    Mention,
    Token,
    UNIFIED_ENTITY_TYPES,
    UNRESOLVED,
    validate_document,
)
from bridgekit.synth import random_corpus


def build_doc(mentions, bridging=(), schema="arrau_like", n_tokens=30) -> Document:
    doc = Document(
        doc_id="d1",
        genre="test",
        schema=schema,
        tokens=tuple(
            Token(i, f"w{i}", f"w{i}", "NN", "sing", "dep", 0 if i == 1 else 1)
            for i in range(1, n_tokens + 1)
        ),
        mentions=tuple(mentions),
        bridging=tuple(bridging),
    )
    validate_document(doc)
    return doc


def men(mid, spans, etype="person", chain=None, **kw) -> Mention:
    return Mention(
        id=mid,
        spans=spans,
        head_index=spans[0][0],
        entity_type_original=etype,
        chain_id=chain,
        **kw,
    )


class TestEntityMaps:
    def test_first_inventory_covers_its_ten_labels(self):
        assert GUM_ENTITY_MAP == {
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

    def test_second_inventory_covers_its_fourteen_labels(self):
        assert ARRAU_ENTITY_MAP == {
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

    def test_every_image_is_a_unified_type(self):
        for mapping in ENTITY_MAPS.values():
            assert set(mapping.values()) <= set(UNIFIED_ENTITY_TYPES)

    def test_every_unified_type_is_reachable_from_each_inventory(self):
        assert set(GUM_ENTITY_MAP.values()) == set(UNIFIED_ENTITY_TYPES)
        assert set(ARRAU_ENTITY_MAP.values()) == set(UNIFIED_ENTITY_TYPES)

    def test_lookup_is_case_insensitive(self):
        assert unify_entity_type("gum_like", "Person") == "person"
        assert unify_entity_type("arrau_like", "UNDERSP-ONTO") == "abstract"

    def test_shared_labels_agree_so_canonical_uses_the_union(self):
        shared = set(GUM_ENTITY_MAP) & set(ARRAU_ENTITY_MAP)
        for label in shared:
            assert GUM_ENTITY_MAP[label] == ARRAU_ENTITY_MAP[label]
        assert ENTITY_MAPS["canonical"] == {**GUM_ENTITY_MAP, **ARRAU_ENTITY_MAP}

    def test_unknown_label_raises_with_schema_and_label(self):
        with pytest.raises(UnknownEntityTypeError, match="'vehicle' for schema 'gum_like'"):
            unify_entity_type("gum_like", "vehicle")
        # known only in the other inventory is still unknown here
        with pytest.raises(UnknownEntityTypeError):
            unify_entity_type("gum_like", "medicine")

    def test_unknown_schema_raises(self):
        with pytest.raises(ValidationError, match="unknown schema"):
            unify_entity_type("tabular", "person")


class TestFlattenDiscontinuous:
    def test_envelope_replaces_the_spans(self):
        doc = build_doc([men("m1", ((3, 5), (9, 9), (12, 14)))])
        out, report = harmonize_document(doc)
        assert report.flattened_discontinuous == 1 and report.merge_conflicts == []
        assert out.mention_by_id["m1"].spans == ((3, 14),)
        assert report.flattened_spans == {("d1", "m1"): ((3, 5), (9, 9), (12, 14))}

    def test_continuous_mentions_are_untouched(self):
        doc = build_doc([men("m1", ((3, 5),))])
        out, report = harmonize_document(doc)
        assert out.mention_by_id["m1"].spans == ((3, 5),)
        assert report.flattened_discontinuous == 0 and report.flattened_spans == {}

    def test_identical_envelopes_in_one_chain_report_a_merge_conflict(self):
        doc = build_doc(
            [
                men("m1", ((3, 3), (7, 7)), chain="c1"),
                men("m2", ((3, 5), (6, 7)), chain="c1"),
            ]
        )
        out, report = harmonize_document(doc)
        assert report.flattened_discontinuous == 2
        assert report.merge_conflicts == [("d1", "m1", "m2")]
        # both mentions survive; nothing is silently merged
        assert len(out.mentions) == 2

    def test_identical_envelopes_without_shared_chain_are_fine(self):
        doc = build_doc([men("m1", ((3, 3), (7, 7)), chain="c1"), men("m2", ((3, 5), (6, 7))) ])
        _, report = harmonize_document(doc)
        assert report.merge_conflicts == []


class TestDropRules:
    def test_split_antecedent_links_go(self):
        doc = build_doc(
            [men("m1", ((1, 1),)), men("m2", ((3, 3),)), men("m3", ((5, 5),))],
            [BridgingLink("m3", ("m1", "m2")), BridgingLink("m2", ("m1",))],
        )
        out, report = harmonize_document(doc)
        assert report.removed_split_antecedent == 1
        assert out.bridging == (BridgingLink("m2", ("m1",)),)

    def test_given_anaphor_links_go(self):
        doc = build_doc(
            [
                men("m1", ((1, 1),), chain="c1"),
                men("m2", ((3, 3),)),
                men("m3", ((5, 5),), chain="c1"),  # second chain member: given
            ],
            [BridgingLink("m3", ("m2",)), BridgingLink("m2", ("m1",))],
        )
        out, report = harmonize_document(doc)
        assert report.removed_given_anaphor == 1
        assert out.bridging == (BridgingLink("m2", ("m1",)),)

    def test_first_chain_member_keeps_its_link(self):
        doc = build_doc(
            [men("m1", ((1, 1),)), men("m2", ((3, 3),), chain="c1"), men("m3", ((5, 5),), chain="c1")],
            [BridgingLink("m2", ("m1",))],
        )
        out, report = harmonize_document(doc)
        assert report.removed_given_anaphor == 0 and len(out.bridging) == 1

    def test_a_link_two_rules_drop_counts_under_the_first(self):
        # m3 is given, and its first link also has split antecedents
        doc = build_doc(
            [
                men("m1", ((1, 1),), chain="c1"),
                men("m2", ((3, 3),)),
                men("m3", ((5, 5),), chain="c1"),
            ],
            [
                BridgingLink("m3", ("m1", "m2")),
                BridgingLink("m3", ("m2",)),
                BridgingLink("m2", ("m1",)),
            ],
        )
        out, report = harmonize_document(doc)
        assert out.bridging == (BridgingLink("m2", ("m1",)),)
        assert report.removed_split_antecedent == 1
        assert report.removed_given_anaphor == 1


class TestResolveEntityTypes:
    def test_resolution_counts_and_is_idempotent(self):
        doc = build_doc([men("m1", ((1, 1),), etype="space"), men("m2", ((3, 3),), etype="plan")])
        out, report = harmonize_document(doc)
        assert report.entity_type_remaps == 2 and report.unresolved_entity_types == []
        assert out.mention_by_id["m1"].entity_type_unified == "place"
        assert out.mention_by_id["m2"].entity_type_unified == "event"
        again, second = harmonize_document(out)
        assert again == out
        assert second.entity_type_remaps == 0 and second.unresolved_entity_types == []

    def test_unknown_labels_are_collected_not_fatal(self):
        doc = build_doc(
            [
                men("m1", ((1, 1),), etype="gadget"),
                men("m2", ((3, 3),), etype="person"),
                men("m3", ((5, 5),), etype="gadget"),
            ]
        )
        out, report = harmonize_document(doc)
        assert report.entity_type_remaps == 1
        assert report.unresolved_entity_types == ["gadget"]  # deduplicated, in first-seen order
        assert out.mention_by_id["m1"].entity_type_unified == UNRESOLVED


class TestSubtypes:
    def test_inventory_has_nine_members(self):
        assert VALID_SUBTYPES == {
            "poss", "poss-inv", "element", "element-inv", "subset", "subset-inv",
            "other", "other-inv", "undersp-rel",
        }

    def test_unmarked_links_pass_and_bad_labels_are_reported(self):
        doc = build_doc(
            [men("m1", ((1, 1),)), men("m2", ((3, 3),)), men("m3", ((5, 5),))],
            [
                BridgingLink("m2", ("m1",), None),
                BridgingLink("m3", ("m1",), "subset"),
                BridgingLink("m3", ("m2",), "part-of"),
            ],
        )
        _, report = harmonize_document(doc)
        assert [(d, link.subtype) for d, link in report.subtype_violations] == [("d1", "part-of")]


class TestHarmonizeDocument:
    def fixture_doc(self):
        return build_doc(
            [
                men("m1", ((1, 1), (3, 3))),  # discontinuous
                men("m2", ((5, 5),), chain="c1"),
                men("m3", ((7, 7),), chain="c1"),  # given
                men("m4", ((9, 9),), etype="mystery"),
                men("m5", ((11, 11),)),
            ],
            [
                BridgingLink("m3", ("m1",)),  # dropped: given anaphor
                BridgingLink("m4", ("m1", "m2")),  # dropped: split
                BridgingLink("m5", ("m2",), "made-up"),  # subtype violation
                BridgingLink("m1", ("m5",), "subset"),  # survives
            ],
        )

    def test_rule_order_and_report(self):
        out, report = harmonize_document(self.fixture_doc())
        assert report.flattened_discontinuous == 1
        assert report.removed_split_antecedent == 1
        assert report.removed_given_anaphor == 1
        assert report.entity_type_remaps == 4  # m4 stays unresolved
        assert report.unresolved_entity_types == ["mystery"]
        assert [link.subtype for _, link in report.subtype_violations] == ["made-up"]
        assert report.flattened_spans == {("d1", "m1"): ((1, 1), (3, 3))}
        assert {link.anaphor_id for link in out.bridging} == {"m5", "m1"}
        validate_document(out)

    def test_exclusions_run_before_everything_else(self):
        exclusions = frozenset({("d1", "m5"), ("other_doc", "m1")})
        out, report = harmonize_document(self.fixture_doc(), exclusions)
        assert report.excluded_links == 1
        assert report.subtype_violations == []  # the violating link was excluded
        assert {link.anaphor_id for link in out.bridging} == {"m1"}

    def test_harmonize_is_idempotent(self):
        out, _ = harmonize_document(self.fixture_doc())
        again, report = harmonize_document(out)
        assert again == out
        assert report.flattened_discontinuous == 0
        assert report.removed_split_antecedent == 0
        assert report.removed_given_anaphor == 0
        assert report.entity_type_remaps == 0

    def test_chain_type_conflicts_are_reported(self):
        doc = build_doc(
            [
                men("m1", ((1, 1),), etype="person", chain="c1"),
                men("m2", ((3, 3),), etype="abstract", chain="c1"),
                men("m3", ((5, 5),), etype="person", chain="c2"),
                men("m4", ((7, 7),), etype="person", chain="c2"),
            ]
        )
        _, report = harmonize_document(doc)
        assert report.chain_type_conflicts == [("d1", "c1")]

    def test_flattening_runs_before_the_givenness_check(self):
        # m2's short first span sorts before m1, but its envelope (2,9)
        # sorts after m1's (2,5), so flattening first makes m2 the chain's
        # second mention and its link is dropped.
        doc = build_doc(
            [men("m2", ((2, 2), (9, 9)), chain="c1"), men("m1", ((2, 5),), chain="c1"),
             men("m3", ((12, 12),))],
            [BridgingLink("m2", ("m3",))],
        )
        from bridgekit.model import is_given

        assert not is_given(doc, doc.mention_by_id["m2"])
        _, report = harmonize_document(doc)
        assert report.flattened_discontinuous == 1
        assert report.removed_given_anaphor == 1

    def test_caches_read_on_the_input_do_not_reach_the_output(self):
        # m2 comes first in chain c1 on its short first span (2,2), and
        # second once its envelope (2,9) sorts after m1's (2,5)
        def fresh():
            return build_doc(
                [men("m2", ((2, 2), (9, 9)), chain="c1"), men("m1", ((2, 5),), chain="c1"),
                 men("m3", ((12, 12),))],
                [BridgingLink("m2", ("m3",)), BridgingLink("m1", ("m3",))],
            )

        doc = fresh()
        assert doc.given_mention_ids == frozenset({"m1"})
        assert doc.mention_by_id["m2"].spans == ((2, 2), (9, 9))
        out, report = harmonize_document(doc)
        assert out.given_mention_ids == frozenset({"m2"})
        assert out.mention_by_id == {m.id: m for m in out.mentions}
        assert out.mention_by_id["m2"].spans == ((2, 9),)
        assert out.bridging == (BridgingLink("m1", ("m3",)),)
        fresh_out, fresh_report = harmonize_document(fresh())
        assert out == fresh_out
        assert report.to_dict() == fresh_report.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_corpora_harmonize_idempotently(self, seed):
        docs = random_corpus(seed, n_docs=3, flavor="canonical")
        once, _ = harmonize_corpus(docs)
        twice, report = harmonize_corpus(once)
        assert twice == once
        assert report.flattened_discontinuous == 0
        assert report.removed_split_antecedent == 0
        assert report.removed_given_anaphor == 0
        assert report.entity_type_remaps == 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(("gum_like", "arrau_like", "canonical")),
        st.frozensets(
            st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_harmonized_output_is_always_valid_and_link_free_of_dropped_shapes(
        self, seed, flavor, excluded
    ):
        # canonical output is written without a re-check, so whatever
        # harmonize returns must already be valid
        docs = random_corpus(seed, n_docs=3, flavor=flavor)
        exclusions = frozenset((f"rand_{flavor}_{d}", f"m{m}") for d, m in excluded)
        out, _ = harmonize_corpus(docs, exclusions)
        from bridgekit.model import is_given

        for doc in out:
            validate_document(doc)
            assert not any(m.discontinuous for m in doc.mentions)
            for link in doc.bridging:
                assert not link.split_antecedent
                assert not is_given(doc, doc.mention_by_id[link.anaphor_id])
                assert (doc.doc_id, link.anaphor_id) not in exclusions


class TestCorpusFixture:
    def test_fixture_counts(self, fixture_path):
        docs = read_documents(fixture_path)
        out, report = harmonize_corpus(docs)
        assert report.removed_split_antecedent == 3
        assert report.removed_given_anaphor == 2
        assert report.flattened_discontinuous == 4
        assert report.entity_type_remaps == 17
        assert report.unresolved_entity_types == []
        # every original span is auditable
        assert set(report.flattened_spans) == {
            ("fixdoc1", "m1"), ("fixdoc1", "m2"), ("fixdoc1", "m3"), ("fixdoc1", "m4")
        }
        surviving = [link for doc in out for link in doc.bridging]
        assert [link.anaphor_id for link in surviving] == ["m17"]


# sha256 of what `harmonize_bytes` writes for each flavor. Seed 3 gives
# flattened mentions, an envelope merge conflict, chain type conflicts,
# unknown labels and links that more than one rule drops; the rule fixture
# adds a subtype violation.
HARMONIZE_SHA256 = {
    "gum_like": "b95b0cfe71f4165988905ca9423cc485d7e29522c8bfcc48e7fb6f77dcdbd652",
    "arrau_like": "9c9c3e90febfd96aec83f8235bbfd25387a45e6dce9b61e52588d9480fe5dba9",
    "canonical": "bd5570730b8d4526cb39e7466bce49e67b88516398c2ccf839383af0fa874d7c",
}


def harmonize_bytes(flavor: str) -> tuple[bytes, list[HarmonizeReport]]:
    """The canonical output and the sorted-key report JSON of harmonizing a
    random corpus without and with exclusions, each harmonized once more."""
    docs = random_corpus(3, 60, flavor=flavor) + [TestHarmonizeDocument().fixture_doc()]
    exclusions = frozenset((doc.doc_id, f"m{k}") for doc in docs for k in (1, 4))
    data, reports = [], []
    for excluded in (frozenset(), exclusions):
        out, report = harmonize_corpus(docs, excluded)
        again, second = harmonize_corpus(out)
        for result, rep in ((out, report), (again, second)):
            data += [emit_canonical(result), json.dumps(rep.to_dict(), sort_keys=True).encode()]
        reports.append(report)
    return b"".join(data), reports


class TestGoldenBytes:
    @pytest.mark.parametrize("flavor", sorted(HARMONIZE_SHA256))
    def test_harmonized_bytes_match_golden_hashes(self, flavor):
        data, _ = harmonize_bytes(flavor)
        assert hashlib.sha256(data).hexdigest() == HARMONIZE_SHA256[flavor]

    def test_the_golden_corpora_exercise_every_rule(self):
        total = HarmonizeReport()
        for flavor in HARMONIZE_SHA256:
            for report in harmonize_bytes(flavor)[1]:
                total.merge(report)
        assert all(value for value in total.to_dict().values())


class TestReport:
    def test_merge_sums_counts_and_dedups_labels(self):
        a = HarmonizeReport(removed_split_antecedent=1, unresolved_entity_types=["x"])
        b = HarmonizeReport(removed_split_antecedent=2, unresolved_entity_types=["x", "y"])
        a.merge(b)
        assert a.removed_split_antecedent == 3
        assert a.unresolved_entity_types == ["x", "y"]

    def test_to_dict_is_json_serializable(self):
        _, report = harmonize_document(TestHarmonizeDocument().fixture_doc())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["flattened_discontinuous"] == 1
        assert payload["flattened_spans"] == {"d1/m1": [[1, 1], [3, 3]]}
        assert payload["subtype_violations"][0]["subtype"] == "made-up"

    def test_format_report_lists_every_rule(self):
        _, report = harmonize_document(TestHarmonizeDocument().fixture_doc())
        text = format_report(report)
        for fragment in (
            "excluded links",
            "flattened discontinuous mentions",
            "removed split-antecedent links",
            "removed given-anaphor links",
            "entity type remaps",
            "unresolved labels: mystery",
        ):
            assert fragment in text


class TestExclusionList:
    def test_read(self, tmp_path):
        path = tmp_path / "excl.tsv"
        path.write_text("doc1\tm3\n\ndoc2\tm7\n")
        assert read_exclusion_list(path) == frozenset({("doc1", "m3"), ("doc2", "m7")})

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_line_ends_are_read_as_in_text_mode(self, tmp_path, end):
        path = tmp_path / "excl.tsv"
        path.write_bytes(end.join([b"doc1\tm3", b"", b"doc2\tm7", b""]))
        assert read_exclusion_list(path) == frozenset({("doc1", "m3"), ("doc2", "m7")})

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_bytes_that_are_not_utf_8_name_their_line(self, tmp_path, end):
        path = tmp_path / "excl.tsv"
        path.write_bytes(end.join([b"doc1\tm3", b"", b"doc\xff2\tm7", b""]))
        with pytest.raises(ParseError, match="^line 3: not valid utf-8: invalid start byte$") as info:
            read_exclusion_list(path)
        assert info.value.line == 3

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "excl.tsv"
        path.write_text("doc1\tm3\njust-one-field\n")
        with pytest.raises(ParseError, match="line 2:"):
            read_exclusion_list(path)
