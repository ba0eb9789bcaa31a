"""Guarantees of the synthetic corpus generators.

The experiment and acceptance tests rely on these corpora having exactly
the advertised structure, so the guarantees are pinned here.
"""
from __future__ import annotations

from collections import Counter

import pytest

from bridgekit.harmonize import ENTITY_MAPS, harmonize_corpus
from bridgekit.model import mention_start, validate_document
from bridgekit.pairgen import derive_definiteness, is_pronoun
from bridgekit.synth import (
    ARRAU_POOL,
    balanced_sampling_corpus,
    planted_rule_corpus,
    random_corpus,
    standoff_text,
)


class TestRandomCorpus:
    def test_seed_determinism(self):
        assert random_corpus(3, 4) == random_corpus(3, 4)
        assert random_corpus(3, 4) != random_corpus(4, 4)

    @pytest.mark.parametrize("flavor", ["gum_like", "arrau_like", "canonical"])
    def test_documents_are_valid_in_every_flavor(self, flavor):
        for doc in random_corpus(11, 6, flavor):
            validate_document(doc)
            assert doc.schema == flavor

    def test_gum_flavor_respects_the_bracket_dialect_limits(self):
        for doc in random_corpus(11, 8, "gum_like"):
            assert all(not m.discontinuous for m in doc.mentions)
            assert all(not link.split_antecedent for link in doc.bridging)
            anaphors = [link.anaphor_id for link in doc.bridging]
            assert len(anaphors) == len(set(anaphors))

    def test_arrau_flavor_leaves_surface_attributes_unannotated(self):
        docs = random_corpus(11, 8, "arrau_like")
        mentions = [m for doc in docs for m in doc.mentions]
        assert mentions
        assert all(m.infstat == "none" and m.definiteness == "none" for m in mentions)


class TestPlantedRuleCorpus:
    def rule_holds(self, doc, limit, ante, ana) -> bool:
        distance = mention_start(ana) - mention_start(ante)
        return (
            ana.definiteness == "def"
            and ana.chain_id is None
            and ante.entity_type_unified == ana.entity_type_unified
            and 0 < distance < limit
        )

    def test_bridging_links_realize_the_rule_exactly(self):
        limit = 40
        docs, _ = harmonize_corpus(planted_rule_corpus(7, n_docs=6, distance_limit=limit))
        total = 0
        for doc in docs:
            linked = {
                (ante, link.anaphor_id) for link in doc.bridging for ante in link.antecedent_ids
            }
            ordered = sorted(doc.mentions, key=mention_start)
            for i, ante in enumerate(ordered):
                for ana in ordered[i + 1:]:
                    expected = self.rule_holds(doc, limit, ante, ana)
                    assert ((ante.id, ana.id) in linked) == expected
            total += len(doc.bridging)
        assert total > 0

    def test_chain_members_never_bridge_and_chains_are_type_pure(self):
        docs, report = harmonize_corpus(planted_rule_corpus(42))
        assert report.chain_type_conflicts == []
        for doc in docs:
            anaphors = {link.anaphor_id for link in doc.bridging}
            for m in doc.mentions:
                if m.chain_id is not None:
                    assert m.id not in anaphors
                    assert m.definiteness == "ind"

    def test_single_link_mode_keeps_only_the_nearest_antecedent(self):
        docs = planted_rule_corpus(7, n_docs=4, single_link_per_anaphor=True)
        for doc in docs:
            seen = Counter(link.anaphor_id for link in doc.bridging)
            assert all(count == 1 for count in seen.values())
            for link in doc.bridging:
                ana = doc.mention_by_id[link.anaphor_id]
                ante = doc.mention_by_id[link.antecedent_ids[0]]
                # no closer same-type mention exists between them
                for other in doc.mentions:
                    if other.id in (ana.id, ante.id):
                        continue
                    if (
                        other.entity_type_original == ana.entity_type_original
                        and mention_start(ante) < mention_start(other) < mention_start(ana)
                    ):
                        raise AssertionError(f"{other.id} is closer to {ana.id} than {ante.id}")

    def test_seed_determinism(self):
        assert planted_rule_corpus(9, n_docs=3) == planted_rule_corpus(9, n_docs=3)
        assert planted_rule_corpus(9, n_docs=3) != planted_rule_corpus(10, n_docs=3)

    def test_alternate_schema_uses_that_schemas_labels(self):
        labels = ("person", "concrete", "space", "abstract", "plan")
        docs = planted_rule_corpus(3, n_docs=2, label_pool=labels, schema="arrau_like")
        arrau_map = ENTITY_MAPS["arrau_like"]
        for doc in docs:
            assert doc.schema == "arrau_like"
            for m in doc.mentions:
                assert m.entity_type_original in labels
                assert m.entity_type_original in arrau_map

    def test_arrau_schema_defaults_to_the_arrau_pool(self):
        # the gum-like labels do not all map under the arrau-like inventory
        kwargs = {"n_docs": 3, "schema": "arrau_like", "surface_definiteness": True}
        docs = planted_rule_corpus(5, **kwargs)
        assert docs == planted_rule_corpus(5, label_pool=ARRAU_POOL, **kwargs)
        assert {m.entity_type_original for d in docs for m in d.mentions} <= set(ARRAU_POOL)

    def test_surface_definiteness_marks_definite_mentions_lexically(self):
        docs = planted_rule_corpus(3, n_docs=2, surface_definiteness=True)
        found_def = False
        for doc in docs:
            for m in doc.mentions:
                lemma = doc.tokens[m.spans[0][0] - 1].lemma
                if m.definiteness == "def":
                    assert lemma == "the"
                    found_def = True
                else:
                    assert lemma != "the"
        assert found_def

    def test_surface_definiteness_survives_the_standoff_dialect(self):
        from bridgekit.ingest import parse_standoff

        docs = planted_rule_corpus(
            3, n_docs=2, surface_definiteness=True,
            label_pool=("person", "concrete", "space"), schema="arrau_like",
        )
        reread = parse_standoff(standoff_text(docs))
        for original, parsed in zip(docs, reread):
            assert all(m.definiteness == "none" for m in parsed.mentions)
            for m_orig, m_new in zip(original.mentions, parsed.mentions):
                assert derive_definiteness(parsed, m_new) == m_orig.definiteness


class TestBalancedSamplingCorpus:
    def test_exact_link_count_and_distances(self):
        docs = balanced_sampling_corpus(9)
        links = [(doc, link) for doc in docs for link in doc.bridging]
        assert len(links) == 50
        for doc, link in links:
            ana = doc.mention_by_id[link.anaphor_id]
            ante = doc.mention_by_id[link.antecedent_ids[0]]
            assert mention_start(ana) - mention_start(ante) == 10

    def test_pronoun_mentions_exist_in_a_chain(self):
        docs = balanced_sampling_corpus(9)
        for doc in docs:
            pronouns = [m for m in doc.mentions if is_pronoun(doc, m)]
            assert len(pronouns) == 3
            assert {m.chain_id for m in pronouns} == {f"c{doc.doc_id.split('_')[1]}_5"}

    def test_coref_and_none_pools_are_plentiful(self):
        from bridgekit.pairgen import build_balanced_dataset

        docs, _ = harmonize_corpus(balanced_sampling_corpus(9))
        ds = build_balanced_dataset(docs, seed=0)
        assert ds.label_counts() == {"bridging": 50, "coref": 50, "none": 50}
        assert ds.warnings == ()
