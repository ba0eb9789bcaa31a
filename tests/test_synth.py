"""Guarantees of the synthetic corpus generators.

The experiment and acceptance tests rely on these corpora having exactly
the advertised structure, so the guarantees are pinned here.
"""
from __future__ import annotations

import hashlib
import importlib.util
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bridgekit.harmonize import ENTITY_MAPS, harmonize_corpus
from bridgekit.ingest import DIALECTS, emit_canonical, emit_standoff, parse_standoff
from bridgekit.model import UNRESOLVED, BridgingLink, Token, mention_start, validate_document
from bridgekit.pairgen import derive_definiteness, is_pronoun
from bridgekit.synth import (
    ARRAU_POOL,
    PLANTED_SHAPE,
    _DEPRELS,
    _FILLER_XPOS,
    _SUBTYPE_CYCLE,
    _WORDS,
    _random_tokens,
    balanced_sampling_corpus,
    planted_rule_corpus,
    random_corpus,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic_corpus.py"


def reference_random_tokens(rng: random.Random, n: int) -> tuple[Token, ...]:
    """The list-based token generator: each head is a choice from a list of
    the n heads other than the token itself, built for every token."""
    tokens = []
    for i in range(1, n + 1):
        head = 0 if i == 1 else rng.choice([h for h in range(0, n + 1) if h != i])
        xpos = rng.choice(_FILLER_XPOS + ("NN", "NNS", "NNP"))
        word = rng.choice(_WORDS)
        tokens.append(Token(
            index=i, form=word, lemma=word, xpos=xpos,
            number=rng.choice(("sing", "plur")), deprel=rng.choice(_DEPRELS), head=head,
        ))
    return tuple(tokens)


def reference_links(doc, distance_limit: int, single_link_per_anaphor: bool):
    """The planted rule's links by brute force: every earlier mention is
    tried as an antecedent of every definite chainless anaphor."""
    entity_map = ENTITY_MAPS[doc.schema]
    mentions = doc.mentions
    links = []
    for j, ana in enumerate(mentions):
        if ana.definiteness != "def" or ana.chain_id is not None:
            continue
        antes = [
            ante for ante in mentions[:j]
            if entity_map[ante.entity_type_original] == entity_map[ana.entity_type_original]
            and 0 < mention_start(ana) - mention_start(ante) < distance_limit
        ]
        if single_link_per_anaphor and antes:
            antes = antes[-1:]
        for ante in antes:
            subtype = _SUBTYPE_CYCLE[len(links) % len(_SUBTYPE_CYCLE)]
            links.append(BridgingLink(ana.id, (ante.id,), subtype))
    return tuple(links)


# sha256 of emit_canonical for documents of 1,277 tokens and 256 mentions,
# the size of the long-docs benchmark's documents
LONG_PLANTED_SHA256 = {
    (1, "gum_like"): "8b74f6191e6e18691e2eba5f78fb57ad72c3087871d705392ce6ab7a2169d3b5",
    (2, "gum_like"): "d4de2da4c6beaf721a946ff2688b15a219c1e605833271af335b505f330ab70f",
    (1, "arrau_like"): "c1c9bfe22d37c5f9a1160e6b8cc900b7fddbff0a720a440ef46b8e9995c2368d",
    (2, "arrau_like"): "85bc81eb5a54bdf0abf740470563ce585a0b9eab4ebd9028fa6f2bfafabf385b",
}

# sha256 of emit_canonical for the default-sized sampling and single-link
# planted corpora, the inputs of the pair-dataset and experiment tests
DEFAULT_CORPUS_SHA256 = {
    ("balanced", 9): "289ae5fdf99489740439f2ac7c0fcc3eedc1da537f0176e2fe292b3f6f1c2b6b",
    ("balanced", 10): "237ff69123626fbb830c960938285fbb6b76d912362d5f5fb36faee8cc6d0e14",
    ("planted", 42): "d1986fb4d54715009540c02fbaa7ca09c6a9f828dc3f3feea6ea39d4856a85f0",
    ("planted", 100): "32ed56e232ba66c3c06f5945aebd6ec31d48c8d15ba5a4a842ba55473cf5c6da",
}


class TestRandomStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    def test_tokens_and_final_state_match_the_list_draw(self, seed, n):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        assert _random_tokens(rng, n) == reference_random_tokens(reference_rng, n)
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        stride=st.integers(1, 7),
        distance_limit=st.integers(1, 60),
        single_link_per_anaphor=st.booleans(),
        n_chains=st.integers(0, 3),
        n_free=st.integers(1, 24),
        schema=st.sampled_from(["gum_like", "arrau_like"]),
    )
    def test_windowed_antecedent_scan_finds_every_link(
        self, seed, stride, distance_limit, single_link_per_anaphor, n_chains, n_free, schema
    ):
        docs = planted_rule_corpus(
            seed, n_docs=2, n_chains=n_chains, n_free=n_free, stride=stride,
            distance_limit=distance_limit, definite_prob=0.8,
            single_link_per_anaphor=single_link_per_anaphor, schema=schema,
        )
        for doc in docs:
            assert doc.bridging == reference_links(doc, distance_limit, single_link_per_anaphor)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("schema", ["gum_like", "arrau_like"])
    def test_long_planted_documents_keep_their_bytes(self, seed, schema):
        kwargs = {"schema": "arrau_like", "surface_definiteness": True} if schema == "arrau_like" else {}
        docs = planted_rule_corpus(seed, n_docs=2, n_chains=32, n_free=128, **kwargs)
        assert [len(doc.tokens) for doc in docs] == [1277, 1277]
        digest = hashlib.sha256(emit_canonical(docs)).hexdigest()
        assert digest == LONG_PLANTED_SHA256[seed, schema]

    @pytest.mark.parametrize("kind, seed", sorted(DEFAULT_CORPUS_SHA256))
    def test_default_corpora_keep_their_bytes(self, kind, seed):
        if kind == "balanced":
            docs = balanced_sampling_corpus(seed)
        else:
            docs = planted_rule_corpus(seed, single_link_per_anaphor=True)
        digest = hashlib.sha256(emit_canonical(docs)).hexdigest()
        assert digest == DEFAULT_CORPUS_SHA256[kind, seed]


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
        docs = planted_rule_corpus(
            3, n_docs=2, surface_definiteness=True,
            label_pool=("person", "concrete", "space"), schema="arrau_like",
        )
        reread = parse_standoff(b"".join(map(emit_standoff, docs)))
        for original, parsed in zip(docs, reread):
            assert all(m.definiteness == "none" for m in parsed.mentions)
            for m_orig, m_new in zip(original.mentions, parsed.mentions):
                assert derive_definiteness(parsed, m_new) == m_orig.definiteness


class TestPlantedShape:
    def test_each_dialect_has_one_shape(self):
        assert PLANTED_SHAPE.keys() == DIALECTS.keys()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), dialect=st.sampled_from(sorted(DIALECTS)))
    def test_each_dialect_reads_its_planted_rule_back(self, seed, dialect):
        # written in its dialect's shape and read back, a planted corpus
        # resolves every label, and the definiteness the features read is
        # the one the rule was planted with
        docs = planted_rule_corpus(seed, n_docs=2, **PLANTED_SHAPE[dialect])
        text = b"".join(map(DIALECTS[dialect].emit, docs))
        reread, report = harmonize_corpus(DIALECTS[dialect].read(text))
        assert report.unresolved_entity_types == []
        for planted, doc in zip(docs, reread, strict=True):
            assert doc.doc_id == planted.doc_id
            assert sorted(m.id for m in doc.mentions) == sorted(m.id for m in planted.mentions)
            for m in planted.mentions:
                read = doc.mention_by_id[m.id]
                assert read.entity_type_unified != UNRESOLVED
                assert derive_definiteness(doc, read) == m.definiteness


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


class TestMakeSyntheticCorpusScript:
    @pytest.fixture(scope="class")
    def script(self):
        spec = importlib.util.spec_from_file_location("make_synthetic_corpus", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("n_docs", ["-2", "0"])
    def test_n_docs_below_one_is_a_usage_error(self, script, tmp_path, capsys, n_docs):
        out = tmp_path / "sub" / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            script.main(["--kind", "random", "--n-docs", n_docs, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --n-docs: must be at least 1, got {n_docs}" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()

    @pytest.mark.parametrize(
        ("flag", "only_for"),
        [
            (["--flavor", "canonical"], "random"),
        ],
    )
    def test_a_flag_of_another_kind_is_a_usage_error(self, script, tmp_path, capsys, flag,
                                                     only_for):
        for kind in sorted({"random", "planted", "sampling"} - {only_for}):
            out = tmp_path / "sub" / "c.jsonl"
            with pytest.raises(SystemExit) as exc:
                script.main(["--kind", kind, *flag, "--out", str(out)])
            assert exc.value.code == 2
            assert f"{flag[0]} applies only to --kind {only_for}" in capsys.readouterr().err
            assert not out.exists() and not out.parent.exists()
        out = tmp_path / "ok.jsonl"
        assert script.main(["--kind", only_for, "--n-docs", "2", *flag, "--out", str(out)]) == 0

    def test_a_corpus_the_bracket_dialect_cannot_carry_is_a_usage_error(self, script, tmp_path,
                                                                        capsys):
        # random gives split antecedents and discontinuous mentions
        out = tmp_path / "sub" / "c.brk"
        with pytest.raises(SystemExit) as exc:
            script.main(["--kind", "random", "--dialect", "bracket", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == err[-1:]
        assert ": error: --dialect bracket: doc " in err[-1]
        assert not out.exists() and not out.parent.exists()

    def test_a_corpus_the_standoff_dialect_cannot_carry_is_a_usage_error(self, script, tmp_path,
                                                                         capsys, monkeypatch):
        doc = random_corpus(42, 1)[0]
        spaced = replace(doc, tokens=(replace(doc.tokens[0], form="New York"),) + doc.tokens[1:])
        monkeypatch.setattr(script, "build", lambda args: [spaced])
        out = tmp_path / "sub" / "c.sff"
        with pytest.raises(SystemExit) as exc:
            script.main(["--kind", "random", "--dialect", "standoff", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == err[-1:]
        assert err[-1].endswith(
            ": error: --dialect standoff: doc 'rand_canonical_1': token 1 form 'New York' "
            "not representable"
        )
        assert not out.exists() and not out.parent.exists()

    def test_one_document_is_written(self, script, tmp_path):
        out = tmp_path / "c.jsonl"
        assert script.main(["--kind", "random", "--n-docs", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == emit_canonical(random_corpus(42, 1))
