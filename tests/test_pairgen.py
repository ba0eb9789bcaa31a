"""Pair enumeration, linguistic features, and balanced dataset sampling."""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from bridgekit import pairgen
from bridgekit.errors import (
    EmptyDatasetError,
    ParseError,
    UndefinedDistanceError,
    ValidationError,
)
from bridgekit.harmonize import harmonize_corpus
from bridgekit.model import (
    BridgingLink,
    Document,
    Mention,
    Token,
    mention_start,
    validate_document,
)
from bridgekit.pairgen import (
    DEFAULT_PRONOUN_TAGS,
    FEATURE_NAMES,
    LABELS,
    FeatureVector,
    NUMERIC_FEATURES,
    PairDataset,
    PairExample,
    Provenance,
    build_balanced_dataset,
    bridging_rate_per_1k,
    dataset_from_jsonl,
    dataset_to_csv,
    dataset_to_jsonl,
    derive_definiteness,
    derive_infstat,
    enumerate_labeled_pairs,
    extract_features,
    is_pronoun,
    max_bridging_distance,
)
from bridgekit.synth import balanced_sampling_corpus, planted_rule_corpus, random_corpus


def make_tokens(specs):
    """specs: list of (form, lemma, xpos, number, deprel, head)."""
    return tuple(
        Token(i, form, lemma, xpos, number, deprel, head)
        for i, (form, lemma, xpos, number, deprel, head) in enumerate(specs, start=1)
    )


@pytest.fixture
def feature_doc():
    tokens = make_tokens(
        [
            ("The", "the", "DT", "none", "det", 2),
            ("engines", "engine", "NNS", "plur", "nsubj", 3),
            ("roared", "roar", "VBD", "none", "root", 0),
            ("a", "a", "DT", "none", "det", 5),
            ("pilot", "pilot", "NN", "sing", "obj", 3),
            ("waved", "wave", "VBD", "none", "conj", 3),
            ("she", "she", "PRP", "sing", "nsubj", 6),
        ]
    )
    mentions = (
        Mention(
            id="m1", spans=((1, 2),), head_index=2, entity_type_original="object",
            entity_type_unified="concrete", infstat="new", definiteness="def",
        ),
        Mention(
            id="m2", spans=((4, 5),), head_index=5, entity_type_original="person",
            entity_type_unified="person", infstat="none", definiteness="none",
        ),
        Mention(
            id="m3", spans=((7, 7),), head_index=7, entity_type_original="person",
            entity_type_unified="person", infstat="none", definiteness="none",
            chain_id="c1",
        ),
    )
    doc = Document(
        doc_id="feat", genre="t", schema="canonical", tokens=tokens,
        mentions=mentions, bridging=(BridgingLink("m2", ("m1",), "poss"),),
    )
    validate_document(doc)
    return doc


class TestDerivedAttributes:
    def test_annotated_definiteness_wins(self, feature_doc):
        assert derive_definiteness(feature_doc, feature_doc.mention_by_id["m1"]) == "def"

    def test_unannotated_definiteness_falls_back_to_surface_cues(self, feature_doc):
        # "a pilot" -> indefinite; pronoun-headed "she" -> definite
        assert derive_definiteness(feature_doc, feature_doc.mention_by_id["m2"]) == "ind"
        assert derive_definiteness(feature_doc, feature_doc.mention_by_id["m3"]) == "def"

    def test_definite_determiner_and_possessive_cues(self):
        tokens = make_tokens(
            [
                ("this", "this", "DT", "none", "det", 2),
                ("ship", "ship", "NN", "sing", "nsubj", 0),
                ("his", "his", "PRP$", "none", "nmod:poss", 4),
                ("anchor", "anchor", "NN", "sing", "obj", 2),
                ("Smith", "smith", "NNP", "sing", "appos", 2),
            ]
        )
        doc = Document(
            doc_id="d", genre="", schema="canonical", tokens=tokens,
            mentions=(
                Mention(id="a", spans=((1, 2),), head_index=2, entity_type_original="x"),
                Mention(id="b", spans=((3, 4),), head_index=4, entity_type_original="x"),
                Mention(id="c", spans=((5, 5),), head_index=5, entity_type_original="x"),
            ),
        )
        assert derive_definiteness(doc, doc.mention_by_id["a"]) == "def"  # "this"
        assert derive_definiteness(doc, doc.mention_by_id["b"]) == "def"  # possessive
        assert derive_definiteness(doc, doc.mention_by_id["c"]) == "def"  # proper noun

    def test_infstat_annotation_wins_else_chain_position_decides(self, feature_doc):
        assert derive_infstat(feature_doc, feature_doc.mention_by_id["m1"]) == "new"
        assert derive_infstat(feature_doc, feature_doc.mention_by_id["m2"]) == "new"
        first = Mention(
            id="m0", spans=((6, 6),), head_index=6, entity_type_original="person",
            chain_id="c1",
        )
        import dataclasses

        doc = dataclasses.replace(feature_doc, mentions=feature_doc.mentions + (first,))
        # m3 (token 7) now has an earlier chain mate at token 6
        assert derive_infstat(doc, doc.mention_by_id["m3"]) == "giv"

    def test_pronoun_detection_uses_the_head_token(self, feature_doc):
        assert is_pronoun(feature_doc, feature_doc.mention_by_id["m3"])
        assert not is_pronoun(feature_doc, feature_doc.mention_by_id["m2"])
        assert not is_pronoun(feature_doc, feature_doc.mention_by_id["m3"], frozenset({"WP"}))


class TestExtractFeatures:
    def test_all_sixteen_features(self, feature_doc):
        fv = extract_features(
            feature_doc, feature_doc.mention_by_id["m1"], feature_doc.mention_by_id["m2"]
        )
        assert fv == FeatureVector(
            t_entity_type="concrete",
            n_entity_type="person",
            t_definite="def",
            n_definite="ind",
            t_phrase_len=2,
            n_phrase_len=2,
            t_head_deprel="nsubj",
            n_head_deprel="obj",
            t_head_xpos="NNS",
            n_head_xpos="NN",
            t_head_lemma="engine",
            n_head_lemma="pilot",
            t_head_number="plur",
            n_head_number="sing",
            t_infstat="new",
            t_a_dist=3,
        )

    def test_feature_names_match_the_dataclass(self, feature_doc):
        fv = extract_features(
            feature_doc, feature_doc.mention_by_id["m1"], feature_doc.mention_by_id["m2"]
        )
        assert tuple(fv.__dataclass_fields__) == FEATURE_NAMES
        assert set(NUMERIC_FEATURES) <= set(FEATURE_NAMES)

    def test_anaphor_must_not_start_before_the_antecedent(self, feature_doc):
        with pytest.raises(ValidationError, match="does not precede"):
            extract_features(
                feature_doc, feature_doc.mention_by_id["m2"], feature_doc.mention_by_id["m1"]
            )

    def test_distance_zero_pairs_are_allowed_in_extraction(self, feature_doc):
        import dataclasses

        nested = Mention(
            id="m9", spans=((1, 1),), head_index=1, entity_type_original="x",
        )
        doc = dataclasses.replace(feature_doc, mentions=feature_doc.mentions + (nested,))
        fv = extract_features(doc, doc.mention_by_id["m1"], doc.mention_by_id["m9"])
        assert fv.t_a_dist == 0


class TestEnumerateLabeledPairs:
    def test_labels_and_ordering(self, feature_doc):
        pairs = enumerate_labeled_pairs(feature_doc)
        by_ids = {(ante.id, ana.id): label for ante, ana, label in pairs}
        assert by_ids == {
            ("m1", "m2"): "bridging",
            ("m1", "m3"): "none",
            ("m2", "m3"): "none",
        }

    def test_coref_label_requires_a_shared_chain(self):
        tokens = make_tokens([("a", "a", "NN", "sing", "dep", 0)] * 6)
        tokens = tuple(Token(i, t.form, t.lemma, t.xpos, t.number, t.deprel, 0 if i == 1 else 1) for i, t in enumerate(tokens, 1))
        doc = Document(
            doc_id="d", genre="", schema="canonical", tokens=tokens,
            mentions=(
                Mention(id="x", spans=((1, 1),), head_index=1, entity_type_original="t", chain_id="c9"),
                Mention(id="y", spans=((3, 3),), head_index=3, entity_type_original="t", chain_id="c9"),
                Mention(id="z", spans=((5, 5),), head_index=5, entity_type_original="t", chain_id="c2"),
            ),
        )
        labels = {(ante.id, ana.id): label for ante, ana, label in enumerate_labeled_pairs(doc)}
        assert labels == {("x", "y"): "coref", ("x", "z"): "none", ("y", "z"): "none"}

    def test_bridging_label_wins_over_coref(self):
        tokens = make_tokens([("a", "a", "NN", "sing", "dep", 0), ("b", "b", "NN", "sing", "dep", 1)])
        doc = Document(
            doc_id="d", genre="", schema="canonical", tokens=tokens,
            mentions=(
                Mention(id="x", spans=((1, 1),), head_index=1, entity_type_original="t", chain_id="c"),
                Mention(id="y", spans=((2, 2),), head_index=2, entity_type_original="t", chain_id="c"),
            ),
            bridging=(BridgingLink("y", ("x",)),),
        )
        ((_, _, label),) = enumerate_labeled_pairs(doc)
        assert label == "bridging"

    def test_equal_start_pairs_are_skipped(self, feature_doc):
        import dataclasses

        nested = Mention(id="m9", spans=((1, 1),), head_index=1, entity_type_original="x")
        doc = dataclasses.replace(feature_doc, mentions=feature_doc.mentions + (nested,))
        pairs = enumerate_labeled_pairs(doc)
        assert not any({ante.id, ana.id} == {"m1", "m9"} for ante, ana, _ in pairs)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
        st.integers(min_value=-20, max_value=-1),
        st.integers(min_value=1, max_value=12),
    )
    def test_a_distance_bound_filters_the_unbounded_list_in_order(
        self, seed, planted, negative, small
    ):
        docs = planted_rule_corpus(seed, n_docs=2) if planted else random_corpus(seed, 4)
        for doc in docs:
            unbounded = enumerate_labeled_pairs(doc)
            for bound in (negative, 0, small, len(doc.tokens)):
                assert enumerate_labeled_pairs(doc, bound) == [
                    (ante, ana, label) for ante, ana, label in unbounded
                    if mention_start(ana) - mention_start(ante) <= bound
                ]


class TestMaxBridgingDistance:
    def test_cap_is_the_longest_attested_link(self, sampling_docs):
        assert max_bridging_distance(sampling_docs) == 10

    def test_no_links_means_no_cap(self, feature_doc):
        import dataclasses

        with pytest.raises(UndefinedDistanceError):
            max_bridging_distance([dataclasses.replace(feature_doc, bridging=())])


class TestBalancedDataset:
    def test_exact_balance_on_the_sampling_corpus(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7, corpus="bal", partition="all")
        assert ds.label_counts() == {"bridging": 50, "coref": 50, "none": 50}
        assert ds.warnings == ()
        assert ds.provenance.max_distance == 10

    def test_every_bridging_pair_is_kept_exactly_once(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7)
        got = {(ex.doc_id, ex.antecedent_id, ex.anaphor_id) for ex in ds.examples if ex.label == "bridging"}
        expected = {
            (doc.doc_id, ante, link.anaphor_id)
            for doc in sampling_docs
            for link in doc.bridging
            for ante in link.antecedent_ids
        }
        assert got == expected

    def test_negative_pairs_respect_the_distance_cap_and_pronoun_filter(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7)
        docs = {d.doc_id: d for d in sampling_docs}
        for ex in ds.examples:
            if ex.label == "bridging":
                continue
            assert ex.features.t_a_dist <= ds.provenance.max_distance
            doc = docs[ex.doc_id]
            assert not is_pronoun(doc, doc.mention_by_id[ex.anaphor_id])

    def test_bridging_pairs_are_exempt_from_the_pronoun_filter(self, sampling_docs):
        import dataclasses

        # m14 is pronoun-headed; a bridging link to it must still be kept
        doc = sampling_docs[0]
        link = BridgingLink("m14", ("m10",))  # distance 8, under the cap
        patched = [dataclasses.replace(doc, bridging=doc.bridging + (link,))] + list(sampling_docs[1:])
        ds = build_balanced_dataset(patched, seed=7)
        assert is_pronoun(doc, doc.mention_by_id["m14"])
        kept = [
            ex for ex in ds.examples
            if ex.label == "bridging" and ex.anaphor_id == "m14" and ex.doc_id == doc.doc_id
        ]
        assert len(kept) == 1

    def test_the_distance_cap_follows_the_longest_attested_link(self, sampling_docs):
        import dataclasses

        doc = sampling_docs[0]
        long_link = BridgingLink("m30", ("m1",))
        patched = [dataclasses.replace(doc, bridging=doc.bridging + (long_link,))] + list(sampling_docs[1:])
        ds = build_balanced_dataset(patched, seed=7)
        assert ds.provenance.max_distance == 58
        kept = [
            ex for ex in ds.examples
            if ex.label == "bridging" and ex.anaphor_id == "m30" and ex.doc_id == doc.doc_id
        ]
        assert len(kept) == 1
        assert kept[0].features.t_a_dist == 58

    @pytest.mark.parametrize(
        "make_corpus, seed, digest",
        [
            (lambda: balanced_sampling_corpus(9), 0,
             "2bfa1ce7b82a612949d2ea15e8cad14f7f34dfce1b7176aa36b75f5d9debf00a"),
            (lambda: balanced_sampling_corpus(9), 7,
             "a5f40b7a1c339b1af7af45ca8a94851f2666365a37f0ee4a8df259a133803956"),
            (lambda: random_corpus(5, 60), 0,
             "156a7c3ec8437aca036a0ac54df4717174ef1162751ef98bbf90cbe7b430e4d1"),
            (lambda: random_corpus(5, 60), 7,
             "d2f9262dbedb95bd20b2f36d283a0e57bd2c3eb772749b41d444f76d8d1d1223"),
            (lambda: random_corpus(6, 60, flavor="arrau_like"), 0,
             "a3d69c8c4707dcac6c92360cbfdc8c53e6ecf20cb5683fc68e2eec9d40a5ee82"),
            (lambda: random_corpus(6, 60, flavor="arrau_like"), 7,
             "994e1f7cc3f28761c285f533f7b51fda765d68cbe65e7dd25464c3da4da58bf2"),
            # the long-docs benchmark shape: 1,277 tokens a document, cap 35
            (lambda: planted_rule_corpus(11, n_docs=3, n_chains=32, n_free=128), 0,
             "392eaf2f218c417e23fef9b2c386049a983f3d1cb2ea88345898a0fa8b7a328e"),
        ],
        ids=["balanced-0", "balanced-7", "random-0", "random-7", "arrau-0", "arrau-7",
             "long-0"],
    )
    def test_dataset_bytes_match_golden_hashes(self, make_corpus, seed, digest):
        # Together the cases cover the pronoun filter, the distance cap (far
        # below the document length in long-0), short-pool warnings,
        # split-antecedent links dropped by harmonize and chain-derived infstat.
        docs, _ = harmonize_corpus(make_corpus())
        data = dataset_to_jsonl(build_balanced_dataset(docs, seed))
        assert hashlib.sha256(data).hexdigest() == digest

    def test_features_are_extracted_for_kept_pairs_only(self, sampling_docs, monkeypatch):
        calls = []

        def counting(doc, ante, ana):
            calls.append((doc.doc_id, ante.id, ana.id))
            return extract_features(doc, ante, ana)

        monkeypatch.setattr(pairgen, "extract_features", counting)
        ds = build_balanced_dataset(sampling_docs, seed=7)
        assert len(calls) == len(ds.examples)
        assert calls == [(ex.doc_id, ex.antecedent_id, ex.anaphor_id) for ex in ds.examples]

    def test_shortage_is_taken_whole_with_a_warning(self):
        docs = planted_rule_corpus(5, n_docs=2, n_chains=1, chain_size=2, n_free=10)
        ds = build_balanced_dataset(docs, seed=1)
        counts = ds.label_counts()
        assert counts["coref"] < counts["bridging"]
        assert len(ds.warnings) == 1
        assert "coref candidates" in ds.warnings[0]

    def test_no_bridging_pairs_is_an_error(self, feature_doc):
        import dataclasses

        lone = dataclasses.replace(
            feature_doc,
            bridging=(),
            mentions=feature_doc.mentions,
        )
        with pytest.raises(UndefinedDistanceError):
            build_balanced_dataset([lone], seed=1)

    def test_same_seed_same_dataset_different_seed_different_sample(self, sampling_docs):
        a = build_balanced_dataset(sampling_docs, seed=7)
        b = build_balanced_dataset(sampling_docs, seed=7)
        c = build_balanced_dataset(sampling_docs, seed=8)
        assert a.examples == b.examples
        assert a.examples != c.examples  # astronomically unlikely to collide
        # bridging block identical across seeds; only negatives move
        key = lambda ex: (ex.doc_id, ex.antecedent_id, ex.anaphor_id)
        assert [key(e) for e in a.examples if e.label == "bridging"] == [
            key(e) for e in c.examples if e.label == "bridging"
        ]

    def test_document_list_order_does_not_change_the_pair_set(self, sampling_docs):
        a = build_balanced_dataset(sampling_docs, seed=7)
        b = build_balanced_dataset(list(reversed(sampling_docs)), seed=7)
        assert a.examples == b.examples

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_balance_invariants_on_random_planted_corpora(self, seed):
        docs, _ = harmonize_corpus(planted_rule_corpus(seed, n_docs=4))
        ds = build_balanced_dataset(docs, seed=seed)
        counts = ds.label_counts()
        n_links = sum(len(d.bridging) for d in docs)
        assert counts["bridging"] == n_links
        assert counts["coref"] <= n_links and counts["none"] <= n_links
        if not ds.warnings:
            assert counts["coref"] == counts["none"] == n_links
        # no duplicate pairs anywhere
        keys = [(e.doc_id, e.antecedent_id, e.anaphor_id, e.label) for e in ds.examples]
        assert len(keys) == len(set(keys))


class TestRate:
    def test_rate_per_1k_tokens(self, sampling_docs):
        tokens = sum(len(d.tokens) for d in sampling_docs)
        assert bridging_rate_per_1k(sampling_docs) == pytest.approx(1000.0 * 50 / tokens)

    def test_zero_tokens_is_an_error(self):
        doc = Document(doc_id="d", genre="", schema="canonical")
        with pytest.raises(EmptyDatasetError):
            bridging_rate_per_1k([doc])


def reference_dataset_to_jsonl(dataset: PairDataset) -> bytes:
    """The writer that `dataset_to_jsonl` must match byte for byte: one
    `json.dumps` of a built dict per line."""
    header = {
        "provenance": asdict(dataset.provenance),
        "warnings": list(dataset.warnings),
        "n_examples": len(dataset.examples),
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":"))]
    for ex in dataset.examples:
        lines.append(
            json.dumps(
                {
                    "doc_id": ex.doc_id,
                    "antecedent_id": ex.antecedent_id,
                    "anaphor_id": ex.anaphor_id,
                    "features": vars(ex.features),
                    "label": ex.label,
                },
                sort_keys=True,
                ensure_ascii=False,
                separators=(",", ":"),
            )
        )
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def reference_dataset_from_jsonl(data: bytes | str) -> PairDataset:
    """The hand-written reader the generated one replaced: on valid files
    the two must read the same dataset."""
    feature_types = {f.name: int if f.type == "int" else str for f in fields(FeatureVector)}
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise EmptyDatasetError("empty dataset file")
    header = json.loads(lines[0])
    if "provenance" not in header:
        raise ValidationError("first line must be the provenance header")
    examples = []
    for i, line in enumerate(lines[1:]):
        obj = json.loads(line)
        if obj["label"] not in LABELS:
            raise ValidationError(f"example {i}: unknown label {obj['label']!r}")
        features = obj["features"]
        wrong = [k for k, kind in feature_types.items() if type(features.get(k)) is not kind]
        if wrong:
            raise ValidationError(f"example {i}: missing or mistyped features {wrong}")
        examples.append(
            PairExample(
                doc_id=obj["doc_id"],
                antecedent_id=obj["antecedent_id"],
                anaphor_id=obj["anaphor_id"],
                features=FeatureVector(**features),
                label=obj["label"],
            )
        )
    if header.get("n_examples") not in (None, len(examples)):
        raise ValidationError(
            f"header declares {header['n_examples']} examples, found {len(examples)}"
        )
    return PairDataset(
        examples=tuple(examples),
        provenance=Provenance(**header["provenance"]),
        warnings=tuple(header.get("warnings", ())),
    )


# Strings JSON must escape or that are easy to mis-encode: quotes,
# backslashes, C0 controls and DEL, the JavaScript line separators, and
# characters outside the Basic Multilingual Plane.
_TEXT = st.text(
    st.sampled_from(['"', "\\", "/", "a", "Z", "\u00e9", "\u2028", "\u2029", "\x7f",
                     "\U0001f600", "\U00010000"])
    | st.characters(max_codepoint=0x1F),
    max_size=6,
)
_EXAMPLES = st.builds(
    PairExample,
    doc_id=_TEXT,
    antecedent_id=_TEXT,
    anaphor_id=_TEXT,
    features=st.builds(FeatureVector, **{
        name: st.integers(min_value=0, max_value=10**12) if name in NUMERIC_FEATURES else _TEXT
        for name in FEATURE_NAMES
    }),
    label=st.sampled_from(LABELS),
)


class TestSerialization:
    def test_jsonl_round_trip(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7, corpus="bal", partition="all")
        data = dataset_to_jsonl(ds)
        assert dataset_from_jsonl(data) == ds
        header = json.loads(data.decode().splitlines()[0])
        assert header["n_examples"] == 150
        assert header["provenance"]["max_distance"] == 10

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EXAMPLES, max_size=3), st.lists(_TEXT, max_size=2), _TEXT)
    def test_writer_matches_json_dumps_of_the_example_dicts(self, examples, warnings, corpus):
        ds = PairDataset(tuple(examples), Provenance(corpus, "train", 3, 10), tuple(warnings))
        data = dataset_to_jsonl(ds)
        assert data == reference_dataset_to_jsonl(ds)
        assert dataset_from_jsonl(data) == ds

    def test_jsonl_rejects_bad_header_or_count(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7)
        lines = dataset_to_jsonl(ds).decode().splitlines()
        with pytest.raises(ValidationError, match="provenance header"):
            dataset_from_jsonl("\n".join(lines[1:]))
        with pytest.raises(ValidationError, match="declares"):
            dataset_from_jsonl("\n".join(lines[:-1]))
        example = json.loads(lines[1])
        example["label"] = "maybe"
        with pytest.raises(ValidationError, match="example 0: unknown label 'maybe'"):
            dataset_from_jsonl("\n".join([lines[0], json.dumps(example)] + lines[2:]))
        example = json.loads(lines[1])
        example["features"]["t_a_dist"] = "far"
        with pytest.raises(ValidationError,
                           match=r"^example\[0\]\.features\.t_a_dist: expected an integer$"):
            dataset_from_jsonl("\n".join([lines[0], json.dumps(example)] + lines[2:]))
        with pytest.raises(EmptyDatasetError):
            dataset_from_jsonl("\n\n")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EXAMPLES, max_size=3), st.lists(_TEXT, max_size=2), _TEXT,
           st.integers(min_value=0, max_value=10**12))
    def test_reader_matches_the_hand_written_reader_on_valid_files(
        self, examples, warnings, corpus, seed
    ):
        ds = PairDataset(tuple(examples), Provenance(corpus, "dev", seed, 7), tuple(warnings))
        data = dataset_to_jsonl(ds)
        assert dataset_from_jsonl(data) == reference_dataset_from_jsonl(data) == ds

    @pytest.mark.parametrize(
        ("line", "edit", "message"),
        [
            # an integer doc_id was copied into analyze's confident errors
            (1, lambda obj: obj.update(doc_id=5), r"^example\[0\]\.doc_id: expected a string$"),
            # a string of warnings read as one warning per character
            (0, lambda obj: obj.update(warnings="abc"),
             r"^header\.warnings: expected a list of strings$"),
            (0, lambda obj: obj["provenance"].update(seed="7"),
             r"^header\.provenance\.seed: expected an integer$"),
            (0, lambda obj: obj["provenance"].pop("corpus"),
             r"^header\.provenance: missing keys \['corpus'\]$"),
            # these raised TypeError or KeyError
            (2, lambda obj: obj.clear(), r"^example\[1\]: missing keys \['anaphor_id', "),
            (1, lambda obj: obj["features"].update(extra=1),
             r"^example\[0\]\.features: unexpected keys \['extra'\]$"),
            (1, lambda obj: obj["features"].pop("t_a_dist"),
             r"^example\[0\]\.features: missing keys \['t_a_dist'\]$"),
        ],
    )
    def test_each_field_of_the_file_is_checked_naming_its_path(
        self, sampling_docs, line, edit, message
    ):
        lines = dataset_to_jsonl(build_balanced_dataset(sampling_docs, seed=7)).decode().splitlines()
        obj = json.loads(lines[line])
        edit(obj)
        lines[line] = json.dumps(obj)
        with pytest.raises(ValidationError, match=message):
            dataset_from_jsonl("\n".join(lines))

    def test_an_example_that_is_not_an_object_is_a_validation_error(self, sampling_docs):
        lines = dataset_to_jsonl(build_balanced_dataset(sampling_docs, seed=7)).decode().splitlines()
        lines[1] = "[]"
        with pytest.raises(ValidationError, match=r"^example\[0\]: expected an object$"):
            dataset_from_jsonl("\n".join(lines))

    @pytest.mark.parametrize(
        ("broken", "message"),
        [("{broken", "invalid JSON: Expecting property name"),
         ("[" * 100_000, "invalid JSON: nested too deeply"),
         pytest.param('{"n_examples": ' + "1" * 5000 + "}",
                      "invalid JSON: an integer has too many digits", id="too many digits")],
    )
    def test_invalid_json_names_the_file_line(self, sampling_docs, broken, message):
        lines = dataset_to_jsonl(build_balanced_dataset(sampling_docs, seed=7)).decode().splitlines()
        # a blank line before it still counts
        lines[3:5] = ["", broken]
        with pytest.raises(ParseError, match=f"^line 5: {message}") as info:
            dataset_from_jsonl("\n".join(lines))
        assert info.value.line == 5

    def test_bytes_that_are_not_utf_8_name_their_line(self, sampling_docs):
        lines = dataset_to_jsonl(build_balanced_dataset(sampling_docs, seed=7)).split(b"\n")
        lines[4] = lines[4].replace(b"{", b"{\xff", 1)
        with pytest.raises(ParseError, match="^line 5: not valid utf-8: invalid start byte$") as info:
            dataset_from_jsonl(b"\n".join(lines))
        assert info.value.line == 5
        with pytest.raises(ParseError, match="^line 1: not valid utf-8: "):
            dataset_from_jsonl(b"\xff\n")

    def test_csv_has_one_column_per_feature(self, sampling_docs):
        ds = build_balanced_dataset(sampling_docs, seed=7)
        rows = list(csv.reader(io.StringIO(dataset_to_csv(ds))))
        assert rows[0] == ["doc_id", "antecedent_id", "anaphor_id", *FEATURE_NAMES, "label"]
        assert len(rows) == 151
        dist_col = rows[0].index("t_a_dist")
        label_col = rows[0].index("label")
        for row in rows[1:]:
            if row[label_col] != "bridging":
                assert int(row[dist_col]) <= 10
