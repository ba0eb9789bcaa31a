"""Contingency residuals, distribution tables, and confident-error mining."""
from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from bridgekit.errors import ConfigError, DegenerateTableError, EmptyDatasetError
from bridgekit.model import BridgingLink, Document, Mention, Token, validate_document
from bridgekit.pairgen import FeatureVector, PairDataset, PairExample, Provenance
from bridgekit.stats import (
    COL_LABELS,
    ConfidentError,
    ContingencyTable2x2,
    ROW_LABELS,
    anaphor_entity_distribution,
    chi_square_residuals,
    confident_errors,
    definiteness_contingency,
    definiteness_contingency_corpus,
    entity_pair_distribution,
    subtype_distribution,
)


def pair(i, label, n_definite="def"):
    fv = FeatureVector(
        t_entity_type="person", n_entity_type="place", t_definite="def",
        n_definite=n_definite, t_phrase_len=1, n_phrase_len=1,
        t_head_deprel="nsubj", n_head_deprel="obj", t_head_xpos="NN",
        n_head_xpos="NN", t_head_lemma="a", n_head_lemma="b",
        t_head_number="sing", n_head_number="sing", t_infstat="new", t_a_dist=2,
    )
    return PairExample("d", f"t{i}", f"n{i}", fv, label)


def dataset(examples):
    return PairDataset(tuple(examples), Provenance("c", "p", 0, 10))


class TestDefinitenessContingency:
    def test_counts_anaphor_definiteness_against_bridging(self):
        ds = dataset(
            [pair(0, "bridging", "def"), pair(1, "bridging", "def"), pair(2, "bridging", "ind")]
            + [pair(3, "coref", "def"), pair(4, "none", "ind"), pair(5, "none", "ind")]
        )
        table = definiteness_contingency(ds)
        assert ROW_LABELS == ("def", "ind") and COL_LABELS == ("bridge", "non-bridge")
        assert table.counts == ((2, 1), (1, 2))

    def test_unresolvable_definiteness_is_excluded(self):
        ds = dataset([pair(0, "bridging", "def"), pair(1, "none", "none"), pair(2, "none", "ind")])
        table = definiteness_contingency(ds)
        assert table.counts == ((1, 0), (0, 1))

    def test_all_excluded_is_an_error(self):
        with pytest.raises(EmptyDatasetError):
            definiteness_contingency(dataset([pair(0, "bridging", "none")]))

    def test_corpus_level_counts_every_mention_once(self):
        tokens = tuple(
            Token(i, w, w, x, "sing", "dep", 0 if i == 1 else 1)
            for i, (w, x) in enumerate(
                [("the", "DT"), ("ship", "NN"), ("a", "DT"), ("sail", "NN"), ("rope", "NN")],
                start=1,
            )
        )
        doc = Document(
            doc_id="d", genre="", schema="canonical", tokens=tokens,
            mentions=(
                Mention(id="m1", spans=((1, 2),), head_index=2, entity_type_original="x"),  # def
                Mention(id="m2", spans=((3, 4),), head_index=4, entity_type_original="x"),  # ind
                Mention(id="m3", spans=((5, 5),), head_index=5, entity_type_original="x"),  # ind
            ),
            bridging=(BridgingLink("m2", ("m1",)),),
        )
        validate_document(doc)
        table = definiteness_contingency_corpus([doc])
        # m1 def non-bridge, m2 ind bridge-anaphor, m3 ind non-bridge
        assert table.counts == ((0, 1), (1, 1))


class TestChiSquareResiduals:
    def test_balanced_association_gives_symmetric_residuals(self):
        table = ContingencyTable2x2(((40, 10), (10, 40)))
        rt = chi_square_residuals(table)
        assert rt.expected == (((25.0, 25.0), (25.0, 25.0)))
        assert rt.residuals[0][0] == pytest.approx(3.0, abs=1e-12)
        assert rt.residuals[0][1] == pytest.approx(-3.0, abs=1e-12)
        assert rt.residuals[1][0] == pytest.approx(-3.0, abs=1e-12)
        assert rt.residuals[1][1] == pytest.approx(3.0, abs=1e-12)

    def test_perfect_anti_association(self):
        rt = chi_square_residuals(ContingencyTable2x2(((0, 50), (50, 0))))
        assert rt.residuals[0][0] == pytest.approx(-5.0, abs=1e-12)
        assert rt.residuals[0][1] == pytest.approx(5.0, abs=1e-12)

    def test_independent_table_has_zero_residuals(self):
        rt = chi_square_residuals(ContingencyTable2x2(((20, 30), (40, 60))))
        assert all(r == pytest.approx(0.0, abs=1e-12) for row in rt.residuals for r in row)

    def test_adjusted_residuals_divide_by_the_marginal_factor(self):
        table = ContingencyTable2x2(((40, 10), (10, 40)))
        plain = chi_square_residuals(table)
        adjusted = chi_square_residuals(table, adjusted=True)
        scale = math.sqrt((1 - 0.5) * (1 - 0.5))
        assert adjusted.adjusted and not plain.adjusted
        assert adjusted.residuals[0][0] == pytest.approx(plain.residuals[0][0] / scale)

    @pytest.mark.parametrize(
        "counts",
        [((0, 0), (10, 20)), ((10, 0), (20, 0)), ((0, 0), (0, 0))],
    )
    def test_zero_marginals_are_degenerate(self, counts):
        with pytest.raises(DegenerateTableError, match="zero marginal"):
            chi_square_residuals(ContingencyTable2x2(counts))

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*(st.integers(min_value=1, max_value=500) for _ in range(4))))
    def test_residual_invariants_on_random_tables(self, cells):
        a, b, c, d = cells
        rt = chi_square_residuals(ContingencyTable2x2(((a, b), (c, d))))
        # rows and columns of O - E each sum to zero, so all four residuals
        # share one magnitude of O - E scaled by 1/sqrt(E)
        diff = a - rt.expected[0][0]
        assert rt.residuals[0][0] == pytest.approx(diff / math.sqrt(rt.expected[0][0]))
        assert rt.residuals[0][1] == pytest.approx(-diff / math.sqrt(rt.expected[0][1]))
        assert rt.residuals[1][0] == pytest.approx(-diff / math.sqrt(rt.expected[1][0]))
        assert rt.residuals[1][1] == pytest.approx(diff / math.sqrt(rt.expected[1][1]))
        # chi-square equals the sum of squared residuals
        chi2 = sum(r * r for row in rt.residuals for r in row)
        grand = a + b + c + d
        direct = grand * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
        assert chi2 == pytest.approx(direct)

    def test_tables_serialize_and_render(self):
        rt = chi_square_residuals(ContingencyTable2x2(((40, 10), (10, 40))))
        payload = rt.to_dict()
        assert payload["observed"] == [[40, 10], [10, 40]]
        assert payload["residuals"][0][0] == pytest.approx(3.0)
        text = rt.to_text()
        assert "bridge" in text and "def" in text and "3.00" in text


def doc_with_links(link_specs, etypes):
    """link_specs: list of (ana, antes tuple, subtype); etypes: id -> type."""
    n = 2 * len(etypes) + 2
    tokens = tuple(
        Token(i, f"w{i}", f"w{i}", "NN", "sing", "dep", 0 if i == 1 else 1)
        for i in range(1, n + 1)
    )
    mentions = tuple(
        Mention(
            id=mid, spans=((2 * k + 1, 2 * k + 1),), head_index=2 * k + 1,
            entity_type_original=et, entity_type_unified=et,
        )
        for k, (mid, et) in enumerate(etypes.items())
    )
    doc = Document(
        doc_id="d", genre="", schema="canonical", tokens=tokens, mentions=mentions,
        bridging=tuple(BridgingLink(ana, antes, sub) for ana, antes, sub in link_specs),
    )
    validate_document(doc)
    return doc


class TestDistributions:
    def test_entity_pair_distribution_counts_and_threshold(self):
        doc = doc_with_links(
            [
                ("m3", ("m1",), None),
                ("m4", ("m1",), None),
                ("m4", ("m2",), None),
                ("m5", ("m2",), None),
            ],
            {"m1": "person", "m2": "place", "m3": "event", "m4": "event", "m5": "time"},
        )
        dist = entity_pair_distribution([doc], threshold=0.3)
        assert dist.total == 4
        # 0.25 < 0.3; an unseen pair such as (time, person) has no row
        assert dist.rows() == [
            ("person", "event", 0.5, True),
            ("place", "event", 0.25, False),
            ("place", "time", 0.25, False),
        ]
        header, *body = dist.to_csv().splitlines()
        assert header == "ante_type,ana_type,proportion,visible"
        assert body[0] == "person,event,0.500000,1"

    def test_threshold_is_inclusive(self):
        doc = doc_with_links(
            [("m2", ("m1",), None), ("m3", ("m1",), None)],
            {"m1": "person", "m2": "place", "m3": "time"},
        )
        dist = entity_pair_distribution([doc], threshold=0.5)
        assert ("person", "place", 0.5, True) in dist.rows()

    def test_split_links_contribute_one_pair_per_antecedent(self):
        doc = doc_with_links(
            [("m3", ("m1", "m2"), None)],
            {"m1": "person", "m2": "place", "m3": "event"},
        )
        dist = entity_pair_distribution([doc])
        assert dist.total == 2

    def test_no_links_is_an_error(self):
        doc = doc_with_links([], {"m1": "person"})
        with pytest.raises(EmptyDatasetError):
            entity_pair_distribution([doc])

    def test_anaphor_entity_distribution(self):
        doc = doc_with_links(
            [("m3", ("m1",), None), ("m4", ("m1",), None), ("m5", ("m2",), None)],
            {"m1": "person", "m2": "place", "m3": "event", "m4": "event", "m5": "time"},
        )
        dist = anaphor_entity_distribution([doc])
        assert dist.counts == {"event": 2, "time": 1}
        assert dist.rows()[0] == ("event", 2, pytest.approx(2 / 3))

    def test_unresolved_anaphors_fall_back_to_the_original_label(self):
        doc = doc_with_links([("m2", ("m1",), None)], {"m1": "person", "m2": "place"})
        doc = dataclasses.replace(
            doc,
            mentions=tuple(
                dataclasses.replace(
                    m, entity_type_original="widget", entity_type_unified="unresolved"
                )
                for m in doc.mentions
            ),
        )
        dist = anaphor_entity_distribution([doc])
        assert dist.counts == {"widget": 1}

    def test_subtype_distribution_with_unmarked(self):
        doc = doc_with_links(
            [("m2", ("m1",), "poss"), ("m3", ("m1",), None), ("m4", ("m1",), "poss")],
            {"m1": "person", "m2": "place", "m3": "event", "m4": "time"},
        )
        dist = subtype_distribution([doc])
        assert dist.counts == {"poss": 2, "unmarked": 1}
        assert dist.rows() == [("poss", 2, pytest.approx(2 / 3)), ("unmarked", 1, pytest.approx(1 / 3))]

    def test_label_distribution_renders_text(self):
        doc = doc_with_links(
            [("m2", ("m1",), "poss"), ("m3", ("m1",), None)],
            {"m1": "person", "m2": "place", "m3": "event"},
        )
        dist = subtype_distribution([doc])
        assert "50.0%" in dist.to_text()


class TestConfidentErrors:
    def test_low_probability_gold_pairs_sorted_ascending(self, planted_model, planted_eval_dataset):
        errors = confident_errors(planted_model, planted_eval_dataset, tau=0.9)
        assert all(e.probability < 0.9 for e in errors)
        assert [e.probability for e in errors] == sorted(e.probability for e in errors)
        gold = {
            (ex.doc_id, ex.antecedent_id, ex.anaphor_id)
            for ex in planted_eval_dataset.examples
            if ex.label == "bridging"
        }
        assert all((e.doc_id, e.antecedent_id, e.anaphor_id) in gold for e in errors)

    def test_tau_bounds_the_report(self, planted_model, planted_eval_dataset):
        none = confident_errors(planted_model, planted_eval_dataset, tau=0.0)
        assert none == []
        everything = confident_errors(planted_model, planted_eval_dataset, tau=1.0 + 1e-9)
        n_gold = planted_eval_dataset.label_counts()["bridging"]
        assert len(everything) == n_gold

    def test_a_model_without_an_encoder_schema_is_refused(self, planted_model, planted_eval_dataset):
        schemaless = dataclasses.replace(planted_model, schema=None)
        with pytest.raises(ConfigError, match="^model carries no encoder schema$"):
            confident_errors(schemaless, planted_eval_dataset)

    def test_dataset_without_gold_positives_yields_nothing(self, planted_model):
        ds = dataset([pair(0, "none"), pair(1, "coref")])
        assert confident_errors(planted_model, ds, tau=1.0) == []

    def test_entries_serialize(self):
        e = ConfidentError("d", "a", "n", 0.05)
        assert dataclasses.asdict(e) == {
            "doc_id": "d", "antecedent_id": "a", "anaphor_id": "n", "probability": 0.05,
        }
