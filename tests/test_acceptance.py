"""Acceptance gate: one test per release criterion, tolerances pinned.

The conftest hook prints one PASS/FAIL/SKIP line per test in the terminal
summary, so this module doubles as the release checklist. Criterion 9 needs
the licensed corpora and is skipped unless BRIDGEKIT_LICENSED_DATA is set.
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bridgekit.cli import main
from bridgekit.errors import UnknownEntityTypeError
from bridgekit.gbdt import (
    HyperParams,
    Leaf,
    encode,
    evaluate,
    gain_importance,
    mda_importance,
    random_baseline,
    train,
)
from bridgekit.gbdt import importance
from bridgekit.harmonize import (
    ARRAU_ENTITY_MAP,
    GUM_ENTITY_MAP,
    harmonize_corpus,
    unify_entity_type,
)
from bridgekit.ingest import (
    emit_bracket,
    emit_canonical,
    parse_bracket,
    parse_canonical,
    parse_standoff,
    read_documents,
)
from bridgekit.pairgen import (
    PairDataset,
    build_balanced_dataset,
    dataset_to_jsonl,
    is_pronoun,
)
from bridgekit.stats import ContingencyTable2x2, chi_square_residuals, definiteness_contingency
from bridgekit.synth import planted_rule_corpus, random_corpus

LICENSED_ENV = "BRIDGEKIT_LICENSED_DATA"


def test_criterion_1_harmonization_fixture_counts_and_idempotence(fixture_path):
    started = time.perf_counter()
    raw = parse_standoff(fixture_path.read_bytes())
    assert sum(link.split_antecedent for doc in raw for link in doc.bridging) == 3
    assert sum(m.discontinuous for doc in raw for m in doc.mentions) == 4

    harmonized, report = harmonize_corpus(raw)
    assert report.removed_split_antecedent == 3
    assert report.removed_given_anaphor == 2
    assert report.flattened_discontinuous == 4

    again, second = harmonize_corpus(harmonized)
    assert again == harmonized
    assert second.removed_split_antecedent == 0
    assert second.removed_given_anaphor == 0
    assert second.flattened_discontinuous == 0
    assert second.entity_type_remaps == 0
    assert time.perf_counter() - started < 1.0


def test_criterion_2_entity_type_mapping_table():
    started = time.perf_counter()
    expected_gum = {
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
    expected_arrau = {
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
    assert len(expected_gum) + len(expected_arrau) == 24
    assert GUM_ENTITY_MAP == expected_gum
    assert ARRAU_ENTITY_MAP == expected_arrau
    for label, unified in expected_gum.items():
        assert unify_entity_type("gum_like", label) == unified
        assert unify_entity_type("gum_like", label.upper()) == unified
    for label, unified in expected_arrau.items():
        assert unify_entity_type("arrau_like", label) == unified
        assert unify_entity_type("arrau_like", label.upper()) == unified
    for schema in ("gum_like", "arrau_like"):
        with pytest.raises(UnknownEntityTypeError):
            unify_entity_type(schema, "vehicle")
    with pytest.raises(UnknownEntityTypeError):
        unify_entity_type("gum_like", "medicine")  # listed for ARRAU only
    with pytest.raises(UnknownEntityTypeError):
        unify_entity_type("arrau_like", "plant")  # listed for GUM only
    assert time.perf_counter() - started < 1.0


def test_criterion_3_round_trip_stability():
    general = random_corpus(7, 50, flavor="canonical")
    representable = random_corpus(8, 50, flavor="gum_like")
    docs = general + representable
    assert len(docs) == 100

    assert parse_canonical(emit_canonical(docs)) == docs

    for doc in representable:
        normalized = parse_bracket(emit_bracket(doc))[0]
        data = emit_bracket(normalized)
        assert emit_bracket(parse_bracket(data)[0]) == data


def test_criterion_4_balanced_sampling_guarantees(sampling_docs):
    attested = [
        doc.mention_by_id[link.anaphor_id].spans[0][0]
        - doc.mention_by_id[ante].spans[0][0]
        for doc in sampling_docs
        for link in doc.bridging
        for ante in link.antecedent_ids
    ]
    assert len(attested) == 50
    cap = max(attested)

    dataset = build_balanced_dataset(sampling_docs, seed=11, corpus="sampling", partition="all")
    assert dataset.label_counts() == {"bridging": 50, "coref": 50, "none": 50}
    assert dataset.warnings == ()

    by_id = {doc.doc_id: doc for doc in sampling_docs}
    for ex in dataset.examples:
        if ex.label != "bridging":
            doc = by_id[ex.doc_id]
            assert not is_pronoun(doc, doc.mention_by_id[ex.anaphor_id])
            assert ex.features.t_a_dist <= cap

    rerun = build_balanced_dataset(sampling_docs, seed=11, corpus="sampling", partition="all")
    assert dataset_to_jsonl(rerun) == dataset_to_jsonl(dataset)


def test_criterion_5_planted_rule_classification(
    planted_train_dataset, planted_eval_dataset, planted_full_dataset
):
    assert len(planted_train_dataset.examples) <= 5000
    started = time.perf_counter()
    X, y, schema = encode(planted_train_dataset)
    model = train(X, y, HyperParams(n_rounds=100, max_depth=4, learning_rate=0.3),
                  seed=1, schema=schema)
    metrics = evaluate(model, planted_eval_dataset)
    assert time.perf_counter() - started < 60.0
    assert metrics.f1 >= 0.90

    baseline = random_baseline(planted_full_dataset, p=1.0 / 3.0, runs=5, seed=0)
    assert abs(baseline.f1 - 0.33) <= 0.05


def _overwrite_with_noise(dataset: PairDataset, rng: random.Random) -> PairDataset:
    examples = tuple(
        replace(ex, features=replace(ex.features, n_phrase_len=rng.randint(1, 6)))
        for ex in dataset.examples
    )
    return PairDataset(examples=examples, provenance=dataset.provenance,
                       warnings=dataset.warnings)


def test_criterion_6_feature_importance_sanity(planted_train_dataset, planted_eval_dataset):
    # n_phrase_len is overwritten with draws independent of the label, making
    # it a noise feature the model is free to (over)fit
    rng = random.Random(0)
    train_ds = _overwrite_with_noise(planted_train_dataset, rng)
    eval_ds = _overwrite_with_noise(planted_eval_dataset, rng)

    X, y, schema = encode(train_ds)
    model = train(X, y, HyperParams(n_rounds=100, max_depth=4, learning_rate=0.3),
                  seed=1, schema=schema)

    gain = gain_importance(model)
    top_two = sorted(gain, key=gain.get, reverse=True)[:2]
    assert "n_definite" in top_two

    mda = mda_importance(model, eval_ds, repeats=5, seed=0)
    assert mda["n_definite"] >= 0.15
    assert abs(mda["n_phrase_len"]) <= 0.02


def test_criterion_6_mda_agrees_with_numpy_permutations_within_the_tolerance(
    planted_train_dataset, planted_eval_dataset, monkeypatch
):
    # MDA draws its permutations from SplitMix64 keys (importance.permutation).
    # Earlier releases drew them from one np.random.default_rng(seed) stream,
    # repeats after repeats in sorted feature order. Both are uniform row
    # shuffles, so on criterion 6's model the two 200-repeat means estimate
    # the same drop. Predicting each permuted matrix in full, the per-repeat
    # drop has a standard deviation of 0.016 to 0.025 on the features a tree
    # uses; the difference of two means then has one of at most
    # 0.025 * sqrt(2 / 200) = 0.0025, and the bound is four of those. A
    # feature that no tree uses scores exactly 0 either way.
    rng = random.Random(0)
    train_ds = _overwrite_with_noise(planted_train_dataset, rng)
    eval_ds = _overwrite_with_noise(planted_eval_dataset, rng)
    X, y, schema = encode(train_ds)
    model = train(X, y, HyperParams(n_rounds=100, max_depth=4, learning_rate=0.3),
                  seed=1, schema=schema)
    repeats, bound = 200, 0.01

    keyed = mda_importance(model, eval_ds, repeats=repeats, seed=0)
    stream = np.random.default_rng(0)
    n_rows = len(eval_ds.examples)
    drawn = {(i, r): stream.permutation(n_rows)
             for i in range(len(schema.blocks)) for r in range(repeats)}
    monkeypatch.setattr(importance, "permutation", lambda seed, key, n: drawn[key])
    numpy_drawn = mda_importance(model, eval_ds, repeats=repeats, seed=0)

    assert keyed.keys() == numpy_drawn.keys()
    used = {f for f, gain in gain_importance(model).items() if gain > 0.0}
    assert "n_definite" in used
    for feature in keyed:
        if feature in used:
            assert abs(keyed[feature] - numpy_drawn[feature]) <= bound, feature
        else:
            assert keyed[feature] == numpy_drawn[feature] == 0.0, feature


def test_criterion_7_gbdt_numeric_properties(planted_train_dataset):
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    hp = HyperParams(n_rounds=1, max_depth=2, learning_rate=0.1,
                     l2_leaf_penalty=1.0, split_gain_threshold=0.0,
                     min_child_hessian=0.1)
    model = train(X, y, hp, seed=0)
    root = model.trees[0]
    assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
    # base score logit(0.5) = 0 puts p = 1/2 everywhere: per row g = p - y,
    # h = p(1 - p) = 1/4, so each side has G = ±1, H = 1/2, w = -G/(H + 1)
    assert math.isclose(root.left.weight, -1.0 / 1.5, abs_tol=1e-9)
    assert math.isclose(root.right.weight, 1.0 / 1.5, abs_tol=1e-9)

    Xp, yp, schema = encode(planted_train_dataset)
    fitted = train(Xp, yp, HyperParams(n_rounds=60, max_depth=4, learning_rate=0.1,
                                       l2_leaf_penalty=1.0, split_gain_threshold=0.0),
                   seed=1, schema=schema)
    losses = fitted.training_loss
    assert len(losses) == 61
    assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))


def test_criterion_8_chi_square_oracle(planted_full_dataset):
    skewed = chi_square_residuals(ContingencyTable2x2(counts=((40, 10), (10, 40))))
    expected = ((3.0, -3.0), (-3.0, 3.0))
    for i in range(2):
        for j in range(2):
            assert math.isclose(skewed.residuals[i][j], expected[i][j], abs_tol=1e-12)

    uniform = chi_square_residuals(ContingencyTable2x2(counts=((25, 25), (25, 25))))
    assert all(cell == 0.0 for row in uniform.residuals for cell in row)

    planted = chi_square_residuals(definiteness_contingency(planted_full_dataset))
    assert planted.residuals[0][0] > 0
    assert planted.residuals[0][1] < 0
    assert planted.residuals[1][0] < 0
    assert planted.residuals[1][1] > 0


@pytest.mark.skipif(
    LICENSED_ENV not in os.environ,
    reason=f"licensed corpora not supplied; set {LICENSED_ENV} to a directory "
    "holding config.json (see README)",
)
def test_criterion_9_licensed_corpus_reproduction(tmp_path):
    data_dir = Path(os.environ[LICENSED_ENV])
    code = main(["run", "--config", str(data_dir / "config.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    run_dir = next(tmp_path.iterdir())
    report = json.loads((run_dir / "report.json").read_text())

    arrau = report["corpora"]["arrau"]["harmonize"]
    assert arrau["removed_split_antecedent"] == 297
    assert arrau["removed_given_anaphor"] == 957
    assert arrau["flattened_discontinuous"] == 864

    counts = {
        (name, role): report["corpora"][name]["dataset_counts"][role]["bridging"]
        for name in ("gum", "arrau")
        for role in ("train", "eval")
    }
    assert counts == {
        ("gum", "train"): 1611,
        ("gum", "eval"): 280,
        ("arrau", "train"): 779,
        ("arrau", "eval"): 176,
    }

    eval_docs = read_documents(run_dir / "harmonized" / "arrau_eval.jsonl")
    assert sum(len(doc.bridging) for doc in eval_docs) == 176

    for (model_name, corpus), f1 in {
        ("gum", "gum"): 0.71,
        ("arrau", "arrau"): 0.67,
        ("arrau", "gum"): 0.56,
        ("gum", "arrau"): 0.22,
    }.items():
        assert abs(report["metrics"][model_name][corpus]["f1"] - f1) <= 0.05

    assert len(report["confident_errors"]["arrau_on_gum"]) == 18

    subtyped = data_dir / "subtyped_gum_test.jsonl"
    if subtyped.exists():
        docs = read_documents(subtyped)
        assert sum(len(doc.bridging) for doc in docs) == 272
