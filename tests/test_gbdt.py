"""Encoder, boosted-tree learner, evaluation, and importance measures."""
from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from bridgekit.errors import (
    ConfigError,
    DegenerateTrainingError,
    EmptyDatasetError,
    ParseError,
    SchemaMismatchError,
    ValidationError,
)
from bridgekit.gbdt import (
    DECISION_THRESHOLD,
    CvResult,
    EncoderSchema,
    FeatureBlock,
    GbdtModel,
    HyperParams,
    Leaf,
    Metrics,
    Split,
    column_gain_totals,
    cross_validate,
    default_grid,
    encode,
    evaluate,
    evaluate_matrix,
    fit_schema,
    gain_importance,
    load_model,
    log_loss,
    mda_importance,
    metrics_from_predictions,
    model_from_dict,
    model_to_dict,
    predict_margin,
    predict_proba,
    random_baseline,
    save_model,
    sigmoid,
    staged_margins,
    stratified_folds,
    train,
    tree_values,
)
from bridgekit.gbdt import boosting, evaluation, importance
from bridgekit.gbdt.evaluation import _beats
from bridgekit.pairgen import (
    FEATURE_NAMES,
    LABELS,
    NUMERIC_FEATURES,
    FeatureVector,
    PairDataset,
    PairExample,
    Provenance,
)
from bridgekit.stats import ConfidentError, confident_errors


def make_example(i: int, label: str, **over) -> PairExample:
    base = dict(
        t_entity_type="person", n_entity_type="place", t_definite="def", n_definite="ind",
        t_phrase_len=2, n_phrase_len=1, t_head_deprel="nsubj", n_head_deprel="obj",
        t_head_xpos="NN", n_head_xpos="NN", t_head_lemma="river", n_head_lemma="stone",
        t_head_number="sing", n_head_number="plur", t_infstat="new", t_a_dist=4,
    )
    base.update(over)
    return PairExample("d", f"a{i}", f"n{i}", FeatureVector(**base), label)


def reference_encode(schema: EncoderSchema, examples) -> np.ndarray:
    """The row-at-a-time loop that `encode` replaced."""
    X = np.empty((len(examples), schema.n_columns), dtype=np.float64)
    for i, ex in enumerate(examples):
        row = np.zeros(schema.n_columns, dtype=np.float64)
        start = 0
        for block in schema.blocks:
            value = getattr(ex.features, block.feature)
            if block.kind == "numeric":
                row[start] = float(value)
            else:
                try:
                    row[start + block.categories.index(value)] = 1.0
                except ValueError:
                    if block.kind == "vocab":
                        row[start + len(block.categories)] = 1.0
            start += block.width
        X[i] = row
    return X


# Few values per feature, so that values repeat within a list and a schema
# fitted on one list meets unseen categories and OOV lemmas in another.
_example_lists = st.lists(
    st.builds(
        PairExample,
        doc_id=st.just("d"),
        antecedent_id=st.just("a"),
        anaphor_id=st.just("n"),
        features=st.builds(FeatureVector, **{
            name: st.integers(min_value=0, max_value=60) if name in NUMERIC_FEATURES
            else st.sampled_from(["p", "q", "r", "s", "t"])
            for name in FEATURE_NAMES
        }),
        label=st.sampled_from(LABELS),
    ),
    min_size=1,
    max_size=12,
)


class TestEncoding:
    @settings(max_examples=80, deadline=None)
    @given(_example_lists, _example_lists, st.sampled_from([0, 1, 3, 200]), st.booleans())
    def test_column_encoder_matches_the_row_loop_to_the_bit(
        self, fit_on, rows, lemma_top_k, foreign_schema
    ):
        schema = fit_schema(fit_on if foreign_schema else rows, lemma_top_k=lemma_top_k)
        for subset in (rows, rows[:1]):
            X, y, used = encode(subset, schema=schema)
            expected = reference_encode(schema, subset)
            assert used is schema
            assert X.shape == expected.shape and X.dtype == expected.dtype
            assert X.tobytes() == expected.tobytes()
            assert y.tolist() == [int(ex.label == "bridging") for ex in subset]


    def test_blocks_cover_every_feature_in_sorted_order(self):
        schema = fit_schema([make_example(0, "bridging")])
        assert tuple(b.feature for b in schema.blocks) == tuple(sorted(FEATURE_NAMES))
        kinds = {b.feature: b.kind for b in schema.blocks}
        assert kinds["t_a_dist"] == "numeric"
        assert kinds["t_phrase_len"] == "numeric"
        assert kinds["n_phrase_len"] == "numeric"
        assert kinds["t_head_lemma"] == "vocab"
        assert kinds["n_head_lemma"] == "vocab"
        assert kinds["t_entity_type"] == "categorical"

    def test_one_hot_blocks_and_numeric_passthrough(self):
        examples = [
            make_example(0, "bridging", t_a_dist=7),
            make_example(1, "coref", t_entity_type="place", t_a_dist=2),
        ]
        X, y, schema = encode(examples)
        assert X.shape == (2, schema.n_columns)
        assert list(y) == [1, 0]
        slices = schema.block_slices()
        etype = next(b for b in schema.blocks if b.feature == "t_entity_type")
        assert etype.categories == ("person", "place")
        assert X[0, slices["t_entity_type"]].tolist() == [1.0, 0.0]
        assert X[1, slices["t_entity_type"]].tolist() == [0.0, 1.0]
        assert X[:, slices["t_a_dist"]].ravel().tolist() == [7.0, 2.0]

    def test_unseen_categorical_value_encodes_as_all_zeros(self):
        schema = fit_schema([make_example(0, "bridging")])
        row = encode([make_example(1, "none", t_entity_type="event")], schema=schema)[0][0]
        assert row[schema.block_slices()["t_entity_type"]].sum() == 0.0

    def test_unseen_lemma_hits_the_oov_bucket(self):
        schema = fit_schema([make_example(0, "bridging")])
        sl = schema.block_slices()["t_head_lemma"]
        row = encode([make_example(1, "none", t_head_lemma="zeppelin")], schema=schema)[0][0]
        block = row[sl]
        # the vocab block is one column wider than its categories, and that
        # last column is the OOV bucket
        vocab = next(b for b in schema.blocks if b.feature == "t_head_lemma")
        assert sl.stop - sl.start == len(vocab.categories) + 1
        assert block.sum() == 1.0 and block[-1] == 1.0

    def test_lemma_vocabulary_keeps_top_k_by_count_then_name(self):
        examples = (
            [make_example(i, "bridging", t_head_lemma="common") for i in range(3)]
            + [make_example(10 + i, "none", t_head_lemma="beta") for i in range(2)]
            + [make_example(20 + i, "none", t_head_lemma="alpha") for i in range(2)]
            + [make_example(30, "none", t_head_lemma="rare")]
        )
        schema = fit_schema(examples, lemma_top_k=2)
        block = next(b for b in schema.blocks if b.feature == "t_head_lemma")
        # counts: common=3, alpha=2, beta=2, rare=1; top 2 = common + alpha
        assert block.categories == ("alpha", "common")
        assert block.width == 3  # + OOV

    def test_vocab_rows_always_sum_to_one(self, planted_train_dataset):
        X, _, schema = encode(planted_train_dataset, lemma_top_k=5)
        slices = schema.block_slices()
        for block in schema.blocks:
            sums = X[:, slices[block.feature]].sum(axis=1)
            if block.kind == "vocab":
                assert np.all(sums == 1.0)
            elif block.kind == "categorical":
                assert np.all(sums <= 1.0)

    def test_schema_serialization_round_trip(self, planted_train_dataset):
        schema = fit_schema(planted_train_dataset)
        model = GbdtModel(base_score=0.0, trees=(Leaf(0.0),), params=HyperParams(), seed=0,
                          n_features=schema.n_columns, schema=schema)
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))).schema == schema

    def test_unknown_block_kind_is_rejected(self):
        obj = model_to_dict(HAND_BUILT_MODEL)
        obj["schema"] = {"lemma_top_k": 1, "blocks": [
            {"feature": "x", "kind": "fuzzy", "categories": []}
        ]}
        with pytest.raises(ValidationError, match="^unknown block kind 'fuzzy'$"):
            model_from_dict(obj)

    def test_negative_lemma_top_k_is_rejected(self, planted_train_dataset):
        with pytest.raises(ConfigError, match="lemma_top_k"):
            fit_schema(planted_train_dataset, lemma_top_k=-1)

    def test_empty_dataset_cannot_be_encoded(self):
        with pytest.raises(EmptyDatasetError):
            fit_schema([])


class TestSigmoidAndLoss:
    def test_sigmoid_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(50.0) == pytest.approx(1.0)
        assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-20)
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out[1] == 0.5 and out[0] + out[2] == pytest.approx(1.0)

    def test_sigmoid_is_stable_at_extremes(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0  # no overflow warnings either

    def test_log_loss_hand_value(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.8, 0.4])
        expected = -(math.log(0.8) + math.log(0.6)) / 2
        assert log_loss(y, p) == pytest.approx(expected)

    def test_log_loss_clips_zero_probabilities(self):
        assert math.isfinite(log_loss(np.array([1.0]), np.array([0.0])))

    def test_log_loss_does_not_depend_on_row_order(self):
        rng = np.random.default_rng(0)
        y, p = rng.integers(0, 2, 1000), rng.uniform(size=1000)
        losses = {log_loss(y[perm], p[perm]).hex()
                  for perm in [np.arange(1000)] + [rng.permutation(1000) for _ in range(20)]}
        assert len(losses) == 1


class TestTraining:
    def hand_model(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        hp = HyperParams(
            n_rounds=1, max_depth=2, learning_rate=0.1,
            l2_leaf_penalty=1.0, split_gain_threshold=0.0, min_child_hessian=0.1,
        )
        return train(X, y, hp)

    def test_base_score_is_the_log_odds_of_the_positive_rate(self):
        model = self.hand_model()
        assert model.base_score == pytest.approx(0.0, abs=1e-15)
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        skewed = train(X, np.array([1, 0, 0, 0]), HyperParams(n_rounds=0))
        assert skewed.base_score == pytest.approx(math.log(0.25 / 0.75))

    def test_hand_example_split_and_leaves(self):
        model = self.hand_model()
        (tree,) = model.trees
        assert isinstance(tree, Split)
        assert tree.column == 0
        assert tree.threshold == pytest.approx(0.5)
        # gain = 1/2 (1/1.5 + 1/1.5 - 0/2) with lambda = 1
        assert tree.gain == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
        assert tree.left.weight == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert tree.right.weight == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_stored_leaves_are_raw_and_rate_applies_at_prediction(self):
        model = self.hand_model()
        margin = predict_margin(model, np.array([[0.0], [1.0]]))
        assert margin == pytest.approx([-0.1 * 2 / 3, 0.1 * 2 / 3])

    def test_rows_below_threshold_go_left_at_and_above_go_right(self):
        X = np.array([[0.0], [1.0]])
        hp = HyperParams(n_rounds=1, max_depth=1, learning_rate=1.0,
                         l2_leaf_penalty=0.0, min_child_hessian=0.1)
        model = train(X, np.array([0, 1]), hp)
        (tree,) = model.trees
        assert tree.threshold == pytest.approx(0.5)
        below, at = predict_margin(model, np.array([[0.499999], [0.5]]))
        assert below < 0 < at

    def test_training_loss_starts_at_the_base_and_never_increases(self, planted_model):
        losses = planted_model.training_loss
        assert len(losses) == planted_model.params.n_rounds + 1
        assert losses[0] == pytest.approx(math.log(2.0) if planted_model.base_score == 0
                                          else losses[0])
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_zero_rounds_predicts_the_base_rate(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 0])
        model = train(X, y, HyperParams(n_rounds=0))
        assert model.trees == ()
        assert np.allclose(predict_proba(model, X), 0.25)

    def test_unsplittable_data_degenerates_to_base_rate_leaves(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 1, 0])
        blocked = train(X, y, HyperParams(n_rounds=3, min_child_hessian=1e6))
        assert all(isinstance(t, Leaf) for t in blocked.trees)
        assert np.allclose(predict_proba(blocked, X), 0.5)
        gated = train(X, y, HyperParams(n_rounds=3, split_gain_threshold=1e9))
        assert all(isinstance(t, Leaf) for t in gated.trees)

    def test_a_matrix_of_no_rows_is_an_empty_dataset(self):
        with pytest.raises(EmptyDatasetError, match="no rows"):
            train(np.zeros((0, 3)), np.zeros(0), HyperParams())

    def test_single_class_labels_are_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train(np.zeros((4, 1)), np.ones(4), HyperParams())

    @pytest.mark.parametrize("label", [math.nan, 0.5, 2.0, -1.0])
    def test_labels_other_than_0_and_1_are_rejected(self, label):
        for y in ([0.0, 1.0, label], [label] * 3):
            with pytest.raises(ValidationError, match="labels must be 0 or 1"):
                train(np.zeros((3, 1)), np.array(y), HyperParams())

    def test_a_float_hyperparameter_is_stored_as_a_float(self):
        params = HyperParams(learning_rate=1, l2_leaf_penalty=2, split_gain_threshold=0,
                             min_child_hessian=1)
        for name in ("learning_rate", "l2_leaf_penalty", "split_gain_threshold",
                     "min_child_hessian"):
            assert type(getattr(params, name)) is float, name
        assert params == HyperParams(learning_rate=1.0, l2_leaf_penalty=2.0)
        assert type(HyperParams(n_rounds=3).n_rounds) is int

    def test_saturating_without_any_leaf_regularizer_ends_in_a_typed_error(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ConfigError, match="cannot both be 0"):
            train(X, y, HyperParams(n_rounds=60, learning_rate=1.0,
                                    l2_leaf_penalty=0.0, min_child_hessian=0.0))
        # one round at this rate saturates every row: all hessians are 0
        saturating = HyperParams(n_rounds=2, learning_rate=1000.0,
                                 l2_leaf_penalty=0.0, min_child_hessian=0.1)
        with pytest.raises(DegenerateTrainingError, match="hessian sum is 0"):
            train(X, y, saturating)

    def test_a_round_whose_margins_leave_the_finite_numbers_is_a_typed_error(self):
        # 50 rows to a leaf give weights of magnitude 25 / 13.5, so the first
        # round's step overflows; no numpy warning is issued on the way
        X = np.repeat([0.0, 1.0], 50)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTrainingError, match=(
                r"^boosting round 1 of 3 left a margin that is not finite \(overflow "
            )):
                train(X, X[:, 0], HyperParams(n_rounds=3, learning_rate=1e308))
        assert train(X, X[:, 0], HyperParams(n_rounds=3, learning_rate=1e10)).training_loss

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_value_that_is_not_finite_is_rejected(self, value):
        X = np.array([[0.0], [1.0], [value]])
        message = "^training matrix holds a value that is not finite$"
        with pytest.raises(ValidationError, match=message):
            train(X, np.array([0, 1, 1]), HyperParams(n_rounds=1))

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(SchemaMismatchError):
            train(np.zeros((4, 1)), np.array([0, 1]), HyperParams())

    def test_training_is_deterministic(self, planted_train_dataset):
        X, y, schema = encode(planted_train_dataset)
        hp = HyperParams(n_rounds=5, max_depth=3)
        a = train(X, y, hp, seed=1, schema=schema)
        b = train(X, y, hp, seed=1, schema=schema)
        assert model_to_dict(a) == model_to_dict(b)

    def test_row_order_does_not_change_the_learned_function(self, planted_train_dataset):
        # every sum of the trainer is exact, and the loss sorts its terms,
        # so a permutation of the rows gives the same model bytes
        X, y, _ = encode(planted_train_dataset)
        hp = HyperParams(n_rounds=20, max_depth=6)
        rng = np.random.default_rng(0)
        perm = rng.permutation(X.shape[0])
        a = train(X, y, hp)
        b = train(X[perm], y[perm], hp)
        assert [tree_bits(t) for t in a.trees] == [tree_bits(t) for t in b.trees]
        assert json.dumps(model_to_dict(a)) == json.dumps(model_to_dict(b))

    def test_more_rows_than_sums_are_exact_for_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(boosting, "_MAX_TRAINING_ROWS", 3)
        X, y = np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1])
        train(X, y, HyperParams(n_rounds=1))
        with pytest.raises(ConfigError, match="^4 training rows; .* at most 3$"):
            train(np.r_[X, X[:1]], np.r_[y, 0], HyperParams(n_rounds=1))

    def test_hessians_that_round_to_0_are_allowed(self):
        # the first tree's leaves are -/+ 2/3, so at this rate every margin
        # is -/+ 24 after it, and every hessian is positive but below 2^-31
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        hp = HyperParams(n_rounds=1, max_depth=1, learning_rate=36.0, min_child_hessian=0.1)
        p = sigmoid(predict_margin(train(X, y, hp), X))
        assert np.all((0 < p * (1 - p)) & (p * (1 - p) < 2**-31))
        model = train(X, y, replace(hp, n_rounds=3))
        assert model.trees[1:] == (Leaf(0.0), Leaf(0.0))
        # without a leaf penalty, the hessian sum of 0 is the typed error
        with pytest.raises(DegenerateTrainingError, match="hessian sum is 0"):
            train(X, y, replace(hp, n_rounds=2, l2_leaf_penalty=0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_rounds": -1},
            {"max_depth": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -0.5},
            {"l2_leaf_penalty": -1.0},
            {"split_gain_threshold": -0.1},
            {"min_child_hessian": -2.0},
            {"n_rounds": 2.5},
            {"n_rounds": True},
            {"max_depth": 2.5},
            {"max_depth": "3"},
            {"l2_leaf_penalty": 0.0, "min_child_hessian": 0.0},
            {"learning_rate": float("nan")},
            {"l2_leaf_penalty": float("nan")},
            {"min_child_hessian": float("inf")},
        ],
    )
    def test_hyperparameter_validation(self, kwargs):
        with pytest.raises(ConfigError):
            HyperParams(**kwargs)

    def test_default_grid_is_36_unique_configurations(self):
        grid = default_grid()
        assert len(grid) == 36
        assert len(set(grid)) == 36
        assert {hp.n_rounds for hp in grid} == {50, 100, 200}
        assert {hp.max_depth for hp in grid} == {3, 4, 6}
        assert {hp.learning_rate for hp in grid} == {0.1, 0.3}
        assert {hp.min_child_hessian for hp in grid} == {1.0, 5.0}


class TestPrediction:
    @pytest.mark.parametrize("predict", [predict_margin, predict_proba, staged_margins])
    def test_a_one_dimensional_input_is_rejected(self, predict):
        model = TestTraining().hand_model()
        with pytest.raises(SchemaMismatchError, match="expects 1"):
            predict(model, np.array([1.0]))

    def test_a_one_example_dataset_scores_through_every_caller(
        self, planted_model, planted_eval_dataset
    ):
        X, _, _ = encode(planted_eval_dataset, schema=planted_model.schema)
        full = predict_proba(planted_model, X)
        i = next(i for i, ex in enumerate(planted_eval_dataset.examples) if ex.label == "bridging")
        ex = planted_eval_dataset.examples[i]
        one = predict_proba(planted_model, X[i:i + 1])
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one.tobytes() == full[i:i + 1].tobytes()
        dataset = replace(planted_eval_dataset, examples=(ex,))
        assert evaluate(planted_model, dataset) == metrics_from_predictions(
            np.array([True]), one >= DECISION_THRESHOLD
        )
        assert confident_errors(planted_model, dataset, tau=1.0) == [
            ConfidentError(ex.doc_id, ex.antecedent_id, ex.anaphor_id, float(full[i]))
        ]
        assert confident_errors(planted_model, dataset, tau=0.0) == []
        # a permutation of one row moves nothing
        assert mda_importance(planted_model, dataset, repeats=2, seed=0) == dict.fromkeys(
            planted_model.schema.block_slices(), 0.0
        )

    def test_wrong_column_count_is_rejected(self):
        model = TestTraining().hand_model()
        with pytest.raises(SchemaMismatchError, match="expects 1"):
            predict_margin(model, np.zeros((2, 3)))

    def test_training_losses_are_those_of_the_predicted_margins(self, planted_train_dataset):
        # train adds each tree's leaf weights to the margins from the rows
        # its leaves hold; predicting every prefix of the model must give
        # the same margins, so the same losses, to the bit
        X, y, schema = encode(planted_train_dataset)
        y = y.astype(np.float64)
        model = train(X, y, HyperParams(n_rounds=30, max_depth=6), schema=schema)
        assert any(isinstance(t, Split) and isinstance(t.left, Split) for t in model.trees)
        losses = [
            log_loss(y, sigmoid(predict_margin(replace(model, trees=model.trees[:k]), X))).hex()
            for k in range(len(model.trees) + 1)
        ]
        assert losses == [x.hex() for x in model.training_loss]
        assert losses[-1] == log_loss(y, predict_proba(model, X)).hex()

    def test_margins_accumulate_across_trees(self, planted_train_dataset):
        X, y, schema = encode(planted_train_dataset)
        short = train(X, y, HyperParams(n_rounds=2, max_depth=3), schema=schema)
        long = train(X, y, HyperParams(n_rounds=4, max_depth=3), schema=schema)
        assert short.trees == long.trees[:2]


def node_split(cols, rows, g, h, hp):
    """The trainer's split search on the node of the rows `rows` of a coded
    matrix, whose gradients and hessians are g and h, given the node's sums
    as the trainer takes them; returns (column, threshold, gain) or None."""
    sums = boosting._cut_sums(cols, rows, g, h)
    found = boosting._find_best_split(cols, rows, float(g.sum()), float(h.sum()), *sums, hp)
    return found and found[:3]


def find_best_split(X, g, h, hp):
    """The trainer's split search on a node whose rows are all of X."""
    return node_split(boosting._Columns.of(X), np.arange(len(X)), g, h, hp)


def quantize(x):
    """Round to a multiple of 2^-30, as the trainer rounds its gradients
    and hessians."""
    return np.round(x * 2**30) / 2**30


def reference_best_split(X, g, h, hp):
    """The per-column split search that the vectorised one must match bit
    for bit, given gradients and hessians on the 2^-30 grid: one sort and
    one pair of cumulative sums per column."""
    lam = hp.l2_leaf_penalty
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    best = None
    for col in range(X.shape[1]):
        x = X[:, col]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        G_L = np.cumsum(g[order])[:-1]
        H_L = np.cumsum(h[order])[:-1]
        G_R = G - G_L
        H_R = H - H_L
        valid = np.nonzero(
            (xs[1:] > xs[:-1])
            & (H_L >= hp.min_child_hessian)
            & (H_R >= hp.min_child_hessian)
        )[0]
        if valid.size == 0:
            continue
        gl, hl = G_L[valid], H_L[valid]
        gr, hr = G_R[valid], H_R[valid]
        gains = (
            0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
            - hp.split_gain_threshold
        )
        j = int(np.argmax(gains))
        gain = float(gains[j])
        if gain <= 0.0:
            continue
        if best is None or gain > best[2]:
            i = int(valid[j])
            best = (col, float((xs[i] + xs[i + 1]) / 2.0), gain)
    return best


def split_bits(found):
    if found is None:
        return None
    col, threshold, gain = found
    return col, threshold.hex(), gain.hex()


def random_matrix(rng, kinds, n_rows):
    """One column per kind: 0/1 (with 0.0 or -0.0 for the zeros), a
    complement or duplicate of an earlier column, constant, small integers,
    integers of up to 200 values or continuous."""
    X = np.empty((n_rows, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind in ("complement", "duplicate") and j > 0:
            other = X[:, rng.integers(j)]
            X[:, j] = 1.0 - other if kind == "complement" else other
        elif kind == "signed zero":
            X[:, j] = rng.choice([-0.0, 0.0, 1.0], n_rows)
        elif kind == "constant":
            X[:, j] = rng.integers(3)
        elif kind == "integer":
            X[:, j] = rng.integers(0, 5, n_rows)
        elif kind == "wide integer":
            X[:, j] = rng.integers(0, 200, n_rows)
        elif kind == "real":
            X[:, j] = rng.normal(size=n_rows)
        else:
            X[:, j] = rng.integers(0, 2, n_rows)
    return X


_column_kinds = st.sampled_from(
    ["binary", "signed zero", "complement", "duplicate", "constant", "integer",
     "wide integer", "real"]
)


def draw_matrix(draw, n_rows, n_cols):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(_column_kinds, min_size=n_cols, max_size=n_cols))
    return rng, random_matrix(rng, kinds, n_rows)


def large_shape(draw):
    """Rows and columns of a matrix in which, with the columns of a
    `random_matrix`, some column other than 0/1 nearly always holds
    more than 100 distinct values."""
    return draw(st.integers(300, 600)), draw(st.integers(10, 40))


def note_distinct_values(X):
    """Record, as a hypothesis event, whether some column of X holds more
    than 100 distinct values, and so more than 99 cuts."""
    widest = max(len(np.unique(x)) for x in X.T)
    event("a column holds more than 100 distinct values" if widest > 100
          else "no column holds more than 100 distinct values")


@st.composite
def split_problems(draw):
    """A node's rows, gradients and hyperparameters, over a `random_matrix`;
    gradients come from probabilities drawn from a few values, so exactly
    tied gains are common, and lie on the 2^-30 grid, as the trainer's do."""
    if draw(st.booleans()):
        n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    else:
        n_rows, n_cols = large_shape(draw)
    rng, X = draw_matrix(draw, n_rows, n_cols)
    if draw(st.booleans()):
        p = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0], n_rows)
    else:
        p = rng.uniform(size=n_rows)
    y = rng.integers(0, 2, n_rows)
    g, h = quantize(p - y), quantize(p * (1.0 - p))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0]))
    hp = HyperParams(
        l2_leaf_penalty=lam,
        min_child_hessian=draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 5.0]).filter(
            lambda mch: lam > 0 or mch > 0)),
        split_gain_threshold=draw(st.sampled_from([0.0, 0.05])),
    )
    return X, g, h, hp


@st.composite
def subset_problems(draw):
    """A node whose rows are a strict subset of the rows of a
    `split_problems` matrix, with h == 0 on about a quarter of the matrix's
    rows: many of the matrix's cuts lie after values that no row of the
    node holds."""
    X, g, h, hp = draw(split_problems())
    assume(len(X) >= 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.where(rng.uniform(size=len(X)) < 0.25, 0.0, h)
    rows = np.flatnonzero(rng.uniform(size=len(X)) < draw(st.sampled_from([0.2, 0.5, 0.8])))
    if len(rows) == len(X):
        rows = rows[1:]
    if not len(rows):
        rows = np.array([rng.integers(len(X))])
    return X, rows, g, h, hp


@st.composite
def light_nodes(draw):
    """A node whose hessian sum lies a few ulps from twice
    `min_child_hessian`, on either side, over a `random_matrix`. With equal
    hessians, the middle cut's H_L is min_child_hessian or next to it."""
    n_rows, n_cols = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    rng, X = draw_matrix(draw, n_rows, n_cols)
    min_h = draw(st.sampled_from([1e-3, 0.1, 1.0, 5.0]))
    h = np.ones(n_rows) if draw(st.booleans()) else rng.uniform(0.05, 1.0, n_rows)
    h *= 2 * min_h / h.sum()
    target = 2 * min_h
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        target = np.nextafter(target, math.copysign(math.inf, steps))
    # each correction of the last row brings the sum closer to the target
    for _ in range(3):
        h[-1] += target - h.sum()
    hp = HyperParams(
        l2_leaf_penalty=draw(st.sampled_from([0.0, 1.0])),
        min_child_hessian=min_h,
        split_gain_threshold=0.0,
    )
    return X, rng.uniform(-1.0, 1.0, n_rows), h, hp


def node_rows(node, X):
    """Each node of a tree, its depth and the rows of X that reach it."""
    stack = [(node, 0, np.arange(X.shape[0]))]
    while stack:
        nd, depth, rows = stack.pop()
        yield nd, depth, rows
        if isinstance(nd, Split):
            left = X[rows, nd.column] < nd.threshold
            stack += (nd.left, depth + 1, rows[left]), (nd.right, depth + 1, rows[~left])


def reference_train(X, y, hp):
    """The trainer that `train` must match tree for tree: a recursive tree
    grower over `reference_best_split`, whose margins add `tree_values`,
    with each round's gradients and hessians rounded to the 2^-30 grid."""
    lam = hp.l2_leaf_penalty
    rate = float(y.mean())
    margins = np.full(len(y), float(np.log(rate / (1.0 - rate))))
    losses = [log_loss(y, sigmoid(margins))]
    trees = []
    for _ in range(hp.n_rounds):
        p = sigmoid(margins)
        g, h = quantize(p - y), quantize(p * (1.0 - p))

        def build(rows, depth):
            G, H = float(g[rows].sum()), float(h[rows].sum())
            if H + lam == 0.0:
                raise DegenerateTrainingError("saturated")
            found = None
            if depth < hp.max_depth and len(rows) >= 2:
                found = reference_best_split(X[rows], g[rows], h[rows], hp)
            if found is None:
                return Leaf(-G / (H + lam))
            col, threshold, gain = found
            left = X[rows, col] < threshold
            return Split(col, threshold, gain,
                         build(rows[left], depth + 1), build(rows[~left], depth + 1))

        trees.append(build(np.arange(len(y)), 0))
        margins += hp.learning_rate * tree_values(trees[-1], X)
        losses.append(log_loss(y, sigmoid(margins)))
    return trees, losses


def tree_bits(node):
    if isinstance(node, Leaf):
        return node.weight.hex()
    return (node.column, node.threshold.hex(), node.gain.hex(),
            tree_bits(node.left), tree_bits(node.right))


@st.composite
def train_problems(draw):
    """A `random_matrix` with labels of both classes and hyperparameters;
    large shapes train few shallow trees, so the reference stays quick."""
    if draw(st.booleans()):
        n_rows, n_cols = draw(st.integers(2, 16)), draw(st.integers(1, 8))
        n_rounds, max_depth = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    else:
        n_rows, n_cols = large_shape(draw)
        n_rounds, max_depth = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rng, X = draw_matrix(draw, n_rows, n_cols)
    y = rng.integers(0, 2, n_rows).astype(np.float64)
    y[:2] = 0.0, 1.0
    lam = draw(st.sampled_from([0.0, 0.5, 1.0]))
    hp = HyperParams(
        n_rounds=n_rounds,
        max_depth=max_depth,
        learning_rate=draw(st.sampled_from([0.1, 0.3])),
        l2_leaf_penalty=lam,
        min_child_hessian=draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 5.0]).filter(
            lambda mch: lam > 0 or mch > 0)),
        split_gain_threshold=draw(st.sampled_from([0.0, 0.05])),
    )
    return X, y, hp


def cut_gain(x, threshold, g, h, hp):
    """The gain of the cut of a node's rows at `threshold` of column x."""
    lam, left = hp.l2_leaf_penalty, x < threshold
    G, H, G_L, H_L = g.sum(), h.sum(), g[left].sum(), h[left].sum()
    return (0.5 * (G_L**2 / (H_L + lam) + (G - G_L)**2 / (H - H_L + lam) - G**2 / (H + lam))
            - hp.split_gain_threshold)


# Rounding g and h to the 2^-30 grid moves each by at most 2^-31. Under the
# unrounded g and h, the gain of each cut the trainer chooses is within this
# relative distance of the best cut of its node. The largest distance
# measured, over every split of 50- to 200-round fits at depths 3 to 6 on
# the planted datasets, was 6.3e-12; about one split in eight chose another
# cut than the unrounded best, a complementary one-hot column or a near tie.
GAIN_TOLERANCE = 1e-10


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_the_per_column_reference_bit_for_bit(self, problem):
        X, g, h, hp = problem
        # a node with H + lambda == 0 is rejected before its split search
        assume(h.sum() + hp.l2_leaf_penalty > 0)
        note_distinct_values(X)
        assert split_bits(find_best_split(X, g, h, hp)) == split_bits(
            reference_best_split(X, g, h, hp)
        )

    @settings(max_examples=300, deadline=None)
    @given(subset_problems())
    def test_a_node_of_a_wider_matrix_matches_the_reference_on_its_rows(self, problem):
        X, rows, g, h, hp = problem
        g, h = g[rows], h[rows]
        assume(h.sum() + hp.l2_leaf_penalty > 0)
        event("the node lacks a value of a column" if any(
            len(np.unique(x[rows])) < len(np.unique(x)) for x in X.T)
            else "the node holds every value of every column")
        event("some row of the node has h == 0" if (h == 0).any()
              else "no row of the node has h == 0")
        found = node_split(boosting._Columns.of(X), rows, g, h, hp)
        assert split_bits(found) == split_bits(reference_best_split(X[rows], g, h, hp))

    @settings(max_examples=200, deadline=None)
    @given(train_problems())
    def test_train_matches_the_reference_trainer_tree_for_tree(self, problem):
        X, y, hp = problem
        note_distinct_values(X)
        try:
            model = train(X, y, hp)
        except DegenerateTrainingError:
            with pytest.raises(DegenerateTrainingError):
                reference_train(X, y, hp)
            return
        trees, losses = reference_train(X, y, hp)
        assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in trees]
        assert [x.hex() for x in model.training_loss] == [x.hex() for x in losses]

    @pytest.mark.parametrize("min_child_hessian", [0.0, 1.0])
    def test_a_deep_fit_matches_the_reference_trainer_tree_for_tree(
        self, planted_train_dataset, min_child_hessian
    ):
        # depth 6 on 732 rows: deep nodes of many rows, whose sums are
        # handed down and subtracted over five levels
        X, y, _ = encode(planted_train_dataset)
        y = y.astype(np.float64)
        hp = HyperParams(n_rounds=20, max_depth=6, min_child_hessian=min_child_hessian)
        model = train(X, y, hp)
        trees, losses = reference_train(X, y, hp)
        assert max(depth for tree in model.trees for _, depth, _ in node_rows(tree, X)) == 6
        assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in trees]
        assert [x.hex() for x in model.training_loss] == [x.hex() for x in losses]

    @pytest.mark.parametrize("wide", [False, True])
    def test_handed_down_sums_equal_the_node_sums_bit_for_bit(
        self, planted_train_dataset, monkeypatch, wide
    ):
        # a child's G and H are those of its parent's chosen cut, and a
        # larger child's cut sums its parent's less its sibling's: each must
        # equal the sum over the node's own rows, to the bit
        X, y, _ = encode(planted_train_dataset)
        if wide:
            # a column of more than _NARROW_CUTS cuts, summed by histogram
            X = np.column_stack([X, np.arange(len(X)) % 97])
        quantize_, cut_sums, search = (boosting._quantize, boosting._cut_sums,
                                       boosting._find_best_split)
        rounds, taken, searched = [], set(), []

        def quantizing(x):
            rounds.append(quantize_(x))
            return rounds[-1]

        def taking(cols, rows, g, h):
            taken.add((len(rounds), rows.tobytes()))
            return cut_sums(cols, rows, g, h)

        def recording(cols, rows, G, H, H_L, G_L, hp):
            searched.append((len(rounds), rows, G, H, H_L, G_L))
            return search(cols, rows, G, H, H_L, G_L, hp)

        monkeypatch.setattr(boosting, "_quantize", quantizing)
        monkeypatch.setattr(boosting, "_cut_sums", taking)
        monkeypatch.setattr(boosting, "_find_best_split", recording)
        train(X, y, HyperParams(n_rounds=20, max_depth=6, min_child_hessian=0.0))
        cols = boosting._Columns.of(X)
        assert (cols.order is not None) == wide
        # each cut's rows on the left, over the whole matrix, in cut order
        left = (X[:, cols.column] <= cols.value).astype(np.float64)
        for n_quantized, rows, G, H, H_L, G_L in searched:
            g, h = rounds[n_quantized - 2][rows], rounds[n_quantized - 1][rows]
            assert (G.hex(), H.hex()) == (float(g.sum()).hex(), float(h.sum()).hex())
            assert H_L.tobytes() == (h @ left[rows]).tobytes()
            assert G_L.tobytes() == (g @ left[rows]).tobytes()
        subtracted = [rows for n, rows, *_ in searched if (n, rows.tobytes()) not in taken]
        assert len(subtracted) > len(searched) // 4

    def test_chosen_cuts_are_within_the_tolerance_of_the_best_unrounded_cuts(
        self, planted_train_dataset
    ):
        X, y, _ = encode(planted_train_dataset)
        y = y.astype(np.float64)
        hp = HyperParams(n_rounds=40, max_depth=6, min_child_hessian=5.0)
        model = train(X, y, hp)
        n_splits = 0
        for margins, tree in zip(staged_margins(model, X), model.trees):
            p = sigmoid(margins)
            g, h = p - y, p * (1.0 - p)
            assert np.abs(quantize(g) - g).max() <= 2**-31
            assert np.abs(quantize(h) - h).max() <= 2**-31
            for nd, _, rows in node_rows(tree, X):
                if isinstance(nd, Leaf):
                    continue
                n_splits += 1
                _, _, best = reference_best_split(X[rows], g[rows], h[rows], hp)
                chosen = cut_gain(X[rows, nd.column], nd.threshold, g[rows], h[rows], hp)
                assert abs(chosen - best) <= GAIN_TOLERANCE * best
        assert n_splits > 100

    @settings(max_examples=500, deadline=None)
    @given(light_nodes())
    def test_a_node_too_light_to_split_has_no_cut(self, problem):
        # the rule by which the trainer makes such a node a leaf unsearched
        X, g, h, hp = problem
        H, min_h = h.sum(), hp.min_child_hessian
        ulps = round((H - 2 * min_h) / np.spacing(2 * min_h))
        assume(abs(ulps) <= 8 and h.min() > 0)
        event("H below 2 min_h" if ulps < 0 else "H above 2 min_h" if ulps > 0
              else "H is 2 min_h")
        if H - min_h < min_h:
            event("too light to split")
            assert reference_best_split(X, g, h, hp) is None

    def test_nodes_too_light_to_split_are_not_searched(self, planted_train_dataset, monkeypatch):
        X, y, _ = encode(planted_train_dataset)
        hp = HyperParams(n_rounds=10, max_depth=6, min_child_hessian=5.0)
        searched = []
        search = boosting._find_best_split

        def recording(cols, rows, G, H, *args, **kwargs):
            searched.append(H)
            return search(cols, rows, G, H, *args, **kwargs)

        monkeypatch.setattr(boosting, "_find_best_split", recording)
        model = train(X, y, hp)
        assert searched and all(H - 5.0 >= 5.0 for H in searched)
        # some leaf that depth and row count alone would have let split is
        # that light
        light = 0
        for margins, tree in zip(staged_margins(model, X), model.trees):
            p = sigmoid(margins)
            h = p * (1.0 - p)
            light += sum(isinstance(nd, Leaf) and depth < hp.max_depth and len(rows) >= 2
                         and h[rows].sum() < 10.0 for nd, depth, rows in node_rows(tree, X))
        assert light > 0

    def test_a_node_of_exactly_twice_min_child_hessian_splits_in_half(self):
        # at p = 0.5 each hessian is 0.25, so H is 2.0 and each half 1.0
        X = np.repeat([[0.0], [1.0]], 4, axis=0)
        hp = HyperParams(n_rounds=1, max_depth=1, min_child_hessian=1.0)
        (tree,) = train(X, X[:, 0], hp).trees
        assert (tree.column, tree.threshold) == (0, 0.5)

    def grad(self, y):
        p = np.full(len(y), 0.5)
        return p - np.asarray(y, dtype=float), p * (1.0 - p)

    @pytest.mark.parametrize("narrow_cuts", [boosting._NARROW_CUTS, 0])
    def test_identical_columns_resolve_to_the_lowest(self, narrow_cuts, monkeypatch):
        monkeypatch.setattr(boosting, "_NARROW_CUTS", narrow_cuts)
        X = np.array([[0.0, 7.0, 0.0, 0.0], [0.0, 7.0, 0.0, 0.0],
                      [1.0, 7.0, 1.0, 1.0], [1.0, 7.0, 1.0, 1.0]])
        g, h = self.grad([0, 0, 1, 1])
        hp = HyperParams(min_child_hessian=0.1)
        col, threshold, _ = find_best_split(X, g, h, hp)
        assert (col, threshold) == (0, 0.5)
        assert find_best_split(X[:, 1:], g, h, hp)[:2] == (1, 0.5)
        # the same, 12 columns apart among 0/1 columns (high 1), whose cuts
        # are scored by one matrix product, and among other columns (high
        # 2), scored by that product too, or, with `_NARROW_CUTS` at 0, each
        # by its own histogram
        n_rows = 400
        y = np.arange(n_rows) % 2
        g, h = self.grad(y)
        for high in 1.0, 2.0:
            X = high * np.random.default_rng(0).integers(0, 2, (n_rows, 23)).astype(np.float64)
            X[:, 9] = X[:, 21] = high * y
            assert find_best_split(X, g, h, HyperParams())[:2] == (9, high / 2)
            assert find_best_split(X[:, 10:], g, h, HyperParams())[0] == 11

    @pytest.mark.parametrize("seed", range(3))
    def test_complementary_0_1_columns_resolve_to_the_lower(self, seed):
        # a 0/1 column and its complement cut every node's rows into the
        # same two sides, so their gains are equal in real arithmetic, and
        # with exact sums to the bit: no tree splits on the higher of them
        rng = np.random.default_rng(seed)
        n_rows = 500
        a = rng.integers(0, 2, n_rows).astype(np.float64)
        y = (rng.uniform(size=n_rows) < np.where(a == 1, 0.8, 0.2)).astype(np.float64)
        noise = rng.normal(size=n_rows)
        for X in np.column_stack([a, 1.0 - a, noise]), np.column_stack([1.0 - a, a, noise]):
            model = train(X, y, HyperParams(n_rounds=10, max_depth=3))
            columns = {split.column for split in boosting.splits(model.trees)}
            assert 0 in columns and 1 not in columns

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("binary_first", [True, False])
    def test_a_0_1_column_ties_a_numeric_column_to_the_lower(self, binary_first, wide):
        binary = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        numeric = 3.0 * binary
        g, h = self.grad([0, 0, 1, 1, 1, 0])
        if wide:
            # rows of g == h == 0 give the numeric column more than
            # _NARROW_CUTS cuts and change no sum; they go right on both
            extra = boosting._NARROW_CUTS + 1
            binary = np.r_[binary, np.ones(extra)]
            numeric = np.r_[numeric, 10.0 + np.arange(extra)]
            g, h = np.r_[g, np.zeros(extra)], np.r_[h, np.zeros(extra)]
        # the same partition, so the same sums in the same order
        columns = [binary, numeric]
        X = np.column_stack(columns if binary_first else columns[::-1])
        cols = boosting._Columns.of(X)
        if wide:
            # the 0/1 column is scored by the matrix product, the other by
            # its histogram
            assert cols.left.shape[1] == len(cols.codes) == 1
        else:
            # both by the matrix product
            assert cols.left.shape[1] == 2 and cols.order is None
        hp = HyperParams(min_child_hessian=0.1)
        found = find_best_split(X, g, h, hp)
        assert found[:2] == (0, 0.5 if binary_first else 1.5)
        assert split_bits(found) == split_bits(reference_best_split(X, g, h, hp))

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_a_0_1_column_constant_within_the_node_has_no_cut(self, value):
        # 0/1 over the matrix, constant on the node's rows. Its cut leaves
        # one side empty; G_L takes its sum by a matrix product and G by a
        # pairwise sum, which agree to the bit on the 2^-30 grid, so the
        # gain is exactly 0
        n_rows = 500
        X = np.r_[np.zeros(n_rows), np.ones(n_rows)][:, None]
        cols = boosting._Columns.of(X)
        assert cols.binary.tolist() == [True] and cols.left.shape == (2 * n_rows, 1)
        rows = np.flatnonzero(X[:, 0] == value)
        hp = HyperParams(min_child_hessian=0.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = rng.uniform(size=n_rows)
            g, h = quantize(p - rng.integers(0, 2, n_rows)), quantize(p * (1.0 - p))
            assert node_split(cols, rows, g, h, hp) is None

    def test_a_column_of_negative_zeros_and_ones_splits_at_one_half(self):
        X = np.array([[-0.0], [1.0], [-0.0], [1.0]])
        cols = boosting._Columns.of(X)
        assert cols.binary.tolist() == [True] and cols.left.tolist() == [[1.0], [0.0], [1.0], [0.0]]
        y = [0, 1, 0, 1]
        g, h = self.grad(y)
        hp = HyperParams(min_child_hessian=0.1)
        found = find_best_split(X, g, h, hp)
        assert found[:2] == (0, 0.5)
        assert split_bits(found) == split_bits(reference_best_split(X, g, h, hp))
        (tree,) = train(X, y, replace(hp, n_rounds=1, max_depth=1)).trees
        assert tree.threshold.hex() == (0.5).hex()

    def test_a_midpoint_that_rounds_to_the_lower_value_parts_the_rows_by_the_threshold(self):
        # the midpoint of 1 and the next float is 1, so the rows at 1 go
        # right, unlike the cut's: each side's sums are those of its rows
        above = np.nextafter(1.0, 2.0)
        X = np.array([[0.0], [1.0], [above], [above]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        hp = HyperParams(n_rounds=2, max_depth=2, min_child_hessian=0.0)
        model = train(X, y, hp)
        assert model.trees[0].threshold == 1.0
        trees, losses = reference_train(X, y, hp)
        assert [tree_bits(t) for t in model.trees] == [tree_bits(t) for t in trees]
        assert [x.hex() for x in model.training_loss] == [x.hex() for x in losses]

    def test_tied_thresholds_resolve_to_the_lowest(self):
        # splits at 0.5 and 1.5 mirror each other: the same two terms in
        # the other order, so their gains are equal to the bit
        X = np.array([[0.0], [1.0], [2.0]])
        g = np.array([1.0, 0.0, -1.0])
        h = np.ones(3)
        hp = HyperParams(l2_leaf_penalty=1.0, min_child_hessian=0.0)
        assert find_best_split(X, g, h, hp) == (0, 0.5, 0.5 * (1 / 2 + 1 / 3))
        (tree,) = train(X, [1, 0, 0], replace(hp, n_rounds=1, max_depth=1)).trees
        assert tree.threshold == 0.5
        # the same tie across two columns goes to the lower column, even
        # though the other column's split has the lower position
        X2 = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert find_best_split(X2, g, h, hp) == (0, 0.5, 0.5 * (1 / 3 + 1 / 2))

    def test_a_single_row_has_no_split(self):
        assert find_best_split(np.array([[1.0, 2.0]]), np.array([0.5]), np.array([0.25]),
                                HyperParams(min_child_hessian=0.0)) is None


# save_model bytes of HAND_BUILT_MODEL: two splits, three leaves, and a
# schema with a vocab block whose non-ASCII category is escaped.
HAND_BUILT_MODEL = GbdtModel(
    base_score=-0.25,
    trees=(
        Split(column=0, threshold=2.5, gain=1.5, left=Leaf(-0.5),
              right=Split(column=2, threshold=0.5, gain=0.75, left=Leaf(0.25), right=Leaf(1.0))),
        Leaf(0.125),
    ),
    params=HyperParams(n_rounds=2, max_depth=2),
    seed=3,
    n_features=6,
    schema=EncoderSchema(
        blocks=(
            FeatureBlock("t_a_dist", "numeric"),
            FeatureBlock("t_head_lemma", "vocab", ("caf\u00e9", "river")),
            FeatureBlock("t_definite", "categorical", ("def", "ind")),
        ),
        lemma_top_k=2,
    ),
    training_loss=(0.6875, 0.5),
)
HAND_BUILT_MODEL_BYTES = (
    b'{"base_score":-0.25,"format_version":1,"n_features":6,'
    b'"params":{"l2_leaf_penalty":1.0,"learning_rate":0.3,"max_depth":2,'
    b'"min_child_hessian":1.0,"n_rounds":2,"split_gain_threshold":0.0},'
    b'"schema":{"blocks":[{"categories":[],"feature":"t_a_dist","kind":"numeric"},'
    b'{"categories":["caf\\u00e9","river"],"feature":"t_head_lemma","kind":"vocab"},'
    b'{"categories":["def","ind"],"feature":"t_definite","kind":"categorical"}],'
    b'"lemma_top_k":2},"seed":3,"training_loss":[0.6875,0.5],'
    b'"trees":[{"column":0,"gain":1.5,"left":{"weight":-0.5},'
    b'"right":{"column":2,"gain":0.75,"left":{"weight":0.25},"right":{"weight":1.0},'
    b'"threshold":0.5},"threshold":2.5},{"weight":0.125}]}\n'
)


class TestModelSerialization:
    @pytest.mark.parametrize(("text", "message"), [
        ("{broken", "^line 1: invalid JSON: Expecting property name enclosed in double quotes$"),
        ('{\n  "seed": 1,\n  "trees": [}\n', "^line 3: invalid JSON: Expecting value$"),
        ("[" * 100_000, "^line 1: invalid JSON: nested too deeply$"),
        # the line of the first integer too long for Python, past a string,
        # a fraction and an exponent of as many digits
        (f'{{\n  "a": "{"9" * 5000}",\n  "b": [0.{"9" * 5000}, 1E-{"9" * 5000}],\n'
         f'  "c": -{"9" * 5000}\n}}\n', "^line 4: invalid JSON: an integer has too many digits$"),
    ], ids=["not json", "pretty printed", "nested too deeply", "too many digits"])
    def test_a_file_that_is_not_json_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_model(path)

    def test_saved_bytes_match_the_golden_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(HAND_BUILT_MODEL, path)
        assert path.read_bytes() == HAND_BUILT_MODEL_BYTES
        assert load_model(path) == HAND_BUILT_MODEL

    def test_save_load_round_trip(self, planted_model, planted_eval_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(planted_model, path)
        loaded = load_model(path)
        assert loaded == planted_model
        assert evaluate(loaded, planted_eval_dataset) == evaluate(planted_model, planted_eval_dataset)

    def test_unsupported_format_version_is_rejected(self, planted_model):
        obj = model_to_dict(planted_model)
        obj["format_version"] = 99
        with pytest.raises(SchemaMismatchError, match="format version"):
            model_from_dict(obj)

    @pytest.mark.parametrize("column", [999, -1])
    def test_split_column_outside_the_feature_range_is_rejected(self, planted_model, column):
        obj = model_to_dict(planted_model)
        tree = next(t for t in obj["trees"] if "column" in t)
        # below the root, so the check must reach nested splits
        tree["left"] = {"column": column, "threshold": 0.5, "gain": 1.0,
                        "left": tree["left"], "right": {"weight": 0.0}}
        with pytest.raises(
            ValidationError,
            match=rf"split column {column} outside 0\.\.{planted_model.n_features - 1}$",
        ):
            model_from_dict(obj)

    def test_schemaless_models_round_trip_too(self):
        model = TestTraining().hand_model()
        assert model.schema is None
        assert model_from_dict(model_to_dict(model)) == model

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_trained_models_round_trip_and_rewrite_the_same_bytes(
        self, planted_train_dataset, tmp_path, depth
    ):
        X, y, schema = encode(planted_train_dataset)
        model = train(X, y, HyperParams(n_rounds=8, max_depth=depth), seed=depth, schema=schema)
        assert model_from_dict(model_to_dict(model)) == model
        path = tmp_path / "model.json"
        save_model(model, path)
        data = path.read_bytes()
        loaded = load_model(path)
        assert loaded == model
        save_model(loaded, path)
        assert path.read_bytes() == data

    def test_a_number_keeps_the_type_it_was_read_with(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(HAND_BUILT_MODEL_BYTES.replace(b'"threshold":2.5', b'"threshold":2'))
        assert load_model(path).trees[0].threshold == 2
        data = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == data

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            # read as column 2 and as threshold "0.5" before
            (lambda obj: obj["trees"][0].update(column=2.5),
             r"^model\.trees\[0\]\.column: expected an integer$"),
            (lambda obj: obj["trees"][0]["right"].update(threshold="0.5"),
             r"^model\.trees\[0\]\.right\.threshold: expected a number$"),
            (lambda obj: obj["trees"][1].update(weight=True),
             r"^model\.trees\[1\]\.weight: expected a number$"),
            (lambda obj: obj["trees"][0]["left"].update(gain=1.0),
             r"^model\.trees\[0\]\.left: unexpected keys \['gain'\]$"),
            (lambda obj: obj["params"].update(max_depth="2"),
             r"^model\.params\.max_depth: expected an integer$"),
            (lambda obj: obj.update(training_loss=["0.5"]),
             r"^model\.training_loss: expected a list of numbers$"),
            (lambda obj: obj["schema"]["blocks"][1].update(categories="ab"),
             r"^model\.schema\.blocks\[1\]\.categories: expected a list of strings$"),
            (lambda obj: obj.pop("seed"), r"^model: missing keys \['seed'\]$"),
        ],
    )
    def test_each_field_of_the_file_is_checked_naming_its_path(self, edit, message):
        obj = json.loads(HAND_BUILT_MODEL_BYTES)
        edit(obj)
        with pytest.raises(ValidationError, match=message):
            model_from_dict(obj)

    def test_bytes_that_are_not_utf_8_name_their_line(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\n" + HAND_BUILT_MODEL_BYTES.replace(b"river", b"riv\xe9r"))
        with pytest.raises(
            ParseError, match="^line 2: not valid utf-8: invalid continuation byte$"
        ) as info:
            load_model(path)
        assert info.value.line == 2

    def test_trees_nested_too_deeply_are_a_validation_error(self):
        node = {"weight": 0.0}
        for _ in range(2000):
            node = {"column": 0, "threshold": 0.5, "gain": 1.0, "left": node,
                    "right": {"weight": 0.0}}
        obj = model_to_dict(replace(HAND_BUILT_MODEL, schema=None))
        obj["trees"] = [node]
        with pytest.raises(ValidationError, match="^model: trees nested too deeply$"):
            model_from_dict(obj)

    def test_a_model_that_is_not_an_object_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="^model: expected an object$"):
            model_from_dict([])


class TestMetrics:
    def test_hand_confusion_counts(self):
        m = metrics_from_predictions(np.array([1, 1, 0, 0, 1]), np.array([1, 0, 0, 1, 1]))
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_zero_denominators_yield_zero_not_nan(self):
        m = metrics_from_predictions(np.array([0, 0]), np.array([0, 0]))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_probability_exactly_at_threshold_counts_positive(self):
        model = GbdtModel(base_score=0.0, trees=(), params=HyperParams(), seed=0, n_features=1)
        m = evaluate_matrix(model, np.zeros((2, 1)), np.array([1, 0]))
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 0, 0)
        assert m.recall == 1.0

    def test_evaluate_requires_an_attached_schema(self, planted_eval_dataset):
        model = TestTraining().hand_model()
        with pytest.raises(ConfigError, match="no encoder schema"):
            evaluate(model, planted_eval_dataset)

    def test_metrics_serialize_to_plain_dicts(self):
        m = metrics_from_predictions(np.array([1, 0]), np.array([1, 0]))
        assert json.loads(json.dumps(asdict(m)))["f1"] == 1.0


class TestRandomBaseline:
    def test_always_negative_predictor_scores_zero(self, planted_full_dataset):
        m = random_baseline(planted_full_dataset, p=0.0, runs=3, seed=0)
        assert (m.precision, m.recall, m.f1, m.tp, m.fp) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_always_positive_predictor_has_recall_one(self, planted_full_dataset):
        m = random_baseline(planted_full_dataset, p=1.0, runs=3, seed=0)
        assert m.recall == 1.0
        n = len(planted_full_dataset.examples)
        positives = planted_full_dataset.label_counts()["bridging"]
        assert m.precision == pytest.approx(positives / n)
        assert m.tn == 0.0

    def test_same_seed_reproduces_counts_are_run_averages(self):
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        a = random_baseline(y, p=0.5, runs=7, seed=3)
        b = random_baseline(y, p=0.5, runs=7, seed=3)
        assert a == b
        assert (a.tp + a.fp + a.fn + a.tn) == pytest.approx(len(y))

    def test_labels_array_and_dataset_inputs_agree(self, planted_full_dataset):
        y = np.array([ex.label == "bridging" for ex in planted_full_dataset.examples])
        assert random_baseline(planted_full_dataset, seed=5) == random_baseline(y, seed=5)

    def test_empty_input_is_an_error(self):
        with pytest.raises(EmptyDatasetError):
            random_baseline(np.array([]), p=0.5)

    def test_zero_runs_is_a_config_error(self):
        with pytest.raises(ConfigError, match="runs must be >= 1"):
            random_baseline(np.array([1, 0]), runs=0)


class TestStratifiedFolds:
    def test_folds_partition_the_indices_with_balanced_classes(self):
        labels = ["a"] * 6 + ["b"] * 4
        folds = stratified_folds(labels, k=3, seed=0)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(10))
        for fold in folds:
            a = sum(1 for i in fold if labels[i] == "a")
            b = sum(1 for i in fold if labels[i] == "b")
            assert a == 2 and b in (1, 2)

    def test_folds_are_deterministic_per_seed(self):
        labels = ["a", "b"] * 10
        assert stratified_folds(labels, 4, seed=1) == stratified_folds(labels, 4, seed=1)
        assert stratified_folds(labels, 4, seed=1) != stratified_folds(labels, 4, seed=2)

    def test_invalid_fold_counts_are_rejected(self):
        with pytest.raises(ConfigError):
            stratified_folds(["a", "b"], k=1, seed=0)
        with pytest.raises(ConfigError):
            stratified_folds(["a", "b"], k=3, seed=0)


def reference_predict_proba(model, X):
    """Prediction as a loop that adds each tree's values to the margins."""
    margins = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        margins += model.params.learning_rate * tree_values(tree, X)
    return sigmoid(margins)


def reference_cross_validate(dataset, grid, k, seed):
    """The grid search that `cross_validate` must match: one fit per path
    and fold, each grid point scored by predicting its prefix of the trees
    from scratch, with the examples dealt in key order."""
    examples = sorted(dataset.examples,
                      key=lambda ex: (ex.label, ex.doc_id, ex.antecedent_id, ex.anaphor_id))
    binary = ["pos" if ex.label == "bridging" else "neg" for ex in examples]
    split_data = []
    for fold in stratified_folds(binary, k, seed):
        held = set(fold)
        train_examples = [ex for i, ex in enumerate(examples) if i not in held]
        schema = fit_schema(train_examples)
        X_tr, y_tr, _ = encode(train_examples, schema=schema)
        X_va, y_va, _ = encode([examples[i] for i in fold], schema=schema)
        split_data.append((X_tr, y_tr, X_va, y_va))
    paths: dict[HyperParams, list[int]] = {}
    for i, hp in enumerate(grid):
        paths.setdefault(replace(hp, n_rounds=0), []).append(i)
    fold_f1: list[list[float]] = [[] for _ in grid]
    for path, members in paths.items():
        longest = replace(path, n_rounds=max(grid[i].n_rounds for i in members))
        for X_tr, y_tr, X_va, y_va in split_data:
            model = train(X_tr, y_tr, longest, seed=seed)
            for i in members:
                prefix = replace(model, trees=model.trees[:grid[i].n_rounds], params=grid[i])
                predicted = reference_predict_proba(prefix, X_va) >= DECISION_THRESHOLD
                fold_f1[i].append(metrics_from_predictions(y_va, predicted).f1)
    results = [CvResult(hp, tuple(scores)) for hp, scores in zip(grid, fold_f1)]
    best = results[0]
    for result in results[1:]:
        if _beats(result, best):
            best = result
    return best.params, results


def reference_mda_importance(model, dataset, repeats, seed):
    """The permutation importance that `mda_importance` must match: each
    permuted matrix copied whole and predicted in full."""
    X, y, _ = encode(dataset, schema=model.schema)
    y = y.astype(bool)
    baseline = float(np.mean((reference_predict_proba(model, X) >= DECISION_THRESHOLD) == y))
    slices = model.schema.block_slices()
    out = {}
    for index, feature in enumerate(sorted(slices)):
        block = slices[feature]
        drops = []
        for repeat in range(repeats):
            perm = importance.permutation(seed, (index, repeat), X.shape[0])
            Xp = X.copy()
            Xp[:, block] = X[perm, block]
            acc = float(np.mean((reference_predict_proba(model, Xp) >= DECISION_THRESHOLD) == y))
            drops.append(baseline - acc)
        out[feature] = float(np.mean(drops))
    return out


_VALUES = ("p", "q", "r", "s", "t")


def random_examples(rng, n, n_values, labels=()):
    """`n` examples whose features take `n_values` values each, with the
    given leading labels and random ones after them."""
    examples = []
    for i in range(n):
        values = rng.integers(0, n_values, len(FEATURE_NAMES))
        features = FeatureVector(**{
            name: int(v) if name in NUMERIC_FEATURES else _VALUES[v]
            for name, v in zip(FEATURE_NAMES, values)
        })
        label = labels[i] if i < len(labels) else LABELS[rng.integers(0, len(LABELS))]
        examples.append(PairExample("d", f"a{i}", f"n{i}", features, label))
    return examples


@st.composite
def mda_problems(draw):
    """A model of 0, 1, 10 or 60 rounds at depth 1 to 6, and an eval set of
    1 to 30 rows in which one categorical feature a tree splits on, if
    there is one, holds a single value, so that its permutation moves no
    row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_values = draw(st.integers(1, 4))
    train_examples = random_examples(rng, draw(st.integers(2, 40)), n_values,
                                     labels=("bridging", "none"))
    X, y, schema = encode(train_examples)
    hp = HyperParams(
        n_rounds=draw(st.sampled_from([0, 1, 10, 60])),
        max_depth=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.1, 0.3])),
        min_child_hessian=draw(st.sampled_from([0.0, 0.1, 1.0])),
    )
    model = train(X, y, hp, schema=schema)
    examples = random_examples(rng, draw(st.sampled_from([1, 2, 5, 30])),
                               n_values + draw(st.integers(0, 1)))
    by_column = schema.column_features()
    used = sorted({by_column[c] for c in column_gain_totals(model)[0]})
    categorical = [f for f in used if f not in NUMERIC_FEATURES]
    held = draw(st.sampled_from(categorical or [f for f in FEATURE_NAMES if f not in NUMERIC_FEATURES]))
    value = getattr(examples[0].features, held)
    examples = [replace(ex, features=replace(ex.features, **{held: value})) for ex in examples]
    event(f"{hp.n_rounds} rounds")
    event("eval set of one row" if len(examples) == 1 else "eval set of several rows")
    event("the held feature is used by a tree" if held in used else "the held feature is unused")
    event("some feature is unused" if len(used) < len(FEATURE_NAMES) else "every feature is used")
    return model, examples, held, used, draw(st.integers(1, 3)), draw(st.integers(0, 100))


@st.composite
def cv_problems(draw):
    """A dataset with at least k + 1 examples of each class, and a grid
    whose points may repeat and may have 0 rounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 3))
    labels = ("bridging",) * (k + 1) + ("none",) * (k + 1)
    examples = random_examples(rng, draw(st.integers(2 * k + 2, 30)), draw(st.integers(1, 4)),
                               labels=labels)
    order = rng.permutation(len(examples))
    dataset = PairDataset(tuple(examples[i] for i in order), Provenance("c", "train", 0, 10))
    point = st.builds(
        HyperParams,
        n_rounds=st.sampled_from([0, 1, 2, 3, 5, 8]),
        max_depth=st.integers(1, 4),
        learning_rate=st.sampled_from([0.1, 0.3]),
        min_child_hessian=st.sampled_from([0.0, 1.0, 5.0]),
    )
    grid = draw(st.lists(point, min_size=1, max_size=6))
    if draw(st.booleans()):
        grid.append(replace(grid[0], n_rounds=0))
    if draw(st.booleans()):
        grid.append(grid[draw(st.integers(0, len(grid) - 1))])
    rounds = [hp.n_rounds for hp in grid]
    event("a point of 0 rounds" if 0 in rounds else "no point of 0 rounds")
    event("repeated n_rounds" if len(set(rounds)) < len(rounds) else "distinct n_rounds")
    return dataset, grid, k, draw(st.integers(0, 100))


class TestCrossValidate:
    def test_grid_search_prefers_the_stronger_configuration(self, planted_train_dataset):
        weak = HyperParams(n_rounds=1, max_depth=1, learning_rate=0.1)
        strong = HyperParams(n_rounds=40, max_depth=4, learning_rate=0.3)
        best, results = cross_validate(planted_train_dataset, [weak, strong], k=4, seed=0)
        assert best == strong
        assert len(results) == 2
        by_params = {r.params: r for r in results}
        assert by_params[strong].mean_f1 > by_params[weak].mean_f1
        assert all(len(r.fold_f1) == 4 for r in results)

    def test_fold_schemas_use_the_given_lemma_top_k(self, planted_train_dataset, monkeypatch):
        seen = []

        def spy(examples, lemma_top_k):
            seen.append(lemma_top_k)
            return fit_schema(examples, lemma_top_k=lemma_top_k)

        monkeypatch.setattr(evaluation, "fit_schema", spy)
        grid = [HyperParams(n_rounds=2, max_depth=2)]
        cross_validate(planted_train_dataset, grid, k=3, seed=0, lemma_top_k=2)
        assert seen == [2, 2, 2]

    def test_grid_paths_share_one_fit_per_fold(self, planted_train_dataset, monkeypatch):
        base = HyperParams(n_rounds=3, max_depth=2, learning_rate=0.3)
        grid = [
            base,
            replace(base, n_rounds=1),
            replace(base, max_depth=3, n_rounds=2),
            base,
            replace(base, n_rounds=0),
            replace(base, min_child_hessian=5.0, n_rounds=2),
        ]
        k, seed = 3, 4

        # reference: every grid point fitted on its own
        examples = list(planted_train_dataset.examples)
        labels = ["pos" if ex.label == "bridging" else "neg" for ex in examples]
        splits = []
        for fold in stratified_folds(labels, k, seed):
            held = set(fold)
            train_examples = [ex for i, ex in enumerate(examples) if i not in held]
            schema = fit_schema(train_examples)
            X_tr, y_tr, _ = encode(train_examples, schema=schema)
            X_va, y_va, _ = encode([examples[i] for i in fold], schema=schema)
            splits.append((X_tr, y_tr, X_va, y_va))
        expected = [
            CvResult(hp, tuple(evaluate_matrix(train(X_tr, y_tr, hp, seed=seed), X_va, y_va).f1
                               for X_tr, y_tr, X_va, y_va in splits))
            for hp in grid
        ]
        expected_best = expected[0]
        for result in expected[1:]:
            if _beats(result, expected_best):
                expected_best = result

        fits = []

        def spy(X, y, hp, seed=0, schema=None, **kwargs):
            fits.append(hp)
            return train(X, y, hp, seed=seed, schema=schema, **kwargs)

        monkeypatch.setattr(evaluation, "train", spy)
        best, results = cross_validate(planted_train_dataset, grid, k=k, seed=seed)
        assert results == expected
        assert best == expected_best.params
        assert len({r.fold_f1 for r in results}) > 1
        assert fits == [base] * k + [grid[2]] * k + [grid[5]] * k

    @settings(max_examples=60, deadline=None)
    @given(cv_problems())
    def test_staged_scores_match_the_per_prefix_reference(self, problem):
        dataset, grid, k, seed = problem
        best, results = cross_validate(dataset, grid, k=k, seed=seed)
        expected_best, expected = reference_cross_validate(dataset, grid, k, seed)
        assert results == expected
        assert best == expected_best

    def test_staged_margins_are_those_of_each_prefix(self, planted_model, planted_eval_dataset):
        X, _, _ = encode(planted_eval_dataset, schema=planted_model.schema)
        staged = [m.copy() for m in staged_margins(planted_model, X)]
        assert len(staged) == len(planted_model.trees) + 1
        for n, margins in enumerate(staged):
            prefix = replace(planted_model, trees=planted_model.trees[:n])
            assert margins.tobytes() == predict_margin(prefix, X).tobytes()

    def test_the_order_of_the_examples_does_not_matter(self, planted_train_dataset):
        grid = [HyperParams(n_rounds=n, max_depth=d, learning_rate=0.3)
                for n in (2, 6) for d in (1, 3)]
        expected = cross_validate(planted_train_dataset, grid, k=3, seed=5)
        examples = list(planted_train_dataset.examples)
        random.Random(1).shuffle(examples)
        shuffled = replace(planted_train_dataset, examples=tuple(examples))
        assert cross_validate(shuffled, grid, k=3, seed=5) == expected

    def test_an_empty_dataset_is_an_empty_dataset_error(self, planted_train_dataset):
        empty = replace(planted_train_dataset, examples=())
        with pytest.raises(EmptyDatasetError, match="empty dataset"):
            cross_validate(empty, [HyperParams()], k=5, seed=0)
        # a dataset with fewer examples than folds stays a config error
        few = replace(planted_train_dataset, examples=planted_train_dataset.examples[:4])
        with pytest.raises(ConfigError, match="cannot split into 5 folds"):
            cross_validate(few, [HyperParams()], k=5, seed=0)

    def test_empty_grid_is_rejected(self, planted_train_dataset):
        with pytest.raises(ConfigError, match="grid is empty"):
            cross_validate(planted_train_dataset, [], k=4)

    def test_tie_breaks_prefer_fewer_rounds_then_smaller_depth_then_position(self):
        small = HyperParams(n_rounds=10, max_depth=2)
        big = HyperParams(n_rounds=20, max_depth=5)
        tie = (0.9, 0.9)
        assert _beats(CvResult(small, tie), CvResult(big, tie))
        assert not _beats(CvResult(big, tie), CvResult(small, tie))
        shallow = HyperParams(n_rounds=10, max_depth=3)
        deep = HyperParams(n_rounds=10, max_depth=4)
        assert _beats(CvResult(shallow, tie), CvResult(deep, tie))
        assert not _beats(CvResult(small, tie), CvResult(small, tie))  # equal: keep first
        assert _beats(CvResult(big, (0.95, 0.95)), CvResult(small, tie))


# distinct parts are distinct modulo 2^64, as the helper takes them
streams = st.lists(st.integers(-2**63, 2**63 - 1), max_size=3).map(tuple)


class TestPermutation:
    """`importance.permutation`, the row shuffles of MDA."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(), streams, st.integers(0, 300))
    def test_every_output_is_a_permutation_of_range_n(self, seed, stream, n):
        perm = importance.permutation(seed, stream, n)
        assert perm.shape == (n,)
        assert sorted(perm.tolist()) == list(range(n))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(), streams, st.integers(0, 300), st.integers(-3, 3))
    def test_equal_arguments_give_equal_outputs(self, seed, stream, n, wraps):
        perm = importance.permutation(seed, stream, n)
        assert np.array_equal(perm, importance.permutation(seed, tuple(list(stream)), n))
        # a seed enters modulo 2^64, as the docstring says
        assert np.array_equal(perm, importance.permutation(seed + wraps * 2**64, stream, n))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(), streams, streams, st.integers(21, 300))
    def test_different_streams_give_different_outputs(self, seed, a, b, n):
        # Two distinct streams share their 64-bit key with a chance of 2^-64,
        # and two distinct keys order 21 rows or more alike with one of about
        # 1/21! < 2^-64
        assume(a != b)
        assert not np.array_equal(importance.permutation(seed, a, n),
                                  importance.permutation(seed, b, n))

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_the_six_orders_of_three_rows_are_equally_likely(self, seed):
        # Over 6,000 streams each order's count is Binomial(6000, 1/6): mean
        # 1000, standard deviation sqrt(6000 * 1/6 * 5/6) = 28.9. The bound
        # is 6 standard deviations, which a uniform shuffle exceeds with a
        # chance below 1e-8 per order.
        counts: dict[tuple[int, ...], int] = {}
        for r in range(6000):
            order = tuple(importance.permutation(seed, (r,), 3).tolist())
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        assert all(abs(c - 1000) <= 6 * 28.9 for c in counts.values()), counts


class TestImportance:
    def test_column_totals_match_an_independent_tree_walk(self, planted_model):
        totals, counts = column_gain_totals(planted_model)

        expected_total: dict[int, float] = {}
        expected_count: dict[int, int] = {}

        def walk(node):
            if isinstance(node, Leaf):
                return
            expected_total[node.column] = expected_total.get(node.column, 0.0) + node.gain
            expected_count[node.column] = expected_count.get(node.column, 0) + 1
            walk(node.left)
            walk(node.right)

        for tree in planted_model.trees:
            walk(tree)
        assert totals == pytest.approx(expected_total)
        assert counts == expected_count

    def test_gain_importance_reports_every_feature(self, planted_model):
        imp = gain_importance(planted_model)
        assert set(imp) == set(FEATURE_NAMES)
        assert all(v >= 0.0 for v in imp.values())
        assert imp["n_definite"] > 0.0

    def test_gain_importance_averages_block_gain_over_block_splits(self, planted_model):
        totals, counts = column_gain_totals(planted_model)
        by_column = planted_model.schema.column_features()
        total = sum(g for col, g in totals.items() if by_column[col] == "n_definite")
        n = sum(c for col, c in counts.items() if by_column[col] == "n_definite")
        assert gain_importance(planted_model)["n_definite"] == pytest.approx(total / n)

    def test_mda_reports_every_feature_deterministically(self, planted_model, planted_eval_dataset):
        a = mda_importance(planted_model, planted_eval_dataset, repeats=2, seed=9)
        b = mda_importance(planted_model, planted_eval_dataset, repeats=2, seed=9)
        assert a == b
        assert set(a) == set(FEATURE_NAMES)

    def test_permuting_a_constant_block_changes_nothing(self, planted_model, planted_eval_dataset):
        # every planted mention is a single token, so phrase lengths are
        # constant columns and their permutation is a no-op
        imp = mda_importance(planted_model, planted_eval_dataset, repeats=2, seed=0)
        assert imp["n_phrase_len"] == 0.0
        assert imp["t_phrase_len"] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(mda_problems())
    def test_mda_matches_the_full_prediction_reference(self, problem):
        model, examples, held, used, repeats, seed = problem
        got = mda_importance(model, examples, repeats=repeats, seed=seed)
        assert got == reference_mda_importance(model, examples, repeats, seed)
        assert got[held] == 0.0
        assert all(got[f] == 0.0 for f in FEATURE_NAMES if f not in used)

    def test_mda_on_the_planted_model_matches_the_reference(
        self, planted_model, planted_eval_dataset
    ):
        got = mda_importance(planted_model, planted_eval_dataset, repeats=3, seed=4)
        assert got == reference_mda_importance(planted_model, planted_eval_dataset, 3, 4)
        assert any(v != 0.0 for v in got.values())

    def test_mda_predicts_through_the_module_binding_once(
        self, planted_model, planted_eval_dataset, monkeypatch
    ):
        calls = []

        def spy(model, X):
            calls.append(X.shape)
            return predict_proba(model, X)

        monkeypatch.setattr(importance, "predict_proba", spy)
        mda_importance(planted_model, planted_eval_dataset, repeats=2, seed=0)
        assert calls == [(len(planted_eval_dataset.examples), planted_model.n_features)]

    def test_permuted_margins_equal_the_full_prediction_bit_for_bit(
        self, planted_model, planted_eval_dataset, monkeypatch
    ):
        seen = []

        def spy(margins):
            seen.append(margins.copy())
            return sigmoid(margins)

        monkeypatch.setattr(importance, "sigmoid", spy)
        mda_importance(planted_model, planted_eval_dataset, repeats=2, seed=4)
        # replay the permutations; a permutation that moves no row, or only
        # rows of a block no tree splits on, reaches no sigmoid
        X, _, schema = encode(planted_eval_dataset, schema=planted_model.schema)
        by_column = schema.column_features()
        used = {by_column[c] for c in column_gain_totals(planted_model)[0]}
        expected = []
        for index, (feature, block) in enumerate(sorted(schema.block_slices().items())):
            for repeat in range(2):
                Xp = X.copy()
                Xp[:, block] = X[importance.permutation(4, (index, repeat), X.shape[0]), block]
                rows = np.flatnonzero((Xp[:, block] != X[:, block]).any(axis=1))
                if feature in used and len(rows):
                    expected.append(predict_margin(planted_model, Xp)[rows])
        assert len(expected) > 0
        assert [m.tobytes() for m in seen] == [m.tobytes() for m in expected]

    def test_importance_requires_a_schema(self, planted_eval_dataset):
        model = TestTraining().hand_model()
        with pytest.raises(ConfigError):
            gain_importance(model)
        with pytest.raises(ConfigError):
            mda_importance(model, planted_eval_dataset)

    def test_mda_rejects_zero_repeats(self, planted_model, planted_eval_dataset):
        with pytest.raises(ConfigError, match="repeats"):
            mda_importance(planted_model, planted_eval_dataset, repeats=0)


class TestLearnsThePlantedRule:
    def test_heldout_f1_is_high_and_beats_chance(self, planted_model, planted_eval_dataset):
        metrics = evaluate(planted_model, planted_eval_dataset)
        chance = random_baseline(planted_eval_dataset, seed=0)
        assert metrics.f1 > 0.9
        assert metrics.f1 > chance.f1 + 0.3

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_rule_features_rank_above_noise_lemmas_across_seeds(self, seed):
        from bridgekit.harmonize import harmonize_corpus
        from bridgekit.pairgen import build_balanced_dataset

        docs, _ = harmonize_corpus(planted_rule_corpus_small(seed))
        ds = build_balanced_dataset(docs, seed=seed)
        X, y, schema = encode(ds)
        model = train(X, y, HyperParams(n_rounds=30, max_depth=3), schema=schema)
        imp = gain_importance(model)
        assert imp["n_definite"] > imp["t_head_lemma"]
        assert imp["n_definite"] > imp["n_head_lemma"]


def planted_rule_corpus_small(seed: int):
    from bridgekit.synth import planted_rule_corpus

    return planted_rule_corpus(seed, n_docs=6)
