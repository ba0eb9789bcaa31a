"""Positive-class metrics, seeded stratified cross-validation with grid
search, and the chance baseline."""
from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError, EmptyDatasetError
from ..pairgen import PairDataset, PairExample
from . import lazy_numpy
from .boosting import GbdtModel, HyperParams, predict_proba, sigmoid, staged_margins, train
from .encoding import DEFAULT_LEMMA_TOP_K, encode, fit_schema

np = lazy_numpy()

# Probabilities at or above this threshold count as a positive prediction.
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    tp: float
    fp: float
    fn: float
    tn: float


def metrics_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """Positive-class precision/recall/F1 with zero-denominator values
    defined as 0 so the metrics stay total."""
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    tp = int(np.sum(y_true & y_pred))
    fp = int(np.sum(~y_true & y_pred))
    fn = int(np.sum(y_true & ~y_pred))
    tn = int(np.sum(~y_true & ~y_pred))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(precision, recall, f1, tp, fp, fn, tn)


def evaluate_matrix(model: GbdtModel, X: np.ndarray, y: np.ndarray) -> Metrics:
    return metrics_from_predictions(y, predict_proba(model, X) >= DECISION_THRESHOLD)


def evaluate(model: GbdtModel, dataset: PairDataset | list[PairExample]) -> Metrics:
    if model.schema is None:
        raise ConfigError("model carries no encoder schema; use evaluate_matrix")
    X, y, _ = encode(dataset, schema=model.schema)
    return evaluate_matrix(model, X, y)


def random_baseline(
    dataset: PairDataset | list[PairExample] | np.ndarray,
    p: float = 1.0 / 3.0,
    runs: int = 5,
    seed: int = 0,
) -> Metrics:
    """Chance predictor: each example is called positive with probability p.

    Precision/recall/F1 and the confusion counts are each averaged over the
    runs, so the reported f1 is a mean of per-run F1 values rather than the
    harmonic mean of the averaged precision and recall.
    """
    if isinstance(dataset, np.ndarray):
        y = dataset.astype(bool)
    else:
        examples = dataset.examples if isinstance(dataset, PairDataset) else dataset
        y = np.array([ex.label == "bridging" for ex in examples], dtype=bool)
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    if len(y) == 0:
        raise EmptyDatasetError("cannot score an empty dataset")
    rng = random.Random(seed)
    per_run = []
    for _ in range(runs):
        preds = np.array([rng.random() < p for _ in range(len(y))], dtype=bool)
        per_run.append(metrics_from_predictions(y, preds))
    return Metrics(*(sum(getattr(m, f.name) for m in per_run) / runs for f in fields(Metrics)))


def stratified_folds(labels: list[str] | np.ndarray, k: int, seed: int) -> list[list[int]]:
    """Seeded stratified k-fold assignment.

    Indices of each class are shuffled and dealt round-robin so every fold
    holds roughly the same class mix. Returned folds are sorted index lists
    forming a partition of range(len(labels)).
    """
    if k < 2:
        raise ConfigError("k must be >= 2")
    if len(labels) < k:
        raise ConfigError(f"dataset of size {len(labels)} cannot split into {k} folds")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    by_class: dict = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    for label in sorted(by_class):
        indices = by_class[label]
        rng.shuffle(indices)
        for j, idx in enumerate(indices):
            folds[j % k].append(idx)
    return [sorted(fold) for fold in folds]


@dataclass(frozen=True)
class CvResult:
    params: HyperParams
    fold_f1: tuple[float, ...]

    @property
    def mean_f1(self) -> float:
        return sum(self.fold_f1) / len(self.fold_f1)


def cross_validate(
    dataset: PairDataset,
    grid: list[HyperParams],
    k: int = 5,
    seed: int = 0,
    lemma_top_k: int = DEFAULT_LEMMA_TOP_K,
) -> tuple[HyperParams, list[CvResult]]:
    """Grid search by mean positive-class F1 over seeded stratified folds.

    The encoder is refit on each fold's training split so no test-fold
    vocabulary leaks into the encoding; pass the final model's
    `lemma_top_k` so selection sees the encoding that will be served. Ties
    in mean F1 prefer fewer rounds, then smaller depth, then earlier grid
    position.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    examples = list(dataset.examples)
    if not examples:
        raise EmptyDatasetError("cannot cross-validate an empty dataset")
    binary = ["pos" if ex.label == "bridging" else "neg" for ex in examples]
    folds = stratified_folds(binary, k, seed)

    split_data = []
    for fold in folds:
        held = set(fold)
        train_examples = [ex for i, ex in enumerate(examples) if i not in held]
        val_examples = [examples[i] for i in fold]
        schema = fit_schema(train_examples, lemma_top_k=lemma_top_k)
        X_tr, y_tr, _ = encode(train_examples, schema=schema)
        X_va, y_va, _ = encode(val_examples, schema=schema)
        split_data.append((X_tr, y_tr, X_va, y_va))

    # Round t of a fit never depends on n_rounds, so grid points that differ
    # only in n_rounds are prefixes of one fit at the largest of them: train
    # that once per fold and score each point on the margins of its first
    # n_rounds trees, staged in one pass over the trees.
    paths: dict[HyperParams, list[int]] = {}
    for i, hp in enumerate(grid):
        paths.setdefault(replace(hp, n_rounds=0), []).append(i)
    fold_f1: list[list[float]] = [[] for _ in grid]
    for path, members in paths.items():
        longest = replace(path, n_rounds=max(grid[i].n_rounds for i in members))
        for X_tr, y_tr, X_va, y_va in split_data:
            # CV scores the margins and never reads the training losses
            model = train(X_tr, y_tr, longest, seed=seed, record_loss=False)
            for n_rounds, margins in enumerate(staged_margins(model, X_va)):
                scored = [i for i in members if grid[i].n_rounds == n_rounds]
                if scored:
                    f1 = metrics_from_predictions(y_va, sigmoid(margins) >= DECISION_THRESHOLD).f1
                    for i in scored:
                        fold_f1[i].append(f1)

    results = []
    best: CvResult | None = None
    for hp, scores in zip(grid, fold_f1):
        result = CvResult(params=hp, fold_f1=tuple(scores))
        results.append(result)
        if best is None or _beats(result, best):
            best = result
    return best.params, results


def _beats(candidate: CvResult, incumbent: CvResult) -> bool:
    if candidate.mean_f1 != incumbent.mean_f1:
        return candidate.mean_f1 > incumbent.mean_f1
    if candidate.params.n_rounds != incumbent.params.n_rounds:
        return candidate.params.n_rounds < incumbent.params.n_rounds
    if candidate.params.max_depth != incumbent.params.max_depth:
        return candidate.params.max_depth < incumbent.params.max_depth
    return False
