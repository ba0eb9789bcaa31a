"""Feature importance: split-gain averages and permutation accuracy drop.

Both measures report at the level of the original features, folding the
one-hot columns of a block back into their source feature.
"""
from __future__ import annotations

from ..errors import ConfigError
from ..pairgen import PairDataset, PairExample
from . import lazy_numpy
from .boosting import (
    GbdtModel, add_in_order, predict_proba, sigmoid, splits, tree_contributions, tree_values,
)
from .encoding import encode
from .evaluation import DECISION_THRESHOLD

np = lazy_numpy()

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2^64 over the golden ratio


def _mix(z):
    """SplitMix64's finalizer, a bijection of the 64-bit integers, on a
    Python int below 2^64 or in place on a uint64 array."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


def permutation(seed: int, stream: tuple[int, ...], n: int) -> np.ndarray:
    """A permutation of range(n) that is a pure function of the integers
    `seed` and `stream` and of n.

    The seed and then each part of the stream are mixed into one 64-bit key
    in Python ints. Every integer enters modulo 2^64: a negative seed is
    taken in two's complement, so -1 and 2**64 - 1 give the same
    permutations, and a seed wider than 64 bits keeps its low 64 bits. Row
    i's sort key is output i of a SplitMix64 generator (Steele, Lea & Flood,
    OOPSLA 2014) started at that key, computed in a uint64 array, whose
    arithmetic wraps around without a warning. The generator's states
    `key + i * _GAMMA` are distinct for i < 2^64 and its finalizer is a
    bijection, so no two row keys are equal: the order that sorts them is
    unique, whatever the sort, and the same on every host and numpy
    release.
    """
    key = _mix(seed & _MASK)
    for part in stream:
        key = _mix((key ^ part & _MASK) + _GAMMA & _MASK)
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += key
    return np.argsort(_mix(z))


def column_gain_totals(model: GbdtModel) -> tuple[dict[int, float], dict[int, int]]:
    """Per-column summed split gain and split counts over all trees."""
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    for node in splits(model.trees):
        totals[node.column] = totals.get(node.column, 0.0) + node.gain
        counts[node.column] = counts.get(node.column, 0) + 1
    return totals, counts


def gain_importance(model: GbdtModel) -> dict[str, float]:
    """Average split gain per original feature; unused features score 0."""
    if model.schema is None:
        raise ConfigError("model carries no encoder schema")
    totals, counts = column_gain_totals(model)
    by_column = model.schema.column_features()
    feature_total: dict[str, float] = {block.feature: 0.0 for block in model.schema.blocks}
    feature_count: dict[str, int] = {block.feature: 0 for block in model.schema.blocks}
    for col, gain in totals.items():
        feature = by_column[col]
        feature_total[feature] += gain
        feature_count[feature] += counts[col]
    return {
        feature: (feature_total[feature] / feature_count[feature]
                  if feature_count[feature] else 0.0)
        for feature in feature_total
    }


def mda_importance(
    model: GbdtModel,
    dataset: PairDataset | list[PairExample],
    repeats: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """Mean decrease in accuracy under per-feature permutation.

    All columns of a feature's block are permuted jointly (same row
    shuffle), holding the rest of the matrix fixed; the drop from baseline
    accuracy is averaged over the repeats. Repeat r of the feature at
    place i in sorted name order permutes the n rows by
    `permutation(seed, (i, r), n)`, so a feature's result depends on no
    other feature. A feature that no tree splits on scores 0 and draws
    nothing.

    A permutation changes the margin only of the rows whose block values
    it moves, and only through the trees that split on the block. Those
    rows are copied into a small matrix of moved rows, and the trees that
    split on the block are evaluated again on it; every other tree's
    contribution is taken from a cache made once. The moved rows are summed
    from the base score over every tree, in tree order as in prediction, so
    the result is that of predicting each permuted matrix in full.
    """
    if model.schema is None:
        raise ConfigError("model carries no encoder schema")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    X, y, _ = encode(dataset, schema=model.schema)
    y = y.astype(bool)
    correct = (predict_proba(model, X) >= DECISION_THRESHOLD) == y
    baseline = float(np.mean(correct))
    slices = model.schema.block_slices()
    # row t the learning-rate-scaled values of tree t
    contributions = np.array(list(tree_contributions(model, X)))
    tree_columns = [{node.column for node in splits([tree])} for tree in model.trees]
    splitting = {
        feature: [t for t, columns in enumerate(tree_columns)
                  if any(block.start <= c < block.stop for c in columns)]
        for feature, block in slices.items()
    }
    rate = model.params.learning_rate
    out: dict[str, float] = {}
    for index, feature in enumerate(sorted(slices)):
        block, trees = slices[feature], splitting[feature]
        if not trees:
            out[feature] = 0.0
            continue
        values = X[:, block]
        drops = []
        for repeat in range(repeats):
            shuffled = values[permutation(seed, (index, repeat), X.shape[0])]
            rows = np.flatnonzero((shuffled != values).any(axis=1))
            if not len(rows):
                drops.append(0.0)
                continue
            moved = X[rows]
            moved[:, block] = shuffled[rows]
            part = contributions[:, rows]
            for t in trees:
                part[t] = rate * tree_values(model.trees[t], moved)
            *_, margins = add_in_order(np.full(len(rows), model.base_score), part)
            permuted = correct.copy()
            permuted[rows] = (sigmoid(margins) >= DECISION_THRESHOLD) == y[rows]
            drops.append(baseline - float(np.mean(permuted)))
        out[feature] = float(np.mean(drops))
    return out
