"""Gradient-boosted decision trees for binary classification, from scratch.

Logistic loss, second-order statistics, exact greedy split search. Leaf
weights use the closed form w = -G/(H + lambda); split gain is

    1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
          - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma

and splits whose best gain is not strictly positive are rejected, so a tree
can degenerate to a single leaf. Rows with feature value strictly below the
threshold go left. Learning rate scales tree outputs at accumulation time;
stored leaf weights are the raw closed-form values.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from ..errors import (
    ConfigError, DegenerateTrainingError, EmptyDatasetError, SchemaMismatchError, ValidationError,
)
from ..records import check_settings, json_value, read_text, record_reader, setting, write_file
from . import lazy_numpy
from .encoding import EncoderSchema, FeatureBlock

np = lazy_numpy()

FORMAT_VERSION = 1


@dataclass(frozen=True)
class HyperParams:
    n_rounds: int = setting(100, int, low=0)
    max_depth: int = setting(4, int, low=1)
    learning_rate: float = setting(0.3, float)
    l2_leaf_penalty: float = setting(1.0, float, low=0)
    split_gain_threshold: float = setting(0.0, float, low=0)
    min_child_hessian: float = setting(1.0, float, low=0)

    def __post_init__(self) -> None:
        check_settings(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.l2_leaf_penalty == 0 and self.min_child_hessian == 0:
            raise ConfigError("l2_leaf_penalty and min_child_hessian cannot both be 0")


def default_grid() -> list[HyperParams]:
    return [HyperParams(n_rounds=r, max_depth=d, learning_rate=lr, min_child_hessian=mh)
            for r in (50, 100, 200) for d in (3, 4, 6) for lr in (0.1, 0.3) for mh in (1.0, 5.0)]


@dataclass(frozen=True)
class Leaf:
    weight: float


@dataclass(frozen=True)
class Split:
    column: int
    threshold: float
    gain: float
    left: Node
    right: Node


Node = Union[Split, Leaf]


@dataclass(frozen=True)
class GbdtModel:
    base_score: float
    trees: tuple[Node, ...]
    params: HyperParams
    seed: int
    n_features: int
    schema: EncoderSchema | None = None
    training_loss: tuple[float, ...] = field(default=())


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Mean logistic loss. The per-row terms are sorted before they are
    summed, so the loss does not depend on the order of the rows."""
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(np.sort(y * np.log(p) + (1 - y) * np.log(1 - p))))


# Each round's gradients and hessians are rounded to multiples of this
# grid. A gradient lies in [-1, 1] and a hessian in [0, 1/4], so a sum of
# at most _MAX_TRAINING_ROWS of them is a multiple of 2^-30 of magnitude at
# most 2^23: a float64 holds it exactly, and every order of addition gives
# the same bits. The rounding moves each value by at most 2^-31.
_GRID = 2.0**-30
_MAX_TRAINING_ROWS = 2**23


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(x / _GRID) * _GRID


# A column other than 0/1 with at most this many cuts is coded like the
# 0/1 columns, by an indicator column per cut, and its left sums come from
# the node's matrix product; a wider one keeps a histogram of its ranks. On
# nodes of 600 to 1,100 rows the product cost about the histogram up to 32
# cuts and 2 to 4.5 times as much from 128; on nodes of 150 rows or fewer it
# cost a quarter to two thirds of it. Those nodes, and whole fits on
# distance columns of 38 and 98 cuts, come from synthetic planted corpora;
# a corpus with long bridging links takes the histogram for its distance.
_NARROW_CUTS = 32


class _Columns(NamedTuple):
    """A training matrix coded once for the split search, with every cut
    of every column listed in (column, value) order.

    A column whose values are all 0 or 1 has one cut, after 0. Every other
    column has a cut after each of its distinct values but the last. A cut
    sends left the rows whose value is at most the cut's value. The cuts of
    the 0/1 columns and of the columns of at most `_NARROW_CUTS` cuts are
    the columns of `left`, 1.0 on each row the cut sends left, in cut
    order. A wider column is coded by the rank of each of its values among
    the column's distinct values. `train` has checked that X is finite: a
    NaN would be the last distinct value of its column, and the cut before
    it would have no threshold.
    """

    X: np.ndarray
    binary: np.ndarray  # whether each column of X is 0/1
    left: np.ndarray  # one C-ordered column for each cut of the narrow columns
    codes: np.ndarray  # the ranks, one row for each wide column
    n_values: list[int]  # the number of distinct values of each wide column
    column: np.ndarray  # each cut's column
    value: np.ndarray  # each cut's value
    # each cut's place among the narrow cuts followed by the wide cuts, or
    # None when there is no wide column
    order: np.ndarray | None

    @classmethod
    def of(cls, X: np.ndarray) -> "_Columns":
        binary = np.all((X == 0) | (X == 1), axis=0)
        n_cuts = binary.astype(np.intp)
        narrow, wide, codes, n_values = {}, [], [], []
        for j in np.flatnonzero(~binary):
            distinct, ranks = np.unique(X[:, j], return_inverse=True)
            if len(distinct) - 1 <= _NARROW_CUTS:
                n_cuts[j] = len(distinct) - 1
                narrow[j] = distinct[:-1]
            else:
                wide.append((j, distinct[:-1]))
                codes.append(ranks)
                n_values.append(len(distinct))
        column = np.repeat(np.arange(X.shape[1]), n_cuts)
        value = np.zeros(len(column))
        for j, values in narrow.items():
            value[column == j] = values
        left = (X.take(column, axis=1) <= value).astype(np.float64)
        order = None
        if wide:
            column = np.concatenate([column, *(np.full(len(v), j) for j, v in wide)])
            value = np.concatenate([value, *(v for _, v in wide)])
            order = np.argsort(column, kind="stable")
            column, value = column[order], value[order]
        return cls(X, binary, left, np.array(codes, dtype=np.intp).reshape(len(codes), len(X)),
                   n_values, column, value, order)


def _cut_sums(
    cols: _Columns, rows: np.ndarray, g: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The left sums H_L and G_L of every cut over the node of the rows
    `rows`, whose gradients and hessians are `g` and `h`, in cut order.

    The narrow cuts take two matrix products with the node's rows of
    `left`, each wide column the cumulative sums of a histogram of the
    node's ranks. `g` and `h` are multiples of `_GRID`, so every sum is
    exact: it does not depend on the order of its terms, and a child's sums
    are its parent's less its sibling's to the bit.
    """
    # `rows` is increasing, so a node of every row is the root: read its
    # coded matrix in place
    if len(rows) == cols.X.shape[0]:
        left, codes = cols.left, cols.codes
    else:
        left, codes = cols.left[rows], cols.codes[:, rows]
    H_L, G_L = h @ left, g @ left
    if cols.order is None:
        return H_L, G_L

    def with_wide(narrow: np.ndarray, w: np.ndarray) -> np.ndarray:
        wide = (np.cumsum(np.bincount(c, weights=w, minlength=n))[:-1]
                for c, n in zip(codes, cols.n_values))
        return np.concatenate([narrow, *wide])[cols.order]

    return with_wide(H_L, h), with_wide(G_L, g)


def _find_best_split(
    cols: _Columns, rows: np.ndarray, G: float, H: float, H_L: np.ndarray, G_L: np.ndarray,
    hp: HyperParams,
) -> tuple[int, float, float, int | None] | None:
    """Exact greedy search over the node of the rows `rows`, whose
    gradient and hessian sums are G and H and whose cuts' left sums are
    `H_L` and `G_L` (see `_cut_sums`); returns (column, threshold, gain,
    cut) or None.

    Every cut of the matrix is scored at once. Every sum is exact, so two
    cuts that leave the same rows on each side have the same gain to the
    bit. The first of those in cut order lies after a value of the node's
    own, and a cut with an empty side scores exactly -gamma, so the first
    best cut is the lowest column, then the lowest threshold, among the
    cuts between adjacent distinct values of the node. The threshold is the
    midpoint of those two values, 0.5 on a 0/1 column. `cut` is the best
    cut's index, or None when the threshold does not part the node's rows
    as the cut does: the midpoint of two adjacent floats can round to the
    lower. (The midpoint of two huge values can overflow; inside `train`
    that warning is a DegenerateTrainingError.) No gain is NaN, because
    `HyperParams` rules out a zero `l2_leaf_penalty` together with a zero
    `min_child_hessian`, and `_build_tree` a node with `H + lambda == 0`.
    """
    lam, min_h = hp.l2_leaf_penalty, hp.min_child_hessian
    parent = G * G / (H + lam)
    H_R = H - H_L
    (valid,) = ((H_L >= min_h) & (H_R >= min_h)).nonzero()
    if not len(valid):
        return None
    G_L = G_L[valid]
    G_R = G - G_L
    gains = (
        0.5 * (G_L**2 / (H_L[valid] + lam) + G_R**2 / (H_R[valid] + lam) - parent)
        - hp.split_gain_threshold
    )
    best = int(gains.argmax())
    if gains[best] <= 0.0:
        return None
    cut = int(valid[best])
    col, value = int(cols.column[cut]), cols.value[cut]
    if cols.binary[col]:
        return col, 0.5, float(gains[best]), cut
    x = cols.X[rows, col]
    above = x[x > value].min()
    threshold = float((value + above) / 2.0)
    return col, threshold, float(gains[best]), cut if value < threshold <= above else None


def _build_tree(
    cols: _Columns, g: np.ndarray, h: np.ndarray, rows: np.ndarray, depth: int,
    hp: HyperParams, values: np.ndarray, G: float, H: float,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> Node:
    """Grow a tree over the rows `rows`, whose gradient and hessian sums
    are G and H, and write each leaf's weight to `values` at the leaf's
    rows. `sums` are the node's cut sums (see `_cut_sums`) when its parent
    has them; otherwise a searched node takes them itself.

    A split hands each child its G and H from the chosen cut's sums, and,
    when both children may be searched, the smaller child's cut sums, and
    the larger child its parent's less the smaller's: one matrix product on
    the smaller child's rows in place of one on each child's.
    """
    lam = hp.l2_leaf_penalty
    if H + lam == 0.0:
        # Only a root with lambda == 0 whose every hessian underflowed.
        raise DegenerateTrainingError(
            "node hessian sum is 0 with l2_leaf_penalty 0; the model has saturated"
        )
    found = None
    if _searched(depth, rows, H, hp):
        if sums is None:
            sums = _cut_sums(cols, rows, g[rows], h[rows])
        found = _find_best_split(cols, rows, G, H, *sums, hp)
    if found is None:
        leaf = Leaf(-G / (H + lam))
        values[rows] = leaf.weight
        return leaf
    col, threshold, gain, cut = found
    mask = cols.X[rows, col] < threshold
    sides = rows[mask], rows[~mask]
    H_L, G_L = sums
    if cut is None:
        totals = [(float(g[side].sum()), float(h[side].sum())) for side in sides]
    else:
        G_left, H_left = float(G_L[cut]), float(H_L[cut])
        totals = [(G_left, H_left), (G - G_left, H - H_left)]
    child_sums: list = [None, None]
    small = int(len(sides[1]) < len(sides[0]))
    large = 1 - small
    if _searched(depth + 1, sides[large], totals[large][1], hp):
        side = sides[small]
        small_H_L, small_G_L = child_sums[small] = _cut_sums(cols, side, g[side], h[side])
        child_sums[large] = H_L - small_H_L, G_L - small_G_L
    return Split(
        column=col,
        threshold=threshold,
        gain=gain,
        left=_build_tree(cols, g, h, sides[0], depth + 1, hp, values, *totals[0], child_sums[0]),
        right=_build_tree(cols, g, h, sides[1], depth + 1, hp, values, *totals[1], child_sums[1]),
    )


def _searched(depth: int, rows: np.ndarray, H: float, hp: HyperParams) -> bool:
    """Whether a node is searched for a split. A node whose H is below
    twice min_child_hessian has no cut that gives both children that much,
    so it is a leaf without a search. The search takes H_R = H - H_L with
    this same H, and rounding is monotone: a cut with H_L >= min_h has
    fl(H - H_L) <= fl(H - min_h) < min_h, and fails the floor there too."""
    min_h = hp.min_child_hessian
    return depth < hp.max_depth and len(rows) >= 2 and H - min_h >= min_h


def tree_values(node: Node, X: np.ndarray) -> np.ndarray:
    """The weight of the leaf each row of X reaches."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[Node, np.ndarray]] = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if isinstance(nd, Leaf):
            out[idx] = nd.weight
        else:
            mask = X[idx, nd.column] < nd.threshold
            stack.append((nd.left, idx[mask]))
            stack.append((nd.right, idx[~mask]))
    return out


def splits(nodes: Iterable[Node]) -> Iterator[Split]:
    """Every split in the trees rooted at `nodes`, depth first from the
    last root, right child first."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            yield node
            stack += node.left, node.right


def train(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    seed: int = 0,
    schema: EncoderSchema | None = None,
    *,
    record_loss: bool = True,
) -> GbdtModel:
    """Fit a boosted ensemble on a dense matrix and binary labels.

    Each round's gradients and hessians are rounded to multiples of
    `_GRID`, so every sum of them is exact and the model does not depend on
    the order of the rows. A matrix of no rows raises EmptyDatasetError, a
    value of X that is not finite, or a label other than 0 and 1,
    ValidationError, and more than `_MAX_TRAINING_ROWS` rows ConfigError. A
    round that leaves a margin that is not finite raises
    DegenerateTrainingError. The split search is exact and deterministic,
    so the seed only enters provenance; it is kept in the signature so
    callers record it uniformly. Without `record_loss` the model's
    `training_loss` is empty, and no loss is computed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SchemaMismatchError(
            f"matrix shape {X.shape} does not match {y.shape[0]} labels"
        )
    if not len(X):
        raise EmptyDatasetError("cannot train on a matrix of no rows")
    if not np.isfinite(X).all():
        raise ValidationError("training matrix holds a value that is not finite")
    if X.shape[0] > _MAX_TRAINING_ROWS:
        raise ConfigError(
            f"{X.shape[0]} training rows; sums of gradients are exact for at most "
            f"{_MAX_TRAINING_ROWS}"
        )
    if not ((y == 0) | (y == 1)).all():
        raise ValidationError("training labels must be 0 or 1")
    # np.unique would load numpy.ma, which nothing else uses
    if not (y != y[:1]).any():
        raise DegenerateTrainingError("training labels contain a single class")
    positive_rate = float(y.mean())
    base_score = float(np.log(positive_rate / (1.0 - positive_rate)))

    margins = np.full(X.shape[0], base_score, dtype=np.float64)
    p = sigmoid(margins)
    losses = [log_loss(y, p)] if record_loss else []
    trees: list[Node] = []
    cols = _Columns.of(X)
    all_rows = np.arange(X.shape[0])
    values = np.empty(X.shape[0], dtype=np.float64)
    # A fit that stays finite makes numpy warn of no overflow or NaN. Such a
    # warning is raised here: an errstate context slows every ufunc call.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            for round_no in range(1, hp.n_rounds + 1):
                g = _quantize(p - y)
                h = _quantize(p * (1.0 - p))
                # the leaves partition the rows, so this fills every entry of values
                trees.append(_build_tree(cols, g, h, all_rows, 0, hp, values,
                                         float(g.sum()), float(h.sum())))
                margins += hp.learning_rate * values
                p = sigmoid(margins)
                if record_loss:
                    losses.append(log_loss(y, p))
        except (RuntimeWarning, FloatingPointError) as exc:
            raise DegenerateTrainingError(
                f"boosting round {round_no} of {hp.n_rounds} left a margin that is not finite ({exc})"
            ) from None
    return GbdtModel(
        base_score=base_score,
        trees=tuple(trees),
        params=hp,
        seed=seed,
        n_features=X.shape[1],
        schema=schema,
        training_loss=tuple(losses),
    )


def add_in_order(margins: np.ndarray, contributions: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield `margins`, then add each contribution to it in place, in tree
    order, yielding it after each.

    Every margin the package predicts is summed here: `predict_margin`,
    the staged scores of `cross_validate` and the permuted scores of
    `mda_importance`, so that they agree to the bit. The order matters:
    `np.sum` or `np.add.reduce` down the tree axis would sum pairwise for
    some shapes, and the last bits would differ.
    """
    yield margins
    for contribution in contributions:
        margins += contribution
        yield margins


def tree_contributions(model: GbdtModel, X: np.ndarray) -> Iterator[np.ndarray]:
    """Each tree's values on the rows of X, scaled by the learning rate, in
    tree order."""
    rate = model.params.learning_rate
    return (rate * tree_values(tree, X) for tree in model.trees)


def staged_margins(model: GbdtModel, X: np.ndarray) -> Iterator[np.ndarray]:
    """The margins of the first 0, 1, ..., len(model.trees) trees on the
    rows of a matrix: one vector, updated in place between the yields."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise SchemaMismatchError(
            f"matrix of shape {X.shape}, model expects {model.n_features} columns"
        )
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    return add_in_order(margins, tree_contributions(model, X))


def predict_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """The margin of each row of the 2-D matrix X."""
    *_, margins = staged_margins(model, X)
    return margins


def predict_proba(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """The positive-class probability of each row of the 2-D matrix X."""
    return sigmoid(predict_margin(model, X))


# ---------------------------------------------------------------------------
# serialization


def _read_node(obj, path: str) -> Node:
    """A node is a Leaf when it has `weight`, otherwise a Split."""
    read = _read_leaf if isinstance(obj, dict) and "weight" in obj else _read_split
    return read(obj, path)


_read_leaf = record_reader(Leaf)
_read_split = record_reader(Split, reads={"Node": _read_node})
_read_model = record_reader(FeatureBlock, EncoderSchema, HyperParams, GbdtModel,
                            reads={"Node": _read_node})


def model_to_dict(model: GbdtModel) -> dict:
    return {"format_version": FORMAT_VERSION, **asdict(model)}


def model_from_dict(obj: dict) -> GbdtModel:
    """Read a model from its record layouts; a mistyped, missing or unknown
    field raises ValidationError naming its path."""
    if not isinstance(obj, dict):
        raise ValidationError("model: expected an object")
    obj = dict(obj)
    version = obj.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise SchemaMismatchError(f"unsupported model format version {version!r}")
    try:
        model = _read_model(obj, "model")
    except RecursionError:
        raise ValidationError("model: trees nested too deeply") from None
    if model.schema is not None and model.n_features != model.schema.n_columns:
        raise ValidationError(
            f"n_features {model.n_features} differs from the encoder schema's "
            f"{model.schema.n_columns} columns"
        )
    for split in splits(model.trees):
        if not 0 <= split.column < model.n_features:
            raise ValidationError(
                f"split column {split.column} outside 0..{model.n_features - 1}"
            )
    return model


def save_model(model: GbdtModel, path: str | Path) -> None:
    """Write a model file; a failed or interrupted write removes it."""
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")) + "\n"
    write_file(path, (text.encode("utf-8"),))


def load_model(path: str | Path) -> GbdtModel:
    """Read a model file. It is parsed as a whole, since it may be pretty
    printed; text that is not JSON raises ParseError naming its line."""
    return model_from_dict(json_value(read_text(path)))
