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

from ..errors import ConfigError, DegenerateTrainingError, SchemaMismatchError, ValidationError
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


class _Columns(NamedTuple):
    """A training matrix coded once for the split search, with every cut
    of every column listed in (column, value) order.

    A column whose values are all 0 or 1 has one cut, after 0; its mask of
    zeros is all the search reads of it. Every other column is coded by the
    rank of each of its values among the column's distinct values, and has
    a cut after each distinct value but the last. A cut sends left the rows
    whose value is at most the cut's value. `train` has checked that X is
    finite: a NaN would be the last distinct value of its column, and the
    cut before it would have no threshold.
    """

    X: np.ndarray
    zero: np.ndarray  # X == 0 on the 0/1 columns, as 1.0 and 0.0
    codes: np.ndarray  # the ranks, one row for each other column
    n_values: list[int]  # the number of distinct values of each other column
    column: np.ndarray  # each cut's column
    value: np.ndarray  # each cut's value
    order: np.ndarray  # each cut's place among the 0/1 cuts followed by the other cuts

    @classmethod
    def of(cls, X: np.ndarray) -> "_Columns":
        is_binary = np.all((X == 0) | (X == 1), axis=0)
        binary, other = np.flatnonzero(is_binary), np.flatnonzero(~is_binary)
        codes = np.empty((len(other), X.shape[0]), dtype=np.intp)
        values = []
        for i, j in enumerate(other):
            distinct, codes[i] = np.unique(X[:, j], return_inverse=True)
            values.append(distinct)
        column = np.concatenate([binary, *(np.full(len(v) - 1, j) for j, v in zip(other, values))])
        value = np.concatenate([np.zeros(len(binary)), *(v[:-1] for v in values)])
        order = np.argsort(column, kind="stable")
        return cls(X, (X[:, binary] == 0).astype(np.float64), codes, [len(v) for v in values],
                   column[order], value[order], order)


def _find_best_split(
    cols: _Columns, rows: np.ndarray, g: np.ndarray, h: np.ndarray, hp: HyperParams
) -> tuple[int, float, float] | None:
    """Exact greedy search over the node of the rows `rows`, whose
    gradients and hessians are `g` and `h`; returns (column, threshold,
    gain) or None.

    Every cut of the matrix is scored at once. Its left sums come from one
    matrix product with the node's mask of zeros for the 0/1 columns, and
    from the cumulative sums of a histogram of the node's ranks for each
    other column. `g` and `h` are multiples of `_GRID`, so every sum of
    them is exact, and two cuts that leave the same rows on each side have
    the same gain to the bit. The first of those in cut order lies after a
    value of the node's own, and a cut with an empty side scores exactly
    -gamma, so the first best cut is the lowest column, then the lowest
    threshold, among the cuts between adjacent distinct values of the node.
    The threshold is the midpoint of those two values. No gain is NaN,
    because `HyperParams` rules out a zero `l2_leaf_penalty` together with
    a zero `min_child_hessian`, and `_build_tree` a node with
    `H + lambda == 0`.
    """
    lam, min_h = hp.l2_leaf_penalty, hp.min_child_hessian
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    # `rows` is increasing, so a node of every row is the root: read its
    # coded matrix in place. The F-ordered `zero` takes another BLAS routine
    # than a gathered C-ordered copy, with the same bits: every sum is exact.
    if len(rows) == cols.X.shape[0]:
        zero, codes = cols.zero, cols.codes
    else:
        zero, codes = cols.zero[rows], cols.codes[:, rows]

    def left_sums(w: np.ndarray) -> np.ndarray:
        other = (np.cumsum(np.bincount(c, weights=w, minlength=n))[:-1]
                 for c, n in zip(codes, cols.n_values))
        return np.concatenate([w @ zero, *other])[cols.order]

    H_L = left_sums(h)
    H_R = H - H_L
    valid = np.flatnonzero((H_L >= min_h) & (H_R >= min_h))
    if not len(valid):
        return None
    G_L = left_sums(g)[valid]
    G_R = G - G_L
    gains = (
        0.5 * (G_L**2 / (H_L[valid] + lam) + G_R**2 / (H_R[valid] + lam) - parent)
        - hp.split_gain_threshold
    )
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    cut = valid[best]
    col, value = int(cols.column[cut]), cols.value[cut]
    x = cols.X[rows, col]
    return col, float((value + x[x > value].min()) / 2.0), float(gains[best])


def _build_tree(
    cols: _Columns, g: np.ndarray, h: np.ndarray, indices: np.ndarray,
    depth: int, hp: HyperParams, values: np.ndarray,
) -> Node:
    """Grow a tree over the rows `indices`, and write each leaf's weight to
    `values` at the leaf's rows."""
    lam, min_h = hp.l2_leaf_penalty, hp.min_child_hessian
    g_node, h_node = g[indices], h[indices]
    G = float(g_node.sum())
    H = float(h_node.sum())
    if H + lam == 0.0:
        # Only a root with lambda == 0 whose every hessian underflowed.
        raise DegenerateTrainingError(
            "node hessian sum is 0 with l2_leaf_penalty 0; the model has saturated"
        )
    found = None
    # A node this light has no cut that gives both children min_h, so it is
    # a leaf without a search. The search takes H_R = H - H_L with this same
    # H, and rounding is monotone: a cut with H_L >= min_h has
    # fl(H - H_L) <= fl(H - min_h) < min_h, and fails the floor there too.
    if depth < hp.max_depth and len(indices) >= 2 and H - min_h >= min_h:
        found = _find_best_split(cols, indices, g_node, h_node, hp)
    if found is None:
        leaf = Leaf(-G / (H + lam))
        values[indices] = leaf.weight
        return leaf
    col, threshold, gain = found
    mask = cols.X[indices, col] < threshold
    return Split(
        column=col,
        threshold=threshold,
        gain=gain,
        left=_build_tree(cols, g, h, indices[mask], depth + 1, hp, values),
        right=_build_tree(cols, g, h, indices[~mask], depth + 1, hp, values),
    )


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
) -> GbdtModel:
    """Fit a boosted ensemble on a dense matrix and binary labels.

    Each round's gradients and hessians are rounded to multiples of
    `_GRID`, so every sum of them is exact and the model does not depend on
    the order of the rows. A value of X that is not finite, or a label
    other than 0 and 1, raises ValidationError, and more than
    `_MAX_TRAINING_ROWS` rows raise ConfigError. A round that leaves a
    margin that is not finite raises DegenerateTrainingError. The split
    search is exact and deterministic, so the seed only enters provenance;
    it is kept in the signature so callers record it uniformly.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SchemaMismatchError(
            f"matrix shape {X.shape} does not match {y.shape[0]} labels"
        )
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
    losses = [log_loss(y, p)]
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
                trees.append(_build_tree(cols, g, h, all_rows, 0, hp, values))
                margins += hp.learning_rate * values
                p = sigmoid(margins)
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
