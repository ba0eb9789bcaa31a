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
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import ConfigError, DegenerateTrainingError, SchemaMismatchError, ValidationError
from .encoding import EncoderSchema

FORMAT_VERSION = 1


@dataclass(frozen=True)
class HyperParams:
    n_rounds: int = 100
    max_depth: int = 4
    learning_rate: float = 0.3
    l2_leaf_penalty: float = 1.0
    split_gain_threshold: float = 0.0
    min_child_hessian: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number")
        if self.n_rounds < 0:
            raise ConfigError("n_rounds must be >= 0")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.l2_leaf_penalty < 0 or self.split_gain_threshold < 0 or self.min_child_hessian < 0:
            raise ConfigError("penalties must be non-negative")
        if self.l2_leaf_penalty == 0 and self.min_child_hessian == 0:
            raise ConfigError("l2_leaf_penalty and min_child_hessian cannot both be 0")


def default_grid() -> list[HyperParams]:
    grid = []
    for n_rounds in (50, 100, 200):
        for max_depth in (3, 4, 6):
            for learning_rate in (0.1, 0.3):
                for min_child_hessian in (1.0, 5.0):
                    grid.append(
                        HyperParams(
                            n_rounds=n_rounds,
                            max_depth=max_depth,
                            learning_rate=learning_rate,
                            l2_leaf_penalty=1.0,
                            split_gain_threshold=0.0,
                            min_child_hessian=min_child_hessian,
                        )
                    )
    return grid


@dataclass(frozen=True)
class Leaf:
    weight: float


@dataclass(frozen=True)
class Split:
    column: int
    threshold: float
    gain: float
    left: Union["Split", Leaf]
    right: Union["Split", Leaf]


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


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


# Cells (rows x columns) of one block of the split search. Sorting all
# columns of a large node at once holds several arrays of its full size;
# blocks of this many cells keep them small while still spreading the cost
# of each numpy call over many columns.
_SPLIT_BLOCK_CELLS = 4096


def _find_best_split(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, hp: HyperParams
) -> tuple[int, float, float] | None:
    """Exact greedy search; returns (column, threshold, gain) or None.

    Each block of columns is sorted once and scanned with column-wise
    cumulative sums, which add in the same order as a sort and scan of one
    column at a time, so every gain is exact to the bit. Gains are computed
    at the valid split positions only, taken column by column, so the first
    maximum is at the lowest column, then the lowest threshold: ties resolve
    that way, which keeps training deterministic regardless of data order.
    No gain is NaN, because `HyperParams` rules out a zero `l2_leaf_penalty`
    together with a zero `min_child_hessian`, and `_build_tree` a node with
    `H + lambda == 0`.
    """
    n_rows, n_cols = X.shape
    lam = hp.l2_leaf_penalty
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    width = max(1, _SPLIT_BLOCK_CELLS // n_rows)
    best: tuple[int, float, float] | None = None
    for start in range(0, n_cols, width):
        block = X[:, start:start + width]
        order = np.argsort(block, axis=0, kind="stable")
        xs = np.take_along_axis(block, order, axis=0)
        # a split lies between two distinct sorted values
        cols, rows = np.nonzero((xs[1:] > xs[:-1]).T)
        H_L = np.cumsum(h[order], axis=0)[rows, cols]
        H_R = H - H_L
        valid = (H_L >= hp.min_child_hessian) & (H_R >= hp.min_child_hessian)
        if not valid.any():
            continue
        cols, rows, H_L, H_R = cols[valid], rows[valid], H_L[valid], H_R[valid]
        G_L = np.cumsum(g[order], axis=0)[rows, cols]
        G_R = G - G_L
        gains = (
            0.5 * (G_L**2 / (H_L + lam) + G_R**2 / (H_R + lam) - parent)
            - hp.split_gain_threshold
        )
        j = int(np.argmax(gains))
        gain = float(gains[j])
        if gain > 0.0 and (best is None or gain > best[2]):
            c, i = int(cols[j]), int(rows[j])
            best = (start + c, float((xs[i, c] + xs[i + 1, c]) / 2.0), gain)
    return best


def _build_tree(
    X: np.ndarray, g: np.ndarray, h: np.ndarray, indices: np.ndarray, depth: int,
    hp: HyperParams,
) -> Node:
    lam = hp.l2_leaf_penalty
    G = float(g[indices].sum())
    H = float(h[indices].sum())
    if H + lam == 0.0:
        # Only a root with lambda == 0 whose every hessian underflowed.
        raise DegenerateTrainingError(
            "node hessian sum is 0 with l2_leaf_penalty 0; the model has saturated"
        )
    if depth >= hp.max_depth or len(indices) < 2:
        return Leaf(-G / (H + lam))
    found = _find_best_split(X[indices], g[indices], h[indices], hp)
    if found is None:
        return Leaf(-G / (H + lam))
    col, threshold, gain = found
    mask = X[indices, col] < threshold
    return Split(
        column=col,
        threshold=threshold,
        gain=gain,
        left=_build_tree(X, g, h, indices[mask], depth + 1, hp),
        right=_build_tree(X, g, h, indices[~mask], depth + 1, hp),
    )


def tree_values(node: Node, X: np.ndarray) -> np.ndarray:
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


def train(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    seed: int = 0,
    schema: EncoderSchema | None = None,
) -> GbdtModel:
    """Fit a boosted ensemble on a dense matrix and binary labels.

    The split search is exact and deterministic, so the seed only enters
    provenance; it is kept in the signature so callers record it uniformly.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SchemaMismatchError(
            f"matrix shape {X.shape} does not match {y.shape[0]} labels"
        )
    if len(np.unique(y)) < 2:
        raise DegenerateTrainingError("training labels contain a single class")
    positive_rate = float(y.mean())
    base_score = float(np.log(positive_rate / (1.0 - positive_rate)))

    margins = np.full(X.shape[0], base_score, dtype=np.float64)
    losses = [log_loss(y, sigmoid(margins))]
    trees: list[Node] = []
    all_rows = np.arange(X.shape[0])
    for _ in range(hp.n_rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree = _build_tree(X, g, h, all_rows, 0, hp)
        trees.append(tree)
        margins += hp.learning_rate * tree_values(tree, X)
        losses.append(log_loss(y, sigmoid(margins)))
    return GbdtModel(
        base_score=base_score,
        trees=tuple(trees),
        params=hp,
        seed=seed,
        n_features=X.shape[1],
        schema=schema,
        training_loss=tuple(losses),
    )


def predict_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.shape[1] != model.n_features:
        raise SchemaMismatchError(
            f"row has {X.shape[1]} columns, model expects {model.n_features}"
        )
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        margins += model.params.learning_rate * tree_values(tree, X)
    return margins[0] if single else margins


def predict_proba(model: GbdtModel, X: np.ndarray) -> np.ndarray | float:
    margins = predict_margin(model, X)
    if np.ndim(margins) == 0:
        return float(sigmoid(float(margins)))
    return sigmoid(margins)


# ---------------------------------------------------------------------------
# serialization


# Per node class: each field with the converter its annotation implies;
# child fields (annotated with the node union) recurse.
_NODE_FIELDS = {
    cls: tuple((f.name, {"int": int, "float": float}.get(f.type)) for f in fields(cls))
    for cls in (Leaf, Split)
}


def _node_from_dict(obj: dict, n_features: int) -> Node:
    cls = Leaf if "weight" in obj else Split
    node = cls(**{
        name: convert(obj[name]) if convert else _node_from_dict(obj[name], n_features)
        for name, convert in _NODE_FIELDS[cls]
    })
    if cls is Split and not 0 <= node.column < n_features:
        raise ValidationError(f"split column {node.column} outside 0..{n_features - 1}")
    return node


def model_to_dict(model: GbdtModel) -> dict:
    return {"format_version": FORMAT_VERSION, **asdict(model)}


def model_from_dict(obj: dict) -> GbdtModel:
    if obj.get("format_version") != FORMAT_VERSION:
        raise SchemaMismatchError(
            f"unsupported model format version {obj.get('format_version')!r}"
        )
    schema = obj.get("schema")
    if schema is not None:
        schema = EncoderSchema.from_dict(schema)
    n_features = int(obj["n_features"])
    if schema is not None and n_features != schema.n_columns:
        raise ValidationError(
            f"n_features {n_features} differs from the encoder schema's {schema.n_columns} columns"
        )
    return GbdtModel(
        base_score=float(obj["base_score"]),
        trees=tuple(_node_from_dict(t, n_features) for t in obj["trees"]),
        params=HyperParams(**obj["params"]),
        seed=int(obj["seed"]),
        n_features=n_features,
        schema=schema,
        training_loss=tuple(float(x) for x in obj["training_loss"]),
    )


def save_model(model: GbdtModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_model(path: str | Path) -> GbdtModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
