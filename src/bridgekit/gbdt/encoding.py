"""Feature-vector encoding into dense numeric matrices.

Numeric features pass through; every other feature becomes a one-hot block.
Lemma features keep only the top-K training lemmas (ties broken
lexicographically) plus a trailing OOV bucket; other categorical blocks
encode unseen test-time values as all zeros. Column order is deterministic:
features sorted by name, categories sorted lexicographically within a
block.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..errors import ConfigError, EmptyDatasetError, ValidationError
from ..pairgen import FEATURE_NAMES, NUMERIC_FEATURES, PairDataset, PairExample
from . import lazy_numpy

np = lazy_numpy()

LEMMA_FEATURES = ("t_head_lemma", "n_head_lemma")
DEFAULT_LEMMA_TOP_K = 200

_KINDS = ("numeric", "categorical", "vocab")


@dataclass(frozen=True)
class FeatureBlock:
    feature: str
    kind: str
    # Sorted category labels; vocab blocks get an implicit OOV column after
    # the listed categories, numeric blocks have none.
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown block kind {self.kind!r}")

    @property
    def width(self) -> int:
        if self.kind == "numeric":
            return 1
        if self.kind == "vocab":
            return len(self.categories) + 1
        return len(self.categories)


@dataclass(frozen=True)
class EncoderSchema:
    blocks: tuple[FeatureBlock, ...]
    lemma_top_k: int = DEFAULT_LEMMA_TOP_K

    @property
    def n_columns(self) -> int:
        return sum(block.width for block in self.blocks)

    def block_slices(self) -> dict[str, slice]:
        out = {}
        start = 0
        for block in self.blocks:
            out[block.feature] = slice(start, start + block.width)
            start += block.width
        return out

    def column_features(self) -> list[str]:
        """Source feature name for each matrix column."""
        return [
            block.feature
            for block in self.blocks
            for _ in range(block.width)
        ]


def _examples(dataset: PairDataset | list[PairExample]) -> list[PairExample]:
    examples = list(dataset.examples) if isinstance(dataset, PairDataset) else list(dataset)
    if not examples:
        raise EmptyDatasetError("cannot encode an empty dataset")
    return examples


def fit_schema(
    dataset: PairDataset | list[PairExample], lemma_top_k: int = DEFAULT_LEMMA_TOP_K
) -> EncoderSchema:
    if lemma_top_k < 0:
        raise ConfigError("lemma_top_k must be >= 0")
    examples = _examples(dataset)
    blocks = []
    for feature in sorted(FEATURE_NAMES):
        if feature in NUMERIC_FEATURES:
            blocks.append(FeatureBlock(feature, "numeric"))
            continue
        values = [getattr(ex.features, feature) for ex in examples]
        if feature in LEMMA_FEATURES:
            counts = Counter(values)
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:lemma_top_k]
            categories = tuple(sorted(lemma for lemma, _ in top))
            blocks.append(FeatureBlock(feature, "vocab", categories))
        else:
            blocks.append(FeatureBlock(feature, "categorical", tuple(sorted(set(values)))))
    return EncoderSchema(blocks=tuple(blocks), lemma_top_k=lemma_top_k)


def encode(
    dataset: PairDataset | list[PairExample],
    schema: EncoderSchema | None = None,
    lemma_top_k: int = DEFAULT_LEMMA_TOP_K,
) -> tuple[np.ndarray, np.ndarray, EncoderSchema]:
    """Encode a dataset, fitting a schema when none is supplied.

    Returns (X, y, schema) with y the binary target, 1 for bridging. X is
    filled one block at a time: a numeric block is one column, a one-hot
    block one write of 1.0 per row whose value has a column.
    """
    examples = _examples(dataset)
    if schema is None:
        schema = fit_schema(examples, lemma_top_k=lemma_top_k)
    rows = np.arange(len(examples))
    X = np.zeros((len(examples), schema.n_columns), dtype=np.float64)
    start = 0
    for block in schema.blocks:
        values = [getattr(ex.features, block.feature) for ex in examples]
        if block.kind == "numeric":
            X[:, start] = values
        else:
            position = {category: i for i, category in enumerate(block.categories)}
            # an unseen value goes to the OOV column of a vocab block; a
            # plain categorical block has none, so its row stays all-zero
            missing = len(block.categories) if block.kind == "vocab" else -1
            columns = np.fromiter((position.get(v, missing) for v in values), dtype=np.int64,
                                  count=len(values))
            hit = columns >= 0
            X[rows[hit], start + columns[hit]] = 1.0
        start += block.width
    y = np.fromiter((1 if ex.label == "bridging" else 0 for ex in examples), dtype=np.int64,
                    count=len(examples))
    return X, y, schema
