"""Statistical summaries over harmonized corpora and pair datasets:
contingency residuals, entity-type distributions, subtype counts, and
low-confidence gold-positive mining."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, DegenerateTableError, EmptyDatasetError
from .gbdt import GbdtModel, encode, predict_proba
from .model import Document
from .pairgen import PairDataset, derive_definiteness

ROW_LABELS = ("def", "ind")
COL_LABELS = ("bridge", "non-bridge")


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Anaphor definiteness (rows def/ind) against bridging status
    (columns bridge/non-bridge)."""
    counts: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ResidualTable:
    observed: tuple[tuple[int, int], tuple[int, int]]
    expected: tuple[tuple[float, float], tuple[float, float]]
    residuals: tuple[tuple[float, float], tuple[float, float]]
    adjusted: bool = False

    def to_dict(self) -> dict:
        return {
            "rows": list(ROW_LABELS),
            "cols": list(COL_LABELS),
            "observed": [list(row) for row in self.observed],
            "expected": [list(row) for row in self.expected],
            "residuals": [list(row) for row in self.residuals],
            "adjusted": self.adjusted,
        }

    def to_text(self) -> str:
        lines = [f"{'':>6} {COL_LABELS[0]:>12} {COL_LABELS[1]:>12}"]
        for label, row in zip(ROW_LABELS, self.residuals):
            lines.append(f"{label:>6} {row[0]:>12.2f} {row[1]:>12.2f}")
        return "\n".join(lines)


def definiteness_contingency(dataset: PairDataset) -> ContingencyTable2x2:
    """Count anaphor definiteness against the bridging label in a pair
    dataset. Examples with definiteness outside def/ind are left out."""
    counts = [[0, 0], [0, 0]]
    for ex in dataset.examples:
        definite = ex.features.n_definite
        if definite not in ROW_LABELS:
            continue
        row = ROW_LABELS.index(definite)
        col = 0 if ex.label == "bridging" else 1
        counts[row][col] += 1
    table = ContingencyTable2x2(counts=tuple(tuple(row) for row in counts))
    if sum(sum(row) for row in table.counts) == 0:
        raise EmptyDatasetError("no def/ind examples left for the contingency table")
    return table


def definiteness_contingency_corpus(docs: list[Document]) -> ContingencyTable2x2:
    """Corpus-level variant: every mention counts once, bridging meaning
    the mention is the anaphor of some bridging link."""
    counts = [[0, 0], [0, 0]]
    for doc in docs:
        anaphors = {link.anaphor_id for link in doc.bridging}
        for m in doc.mentions:
            definite = derive_definiteness(doc, m)
            row = ROW_LABELS.index(definite)
            col = 0 if m.id in anaphors else 1
            counts[row][col] += 1
    table = ContingencyTable2x2(counts=tuple(tuple(row) for row in counts))
    if sum(sum(row) for row in table.counts) == 0:
        raise EmptyDatasetError("no mentions to tabulate")
    return table


def chi_square_residuals(table: ContingencyTable2x2, adjusted: bool = False) -> ResidualTable:
    """Pearson residuals r = (O - E)/sqrt(E) with E from the row/column
    marginals. The adjusted form divides by sqrt((1 - row/n)(1 - col/n))
    as well; off by default."""
    observed = table.counts
    row_totals = [sum(row) for row in observed]
    col_totals = [sum(observed[i][j] for i in range(2)) for j in range(2)]
    grand = sum(row_totals)
    if grand <= 0 or any(t == 0 for t in row_totals) or any(t == 0 for t in col_totals):
        raise DegenerateTableError(
            f"zero marginal in table with row totals {row_totals}, column totals {col_totals}"
        )
    expected = [[row_totals[i] * col_totals[j] / grand for j in range(2)] for i in range(2)]
    residuals = [
        [(observed[i][j] - expected[i][j]) / math.sqrt(expected[i][j]) for j in range(2)]
        for i in range(2)
    ]
    if adjusted:
        for i in range(2):
            for j in range(2):
                scale = math.sqrt((1 - row_totals[i] / grand) * (1 - col_totals[j] / grand))
                residuals[i][j] /= scale
    return ResidualTable(
        observed=tuple(tuple(row) for row in observed),
        expected=tuple(tuple(row) for row in expected),
        residuals=tuple(tuple(row) for row in residuals),
        adjusted=adjusted,
    )


@dataclass(frozen=True)
class PairTypeDistribution:
    """Proportions of bridging links per (antecedent type, anaphor type)."""
    counts: dict[tuple[str, str], int]
    total: int
    threshold: float

    def rows(self) -> list[tuple[str, str, float, bool]]:
        """Long format, sorted by (ante, ana): one row per observed cell."""
        return [
            (ante, ana, count / self.total, count / self.total >= self.threshold)
            for (ante, ana), count in sorted(self.counts.items())
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ante_type", "ana_type", "proportion", "visible"])
        for ante, ana, proportion, visible in self.rows():
            writer.writerow([ante, ana, f"{proportion:.6f}", int(visible)])
        return buf.getvalue()


def _link_type_pairs(docs: list[Document]) -> list[tuple[str, str]]:
    pairs = []
    for doc in docs:
        for link in doc.bridging:
            ana = doc.mention_by_id[link.anaphor_id]
            for ante_id in link.antecedent_ids:
                ante = doc.mention_by_id[ante_id]
                pairs.append((ante.entity_type_unified, ana.entity_type_unified))
    return pairs


def entity_pair_distribution(docs: list[Document], threshold: float = 0.01) -> PairTypeDistribution:
    pairs = _link_type_pairs(docs)
    if not pairs:
        raise EmptyDatasetError("no bridging links to tabulate")
    return PairTypeDistribution(counts=Counter(pairs), total=len(pairs), threshold=threshold)


@dataclass(frozen=True)
class LabelDistribution:
    counts: dict[str, int]
    total: int

    def rows(self) -> list[tuple[str, int, float]]:
        """Sorted by count descending, then label."""
        return [
            (label, count, count / self.total)
            for label, count in sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def to_text(self) -> str:
        if not self.counts:
            return "(empty)"
        width = max(len(label) for label in self.counts)
        return "\n".join(
            f"{label.ljust(width)}  {count:>6}  {100 * proportion:5.1f}%"
            for label, count, proportion in self.rows()
        )


def anaphor_entity_distribution(docs: list[Document]) -> LabelDistribution:
    """Entity type of the anaphor, one count per bridging link: the unified
    type, or the original label of an anaphor left unresolved."""
    labels = [doc.mention_by_id[link.anaphor_id].entity_type
              for doc in docs for link in doc.bridging]
    return LabelDistribution(counts=Counter(labels), total=len(labels))


def subtype_distribution(docs: list[Document]) -> LabelDistribution:
    """Bridging subtype counts; links without a subtype count as unmarked."""
    labels = [link.subtype if link.subtype is not None else "unmarked"
              for doc in docs for link in doc.bridging]
    return LabelDistribution(counts=Counter(labels), total=len(labels))


@dataclass(frozen=True)
class ConfidentError:
    doc_id: str
    antecedent_id: str
    anaphor_id: str
    probability: float


def confident_errors(
    model: GbdtModel, dataset: PairDataset, tau: float = 0.10
) -> list[ConfidentError]:
    """Gold bridging pairs the model scores below tau, most confident
    (lowest probability) first."""
    if model.schema is None:
        raise ConfigError("model carries no encoder schema")
    gold = [ex for ex in dataset.examples if ex.label == "bridging"]
    if not gold:
        return []
    X, _, _ = encode(gold, schema=model.schema)
    found = [
        ConfidentError(ex.doc_id, ex.antecedent_id, ex.anaphor_id, float(p))
        for ex, p in zip(gold, predict_proba(model, X))
        if p < tau
    ]
    found.sort(key=lambda e: e.probability)
    return found
