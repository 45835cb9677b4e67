"""Confusion matrices, unweighted average recall, result tables, and
duration histograms."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, LabelError, MetricError, ReportError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [C, C], rows = true class, cols = predicted

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise InputError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise InputError("confusion matrix entries must be non-negative")


def confusion(preds, labels, n_classes: int) -> ConfusionMatrix:
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise InputError(f"{len(preds)} predictions vs {len(labels)} labels")
    if n_classes < 1:
        raise ConfigError(f"n_classes must be >= 1, got {n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(preds, labels):
        if not (0 <= t < n_classes and 0 <= p < n_classes):
            raise LabelError(f"class index out of range for C={n_classes}: "
                             f"pred={p}, label={t}")
        counts[t, p] += 1
    return ConfusionMatrix(counts)


def uar(cm: ConfusionMatrix) -> float:
    """Mean per-class recall over the classes that actually occur; classes
    with zero support do not enter the mean."""
    support = cm.counts.sum(axis=1)
    present = support > 0
    if not present.any():
        raise MetricError("UAR undefined on an all-zero confusion matrix")
    recalls = cm.counts.diagonal()[present] / support[present]
    return float(recalls.mean())


def report(results: dict[str, dict[str, float]]) -> tuple[str, str]:
    """Corpus-by-variant UAR table: percentages with one decimal, the best
    variant per row starred (ties star all maxima), and an AVERAGE row that
    is the unweighted mean over corpora.  Returns (text_table, csv)."""
    if not results:
        raise ReportError("empty results")
    corpora = list(results)
    variants = list(results[corpora[0]])
    if not variants:
        raise ReportError("no model variants in results")
    for corpus_id in corpora:
        if list(results[corpus_id]) != variants:
            raise ReportError(f"variant set for {corpus_id!r} differs from "
                              f"{corpora[0]!r}; rows must agree")

    rows = [(corpus_id, [float(results[corpus_id][v]) for v in variants])
            for corpus_id in corpora]
    averages = [float(np.mean([results[c][v] for c in corpora])) for v in variants]
    rows.append(("AVERAGE", averages))

    def fmt(value: float, starred: bool) -> str:
        return f"{100.0 * value:.1f}" + ("*" if starred else "")

    table = io.StringIO()  # the csv module quotes a name holding "," or '"'
    csv_rows = csv.writer(table, lineterminator="\n")
    csv_rows.writerow(["corpus"] + variants)
    name_w = max(len(name) for name, _ in rows)
    col_w = max(8, max(len(v) for v in variants) + 1)
    text_lines = [" " * name_w + "  " +
                  "".join(f"{v:>{col_w}}" for v in variants)]
    for name, values in rows:
        best = max(values)
        cells = [fmt(v, v == best) for v in values]
        csv_rows.writerow([name] + cells)
        text_lines.append(f"{name:<{name_w}}  " +
                          "".join(f"{c:>{col_w}}" for c in cells))
    return "\n".join(text_lines) + "\n", table.getvalue()


DURATION_CAP_S = 6.0


def duration_histogram(manifests) -> dict[float, int]:
    """Pooled duration counts per whole-second bin [k, k + 1); everything at
    or above DURATION_CAP_S lands in one overflow bin keyed by it."""
    bins = {float(k): 0 for k in range(int(DURATION_CAP_S) + 1)}
    for manifest in manifests:
        for sample in manifest.samples:
            if sample.duration_s < 0:
                raise InputError(f"negative duration for {sample.feature_path}")
            bins[float(int(min(sample.duration_s, DURATION_CAP_S)))] += 1
    return bins


def histogram_csv(bins: dict[float, int]) -> str:
    lines = ["bin_start_s,count"]
    for start in sorted(bins):
        lines.append(f"{start:g},{bins[start]}")
    return "\n".join(lines) + "\n"
