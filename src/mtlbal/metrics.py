"""Evaluation metrics and training-dynamics instrumentation.

Scoring: binary F1, macro F1, concordance correlation (population moments),
and a composite score assembled from tagged metric groups. Instrumentation:
an append-only per-iteration Trace with the columns `TRACE_COLUMNS`
declares, and how spiky the mean loss coefficient is across consecutive
logged rows.

All metrics are pure functions; a Trace has a single writer and may be read
concurrently once a run finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .balancers import EPS_FLOOR
from .textio import table_text


def f1_binary(predictions, labels) -> float:
    """F1 = 2PR / (P + R) on 0/1 vectors; 0 when the denominator is 0."""
    p = np.asarray(predictions).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    tp = float(np.sum((p == 1) & (y == 1)))
    fp = float(np.sum((p == 1) & (y == 0)))
    fn = float(np.sum((p == 0) & (y == 1)))
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def f1_macro(predictions, labels, n_classes: int) -> float:
    """Unweighted mean of one-vs-rest F1 over all n_classes classes.

    Classes absent from both predictions and labels contribute 0 (the
    zero-denominator convention), which keeps the mean comparable across
    runs with rare classes.
    """
    p = np.asarray(predictions).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    if p.size and (min(p.min(), y.min()) < 0 or max(p.max(), y.max()) >= n_classes):
        raise ValueError("class labels out of range")
    return float(np.mean([f1_binary(p == c, y == c) for c in range(n_classes)]))


def ccc(predictions, labels) -> float:
    """Concordance correlation: 2 cov / (var_x + var_y + (mean_x - mean_y)^2).

    Population (1/n) moments. Degenerate inputs (both variances zero, equal
    means) score 1 if the sequences are identical, else 0.
    """
    x = np.asarray(predictions, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two points")
    mx, my = float(x.mean()), float(y.mean())
    vx = float(np.mean((x - mx) ** 2))
    vy = float(np.mean((y - my) ** 2))
    cov = float(np.mean((x - mx) * (y - my)))
    try:
        gap = (mx - my) ** 2
    except OverflowError:  # a float power raises where numpy gives inf
        gap = math.inf
    denom = vx + vy + gap
    if denom == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return 2.0 * cov / denom


def composite_score(parts, required_groups=None) -> float:
    """Sum of per-group means over (value, group tag) parts.

    With groups ("va", "au", "emotion") this reproduces the
    mean-correlation + mean-F1 + F1 composite; dropping the "au" group gives
    the two-group variant; a single group is just its mean. When
    `required_groups` is given, every listed group must appear and no other
    group may; a missing or unconfigured group is a hard error.
    """
    groups: dict[str, list[float]] = {}
    for value, tag in parts:
        groups.setdefault(tag, []).append(float(value))
    if required_groups is not None:
        required = list(required_groups)
        missing = [g for g in required if g not in groups]
        if missing:
            raise ValueError(f"missing configured metric groups: {missing}")
        extra = [g for g in groups if g not in required]
        if extra:
            raise ValueError(f"unconfigured metric groups: {extra}")
        groups = {g: groups[g] for g in required}
    return float(sum(np.mean(values) for values in groups.values()))


#: trace.csv's columns, in order; a name holding {} is one column per task.
#: A trace row maps each of these names to its value.
TRACE_COLUMNS = ("iteration", "loss_{}", "weight_{}", "rate_{}", "rate_std", "weighted_total")


@dataclass
class Trace:
    """Append-only log of rows keyed by TRACE_COLUMNS, in increasing time."""

    task_names: tuple
    rows: list = field(default_factory=list)

    def append(self, row: dict) -> None:
        if tuple(row) != TRACE_COLUMNS:
            raise ValueError(f"trace row columns {tuple(row)} are not {TRACE_COLUMNS}")
        k = len(self.task_names)
        for name, value in row.items():
            if np.shape(value) != ((k,) if "{}" in name else ()):
                raise ValueError(f"trace column {name!r} width does not match {k} tasks")
        if self.rows and row["iteration"] <= self.rows[-1]["iteration"]:
            raise ValueError("trace iterations must be strictly increasing")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def weight_means(self) -> np.ndarray:
        return np.array([float(r["weight_{}"].mean()) for r in self.rows])


def coefficient_spikiness(means) -> float:
    """Largest relative jump of the mean coefficient between logged rows,
    given each row's mean weight (`Trace.weight_means`).

    max over t of |mean(t) - mean(t-1)| / max(mean(t-1), EPS_FLOOR); fewer
    than two rows have no jumps and score 0.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.size < 2:
        return 0.0
    prev = means[:-1]
    jumps = np.abs(np.diff(means)) / np.maximum(prev, EPS_FLOOR)
    return float(jumps.max())


# ---------------------------------------------------------------------------
# Trace export: comma-delimited text, stable column order (see README).
# ---------------------------------------------------------------------------


def trace_to_text(trace: Trace) -> str:
    """trace.csv: the rows under `TRACE_COLUMNS` (see README)."""
    return table_text(TRACE_COLUMNS, trace.task_names, trace.rows)
