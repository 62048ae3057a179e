"""Evaluation metrics and training-dynamics instrumentation.

Scoring: binary F1, macro F1, concordance correlation (population moments),
and a composite score assembled from tagged metric groups. Instrumentation:
an append-only per-iteration Trace (losses, weights, training rates, their
spread, and the weighted total) and how spiky the mean loss coefficient is
across consecutive logged rows.

All metrics are pure functions; a Trace has a single writer and may be read
concurrently once a run finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .balancers import EPS_FLOOR
from .textio import fmt, fmt_vec


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
    order: list[str] = []
    for value, tag in parts:
        if tag not in groups:
            groups[tag] = []
            order.append(tag)
        groups[tag].append(float(value))
    if required_groups is not None:
        required = list(required_groups)
        missing = [g for g in required if g not in groups]
        if missing:
            raise ValueError(f"missing configured metric groups: {missing}")
        extra = [g for g in order if g not in required]
        if extra:
            raise ValueError(f"unconfigured metric groups: {extra}")
        order = required
    return float(sum(np.mean(groups[g]) for g in order))


@dataclass
class TraceRow:
    """One logged iteration of a training run."""

    iteration: int
    losses: np.ndarray
    weights: np.ndarray
    rates: np.ndarray
    rate_std: float
    weighted_total: float


@dataclass
class Trace:
    """Append-only log of TraceRows with constant width and increasing time."""

    task_names: tuple
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        k = len(self.task_names)
        if not (row.losses.size == row.weights.size == row.rates.size == k):
            raise ValueError(f"trace row width does not match {k} tasks")
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def weight_means(self) -> np.ndarray:
        return np.array([float(r.weights.mean()) for r in self.rows])


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
    """Column order: iteration, loss_*, weight_*, rate_* (task order),
    rate_std, weighted_total."""
    names = trace.task_names
    header = (
        ["iteration"]
        + [f"loss_{n}" for n in names]
        + [f"weight_{n}" for n in names]
        + [f"rate_{n}" for n in names]
        + ["rate_std", "weighted_total"]
    )
    lines = [",".join(header)]
    for r in trace.rows:
        cells = (
            [str(r.iteration)]
            + [fmt_vec(r.losses), fmt_vec(r.weights), fmt_vec(r.rates)]
            + [fmt(r.rate_std), fmt(r.weighted_total)]
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
