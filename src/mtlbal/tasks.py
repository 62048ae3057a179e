"""Synthetic multi-task problems with a controllable loss-scale imbalance.

A shared nonlinear map feeds every task: inputs x are standard normal, the
latent representation is tanh(x @ B), and task k's pre-activation targets are
latent @ W_k plus Gaussian noise. `relatedness` linearly interpolates W_k
between one matrix common to all tasks (1.0) and fully independent matrices
(0.0). Regression targets are then multiplied by the task's `loss_scale`
(the dominance knob); binary targets are thresholded at zero; multiclass
targets are the argmax column.

Everything is drawn from one splitmix64 stream in a fixed, documented order
(inputs, B, W_common, each W_indep, noise, split permutation), so a Dataset
is a pure function of its arguments, which `data_settings` checks and a
Dataset keeps as its `settings`. Datasets are immutable and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import SplitMix64, derive
from .textio import fmt

TASK_KINDS = ("regression-mse", "binary-bce", "multiclass-ce")

#: Noise std as a fraction of each task's pre-activation target std.
NOISE_FRACTION = 0.1

#: Purpose tag for deriving the data-generation stream from the run seed.
DATA_STREAM_TAG = 0xDA7A


@dataclass(frozen=True)
class TaskSpec:
    """One task: its loss kind, output width, dominance multiplier, and label."""

    kind: str
    output_dim: int = 1
    loss_scale: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be positive, got {self.output_dim}")
        if self.kind == "multiclass-ce" and self.output_dim < 2:
            raise ValueError("multiclass-ce needs output_dim >= 2")
        if not (np.isfinite(self.loss_scale) and self.loss_scale > 0):
            raise ValueError(f"loss_scale must be positive, got {self.loss_scale}")
        bad = set(self.name) & set(":;,= \t\n")
        if bad:
            raise ValueError(f"task name {self.name!r} contains reserved characters {bad}")


class Batch(NamedTuple):
    """A slice of a Dataset: inputs, per-task target blocks, and their specs."""

    inputs: np.ndarray
    targets: list
    specs: tuple


@dataclass
class Dataset:
    """Inputs/targets for K tasks, a train/test index split, and their `settings`."""

    inputs: np.ndarray
    targets: list
    train_index: np.ndarray
    test_index: np.ndarray
    specs: tuple
    settings: dict

    def batch(self, index: np.ndarray) -> Batch:
        """The rows listed in the integer array `index`."""
        inputs, *targets = (a.take(index, axis=0) for a in [self.inputs, *self.targets])
        return Batch(inputs, targets, self.specs)


def data_settings(seed, input_dim, n_samples, specs, relatedness, latent_dim) -> dict:
    """The arguments of `generate_mtl`, checked, with latent_dim resolved (None
    means input_dim). Raises ValueError naming the first bad setting; the range
    checks are written so that NaN fails them."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one task spec")
    if not input_dim >= 2:
        raise ValueError(f"input_dim must be >= 2, got {input_dim}")
    floor = 10 * len(specs)
    if not n_samples >= floor:
        raise ValueError(f"n_samples must be >= 10 per task ({floor}), got {n_samples}")
    if latent_dim is None:
        latent_dim = input_dim
    if not latent_dim >= 1:
        raise ValueError(f"latent_dim must be positive, got {latent_dim}")
    if not 0.0 <= relatedness <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {relatedness}")
    return dict(
        seed=seed,
        input_dim=input_dim,
        n_samples=n_samples,
        specs=specs,
        relatedness=relatedness,
        latent_dim=latent_dim,
    )


def generate_mtl(
    seed: int,
    input_dim: int,
    n_samples: int,
    specs,
    relatedness: float,
    latent_dim: int | None = None,
) -> Dataset:
    """Generate a synthetic multi-task dataset; see the module docstring.

    The noise block is drawn once with one column per output unit of the
    widest task and shared across tasks (task k reads its first output_dim
    columns), so tasks with identical specs receive identical noise, and at
    relatedness 1 their target blocks are identical before scaling.
    """
    settings = data_settings(seed, input_dim, n_samples, specs, relatedness, latent_dim)
    specs, latent_dim = settings["specs"], settings["latent_dim"]

    stream = SplitMix64(derive(seed, DATA_STREAM_TAG))
    x = stream.normal((n_samples, input_dim))
    b = stream.normal((input_dim, latent_dim)) / np.sqrt(input_dim)
    max_out = max(s.output_dim for s in specs)
    w_common = stream.normal((latent_dim, max_out)) / np.sqrt(latent_dim)
    w_indep = [stream.normal((latent_dim, s.output_dim)) / np.sqrt(latent_dim) for s in specs]
    noise_block = stream.normal((n_samples, max_out))

    latent = np.tanh(x @ b)
    targets = []
    for spec, w_k in zip(specs, w_indep):
        w = relatedness * w_common[:, : spec.output_dim] + (1.0 - relatedness) * w_k
        pre = latent @ w
        sigma = NOISE_FRACTION * float(pre.std())
        noisy = pre + sigma * noise_block[:, : spec.output_dim]
        if spec.kind == "regression-mse":
            # An overflowing scale gives inf targets, and the run then ends
            # in a NumericalAbort rather than a warning here.
            with np.errstate(over="ignore"):
                targets.append(noisy * spec.loss_scale)
        elif spec.kind == "binary-bce":
            targets.append((noisy > 0).astype(np.float64))
        else:
            targets.append(np.argmax(noisy, axis=1).astype(np.int64))

    perm = stream.permutation(n_samples)
    n_train = int(0.8 * n_samples)
    train_index = np.sort(perm[:n_train])
    test_index = np.sort(perm[n_train:])
    return Dataset(
        inputs=x,
        targets=targets,
        train_index=train_index,
        test_index=test_index,
        specs=specs,
        settings=settings,
    )


_CLAMP = 1e-12


def loss_and_grad(
    kind: str, predictions: np.ndarray, targets: np.ndarray, loss_scale: float | np.ndarray = 1.0
):
    """Mean-over-batch loss times loss_scale, and its gradient in predictions.

    A call on one task's (batch, d) predictions returns a float loss. A call
    on a head group's stacked (n, batch, d) predictions, with targets stacked
    the same way ((n, batch) labels for multiclass-ce) and one loss_scale per
    slice, returns the n losses and the stacked gradient; slice i is what the
    call on slice i alone returns, bit for bit.

    The unscaled loss and gradient are computed first and multiplied by
    loss_scale at the end, so scaling is exactly linear. Probabilities are
    clamped to [1e-12, 1 - 1e-12] before any logarithm or reciprocal.

    - regression-mse: mean squared error over all elements
    - binary-bce: per-element binary cross entropy on (0,1) probabilities
    - multiclass-ce: cross entropy of row-simplex predictions against
      integer class targets (one label per row)
    """
    p = np.asarray(predictions, dtype=np.float64)
    stacked = p.ndim == 3
    if not stacked:
        p, targets = p[None], np.asarray(targets)[None]
    scale = np.asarray(loss_scale, dtype=np.float64)
    # Sums over each slice, divided by its size, as np.mean computes it.
    axes = tuple(range(1, p.ndim))
    size = math.prod(p.shape[1:])
    if kind in ("regression-mse", "binary-bce"):
        y = np.asarray(targets, dtype=np.float64)
        if p.shape != y.shape:
            raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {y.shape}")
    if kind == "regression-mse":
        diff = p - y
        base = np.add.reduce(diff * diff, axis=axes) / size
        grad = (2.0 / size) * diff
    elif kind == "binary-bce":
        pc = np.minimum(np.maximum(p, _CLAMP), 1.0 - _CLAMP)
        not_y = 1.0 - y
        base = np.add.reduce(-(y * np.log(pc) + not_y * np.log1p(-pc)), axis=axes) / size
        grad = (-y / pc + not_y / (1.0 - pc)) / size
    elif kind == "multiclass-ce":
        if p.ndim != 3:
            raise ValueError(f"predictions {p.shape[1:]} are not (batch, classes)")
        n, rows, classes = p.shape
        y = np.asarray(targets).reshape(n, -1)
        if y.dtype.kind not in "iu":
            raise ValueError(f"class labels must be integers, got dtype {y.dtype}")
        if y.shape[1] != rows:
            raise ValueError(f"predictions {p.shape} do not match {y.size} class labels")
        if np.minimum.reduce(y, axis=None) < 0 or np.maximum.reduce(y, axis=None) >= classes:
            raise ValueError("class labels out of range")
        at = (np.arange(n)[:, None], np.arange(rows), y)
        picked = np.minimum(np.maximum(p[at], _CLAMP), 1.0 - _CLAMP)
        base = np.add.reduce(-np.log(picked), axis=1) / rows
        grad = np.zeros_like(p)
        grad[at] = -1.0 / (rows * picked)
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    loss = scale * base
    grad *= scale.reshape(scale.shape + (1,) * (p.ndim - 1))
    return (loss, grad) if stacked else (float(loss[0]), grad[0])


def _spec_from_text(text: str) -> TaskSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"malformed task spec {text!r}")
    return TaskSpec(parts[0], int(parts[1]), float(parts[2]), parts[3])


def specs_to_text(specs) -> str:
    return "; ".join(f"{s.kind}:{s.output_dim}:{fmt(s.loss_scale)}:{s.name}" for s in specs)


def specs_from_text(text: str) -> tuple:
    return tuple(_spec_from_text(p.strip()) for p in text.split(";") if p.strip())
