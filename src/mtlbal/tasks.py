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
is a pure function of its arguments. Datasets are immutable after creation
and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import SplitMix64, derive

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
    """Sampled inputs/targets for K tasks plus a train/test index split."""

    inputs: np.ndarray
    targets: list
    train_index: np.ndarray
    test_index: np.ndarray
    seed: int
    specs: tuple
    relatedness: float
    latent_dim: int
    noise: float = NOISE_FRACTION

    def batch(self, index: np.ndarray) -> Batch:
        """The rows listed in the integer array `index`."""
        inputs, *targets = (a.take(index, axis=0) for a in [self.inputs, *self.targets])
        return Batch(inputs, targets, self.specs)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


def generate_mtl(
    seed: int,
    input_dim: int,
    n_samples: int,
    specs,
    relatedness: float,
    latent_dim: int | None = None,
    noise: float = NOISE_FRACTION,
) -> Dataset:
    """Generate a synthetic multi-task dataset; see the module docstring.

    The noise block is drawn once with one column per output unit of the
    widest task and shared across tasks (task k reads its first output_dim
    columns), so tasks with identical specs receive identical noise, and at
    relatedness 1 their target blocks are identical before scaling.
    """
    specs = tuple(specs)
    k = len(specs)
    if k < 1:
        raise ValueError("need at least one task spec")
    if input_dim < 2:
        raise ValueError(f"input_dim must be >= 2, got {input_dim}")
    if n_samples < 10 * k:
        raise ValueError(f"need n_samples >= 10*K = {10 * k}, got {n_samples}")
    if not 0.0 <= relatedness <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {relatedness}")
    if latent_dim is None:
        latent_dim = input_dim
    if latent_dim < 1:
        raise ValueError(f"latent_dim must be positive, got {latent_dim}")

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
        sigma = noise * float(pre.std())
        noisy = pre + sigma * noise_block[:, : spec.output_dim]
        if spec.kind == "regression-mse":
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
        seed=seed,
        specs=specs,
        relatedness=relatedness,
        latent_dim=latent_dim,
        noise=noise,
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


# ---------------------------------------------------------------------------
# Dataset export/import: header block then comma-delimited rows.
# ---------------------------------------------------------------------------

_DATASET_HEADER = "mtl-dataset v1"
_DATASET_KEYS = (
    "seed", "input_dim", "n_samples", "relatedness", "latent_dim", "noise",
    "tasks", "train_index", "test_index",
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _spec_to_text(spec: TaskSpec) -> str:
    return f"{spec.kind}:{spec.output_dim}:{_fmt(spec.loss_scale)}:{spec.name}"


def _spec_from_text(text: str) -> TaskSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"malformed task spec {text!r}")
    return TaskSpec(parts[0], int(parts[1]), float(parts[2]), parts[3])


def specs_to_text(specs) -> str:
    return "; ".join(_spec_to_text(s) for s in specs)


def specs_from_text(text: str) -> tuple:
    return tuple(_spec_from_text(p.strip()) for p in text.split(";") if p.strip())


def dataset_to_text(data: Dataset) -> str:
    """Serialize a Dataset to delimited text, exact at 17 significant digits."""
    lines = [
        _DATASET_HEADER,
        f"seed = {data.seed}",
        f"input_dim = {data.input_dim}",
        f"n_samples = {data.n_samples}",
        f"relatedness = {_fmt(data.relatedness)}",
        f"latent_dim = {data.latent_dim}",
        f"noise = {_fmt(data.noise)}",
        f"tasks = {specs_to_text(data.specs)}",
        "train_index = " + ",".join(str(i) for i in data.train_index),
        "test_index = " + ",".join(str(i) for i in data.test_index),
        "data:",
    ]
    for i in range(data.n_samples):
        cells = [_fmt(v) for v in data.inputs[i]]
        for spec, block in zip(data.specs, data.targets):
            if spec.kind == "multiclass-ce":
                cells.append(str(int(block[i])))
            else:
                cells.extend(_fmt(v) for v in np.atleast_1d(block[i]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dataset_from_text(text: str) -> Dataset:
    """Rebuild a Dataset from `dataset_to_text` output; any malformed input
    (a duplicated, unknown or missing header key, a row of the wrong width,
    a class label out of range, or indices that do not split the rows into
    train and test, each row once) raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != _DATASET_HEADER:
        raise ValueError("not a dataset export (missing header)")
    header: dict[str, str] = {}
    for idx, ln in enumerate(lines[1:], start=1):
        if ln == "data:":
            row_start = idx + 1
            break
        key, sep, value = ln.partition(" = ")
        if not sep:
            raise ValueError(f"malformed dataset header line: {ln!r}")
        if key in header:
            raise ValueError(f"duplicate dataset key {key!r}")
        if key not in _DATASET_KEYS:
            raise ValueError(f"unknown dataset key {key!r}")
        header[key] = value
    else:
        raise ValueError("dataset export has no data section")
    missing = [key for key in _DATASET_KEYS if key not in header]
    if missing:
        raise ValueError(f"dataset header missing keys {missing}")

    specs = specs_from_text(header["tasks"])
    n_samples = int(header["n_samples"])
    input_dim = int(header["input_dim"])
    if input_dim < 1:
        raise ValueError(f"input_dim must be positive, got {input_dim}")
    rows = [ln.split(",") for ln in lines[row_start:] if ln]
    if len(rows) != n_samples:
        raise ValueError(f"expected {n_samples} rows, found {len(rows)}")
    width = input_dim + sum(1 if s.kind == "multiclass-ce" else s.output_dim for s in specs)
    for i, cells in enumerate(rows):
        if len(cells) != width:
            raise ValueError(f"row {i} has {len(cells)} cells, expected {width}")

    inputs = np.empty((n_samples, input_dim))
    targets = [
        np.empty(n_samples, dtype=np.int64)
        if s.kind == "multiclass-ce"
        else np.empty((n_samples, s.output_dim))
        for s in specs
    ]
    for i, cells in enumerate(rows):
        inputs[i] = [float(c) for c in cells[:input_dim]]
        pos = input_dim
        for spec, block in zip(specs, targets):
            if spec.kind == "multiclass-ce":
                block[i] = int(cells[pos])
                pos += 1
            else:
                block[i] = [float(c) for c in cells[pos : pos + spec.output_dim]]
                pos += spec.output_dim
    for spec, block in zip(specs, targets):
        if spec.kind == "multiclass-ce" and ((block < 0) | (block >= spec.output_dim)).any():
            raise ValueError(f"class labels of task {spec.name!r} outside [0, {spec.output_dim})")

    train_index, test_index = (
        np.array([int(v) for v in header[key].split(",")], dtype=np.int64)
        for key in ("train_index", "test_index")
    )
    both = np.sort(np.concatenate([train_index, test_index]))
    if not np.array_equal(both, np.arange(n_samples)):
        raise ValueError(f"train_index and test_index do not split rows 0..{n_samples - 1}")
    return Dataset(
        inputs=inputs,
        targets=targets,
        train_index=train_index,
        test_index=test_index,
        seed=int(header["seed"]),
        specs=specs,
        relatedness=float(header["relatedness"]),
        latent_dim=int(header["latent_dim"]),
        noise=float(header["noise"]),
    )
