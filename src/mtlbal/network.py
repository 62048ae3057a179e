"""Hard-parameter-sharing MLP: a shared dense trunk feeding K task heads.

Every weight and bias lives in one float64 vector; layers are named views
into it, and gradients and Adam moments are vectors of the same layout.
Heads with identical layer shapes and activations form a group whose
layers are stacked on a leading axis, so one batched matmul runs a whole
group (celeb-mini's eight heads are one group; va-mini has {CE} and
{MSE, MSE}).

Forward/backward are written out explicitly in numpy, with gradients that
are exact derivatives of the weighted total sum_k weight(k) * loss(k), the
weights held constant. Each step runs the heads backward once at unit task
weight; the per-task pieces at the LAST trunk layer (the designated
parameter subset for gradient-norm balancing) feed both the grad-norm probe
and the weighted trunk backward, and the weights multiply afterwards.

Parameters are single-owner during training; reductions over tasks run in
task order, so a fixed seed gives a bitwise-identical trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, derive
from .tasks import Batch, loss_and_grad

ACTIVATIONS = ("linear", "relu", "sigmoid", "softmax")

#: Output activation used for each task kind.
OUTPUT_ACTIVATION = {
    "regression-mse": "linear",
    "binary-bce": "sigmoid",
    "multiclass-ce": "softmax",
}

#: Purpose tag for deriving the parameter-init stream from the run seed.
INIT_STREAM_TAG = 0x1217


def activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        # exp(-|z|) cannot overflow: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if kind == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown activation {kind!r}")


def _backprop_activation(upstream: np.ndarray, z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """Gradient with respect to z given the gradient with respect to a."""
    if kind == "linear":
        return upstream
    if kind == "relu":
        return np.where(z > 0, upstream, 0.0)
    if kind == "sigmoid":
        return upstream * a * (1.0 - a)
    if kind == "softmax":
        dot = np.sum(upstream * a, axis=-1, keepdims=True)
        return a * (upstream - dot)
    raise ValueError(f"unknown activation {kind!r}")


class ModelParams:
    """One shared trunk and K task heads over one flat float64 vector.

    `trunk` is a sequence of (fan_in, fan_out, activation) layers and
    `heads` holds one such sequence per task. Tasks whose head layers are
    equal form a group, in order of first appearance. The vector holds the
    trunk layers, then each group's layers, each layer as weight then bias.
    Views: `trunk[i]` is a (weight, bias) pair of shapes (fan_in, fan_out)
    and (fan_out,); `groups[g][i]` is a stacked pair of shapes
    (n, fan_in, fan_out) and (n, fan_out) for the group's n tasks, listed
    in `group_tasks[g]`; `head(k)` gives task k's slice of those.
    """

    def __init__(self, trunk, heads, vector: np.ndarray | None = None):
        self.trunk_layers = tuple((int(i), int(o), str(a)) for i, o, a in trunk)
        self.head_layers = tuple(tuple((int(i), int(o), str(a)) for i, o, a in h) for h in heads)
        if not self.trunk_layers:
            raise ValueError("trunk must have at least one layer")
        if not self.head_layers or not all(self.head_layers):
            raise ValueError("need at least one head, each with at least one layer")
        chains = [self.trunk_layers] + [self.trunk_layers[-1:] + h for h in self.head_layers]
        for chain in chains:
            for fan_in, fan_out, act in chain:
                if fan_in < 1 or fan_out < 1:
                    raise ValueError(f"layer sizes must be positive, got {fan_in}x{fan_out}")
                if act not in ACTIVATIONS:
                    raise ValueError(f"unknown activation {act!r}")
            for prev, nxt in zip(chain, chain[1:]):
                if prev[1] != nxt[0]:
                    raise ValueError(f"layer dimension mismatch: {prev[1]} feeds {nxt[0]}")

        members: dict = {}
        for k, layers in enumerate(self.head_layers):
            members.setdefault(layers, []).append(k)
        self.group_tasks = tuple(tuple(ts) for ts in members.values())
        self.slots = [None] * self.n_tasks  # task -> (group, position in group)
        for g, tasks in enumerate(self.group_tasks):
            for i, k in enumerate(tasks):
                self.slots[k] = (g, i)

        shapes = [s for i, o, _ in self.trunk_layers for s in ((i, o), (o,))]
        for tasks in self.group_tasks:
            n = len(tasks)
            shapes += [s for i, o, _ in self.head_layers[tasks[0]] for s in ((n, i, o), (n, o))]
        size = sum(math.prod(shape) for shape in shapes)
        if vector is None:
            vector = np.zeros(size)
        elif vector.shape != (size,) or vector.dtype != np.float64:
            raise ValueError(f"parameter vector must be float64 of shape ({size},)")
        self.vector = vector
        views, offset = [], 0
        for shape in shapes:
            views.append(vector[offset : offset + math.prod(shape)].reshape(shape))
            offset += math.prod(shape)
        pairs = list(zip(views[::2], views[1::2]))
        depth = len(self.trunk_layers)
        self.trunk, self.groups = pairs[:depth], []
        for tasks in self.group_tasks:
            n_layers = len(self.head_layers[tasks[0]])
            self.groups.append(pairs[depth : depth + n_layers])
            depth += n_layers

    @property
    def n_tasks(self) -> int:
        return len(self.head_layers)

    @property
    def input_dim(self) -> int:
        return self.trunk_layers[0][0]

    def n_parameters(self) -> int:
        return self.vector.size

    def like(self, vector: np.ndarray) -> "ModelParams":
        """The same layout over another vector, such as a gradient."""
        return ModelParams(self.trunk_layers, self.head_layers, vector)

    def head(self, task: int) -> list:
        """Task `task`'s (weight, bias) views, one pair per head layer."""
        g, i = self.slots[task]
        return [(w[i], b[i]) for w, b in self.groups[g]]

    def select(self, tasks) -> "ModelParams":
        """A copy with the same trunk and only the listed tasks' heads."""
        tasks = list(tasks)
        out = ModelParams(self.trunk_layers, [self.head_layers[k] for k in tasks])
        for (w, b), (src_w, src_b) in zip(out.trunk, self.trunk):
            w[...], b[...] = src_w, src_b
        for new_k, k in enumerate(tasks):
            for (w, b), (src_w, src_b) in zip(out.head(new_k), self.head(k)):
                w[...], b[...] = src_w, src_b
        return out


def init_params(seed: int, input_dim: int, trunk_sizes, head_hidden, specs) -> ModelParams:
    """He-scaled random init (std sqrt(2/fan_in)), zero biases.

    Draw order: trunk layers first, then each head's layers in task order,
    all from the stream derived from (seed, INIT_STREAM_TAG). Trunk and head
    hidden layers are relu; each head ends in a task-kind output layer.
    """
    stream = SplitMix64(derive(seed, INIT_STREAM_TAG))
    trunk, width = [], input_dim
    for size in trunk_sizes:
        trunk.append((width, size, "relu"))
        width = size
    heads = []
    for spec in specs:
        head, h_width = [], width
        for size in head_hidden:
            head.append((h_width, size, "relu"))
            h_width = size
        head.append((h_width, spec.output_dim, OUTPUT_ACTIVATION[spec.kind]))
        heads.append(head)
    params = ModelParams(trunk, heads)
    for w, _ in params.trunk + [pair for k in range(params.n_tasks) for pair in params.head(k)]:
        w[...] = stream.normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return params


@dataclass
class ForwardCache:
    """One forward pass, plus the loss and head-backward results derived from
    it on first use.

    `group_z`/`group_a` hold, per head group, each layer's stacked
    pre-activations and activations of shape (n, batch, fan_out);
    `outputs[k]` is task k's prediction.
    """

    inputs: np.ndarray
    trunk_z: list
    trunk_a: list
    group_z: list
    group_a: list
    outputs: list
    losses: np.ndarray | None = None
    pred_grads: list | None = None  # per group: stacked d loss / d prediction
    unit: _UnitPass | None = None

    @property
    def shared(self) -> np.ndarray:
        return self.trunk_a[-1]


def forward_cache(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"inputs {x.shape} do not match input_dim {params.input_dim}")
    trunk_z, trunk_a = [], []
    a = x
    for (w, b), (_, _, act) in zip(params.trunk, params.trunk_layers):
        z = a @ w + b
        a = activate(z, act)
        trunk_z.append(z)
        trunk_a.append(a)
    group_z, group_a = [], []
    for tasks, layers in zip(params.group_tasks, params.groups):
        zs, as_ = [], []
        h = a
        for (w, b), (_, _, act) in zip(layers, params.head_layers[tasks[0]]):
            z = np.matmul(h, w) + b[:, None, :]
            h = activate(z, act)
            zs.append(z)
            as_.append(h)
        group_z.append(zs)
        group_a.append(as_)
    outputs = [group_a[g][-1][i] for g, i in params.slots]
    return ForwardCache(x, trunk_z, trunk_a, group_z, group_a, outputs)


def task_losses(params: ModelParams, cache: ForwardCache, batch: Batch) -> np.ndarray:
    """Raw (unweighted) per-task losses; also keeps d loss / d prediction."""
    if cache.losses is None:
        losses, grads = [], []
        for k, spec in enumerate(batch.specs):
            loss_k, g = loss_and_grad(spec.kind, cache.outputs[k], batch.targets[k], spec.loss_scale)
            losses.append(loss_k)
            grads.append(g)
        cache.losses = np.array(losses)
        cache.pred_grads = [np.stack([grads[k] for k in tasks]) for tasks in params.group_tasks]
    return cache.losses


@dataclass
class _UnitPass:
    """Heads run backward at unit task weight: `heads[g][i]` is group g's
    layer-i (weight, bias) gradient, `deltas[k]` task k's gradient at the
    last trunk layer's pre-activation."""

    heads: list
    deltas: np.ndarray


def _unit_pass(params: ModelParams, cache: ForwardCache, batch: Batch) -> _UnitPass:
    if cache.unit is not None:
        return cache.unit
    task_losses(params, cache, batch)
    heads = []
    at_shared = np.empty((params.n_tasks,) + cache.shared.shape)
    for g, tasks in enumerate(params.group_tasks):
        layers = params.groups[g]
        grads = [None] * len(layers)
        up = cache.pred_grads[g]
        for i in range(len(layers) - 1, -1, -1):
            act = params.head_layers[tasks[0]][i][2]
            delta = _backprop_activation(up, cache.group_z[g][i], cache.group_a[g][i], act)
            below = cache.group_a[g][i - 1] if i > 0 else cache.shared
            grads[i] = (np.matmul(below.swapaxes(-1, -2), delta), delta.sum(axis=-2))
            up = np.matmul(delta, layers[i][0].swapaxes(-1, -2))
        at_shared[list(tasks)] = up
        heads.append(grads)
    act = params.trunk_layers[-1][2]
    deltas = _backprop_activation(at_shared, cache.trunk_z[-1], cache.trunk_a[-1], act)
    cache.unit = _UnitPass(heads, deltas)
    return cache.unit


def _trunk_input(cache: ForwardCache, layer: int) -> np.ndarray:
    return cache.trunk_a[layer - 1] if layer > 0 else cache.inputs


def _weight_vector(params: ModelParams, weights) -> np.ndarray:
    w = np.asarray(getattr(weights, "values", weights), dtype=np.float64)
    if w.shape != (params.n_tasks,):
        raise ValueError(f"need {params.n_tasks} weights, got shape {w.shape}")
    return w


def backward(params: ModelParams, batch: Batch, weights, cache: ForwardCache | None = None):
    """Per-task raw losses and the exact gradient vector of the weighted total.

    Losses are returned UNWEIGHTED (balancers consume raw magnitudes); the
    gradient differentiates sum_k weight(k) * loss(k) with the weights as
    constants, in the layout of `params.vector`. Pass the step's `cache` to
    reuse its head pass. Raises ValueError naming an array if that array's
    gradient is NaN.
    """
    w = _weight_vector(params, weights)
    if cache is None:
        cache = forward_cache(params, batch.inputs)
    unit = _unit_pass(params, cache, batch)
    # Per-task products are summed over tasks in task order, as running each
    # head alone would; at weight 1.0 the result is the same bit for bit.
    deltas = w[:, None, None] * unit.deltas
    last = len(params.trunk) - 1
    last_w = np.matmul(_trunk_input(cache, last).T, deltas)
    last_b = deltas.sum(axis=1)
    trunk = [None] * (last + 1)
    trunk[last] = (last_w.sum(axis=0), last_b.sum(axis=0))
    delta = deltas.sum(axis=0)
    for i in range(last - 1, -1, -1):
        up = delta @ params.trunk[i + 1][0].T
        delta = _backprop_activation(up, cache.trunk_z[i], cache.trunk_a[i], params.trunk_layers[i][2])
        trunk[i] = (_trunk_input(cache, i).T @ delta, delta.sum(axis=0))
    pieces = [a for pair in trunk for a in pair]
    for tasks, layers in zip(params.group_tasks, unit.heads):
        w_g = w[list(tasks)]
        pieces += [a for gw, gb in layers for a in (w_g[:, None, None] * gw, w_g[:, None] * gb)]
    grads = np.concatenate([a.ravel() for a in pieces])
    # Sum-based probe: NaN anywhere poisons the sum, but so do +inf and -inf
    # in different arrays; abort only if one array's own sum is NaN.
    s = float(grads.sum())
    if s != s:
        for name, pair in _probe_order(params.like(grads), last_w, last_b):
            for part, arr in zip(("weight", "bias"), pair):
                if np.isnan(arr.sum()):
                    raise ValueError(f"NaN gradient in {name.format(part)}")
    return list(cache.losses), grads


def _probe_order(grads: ModelParams, last_w: np.ndarray, last_b: np.ndarray):
    """(name template, (weight, bias)) for the NaN probe: per task, its head
    layers top down, then its own piece of the last trunk layer; then the
    lower trunk layers."""
    last = len(grads.trunk) - 1
    for k in range(grads.n_tasks):
        head = grads.head(k)
        for i in range(len(head) - 1, -1, -1):
            yield f"head[{k}][{i}].{{}}", head[i]
        yield f"trunk[{last}].{{}} (task {k})", (last_w[k], last_b[k])
    for i in range(last - 1, -1, -1):
        yield f"trunk[{i}].{{}}", grads.trunk[i]


def shared_layer_grad_norms(
    params: ModelParams, batch: Batch, weights, cache: ForwardCache | None = None
) -> np.ndarray:
    """L2 norm of each task's weighted gradient at the last trunk layer.

    Norms cover the layer's weight matrix only (the designated parameter
    subset); each equals ||d(weight(k) * loss(k)) / d W_last||_2. The
    weights scale the step's shared head pass before the matmul, as in
    `backward`, so a norm is that of task k's piece of `backward` bit for bit.
    """
    w = _weight_vector(params, weights)
    if cache is None:
        cache = forward_cache(params, batch.inputs)
    deltas = w[:, None, None] * _unit_pass(params, cache, batch).deltas
    per_task = np.matmul(_trunk_input(cache, len(params.trunk) - 1).T, deltas)
    return np.array([np.linalg.norm(p) for p in per_task])


# ---------------------------------------------------------------------------
# Optimizers: in-place updates of the parameter vector.
# ---------------------------------------------------------------------------


def sgd_step(params: ModelParams, grads: np.ndarray, lr: float) -> None:
    """Plain gradient descent."""
    params.vector -= lr * grads


def init_moments(params: ModelParams) -> np.ndarray:
    """Adam's first and second moments, rows 0 and 1, in the parameter layout."""
    return np.zeros((2, params.vector.size))


def adam_step(
    params: ModelParams,
    grads: np.ndarray,
    moments: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update for step `t` (counted from 1), in place."""
    m, v = moments
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * np.square(grads)
    denom = np.sqrt(v / (1.0 - beta2**t))
    denom += eps
    update = m / (1.0 - beta1**t)
    update *= lr
    update /= denom
    params.vector -= update


# ---------------------------------------------------------------------------
# Parameter checkpoints: structured text, exact round-trip.
# ---------------------------------------------------------------------------

_CHECKPOINT_HEADER = "model-checkpoint v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def params_to_text(params: ModelParams) -> str:
    lines = [_CHECKPOINT_HEADER, f"heads = {params.n_tasks}"]

    def emit(prefix: str, specs, views):
        lines.append(f"{prefix}.layers = {len(specs)}")
        for i, ((fan_in, fan_out, act), (w, b)) in enumerate(zip(specs, views)):
            lines.append(f"{prefix}{i} = {act} {fan_in} {fan_out}")
            lines.append(f"{prefix}{i}.weight = " + ",".join(_fmt(v) for v in w.ravel()))
            lines.append(f"{prefix}{i}.bias = " + ",".join(_fmt(v) for v in b))

    emit("trunk", params.trunk_layers, params.trunk)
    for k in range(params.n_tasks):
        emit(f"head{k}.", params.head_layers[k], params.head(k))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> ModelParams:
    """Inverse of `params_to_text`; any malformed input raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != _CHECKPOINT_HEADER:
        raise ValueError("not a model checkpoint (missing header)")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        if not ln:
            continue
        key, sep, value = ln.partition(" = ")
        if not sep:
            raise ValueError(f"malformed checkpoint line: {ln!r}")
        if key in fields:
            raise ValueError(f"duplicate checkpoint key {key!r}")
        fields[key] = value
    unread = set(fields)

    def get(key: str) -> str:
        if key not in fields:
            raise ValueError(f"checkpoint is missing key {key!r}")
        unread.discard(key)
        return fields[key]

    def floats(key: str, count: int) -> list:
        values = [float(v) for v in get(key).split(",")]
        if len(values) != count:
            raise ValueError(f"{key!r} has {len(values)} values, expected {count}")
        return values

    def read(prefix: str):
        specs, values = [], []
        for i in range(int(get(f"{prefix}.layers"))):
            parts = get(f"{prefix}{i}").split()
            if len(parts) != 3:
                raise ValueError(f"malformed layer line for {prefix}{i}: {parts}")
            fan_in, fan_out = int(parts[1]), int(parts[2])
            specs.append((fan_in, fan_out, parts[0]))
            values.append(floats(f"{prefix}{i}.weight", fan_in * fan_out))
            values.append(floats(f"{prefix}{i}.bias", fan_out))
        return specs, values

    trunk, values = read("trunk")
    heads = []
    for k in range(int(get("heads"))):
        specs, head_values = read(f"head{k}.")
        heads.append(specs)
        values += head_values
    if unread:
        raise ValueError(f"unknown checkpoint keys {sorted(unread)}")
    params = ModelParams(trunk, heads)
    arrays = [a for w, b in params.trunk for a in (w, b)]
    arrays += [a for k in range(params.n_tasks) for w, b in params.head(k) for a in (w, b)]
    for arr, vals in zip(arrays, values):
        arr[...] = np.reshape(vals, arr.shape)
    return params
