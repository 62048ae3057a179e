"""Hard-parameter-sharing MLP: a shared dense trunk feeding K task heads.

Every weight and bias lives in one float64 vector; layers are named views
into it, and gradients and Adam moments are vectors of the same layout.
Heads with identical layer shapes and activations form a group whose
layers are stacked on a leading axis, so one batched matmul runs a whole
group (celeb-mini's eight heads are one group; va-mini has {CE} and
{MSE, MSE}). A model may have no trunk: `ModelParams.unshared` puts K
one-task models side by side as the heads of one, so K single-task runs
train as one run whose equal heads stack.

Forward/backward are written out explicitly in numpy, with gradients that
are exact derivatives of the weighted total sum_k weight(k) * loss(k), the
weights held constant. One helper runs any dense stack backward, the trunk
or a head group. Each step runs the heads backward once at unit task
weight; `backward` sums the tasks' weighted gradients at the shared
activation and runs the trunk once on that sum. Only the grad-norm probe
forms each task's own piece at the LAST trunk layer (the designated
parameter subset for gradient-norm balancing).

A ForwardCache records one step's forward pass as one array per layer,
its activation, made new on every step: relu overwrites its matmul output,
and every activation's derivative is read from the activation itself. The
losses (one loss call per head group), the grad-norm probe and the backward
pass given that cache share its head pass. Every array a step returns is
its own: nothing is overwritten by the next step.

Parameters are single-owner during training; reductions over tasks run in
task order, so a fixed seed gives a bitwise-identical trajectory.
"""

from __future__ import annotations

import math

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


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """kind(z): z itself for linear, z overwritten for relu, else a new array."""
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        # exp(-|z|) cannot overflow: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.
        a = np.exp(-np.abs(z))
        one_plus = a + 1.0
        a /= one_plus
        return np.divide(1.0, one_plus, out=a, where=z >= 0.0)
    a = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a


def _backprop(up: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """Gradient with respect to z given `up`, the gradient with respect to
    a = kind(z), as a new array shaped like `up` (which may have a leading
    task axis that a lacks)."""
    if kind == "linear":
        return up
    if kind == "relu":
        # where(z > 0, up, 0.0), and a > 0 exactly when z > 0 (a NaN z gives
        # a NaN a; -0.0 and below give a zero). No branch per element (np.where
        # mispredicts on a random mask): a > 0 as 0 or -1, all bits set,
        # ANDed with the bits of `up`. A multiply by the mask would give
        # -0.0 or NaN (inf * 0) where this gives +0.0.
        mask = np.negative(a > 0.0, dtype=np.int64)
        return np.bitwise_and(up.view(np.int64), mask).view(np.float64)
    if kind == "sigmoid":
        return up * a * (1.0 - a)
    row = np.add.reduce(up * a, axis=-1, keepdims=True)
    return a * (up - row)


class ModelParams:
    """One shared trunk and K task heads over one flat float64 vector.

    `trunk` is a sequence of (fan_in, fan_out, activation) layers and
    `heads` holds one such sequence per task. Tasks whose head layers are
    equal form a group, in order of first appearance. The vector holds the
    trunk layers, then each group's layers, each layer as weight then bias.
    Views: `trunk[i]` is a (weight, bias) pair of shapes (fan_in, fan_out)
    and (fan_out,); `groups[g][i]` is a stacked pair of shapes
    (n, fan_in, fan_out) and (n, fan_out) for the group's n tasks, listed
    in `group_tasks[g]`; `head(k)` gives task k's slice of those. The
    trunk may be empty; then every head takes the inputs.
    """

    def __init__(self, trunk, heads, vector: np.ndarray | None = None):
        self.trunk_layers = tuple((int(i), int(o), str(a)) for i, o, a in trunk)
        self.head_layers = tuple(tuple((int(i), int(o), str(a)) for i, o, a in h) for h in heads)
        if not self.head_layers or not all(self.head_layers):
            raise ValueError("need at least one head, each with at least one layer")
        widths = sorted({h[0][0] for h in self.head_layers})
        if len(widths) > 1:  # with a trunk, the chains below catch this too
            raise ValueError(f"layer dimension mismatch: heads take inputs of widths {widths}")
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
        return (self.trunk_layers or self.head_layers[0])[0][0]

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

    def unshared(self, tasks) -> "ModelParams":
        """A trunk-less copy whose head i is the trunk followed by task
        `tasks[i]`'s head: the listed tasks' one-task models side by side,
        which share no parameter. Equal heads still stack into one group."""
        tasks = list(tasks)
        out = ModelParams((), [self.trunk_layers + self.head_layers[k] for k in tasks])
        for new_k, k in enumerate(tasks):
            for (w, b), (src_w, src_b) in zip(out.head(new_k), self.trunk + self.head(k)):
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


class ForwardCache:
    """One forward pass over a batch, plus the losses and the unit-weight
    head pass derived from it on first use.

    `trunk_a` holds the inputs, then each trunk layer's activation, and
    `group_a` each head group's stacked activations of shape
    (n, batch, fan_out), led by the shared one; `outputs[k]` is task k's
    prediction. No pre-activation is kept. A training step makes a new
    cache; `task_losses`, `shared_layer_grad_norms` and `backward` given that
    cache share its losses and head pass.
    """

    def __init__(self, inputs: np.ndarray):
        self.trunk_a, self.group_a = [inputs], []
        self.losses = self.pred_grads = self.unit = self.at_shared = None

    @property
    def shared(self) -> np.ndarray:
        return self.trunk_a[-1]


def forward_cache(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """Run the forward pass over `inputs` and return it as a new cache."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"inputs {x.shape} do not match input_dim {params.input_dim}")
    cache = ForwardCache(x)
    a = x
    for (w, b), (_, _, act) in zip(params.trunk, params.trunk_layers):
        a = np.matmul(a, w)
        a += b
        a = _activate(a, act)
        cache.trunk_a.append(a)
    for tasks, weights in zip(params.group_tasks, params.groups):
        as_ = [a]
        for (w, b), (_, _, act) in zip(weights, params.head_layers[tasks[0]]):
            h = np.matmul(as_[-1], w)
            h += b[:, None, :]
            as_.append(_activate(h, act))
        cache.group_a.append(as_)
    cache.outputs = [cache.group_a[g][-1][i] for g, i in params.slots]
    return cache


def task_losses(params: ModelParams, cache: ForwardCache, batch: Batch) -> np.ndarray:
    """Raw (unweighted) per-task losses; also keeps d loss / d prediction.
    One loss call per head group."""
    if cache.losses is None:
        losses, cache.pred_grads = np.empty(params.n_tasks), []
        for tasks, outputs in zip(params.group_tasks, cache.group_a):
            specs = [batch.specs[k] for k in tasks]
            targets = np.concatenate([batch.targets[k] for k in tasks])
            targets = targets.reshape((len(tasks),) + np.shape(batch.targets[tasks[0]]))
            scales = np.array([s.loss_scale for s in specs])
            losses[list(tasks)], grad = loss_and_grad(specs[0].kind, outputs[-1], targets, scales)
            cache.pred_grads.append(grad)
        cache.losses = losses
    return cache.losses


def _stack_backward(up, weights, layers, as_) -> tuple:
    """Backpropagate `up`, the gradient at a dense stack's top activation,
    given its cached activations `as_` (led by the stack's input). Arrays
    are 2-D, or stacked on a leading axis for a head group. Returns each
    layer's (weight, bias) gradient, bottom up, and the bottom layer's
    pre-activation gradient."""
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        if grads:
            up = np.matmul(delta, weights[i + 1][0].swapaxes(-1, -2))
        delta = _backprop(up, as_[i + 1], layers[i][2])
        grads.append((np.matmul(as_[i].swapaxes(-1, -2), delta), np.add.reduce(delta, axis=-2)))
    return grads[::-1], delta


def _unit_pass(params: ModelParams, batch: Batch, weights, cache) -> tuple:
    """The weights as an array and the step's cache (made if None), after
    the heads have run backward at unit task weight, once per forward: each
    head group's layer gradients are in `cache.unit` and, below a trunk,
    each task's gradient at the shared activation is in `cache.at_shared`,
    of shape (K, batch, width). A trunk-less model forms no gradient at its
    inputs."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (params.n_tasks,):
        raise ValueError(f"need {params.n_tasks} weights, got shape {w.shape}")
    if cache is None:
        cache = forward_cache(params, batch.inputs)
    if cache.unit is None:
        task_losses(params, cache, batch)
        if params.trunk:
            cache.at_shared = np.empty((params.n_tasks,) + cache.shared.shape)
        cache.unit = []
        for g, (tasks, pairs) in enumerate(zip(params.group_tasks, params.groups)):
            layers, up = params.head_layers[tasks[0]], cache.pred_grads[g]
            unit, delta = _stack_backward(up, pairs, layers, cache.group_a[g])
            cache.unit.append(unit)
            if params.trunk:
                cache.at_shared[list(tasks)] = np.matmul(delta, pairs[0][0].swapaxes(-1, -2))
    return w, cache


def backward(params: ModelParams, batch: Batch, weights, cache: ForwardCache | None = None):
    """Per-task raw losses and the exact gradient vector of the weighted total.

    Losses are returned UNWEIGHTED (balancers consume raw magnitudes); the
    gradient differentiates sum_k weight(k) * loss(k) with the weights as
    constants, as a new vector in the layout of `params.vector`. The tasks'
    weighted gradients at the shared activation are summed in task order,
    and the trunk, if any, is run backward once on that sum. Pass the step's
    `cache` to reuse its forward and head pass.
    Raises ValueError naming an array if that array's gradient is NaN.
    """
    w, cache = _unit_pass(params, batch, weights, cache)
    trunk = []
    if params.trunk:
        up = np.add.reduce(w[:, None, None] * cache.at_shared, axis=0)
        trunk, _ = _stack_backward(up, params.trunk, params.trunk_layers, cache.trunk_a)
    heads = []
    for tasks, unit in zip(params.group_tasks, cache.unit):
        w_g = w[list(tasks)]
        heads += [(w_g[:, None, None] * unit_w, w_g[:, None] * unit_b) for unit_w, unit_b in unit]
    grad = np.concatenate([a.ravel() for pair in trunk + heads for a in pair])
    # Sum-based probe: NaN anywhere poisons the sum, but so do +inf and -inf
    # in different arrays; abort only if one array's own sum is NaN. Arrays
    # are tested per task, head layers top down, then trunk layers top down.
    s = float(np.add.reduce(grad))
    if s != s:
        view = params.like(grad)
        named = [(f"head[{k}][{i}]", pair) for k in range(params.n_tasks)
                 for i, pair in reversed(list(enumerate(view.head(k))))]
        named += [(f"trunk[{i}]", pair) for i, pair in reversed(list(enumerate(view.trunk)))]
        for name, pair in named:
            for part, arr in zip(("weight", "bias"), pair):
                if np.isnan(arr.sum()):
                    raise ValueError(f"NaN gradient in {name}.{part}")
    return list(cache.losses), grad


def shared_layer_grad_norms(
    params: ModelParams, batch: Batch, weights, cache: ForwardCache | None = None
) -> np.ndarray:
    """L2 norm of each task's weighted gradient at the last trunk layer.

    Norms cover the layer's weight matrix only (the designated parameter
    subset); each equals ||d(weight(k) * loss(k)) / d W_last||_2. Only this
    probe forms the K per-task pieces of that gradient, each task's weighted
    gradient at the shared activation run back through the last trunk layer;
    a norm equals that of a `backward` with only task k's weight nonzero, bit
    for bit. A trunk-less model has no shared layer: ValueError.
    """
    if not params.trunk:
        raise ValueError("a trunk-less model has no shared layer")
    w, cache = _unit_pass(params, batch, weights, cache)
    scaled = w[:, None, None] * cache.at_shared
    delta = _backprop(scaled, cache.shared, params.trunk_layers[-1][2])
    pieces = np.matmul(cache.trunk_a[-2].T, delta)
    # sqrt(x . x) over the flattened piece is how np.linalg.norm computes it.
    return np.sqrt([p.dot(p) for p in pieces.reshape(params.n_tasks, -1)])


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
    params: ModelParams, grads: np.ndarray, moments: np.ndarray, t: int, lr: float
) -> None:
    """Bias-corrected Adam update for step `t` (counted from 1), in place,
    with beta1 0.9, beta2 0.999 and eps 1e-8."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
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
