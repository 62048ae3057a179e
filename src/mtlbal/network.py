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
weights held constant. One helper runs any dense stack forward and one runs
it backward, the trunk or a head group. A training step builds one
`HeadPass`, whole: the forward record (`ForwardCache`: one array per layer,
its activation, from which every derivative is read; relu overwrites its
matmul output), the losses (one loss call per head group) and the heads run
backward once at unit task weight. `backward` sums the tasks' weighted
gradients at the shared activation and runs the trunk once on that sum.
Only the grad-norm probe forms each task's own piece at the LAST trunk
layer (the designated parameter subset for gradient-norm balancing). Every
array a step returns is its own: nothing is overwritten by the next step.

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


def layer_shapes(input_dim: int, trunk_sizes, head_hidden, specs) -> tuple:
    """The model's (fan_in, fan_out, activation) layers: the trunk's, and
    one sequence per task spec for its head. Trunk and head hidden layers
    are relu; each head ends in a task-kind output layer."""
    widths = (input_dim, *trunk_sizes)
    trunk = [(i, o, "relu") for i, o in zip(widths, widths[1:])]
    heads = []
    for spec in specs:
        sizes = (widths[-1], *head_hidden, spec.output_dim)
        acts = ("relu",) * len(head_hidden) + (OUTPUT_ACTIVATION[spec.kind],)
        heads.append(list(zip(sizes, sizes[1:], acts)))
    return trunk, heads


def init_params(seed: int, input_dim: int, trunk_sizes, head_hidden, specs) -> ModelParams:
    """He-scaled random init (std sqrt(2/fan_in)), zero biases, of the
    layers `layer_shapes` gives.

    Draw order: trunk layers first, then each head's layers in task order,
    all from the stream derived from (seed, INIT_STREAM_TAG).
    """
    stream = SplitMix64(derive(seed, INIT_STREAM_TAG))
    params = ModelParams(*layer_shapes(input_dim, trunk_sizes, head_hidden, specs))
    for w, _ in params.trunk + [pair for k in range(params.n_tasks) for pair in params.head(k)]:
        w[...] = stream.normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return params


@dataclass
class ForwardCache:
    """One forward pass over a batch, as one array per layer, its activation.

    `trunk_a` holds the inputs, then each trunk layer's activation, and
    `group_a` each head group's stacked activations of shape
    (n, batch, fan_out), led by the shared one; `outputs[k]` is task k's
    prediction. No pre-activation is kept.
    """

    trunk_a: list
    group_a: list
    outputs: list

    @property
    def shared(self) -> np.ndarray:
        return self.trunk_a[-1]


def _stack_forward(x, weights, layers) -> list:
    """Run a dense stack forward from its input `x`: the input, then each
    layer's activation. Weights are 2-D, or stacked on a leading axis for a
    head group, whose activations then carry that axis."""
    as_ = [x]
    for (w, b), (_, _, act) in zip(weights, layers):
        a = np.matmul(as_[-1], w)
        a += b[..., None, :]
        as_.append(_activate(a, act))
    return as_


def forward_cache(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """Run the forward pass over `inputs` and return it as a new record."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"inputs {x.shape} do not match input_dim {params.input_dim}")
    trunk_a = _stack_forward(x, params.trunk, params.trunk_layers)
    group_a = [
        _stack_forward(trunk_a[-1], pairs, params.head_layers[tasks[0]])
        for tasks, pairs in zip(params.group_tasks, params.groups)
    ]
    return ForwardCache(trunk_a, group_a, [group_a[g][-1][i] for g, i in params.slots])


def task_losses(params: ModelParams, outputs, targets, specs) -> tuple:
    """Raw (unweighted) per-task losses, and each head group's stacked
    d loss / d prediction, given `outputs[g]`, head group g's stacked
    predictions, and each task's targets and spec. One loss call per group."""
    losses, pred_grads = np.empty(params.n_tasks), []
    for tasks, predictions in zip(params.group_tasks, outputs):
        group = np.concatenate([targets[k] for k in tasks])
        group = group.reshape((len(tasks),) + np.shape(targets[tasks[0]]))
        scales = np.array([specs[k].loss_scale for k in tasks])
        losses[list(tasks)], grad = loss_and_grad(specs[tasks[0]].kind, predictions, group, scales)
        pred_grads.append(grad)
    return losses, pred_grads


def _stack_backward(up, weights, layers, as_) -> tuple:
    """Backpropagate `up`, the gradient at a dense stack's top activation,
    given its recorded activations `as_` (led by the stack's input). Arrays
    are 2-D, or stacked on a leading axis for a head group or for the tasks'
    gradients. Returns each layer's (weight, bias) gradient, bottom up, and
    the bottom layer's pre-activation gradient."""
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        if grads:
            up = np.matmul(delta, weights[i + 1][0].swapaxes(-1, -2))
        delta = _backprop(up, as_[i + 1], layers[i][2])
        grads.append((np.matmul(as_[i].swapaxes(-1, -2), delta), np.add.reduce(delta, axis=-2)))
    return grads[::-1], delta


class HeadPass:
    """One training step's forward record (`cache`), raw per-task `losses`,
    and heads run backward at unit task weight: `unit[g]` is head group g's
    layer gradients and, below a trunk, `at_shared` each task's gradient at
    the shared activation, of shape (K, batch, width); a trunk-less model's
    is None. `backward` and `shared_layer_grad_norms` reuse it when given it."""

    def __init__(self, params: ModelParams, batch: Batch):
        self.cache = forward_cache(params, batch.inputs)
        outputs = [as_[-1] for as_ in self.cache.group_a]
        self.losses, pred_grads = task_losses(params, outputs, batch.targets, batch.specs)
        self.unit, self.at_shared = [], None
        if params.trunk:
            self.at_shared = np.empty((params.n_tasks,) + self.cache.shared.shape)
        groups = zip(params.group_tasks, params.groups, pred_grads, self.cache.group_a)
        for tasks, pairs, up, as_ in groups:
            unit, delta = _stack_backward(up, pairs, params.head_layers[tasks[0]], as_)
            self.unit.append(unit)
            if params.trunk:
                self.at_shared[list(tasks)] = np.matmul(delta, pairs[0][0].swapaxes(-1, -2))


def _task_weights(params: ModelParams, weights) -> np.ndarray:
    """`weights` as a float64 array of one weight per task; ValueError otherwise."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (params.n_tasks,):
        raise ValueError(f"need {params.n_tasks} weights, got shape {w.shape}")
    return w


def backward(params: ModelParams, batch: Batch, weights, step: HeadPass | None = None):
    """Per-task raw losses and the exact gradient vector of the weighted total.

    Losses are returned UNWEIGHTED (balancers consume raw magnitudes); the
    gradient differentiates sum_k weight(k) * loss(k) with the weights as
    constants, as a new vector in the layout of `params.vector`. The tasks'
    weighted gradients at the shared activation are summed in task order,
    and the trunk, if any, is run backward once on that sum. `step` is the
    step's HeadPass over `batch`, made here if omitted.
    Raises ValueError naming an array if that array's gradient is NaN.
    """
    w = _task_weights(params, weights)
    step = step or HeadPass(params, batch)
    ones = bool((w == 1.0).all())  # x * 1.0 is x bit for bit: skip the multiplies
    trunk = []
    if params.trunk:
        up = np.add.reduce(step.at_shared if ones else w[:, None, None] * step.at_shared, axis=0)
        trunk, _ = _stack_backward(up, params.trunk, params.trunk_layers, step.cache.trunk_a)
    heads = []
    for tasks, unit in zip(params.group_tasks, step.unit):
        w_g = w[list(tasks)]
        heads += unit if ones else [(w_g[:, None, None] * uw, w_g[:, None] * ub) for uw, ub in unit]
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
    return list(step.losses), grad


def shared_layer_grad_norms(
    params: ModelParams, batch: Batch, weights, step: HeadPass | None = None
) -> np.ndarray:
    """L2 norm of each task's weighted gradient at the last trunk layer.

    Norms cover the layer's weight matrix only (the designated parameter
    subset); each equals ||d(weight(k) * loss(k)) / d W_last||_2. Only this
    probe forms the K per-task pieces of that gradient, each task's weighted
    gradient at the shared activation run back through the last trunk layer;
    a norm equals that of a `backward` with only task k's weight nonzero, bit
    for bit. `step` is as in `backward`. A trunk-less model has no shared
    layer: ValueError.
    """
    if not params.trunk:
        raise ValueError("a trunk-less model has no shared layer")
    w = _task_weights(params, weights)
    step = step or HeadPass(params, batch)
    # `_stack_backward`'s weight pieces on the last trunk layer, not its bias sums.
    delta = _backprop(w[:, None, None] * step.at_shared, step.cache.trunk_a[-1],
                      params.trunk_layers[-1][2])
    pieces = np.matmul(step.cache.trunk_a[-2].swapaxes(-1, -2), delta)
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
    tmp = (1.0 - beta1) * grads  # one temporary, reused up to the denominator
    m += tmp
    v *= beta2
    v += np.multiply(np.square(grads, out=tmp), 1.0 - beta2, out=tmp)
    denom = np.sqrt(np.divide(v, 1.0 - beta2**t, out=tmp), out=tmp)
    denom += eps
    update = m / (1.0 - beta1**t)
    update *= lr
    update /= denom
    params.vector -= update
