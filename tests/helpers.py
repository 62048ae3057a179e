"""Shared test utilities: random small instances and finite-difference plumbing."""

import numpy as np

from mtlbal.network import forward_cache, init_params
from mtlbal.rng import SplitMix64
from mtlbal.tasks import Batch, TaskSpec, loss_and_grad


def random_instance(seed, kinds=("regression-mse",)):
    """Small random net + batch + positive weights; <= 200 parameters."""
    stream = SplitMix64(seed)
    input_dim = 2 + int(stream.below(3))
    trunk_sizes = [2 + int(stream.below(3)) for _ in range(1 + int(stream.below(2)))]
    specs = []
    for i, kind in enumerate(kinds):
        out = 3 if kind == "multiclass-ce" else 1 + int(stream.below(2)) * (kind != "binary-bce")
        specs.append(
            TaskSpec(
                kind,
                max(out, 3) if kind == "multiclass-ce" else max(out, 1),
                0.5 + stream.uniform() * 3,
                f"t{i}",
            )
        )
    params = init_params(seed, input_dim, trunk_sizes, [3], specs)
    n = 4
    x = stream.normal((n, input_dim))
    targets = []
    for spec in specs:
        if spec.kind == "regression-mse":
            targets.append(stream.normal((n, spec.output_dim)))
        elif spec.kind == "binary-bce":
            targets.append((stream.uniform((n, spec.output_dim)) > 0.5).astype(float))
        else:
            targets.append(stream.below(spec.output_dim, n))
    weights = 0.2 + stream.uniform(len(specs)) * 2
    return params, Batch(x, targets, tuple(specs)), weights


def weighted_total(params, batch, weights):
    cache = forward_cache(params, batch.inputs)
    total = 0.0
    for k, spec in enumerate(batch.specs):
        total += (
            weights[k]
            * loss_and_grad(spec.kind, cache.outputs[k], batch.targets[k], spec.loss_scale)[0]
        )
    return total


def has_relu_kink(params, batch, margin=1e-4):
    """True when any hidden pre-activation sits close enough to the relu kink
    that a finite-difference probe would cross it. The forward record keeps
    activations only, so each trunk layer's and each hidden head layer's
    pre-activation is recomputed from its recorded input with the forward's
    own operations."""
    cache = forward_cache(params, batch.inputs)
    zs = [np.matmul(x, w) + b for (w, b), x in zip(params.trunk, cache.trunk_a)]
    for pairs, as_ in zip(params.groups, cache.group_a):
        zs += [np.matmul(h, w) + b[:, None, :] for (w, b), h in zip(pairs[:-1], as_)]
    return any(np.any(np.abs(z) < margin) for z in zs)


def max_fd_error(params, batch, weights, grads, h=1e-6):
    """Worst per-entry relative error of the gradient vector against central
    differences, perturbing the parameter vector in place."""
    worst = 0.0
    vector = params.vector
    for i in range(vector.size):
        orig = vector[i]
        vector[i] = orig + h
        up = weighted_total(params, batch, weights)
        vector[i] = orig - h
        down = weighted_total(params, batch, weights)
        vector[i] = orig
        fd = (up - down) / (2 * h)
        err = abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-4)
        worst = max(worst, err)
    return worst
