"""Verify the hand-written backward pass against central finite differences.

Builds a small shared-trunk network with one head per loss kind, perturbs
every parameter by +-1e-6, and reports the worst relative disagreement with
the analytic gradients of the weighted total.
"""

import numpy as np

from mtlbal.network import backward, forward_cache, init_params
from mtlbal.rng import SplitMix64
from mtlbal.tasks import Batch, TaskSpec, loss_and_grad

specs = (
    TaskSpec("regression-mse", 2, 1.5, "reg"),
    TaskSpec("binary-bce", 1, 1.0, "bin"),
    TaskSpec("multiclass-ce", 3, 2.0, "cls"),
)
params = init_params(11, 4, (5, 4), (3,), specs)
stream = SplitMix64(12)
x = stream.normal((6, 4))
targets = [
    stream.normal((6, 2)),
    (stream.uniform((6, 1)) > 0.5).astype(float),
    stream.below(3, 6),
]
batch = Batch(x, targets, specs)
weights = np.array([1.0, 0.7, 2.0])


def total(p):
    cache = forward_cache(p, batch.inputs)
    return sum(
        weights[k] * loss_and_grad(s.kind, cache.outputs[k], batch.targets[k], s.loss_scale)[0]
        for k, s in enumerate(specs)
    )


_, grads = backward(params, batch, weights)

h = 1e-6
worst = 0.0
vector = params.vector  # every weight and bias, in the layout of `grads`
for i in range(vector.size):
    orig = vector[i]
    vector[i] = orig + h
    up = total(params)
    vector[i] = orig - h
    down = total(params)
    vector[i] = orig
    fd = (up - down) / (2 * h)
    err = abs(fd - grads[i]) / max(abs(fd), abs(grads[i]), 1e-4)
    worst = max(worst, err)
count = vector.size

print(f"checked {count} parameters across trunk and {len(specs)} heads")
print(f"worst relative error vs central differences: {worst:.3e}")
assert worst < 1e-5
print("analytic backward pass agrees with the finite-difference oracle.")
