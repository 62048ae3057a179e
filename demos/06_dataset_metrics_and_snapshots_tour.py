"""Tour of the plumbing: dataset generation, metrics, state snapshots.

Generates a small mixed-kind problem, scores a trivial predictor with the
composite metric, and shows that a serialized balancer resumes
bit-identically.
"""

import numpy as np

from mtlbal.balancers import LossVector, make_balancer, restore, snapshot
from mtlbal.metrics import ccc, composite_score, f1_binary, f1_macro
from mtlbal.rng import SplitMix64
from mtlbal.tasks import TaskSpec, generate_mtl

specs = (
    TaskSpec("binary-bce", 1, 1.0, "flag"),
    TaskSpec("multiclass-ce", 4, 1.0, "label"),
    TaskSpec("regression-mse", 1, 5.0, "level"),
)
data = generate_mtl(seed=99, input_dim=6, n_samples=200, specs=specs, relatedness=0.5)
print(f"dataset: {data.settings['n_samples']} samples, {len(specs)} tasks, "
      f"{data.train_index.size} train / {data.test_index.size} test rows")

test = data.test_index
stream = SplitMix64(5)
parts = [
    (f1_binary((stream.uniform(test.size) > 0.5).astype(float), data.targets[0][test]), "binary_f1"),
    (f1_macro(stream.below(4, test.size), data.targets[1][test], 4), "f1_label"),
    (ccc(stream.normal(test.size), data.targets[2][test][:, 0]), "ccc"),
]
print("random-guess metrics per group:", {g: round(v, 3) for v, g in parts})
print(f"composite score: {composite_score(parts):.3f}")

balancer = make_balancer("rema", beta=0.2)
stream2 = SplitMix64(17)
losses = 0.2 + stream2.uniform((12, 3))
for t in range(6):
    balancer.step(LossVector(losses[t], t))
frozen = snapshot(balancer)
clone = restore(frozen)
for t in range(6, 12):
    a = balancer.step(LossVector(losses[t], t)).values
    b = clone.step(LossVector(losses[t], t)).values
    assert np.array_equal(a, b)
print(f"\nsnapshot is {len(frozen.splitlines())} lines of key = value text;")
print("restored balancer reproduced the next 6 weight vectors bit for bit.")
