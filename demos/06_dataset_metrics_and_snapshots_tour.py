"""Tour of the plumbing: dataset generation, metrics, state snapshots.

Generates a small mixed-kind problem, scores a trivial predictor with the
composite metric, and prints the state snapshot of a balancer, the text a
numerical abort writes to stderr.
"""

from mtlbal.balancers import LossVector, make_balancer, snapshot
from mtlbal.metrics import ccc, composite_score, f1_binary, f1_macro
from mtlbal.rng import SplitMix64
from mtlbal.tasks import TaskSpec, generate_mtl

specs = (
    TaskSpec("binary-bce", 1, 1.0, "flag"),
    TaskSpec("multiclass-ce", 4, 1.0, "label"),
    TaskSpec("regression-mse", 1, 5.0, "level"),
)
data = generate_mtl(seed=99, input_dim=6, n_samples=200, specs=specs, relatedness=0.5)
print(f"dataset: {len(data.inputs)} samples, {len(specs)} tasks, "
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
losses = 0.2 + stream2.uniform((6, 3))
for t in range(6):
    balancer.step(LossVector(losses[t], t))
print("\nbalancer state after 6 steps, as a numerical abort prints it:")
print(snapshot(balancer), end="")
