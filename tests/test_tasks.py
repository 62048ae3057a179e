"""Generator determinism, loss-scale behavior, and loss/gradient oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlbal.rng import SplitMix64
from mtlbal.tasks import (
    TaskSpec,
    dataset_from_text,
    dataset_to_text,
    generate_mtl,
    loss_and_grad,
    specs_from_text,
    specs_to_text,
)

BIN = TaskSpec("binary-bce", 1, 1.0, "b0")
REG = TaskSpec("regression-mse", 2, 1.0, "r0")
CE = TaskSpec("multiclass-ce", 4, 1.0, "c0")

KINDS = ("regression-mse", "binary-bce", "multiclass-ce")
#: Fixed stream seed per loss kind, so a test draws the same values in every process.
KIND_SEEDS = {"regression-mse": 101, "binary-bce": 202, "multiclass-ce": 303}


def random_predictions(stream, kind, n, d):
    """Predictions in the kind's range and matching targets for n rows."""
    if kind == "regression-mse":
        return stream.normal((n, d)), stream.normal((n, d))
    if kind == "binary-bce":
        return 0.05 + 0.9 * stream.uniform((n, 1)), (stream.uniform((n, 1)) > 0.5).astype(float)
    p = 0.05 + stream.uniform((n, d))
    return p / p.sum(axis=1, keepdims=True), stream.below(d, n)


def reference_loss_and_grad(kind, p, y, loss_scale):
    """One task's loss written with np.mean and np.clip, as the loss was
    before head groups shared one call."""
    if kind == "regression-mse":
        diff = p - y
        base, grad = float(np.mean(diff * diff)), (2.0 / diff.size) * diff
    elif kind == "binary-bce":
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)
        base = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))))
        grad = (-y / pc + (1.0 - y) / (1.0 - pc)) / pc.size
    else:
        rows = np.arange(p.shape[0])
        picked = np.clip(p[rows, y], 1e-12, 1.0 - 1e-12)
        base = float(np.mean(-np.log(picked)))
        grad = np.zeros_like(p)
        grad[rows, y] = -1.0 / (p.shape[0] * picked)
    return loss_scale * base, loss_scale * grad


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TaskSpec("ranking", 1, 1.0, "x")
        with pytest.raises(ValueError, match="output_dim"):
            TaskSpec("multiclass-ce", 1, 1.0, "x")
        with pytest.raises(ValueError, match="loss_scale"):
            TaskSpec("binary-bce", 1, 0.0, "x")
        with pytest.raises(ValueError, match="reserved"):
            TaskSpec("binary-bce", 1, 1.0, "a:b")

    def test_text_roundtrip(self):
        specs = (BIN, REG, CE, TaskSpec("regression-mse", 1, 0.1 + 1 / 3, "odd"))
        assert specs_from_text(specs_to_text(specs)) == specs


class TestGenerateMtl:
    def test_same_seed_is_bitwise_identical(self):
        a = generate_mtl(42, 8, 200, (BIN, REG, CE), 0.5)
        b = generate_mtl(42, 8, 200, (BIN, REG, CE), 0.5)
        assert np.array_equal(a.inputs, b.inputs)
        for ta, tb in zip(a.targets, b.targets):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.train_index, b.train_index)

    def test_full_relatedness_identical_specs_share_targets(self):
        twin = TaskSpec("binary-bce", 1, 1.0, "b0")
        data = generate_mtl(7, 6, 120, (BIN, twin), 1.0)
        assert np.array_equal(data.targets[0], data.targets[1])

    def test_zero_relatedness_identical_specs_differ(self):
        twin = TaskSpec("binary-bce", 1, 1.0, "b0")
        data = generate_mtl(7, 6, 120, (BIN, twin), 0.0)
        assert not np.array_equal(data.targets[0], data.targets[1])

    def test_loss_scale_squares_into_zero_model_mse(self):
        scaled = TaskSpec("regression-mse", 1, 100.0, "r")
        plain = TaskSpec("regression-mse", 1, 1.0, "r")
        a = generate_mtl(3, 8, 400, (scaled,), 0.5)
        b = generate_mtl(3, 8, 400, (plain,), 0.5)
        mse_a = loss_and_grad("regression-mse", np.zeros_like(a.targets[0]), a.targets[0])[0]
        mse_b = loss_and_grad("regression-mse", np.zeros_like(b.targets[0]), b.targets[0])[0]
        assert mse_a / mse_b == pytest.approx(1e4, rel=0.2)

    def test_split_partitions_samples(self):
        data = generate_mtl(11, 4, 100, (BIN,), 0.3)
        merged = np.sort(np.concatenate([data.train_index, data.test_index]))
        assert np.array_equal(merged, np.arange(100))
        assert data.train_index.size == 80

    def test_target_shapes_and_kinds(self):
        data = generate_mtl(5, 6, 150, (BIN, REG, CE), 0.5)
        assert data.targets[0].shape == (150, 1)
        assert set(np.unique(data.targets[0])) <= {0.0, 1.0}
        assert data.targets[1].shape == (150, 2)
        assert data.targets[2].shape == (150,)
        assert data.targets[2].dtype == np.int64
        assert data.targets[2].min() >= 0 and data.targets[2].max() < 4

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_mtl(1, 1, 100, (BIN,), 0.5)
        with pytest.raises(ValueError):
            generate_mtl(1, 4, 5, (BIN,), 0.5)
        with pytest.raises(ValueError):
            generate_mtl(1, 4, 100, (BIN,), 1.5)


class TestLossAndGrad:
    def test_perfect_predictions(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        loss, grad = loss_and_grad("regression-mse", y.copy(), y)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(y))

    def test_bce_half_probability_is_log_two(self):
        y = np.array([[0.0], [1.0], [1.0]])
        loss, _ = loss_and_grad("binary-bce", np.full_like(y, 0.5), y)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_ce_hand_value(self):
        p = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
        loss, _ = loss_and_grad("multiclass-ce", p, np.array([0, 1]))
        assert loss == pytest.approx(-(math.log(0.5) + math.log(0.8)) / 2, rel=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradient_matches_central_differences(self, kind):
        stream = SplitMix64(KIND_SEEDS[kind])
        for trial in range(5):
            p, y = random_predictions(stream, kind, 6, 3)
            scale = 1.0 + stream.uniform()
            loss, grad = loss_and_grad(kind, p, y, scale)
            h = 1e-6
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus, minus = p.copy(), p.copy()
                plus[idx] += h
                minus[idx] -= h
                fd = (
                    loss_and_grad(kind, plus, y, scale)[0]
                    - loss_and_grad(kind, minus, y, scale)[0]
                ) / (2 * h)
                # Each loss is rounded to about |loss| * 2^-53, so the
                # difference quotient carries up to |loss| * 2^-52 / h of
                # rounding on top of the relative tolerance.
                budget = 1e-6 * max(abs(fd), abs(grad[idx])) + abs(loss) * 2.0**-52 / h
                assert abs(fd - grad[idx]) <= budget, (trial, idx)

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacked_call_equals_per_slice_calls(self, kind):
        stream = SplitMix64(KIND_SEEDS[kind] + 1)
        slices = [random_predictions(stream, kind, 9, 4) for _ in range(3)]
        p = np.stack([s[0] for s in slices])
        y = np.stack([s[1] for s in slices])
        scales = np.array([0.5, 3.0 + stream.uniform(), 50.0])
        losses, grads = loss_and_grad(kind, p, y, scales)
        assert losses.shape == (3,) and grads.shape == p.shape
        for i in range(3):
            loss_i, grad_i = loss_and_grad(kind, p[i], y[i], scales[i])
            assert isinstance(loss_i, float)
            assert losses[i] == loss_i and np.array_equal(grads[i], grad_i)
            ref_loss, ref_grad = reference_loss_and_grad(kind, p[i], y[i], scales[i])
            assert loss_i == ref_loss and np.array_equal(grad_i, ref_grad)

    def test_scale_linearity_exact(self):
        stream = SplitMix64(31)
        p = 0.05 + 0.9 * stream.uniform((8, 1))
        y = (stream.uniform((8, 1)) > 0.5).astype(float)
        for c in (3.0, 50.0, 0.125):
            loss_c, grad_c = loss_and_grad("binary-bce", p, y, c)
            loss_1, grad_1 = loss_and_grad("binary-bce", p, y, 1.0)
            assert loss_c == c * loss_1
            assert np.array_equal(grad_c, c * grad_1)

    def test_probability_clamp_keeps_loss_finite(self):
        y = np.array([[1.0], [0.0]])
        loss, grad = loss_and_grad("binary-bce", np.array([[0.0], [1.0]]), y)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_losses_nonnegative_and_mse_zero_iff_equal(self):
        stream = SplitMix64(12)
        for _ in range(20):
            p = stream.normal((4, 2))
            y = stream.normal((4, 2))
            loss, _ = loss_and_grad("regression-mse", p, y)
            assert loss > 0.0
        y = stream.normal((4, 2))
        assert loss_and_grad("regression-mse", y.copy(), y)[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_and_grad("regression-mse", np.zeros((2, 2)), np.zeros((3, 2)))


class TestDatasetSerialization:
    def test_roundtrip_is_exact(self):
        data = generate_mtl(9, 5, 80, (BIN, REG, CE), 0.4)
        text = dataset_to_text(data)
        back = dataset_from_text(text)
        assert np.array_equal(back.inputs, data.inputs)
        for a, b in zip(back.targets, data.targets):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
        assert np.array_equal(back.train_index, data.train_index)
        assert np.array_equal(back.test_index, data.test_index)
        assert back.specs == data.specs
        assert dataset_to_text(back) == text

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_text("junk\n")
        data = generate_mtl(9, 4, 50, (BIN,), 0.4)
        text = dataset_to_text(data)
        with pytest.raises(ValueError):
            dataset_from_text(text.replace("n_samples = 50", "n_samples = 49"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("seed = 9\n", "seed = 9\nseed = 99\n"), "duplicate"),
            (lambda t: t.replace("seed = 9\n", "seed = 9\ncolour = red\n"), "unknown"),
            (lambda t: t.replace("noise = ", "noize = "), "unknown"),
            (lambda t: _edit_index(t, "test_index", lambda ix: ix[:-1] + [999]), "split"),
            (lambda t: _edit_index(t, "test_index", lambda ix: ix[:-1] + [-1]), "split"),
            (lambda t: _edit_index(t, "test_index", lambda ix: ix[:-1] + [0]), "split"),
            (lambda t: _edit_index(t, "test_index", lambda ix: ix[:-1]), "split"),
        ],
        ids=["duplicate-key", "unknown-key", "renamed-key", "index-out-of-range",
             "negative-index", "overlapping-index", "uncovered-row"],
    )
    def test_strict_header_and_split(self, edit, message):
        text = dataset_to_text(generate_mtl(9, 3, 20, (BIN, CE), 0.4))
        with pytest.raises(ValueError, match=message):
            dataset_from_text(edit(text))

    def test_class_labels_checked(self):
        data = generate_mtl(9, 3, 20, (BIN, CE), 0.4)
        lines = dataset_to_text(data).splitlines()
        row = lines.index("data:") + 1
        lines[row] = lines[row].rsplit(",", 1)[0] + ",4"
        with pytest.raises(ValueError, match="class label"):
            dataset_from_text("\n".join(lines) + "\n")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_damaged_export_raises_only_value_error(self, data):
        lines = dataset_to_text(generate_mtl(9, 3, 30, (BIN, REG, CE), 0.4)).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["truncate", "drop", "duplicate", "replace", "cut"]))
        if action == "truncate":
            lines = lines[:i]
        elif action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "replace":
            lines[i] = data.draw(st.text(alphabet="ab:;=, .0123456789-e", max_size=16))
        else:
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        try:
            dataset_from_text("\n".join(lines) + "\n")
        except ValueError:
            pass

    def test_batch_view(self):
        data = generate_mtl(2, 4, 60, (BIN, CE), 0.4)
        batch = data.batch(np.array([3, 5, 8]))
        assert batch.inputs.shape == (3, 4)
        assert batch.targets[0].shape == (3, 1)
        assert batch.specs == data.specs


def _edit_index(text, key, change):
    """Apply `change` to the index list on the `key = ...` header line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{key} = "):
            values = [int(v) for v in line.split(" = ", 1)[1].split(",")]
            lines[i] = f"{key} = " + ",".join(str(v) for v in change(values))
    return "\n".join(lines) + "\n"
