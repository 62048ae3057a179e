"""Forward/backward oracles: hand computations, finite differences, linearity."""

import numpy as np
import pytest

from mtlbal import network
from mtlbal.network import (
    HeadPass,
    ModelParams,
    _activate,
    _backprop,
    adam_step,
    backward,
    forward_cache,
    init_moments,
    init_params,
    sgd_step,
    shared_layer_grad_norms,
)
from mtlbal.rng import SplitMix64
from mtlbal.tasks import Batch, TaskSpec, generate_mtl

from helpers import has_relu_kink, max_fd_error, random_instance

MSE = TaskSpec("regression-mse", 1, 1.0, "r")
BCE = TaskSpec("binary-bce", 1, 1.0, "b")
CE3 = TaskSpec("multiclass-ce", 3, 1.0, "c")


def tiny_params(weights, activations):
    """Single-head chain from explicit (fan_in x fan_out) weight matrices."""
    layers = [np.asarray(w, dtype=float) for w in weights]
    specs = [(w.shape[0], w.shape[1], act) for w, act in zip(layers, activations)]
    params = ModelParams(trunk=specs[:-1], heads=[specs[-1:]])
    for (w, _), value in zip(params.trunk + params.head(0), layers):
        w[...] = value
    return params


def mixed_trunk_instances(last_act, count=3):
    """`count` (seed, params, batch, weights) instances whose relu units sit
    clear of the kink: two trunk layers, the last one `last_act`, feed a
    stacked group of two equal sigmoid heads and one single linear head."""
    specs = (BCE, BCE, TaskSpec("regression-mse", 2, 1.5, "r2"))
    seed = 0
    while count:
        seed += 1
        stream = SplitMix64(seed)
        params = ModelParams(
            trunk=[(3, 4, "relu"), (4, 3, last_act)],
            heads=[[(3, 2, "relu"), (2, 1, "sigmoid")]] * 2 + [[(3, 2, "linear")]],
        )
        params.vector[...] = stream.normal(params.vector.shape) * 0.8
        targets = [(stream.uniform((4, 1)) > 0.5).astype(float) for _ in range(2)]
        batch = Batch(stream.normal((4, 3)), targets + [stream.normal((4, 2))], specs)
        if not has_relu_kink(params, batch):
            count -= 1
            yield seed, params, batch, 0.2 + stream.uniform(3) * 2


class TestForward:
    def test_zero_network_maps_to_zero(self):
        params = tiny_params(
            [np.zeros((3, 2)), np.zeros((2, 1))], ["relu", "linear"]
        )
        cache = forward_cache(params, np.ones((4, 3)))
        assert np.array_equal(cache.outputs[0], np.zeros((4, 1)))

    def test_identity_composition(self):
        params = tiny_params([np.eye(3), np.eye(3)], ["linear", "linear"])
        x = np.arange(12.0).reshape(4, 3)
        cache = forward_cache(params, x)
        assert np.array_equal(cache.shared, x)
        assert np.array_equal(cache.outputs[0], x)

    def test_hand_computed_3_2_1(self):
        # trunk: relu(x @ W1), head: linear(w @ W2); verified by scalar math.
        w1 = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 1.0]])
        w2 = np.array([[2.0], [-3.0]])
        params = tiny_params([w1, w2], ["relu", "linear"])
        x = np.array([[1.0, 2.0, 3.0]])
        # x @ W1 = (1*1+2*2+3*0, -1+1+3) = (5, 3); relu keeps (5, 3)
        # head: 5*2 + 3*(-3) = 1
        cache = forward_cache(params, x)
        assert cache.shared.tolist() == [[5.0, 3.0]]
        assert cache.outputs[0].tolist() == [[1.0]]

    def test_input_width_mismatch(self):
        params = tiny_params([np.zeros((3, 2)), np.zeros((2, 1))], ["relu", "linear"])
        with pytest.raises(ValueError, match="input_dim"):
            forward_cache(params, np.ones((4, 5)))

    def test_layer_chain_validated(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ModelParams(trunk=[(3, 2, "relu")], heads=[[(4, 1, "linear")]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            ModelParams(trunk=[], heads=[[(3, 1, "linear")], [(4, 1, "linear")]])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            ModelParams(trunk=[(3, 4, "tanh")], heads=[[(4, 1, "linear")]])

    def test_equal_heads_share_a_group(self):
        celeb = init_params(1, 4, (8,), (4,), (BCE,) * 5)
        assert celeb.group_tasks == ((0, 1, 2, 3, 4),)
        va = init_params(1, 4, (8,), (4,), (CE3, MSE, MSE))
        assert va.group_tasks == ((0,), (1, 2))
        assert va.groups[1][0][0].shape == (2, 8, 4)

    def test_stacked_heads_match_single_heads_bitwise(self):
        # Each task's output is its one-task model's (the trunk, then its
        # head), both under the shared trunk and in the trunk-less stack of
        # all of them, which is how a seed's references are evaluated.
        specs = (MSE, BCE, MSE, CE3, BCE)
        params = init_params(2, 5, (7, 6), (4,), specs)
        x = np.linspace(-2.0, 2.0, 40).reshape(8, 5)
        full = forward_cache(params, x)
        stack = forward_cache(params.unshared(range(params.n_tasks)), x)
        # Init draws the trunk, then the heads in task order: task 0's model.
        first = forward_cache(init_params(2, 5, (7, 6), (4,), specs[:1]), x)
        assert full.outputs[0].tobytes() == first.outputs[0].tobytes()
        for k in range(params.n_tasks):
            alone = forward_cache(params.unshared([k]), x).outputs[0].tobytes()
            assert full.outputs[k].tobytes() == alone
            assert stack.outputs[k].tobytes() == alone


class TestActivationOnlyRecord:
    """The forward record keeps one array per layer, its activation."""

    EDGES = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5, -1.5])

    def test_relu_mask_from_activation_equals_pre_activation_mask(self):
        z = np.concatenate([np.repeat(self.EDGES, self.EDGES.size), -self.EDGES])
        up = np.concatenate([np.tile(self.EDGES, self.EDGES.size), self.EDGES])
        expected = np.where(z > 0.0, up, 0.0)  # the mask read from z
        a = _activate(z.copy(), "relu")
        got = _backprop(up, a, "relu")
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # With a leading task axis on `up`, as at the shared activation.
        stacked = np.stack([up, -up, up[::-1]])
        got = _backprop(stacked, a, "relu")
        assert np.array_equal(got.view(np.int64), np.where(z > 0.0, stacked, 0.0).view(np.int64))

    def test_relu_activation_overwrites_matmul_output(self, monkeypatch):
        products = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                products.append(np.matmul(*args, **kwargs))
                return products[-1]

        monkeypatch.setattr(network, "np", RecordingNumpy())
        params = ModelParams(
            trunk=[(3, 4, "relu"), (4, 4, "relu")],
            heads=[[(4, 2, "relu"), (2, 1, "sigmoid")]] * 2 + [[(4, 2, "linear")]],
        )
        params.vector[...] = SplitMix64(3).normal(params.vector.shape)
        cache = forward_cache(params, SplitMix64(4).normal((5, 3)))
        records = cache.trunk_a[1:] + [a for as_ in cache.group_a for a in as_[1:]]
        layers = list(params.trunk_layers) + [
            layer for tasks in params.group_tasks for layer in params.head_layers[tasks[0]]
        ]
        assert len(records) == len(layers) == len(products)
        for record, product, (_, _, act) in zip(records, products, layers):
            assert (record is product) == (act in ("relu", "linear")), act

    def test_cache_holds_no_pre_activations(self):
        params, batch, _ = random_instance(3, kinds=("regression-mse", "binary-bce"))
        cache = forward_cache(params, batch.inputs)
        assert {"trunk_z", "group_z"}.isdisjoint(vars(cache))
        assert len(cache.trunk_a) == len(params.trunk) + 1
        assert [len(as_) for as_ in cache.group_a] == [
            len(params.head_layers[tasks[0]]) + 1 for tasks in params.group_tasks
        ]


class TestHeadPass:
    """A step's record is built whole by its constructor; its readers
    neither fill in nor replace any of it."""

    def test_built_whole_and_left_as_it_is_by_its_readers(self):
        params, batch, weights = random_instance(31, kinds=("regression-mse", "binary-bce"))
        step = HeadPass(params, batch)
        fields = dict(vars(step))
        assert set(fields) == {"cache", "losses", "unit", "at_shared"}
        assert all(value is not None for value in fields.values())
        assert set(vars(step.cache)) == {"trunk_a", "group_a", "outputs"}
        records = {name: list(value) for name, value in vars(step.cache).items()}
        shared_layer_grad_norms(params, batch, weights, step)
        backward(params, batch, weights, step)
        assert all(vars(step)[name] is value for name, value in fields.items())
        for name, value in vars(step.cache).items():
            assert all(a is b for a, b in zip(value, records[name], strict=True))

    def test_trunk_less_model_forms_no_gradient_at_its_inputs(self):
        _, full, batch, _ = next(mixed_trunk_instances("relu", count=1))
        assert HeadPass(full.unshared(range(3)), batch).at_shared is None


class TestBackward:
    def test_zero_weight_silences_task(self):
        params, batch, _ = random_instance(3, kinds=("regression-mse", "binary-bce"))
        _, grads = backward(params, batch, np.array([1.0, 0.0]))
        for w, b in params.like(grads).head(1):
            assert np.array_equal(w, np.zeros_like(w))
            assert np.array_equal(b, np.zeros_like(b))
        # Trunk gradients equal the task-0-only pass, bit for bit. Init draws
        # the trunk, then the heads in task order (head_hidden as in
        # random_instance): task 0's one-task model.
        sizes = [o for _, o, _ in params.trunk_layers]
        alone = init_params(3, params.input_dim, sizes, [3], batch.specs[:1])
        _, only0 = backward(
            alone, Batch(batch.inputs, [batch.targets[0]], (batch.specs[0],)), np.array([1.0])
        )
        for (a_w, a_b), (b_w, b_b) in zip(params.like(grads).trunk, alone.like(only0).trunk):
            assert np.array_equal(a_w, b_w)
            assert np.array_equal(a_b, b_b)

    def test_doubling_weight_doubles_contribution_exactly(self):
        params, batch, _ = random_instance(4, kinds=("regression-mse", "multiclass-ce"))
        _, g1 = backward(params, batch, np.array([1.0, 0.5]))
        _, g2 = backward(params, batch, np.array([1.0, 1.0]))
        for (a_w, a_b), (b_w, b_b) in zip(params.like(g2).head(1), params.like(g1).head(1)):
            assert np.array_equal(a_w, 2.0 * b_w)
            assert np.array_equal(a_b, 2.0 * b_b)
        n1 = shared_layer_grad_norms(params, batch, np.array([1.0, 0.5]))
        n2 = shared_layer_grad_norms(params, batch, np.array([1.0, 1.0]))
        assert n2[1] == 2.0 * n1[1]

    def test_matches_central_finite_differences(self):
        # >= 20 random (net, batch, weight) triples over all three loss kinds.
        kind_sets = [
            ("regression-mse",),
            ("binary-bce",),
            ("multiclass-ce",),
            ("regression-mse", "binary-bce"),
            ("regression-mse", "binary-bce", "multiclass-ce"),
        ]
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            kinds = kind_sets[seed % len(kind_sets)]
            params, batch, weights = random_instance(seed, kinds=kinds)
            if params.n_parameters() > 200 or has_relu_kink(params, batch):
                continue
            _, grads = backward(params, batch, weights)
            worst = max_fd_error(params, batch, weights, grads)
            assert worst < 1e-5, f"seed {seed}: max relative error {worst}"
            checked += 1

    def test_stacked_group_matches_finite_differences(self):
        # Equal heads form one stacked group; their gradients stay exact.
        checked, seed = 0, 20
        while checked < 5:
            seed += 1
            params, batch, weights = random_instance(seed, kinds=("binary-bce",) * 3)
            assert params.group_tasks == ((0, 1, 2),)
            if has_relu_kink(params, batch):
                continue
            _, grads = backward(params, batch, weights)
            assert max_fd_error(params, batch, weights, grads) < 1e-5, f"seed {seed}"
            checked += 1

    @pytest.mark.parametrize("last_act", ["linear", "sigmoid", "softmax", "relu"])
    def test_each_trunk_activation_matches_finite_differences(self, last_act):
        for seed, params, batch, weights in mixed_trunk_instances(last_act):
            assert params.group_tasks == ((0, 1), (2,))
            _, grads = backward(params, batch, weights)
            worst = max_fd_error(params, batch, weights, grads)
            assert worst < 1e-5, f"{last_act} seed {seed}: max relative error {worst}"

    def test_trunk_gradients_decompose_over_tasks(self):
        params, batch, weights = random_instance(9, kinds=("regression-mse", "binary-bce", "multiclass-ce"))
        _, grads = backward(params, batch, weights)
        summed = np.zeros_like(grads)
        for k in range(3):
            solo_w = np.zeros(3)
            solo_w[k] = weights[k]
            summed += backward(params, batch, solo_w)[1]
        for (sw, sb), (gw, gb) in zip(params.like(summed).trunk, params.like(grads).trunk):
            np.testing.assert_allclose(gw, sw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gb, sb, rtol=0, atol=1e-12)

    def test_nan_gradient_names_layer(self):
        params, batch, weights = random_instance(5, kinds=("regression-mse",))
        params.head(0)[0][0][0, 0] = np.nan
        with pytest.raises(ValueError, match="head|trunk"):
            backward(params, batch, weights)

    def test_opposite_infinities_in_different_arrays_do_not_abort(self):
        # One task's gradient overflows: its arrays hold +inf and -inf, so
        # the whole-vector sum is NaN, but no single array has a NaN sum, so
        # backward does not abort.
        params = ModelParams(trunk=[(1, 1, "linear")], heads=[[(1, 1, "linear")]])
        params.vector[...] = [1.0, 0.0, 1.0, 0.0]
        batch = Batch(np.full((1, 1), -1.0), [np.full((1, 1), 1e308)], (MSE,))
        with np.errstate(over="ignore", invalid="ignore"):
            _, grads = backward(params, batch, np.ones(1))
        assert grads.tolist() == [np.inf, -np.inf, np.inf, -np.inf]

    def test_opposite_infinities_at_the_shared_activation_abort(self):
        # Two tasks' gradients at the shared activation are +inf and -inf:
        # their sum is NaN, so the trunk's own gradient is NaN.
        params = ModelParams(trunk=[(1, 1, "linear")], heads=[[(1, 1, "linear")]] * 2)
        params.vector[...] = 1.0
        batch = Batch(np.ones((1, 1)), [np.full((1, 1), -1e308), np.full((1, 1), 1e308)], (MSE, MSE))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as err:
                backward(params, batch, np.ones(2))
        assert str(err.value) == "NaN gradient in trunk[0].weight"

    def test_weight_count_checked(self):
        params, batch, _ = random_instance(6)
        with pytest.raises(ValueError, match="weights"):
            backward(params, batch, np.array([1.0, 2.0]))


def multiply_path(params, step, w):
    """`backward`'s gradient vector with every weight multiplied in, as it
    was computed before all-ones weights skipped the multiplies (no NaN
    probe)."""
    trunk = []
    if params.trunk:
        up = np.add.reduce(w[:, None, None] * step.at_shared, axis=0)
        trunk, _ = network._stack_backward(up, params.trunk, params.trunk_layers, step.cache.trunk_a)
    heads = []
    for tasks, unit in zip(params.group_tasks, step.unit):
        w_g = w[list(tasks)]
        heads += [(w_g[:, None, None] * unit_w, w_g[:, None] * unit_b) for unit_w, unit_b in unit]
    return np.concatenate([a.ravel() for pair in trunk + heads for a in pair])


class TestUnitWeights:
    """With every weight exactly 1.0 (baseline, every reference run),
    `backward` uses the unit-weight gradients as they are: x * 1.0 is x bit
    for bit, special values included."""

    def test_times_one_keeps_every_bit(self):
        payload_nan = np.array([0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0000], dtype=np.uint64)
        x = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e300, -1.5],
            payload_nan.view(np.float64),
        ])
        assert (np.ones(3)[:, None] * x).tobytes() == np.tile(x, 3).tobytes()

    @pytest.mark.parametrize("special", [-0.0, np.inf, -np.inf, np.nan])
    def test_backward_equals_the_multiply_path(self, special):
        # Eight tasks in three head groups, so that sums over tasks round.
        specs = (BCE,) * 5 + (TaskSpec("regression-mse", 2, 1.5, "r2"),) * 2 + (CE3,)
        params = init_params(3, 6, (16, 16), (8,), specs)
        batch = generate_mtl(3, 6, 400, specs, 0.0).batch(np.arange(32))
        step = HeadPass(params, batch)
        ones = np.ones(params.n_tasks)
        # Entries of the shared gradient where relu is off reach the trunk's
        # sum and are masked after it, so any value may sit there.
        off = step.cache.shared <= 0.0
        assert off.any()
        step.at_shared[:, off] = special
        if special == special:
            for unit in step.unit:
                for unit_w, unit_b in unit:
                    unit_w.reshape(-1)[::3] = special
                    unit_b.reshape(-1)[::2] = special
        want = multiply_path(params, step, ones)
        assert backward(params, batch, ones, step)[1].tobytes() == want.tobytes()
        if special != special:
            # A NaN head gradient aborts in the same array either way.
            step.unit[0][-1][0][0, 0, 0] = np.nan
            assert np.isnan(params.like(multiply_path(params, step, ones)).head(0)[-1][0]).any()
            with pytest.raises(ValueError, match=r"NaN gradient in head\[0\]\[1\]\.weight"):
                backward(params, batch, ones, step)


class TestSharedLayerGradNorms:
    def test_zero_weight_gives_zero_norm(self):
        params, batch, _ = random_instance(7, kinds=("regression-mse", "binary-bce"))
        norms = shared_layer_grad_norms(params, batch, np.array([0.0, 1.0]))
        assert norms[0] == 0.0 and norms[1] > 0.0

    def test_duplicated_tasks_have_equal_norms(self):
        params, batch, _ = random_instance(8, kinds=("binary-bce",))
        sizes = [o for _, o, _ in params.trunk_layers]
        twin = init_params(8, params.input_dim, sizes, [3], batch.specs * 2)
        for (w, b), (w0, b0) in zip(twin.head(1), twin.head(0)):
            w[...], b[...] = w0, b0
        twin_batch = Batch(batch.inputs, [batch.targets[0], batch.targets[0]],
                           (batch.specs[0], batch.specs[0]))
        norms = shared_layer_grad_norms(twin, twin_batch, np.array([0.7, 0.7]))
        assert norms[0] == norms[1]

    def test_oracle_full_backward_restricted_to_last_trunk_layer(self):
        # The probe reads the step's shared head pass; each norm equals that
        # of a one-task backward bit for bit, and sharing the head pass
        # leaves the weighted backward unchanged.
        cases = [(10, ("regression-mse", "multiclass-ce"))]
        cases += [(seed, ("regression-mse", "binary-bce", "multiclass-ce", "binary-bce"))
                  for seed in range(30, 40)]
        for seed, kinds in cases:
            params, batch, weights = random_instance(seed, kinds=kinds)
            step = HeadPass(params, batch)
            norms = shared_layer_grad_norms(params, batch, weights, step)
            _, shared = backward(params, batch, weights, step)
            assert np.array_equal(shared, backward(params, batch, weights)[1])
            for k in range(len(kinds)):
                solo = np.zeros(len(kinds))
                solo[k] = weights[k]
                _, grads = backward(params, batch, solo)
                assert norms[k] == np.linalg.norm(params.like(grads).trunk[-1][0]), (seed, k)

    @pytest.mark.parametrize("last_act", ["linear", "sigmoid", "softmax", "relu"])
    def test_oracle_holds_for_each_trunk_activation(self, last_act):
        for seed, params, batch, weights in mixed_trunk_instances(last_act):
            norms = shared_layer_grad_norms(params, batch, weights)
            for k in range(3):
                solo = np.zeros(3)
                solo[k] = weights[k]
                _, grads = backward(params, batch, solo)
                last_w = params.like(grads).trunk[-1][0]
                assert norms[k] == np.linalg.norm(last_w), (last_act, seed, k)

    def test_linear_scaling_in_weights_exact(self):
        params, batch, weights = random_instance(11, kinds=("binary-bce", "regression-mse"))
        base = shared_layer_grad_norms(params, batch, weights)
        for c in (2.0, 0.5, 4.0):  # powers of two scale without rounding
            scaled = shared_layer_grad_norms(params, batch, c * weights)
            assert np.array_equal(scaled, c * base)


class TestTrunkLess:
    """`unshared` puts one-task models side by side as one trunk-less model."""

    def test_unshared_copies_trunk_and_head_into_each_head(self):
        full = init_params(2, 5, (7, 6), (4,), (MSE, BCE, MSE, CE3, BCE))
        tasks = [3, 0, 4, 0]
        alone = full.unshared(tasks)
        assert alone.trunk == [] and alone.input_dim == 5
        assert alone.group_tasks == ((0,), (1, 3), (2,))
        x = np.linspace(-2.0, 2.0, 40).reshape(8, 5)
        full_out, alone_out = forward_cache(full, x).outputs, forward_cache(alone, x).outputs
        for i, k in enumerate(tasks):
            pairs = alone.head(i)
            assert len(pairs) == 4  # two trunk layers, then a hidden and an output layer
            for (w, b), (src_w, src_b) in zip(pairs, full.trunk + full.head(k)):
                assert (w == src_w).all() and (b == src_b).all()
            assert np.array_equal(alone_out[i], full_out[k])

    @pytest.mark.parametrize("last_act", ["linear", "sigmoid", "softmax", "relu"])
    def test_backward_matches_finite_differences(self, last_act):
        # A stacked group of the two sigmoid heads and a single linear head.
        for seed, full, batch, weights in mixed_trunk_instances(last_act):
            params = full.unshared(range(3))
            assert params.group_tasks == ((0, 1), (2,))
            _, grads = backward(params, batch, weights)
            worst = max_fd_error(params, batch, weights, grads)
            assert worst < 1e-5, f"{last_act} seed {seed}: max relative error {worst}"

    def test_no_shared_layer_to_probe(self):
        _, full, batch, weights = next(mixed_trunk_instances("relu", count=1))
        with pytest.raises(ValueError, match="no shared layer"):
            shared_layer_grad_norms(full.unshared(range(3)), batch, weights)


class TestOptimizers:
    def test_zero_gradients_leave_parameters_unchanged(self):
        params, batch, _ = random_instance(12)
        before = params.vector.copy()
        _, grads = backward(params, batch, np.array([0.0]))
        sgd_step(params, grads, 0.1)
        assert np.array_equal(params.vector, before)
        adam_step(params, grads, init_moments(params), 1, 0.1)
        assert np.array_equal(params.vector, before)

    def test_sgd_hand_value(self):
        params = tiny_params([[[1.0]], [[1.0]]], ["linear", "linear"])
        grads = np.zeros_like(params.vector)
        params.like(grads).trunk[0][0][0, 0] = 0.5
        sgd_step(params, grads, 0.1)
        assert params.trunk[0][0][0, 0] == 0.95

    def test_adam_equals_the_expression_with_fresh_temporaries(self):
        def reference(vector, grads, moments, t, lr):
            # adam_step as written before it reused one temporary.
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
            vector -= update

        params = init_params(5, 4, (6,), (3,), (MSE, BCE))
        want, want_moments = params.vector.copy(), init_moments(params)
        moments = init_moments(params)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300])
        stream = SplitMix64(11)
        for t in range(1, 51):
            grads = stream.normal(params.vector.shape) * 10.0 ** float(stream.below(7) - 3)
            grads[stream.below(grads.size, special.size)] = special
            given = grads.copy()
            with np.errstate(over="ignore"):  # 1e300 squared is inf
                adam_step(params, grads, moments, t, 1e-3)
                reference(want, grads, want_moments, t, 1e-3)
            assert grads.tobytes() == given.tobytes()
            assert params.vector.tobytes() == want.tobytes(), t
            assert moments.tobytes() == want_moments.tobytes(), t
        assert np.isinf(moments[1]).any() and np.isfinite(params.vector).all()

    def test_adam_first_step_magnitude_near_lr(self):
        params = tiny_params([[[1.0]], [[1.0]]], ["linear", "linear"])
        grads = np.zeros_like(params.vector)
        params.like(grads).trunk[0][0][0, 0] = 1.0
        lr = 1e-3
        moments = init_moments(params)
        adam_step(params, grads, moments, 1, lr)
        delta = 1.0 - params.trunk[0][0][0, 0]
        assert abs(delta - lr) < 1e-10
        assert moments[0][0] == pytest.approx(0.1) and moments[1][0] == pytest.approx(0.001)


class TestInitAndCheckpoint:
    def test_init_is_deterministic_and_he_scaled(self):
        specs = (MSE, BCE)
        a = init_params(1, 8, (16, 16), (8,), specs)
        b = init_params(1, 8, (16, 16), (8,), specs)
        assert np.array_equal(a.vector, b.vector)
        # std of a 8->16 layer should be near sqrt(2/8)
        w, bias = a.trunk[0]
        assert w.std() == pytest.approx(np.sqrt(2.0 / 8.0), rel=0.3)
        assert np.array_equal(bias, np.zeros(16))

    def test_output_activations_follow_task_kind(self):
        p = init_params(1, 4, (8,), (4,), (MSE, BCE, CE3))
        assert [h[-1][2] for h in p.head_layers] == ["linear", "sigmoid", "softmax"]
        assert [h[-1][1] for h in p.head_layers] == [1, 1, 3]
