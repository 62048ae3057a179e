"""Balancer oracles: worked examples, invariants, and snapshot fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlbal.balancers import (
    BALANCER_NAMES,
    EPS_FLOOR,
    GRADNORM_COEFF_MIN,
    Baseline,
    Dwa,
    Dwema,
    EmaState,
    GradNormState,
    LossVector,
    Rema,
    UwState,
    WeightVector,
    combine,
    dwa_coefficients,
    ema_update,
    gradnorm_step,
    make_balancer,
    rate_ratios,
    snapshot,
    uw_combine,
)
from mtlbal.rng import SplitMix64


def lv(values, t=0):
    return LossVector(np.asarray(values, dtype=np.float64), iteration=t)


def grid_stream(stream: SplitMix64, shape):
    """Positive losses on the dyadic grid k/1024, k in [103, 10342].

    Multiplying grid values by 10 or 10^4 is exact in float64, which the
    bit-level scale-invariance assertions below require.
    """
    k = 103 + stream.below(10_240, int(np.prod(shape)))
    return (k / 1024.0).reshape(shape)


class TestLossVector:
    def test_nan_names_task_index(self):
        with pytest.raises(ValueError, match="task 1 is NaN"):
            lv([1.0, float("nan"), 2.0], t=5)

    def test_negative_and_inf_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            lv([1.0, -0.5])
        with pytest.raises(ValueError, match="not finite"):
            lv([np.inf, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: lv([np.inf, np.nan], t=3), "loss for task 1 is NaN at iteration 3"),
            (lambda: lv([-1.0, np.inf]), "loss for task 1 is not finite at iteration 0"),
            (lambda: lv([2.0, -1.0], t=7), "loss for task 1 is negative at iteration 7"),
            (lambda: lv([-0.0, 1.0]), None),
            (lambda: WeightVector(np.array([0.0])),
             "weights must be finite and strictly positive; task 0 has 0.0"),
            (lambda: WeightVector(np.array([np.nan])),
             "weights must be finite and strictly positive; task 0 has nan"),
            (lambda: WeightVector(np.array([-np.inf])),
             "weights must be finite and strictly positive; task 0 has -inf"),
        ],
    )
    def test_exact_messages(self, make, message):
        # NaN is named before any other fault, then a non-finite value, then
        # a negative one, each at the first task that has it.
        if message is None:
            make()
            return
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


class TestEmaUpdate:
    def test_beta_one_weights_are_reciprocal_losses(self):
        state = EmaState(beta=1.0)
        for vals in ([2.0, 4.0], [0.5, 8.0]):
            w = ema_update(state, lv(vals))
            assert np.array_equal(w.values * np.array(vals), [1.0, 1.0])

    def test_hand_evaluated_recurrence(self):
        # ema(prev)=1.0, loss=2.0, beta=0.2 -> ema=1.2, weight=0.8333...
        state = EmaState(beta=0.2)
        ema_update(state, lv([1.0]))
        w = ema_update(state, lv([2.0]))
        assert state.ema[0] == pytest.approx(1.2, rel=1e-12)
        assert w.values[0] == pytest.approx(1.0 / 1.2, rel=1e-12)

    def test_constant_stream_contribution_converges_to_one(self):
        state = EmaState(beta=0.3)
        c = np.array([3.0, 0.01])
        for t in range(100):
            w = ema_update(state, lv(c, t))
            np.testing.assert_allclose(w.values * c, 1.0, rtol=0, atol=1e-12)

    def test_first_update_seeds_ema_with_losses(self):
        state = EmaState(beta=0.25)
        ema_update(state, lv([5.0, 7.0]))
        assert np.array_equal(state.ema, [5.0, 7.0])

    def test_dimension_mismatch(self):
        state = EmaState(beta=0.5)
        ema_update(state, lv([1.0, 2.0]))
        with pytest.raises(ValueError, match="2 tasks"):
            ema_update(state, lv([1.0, 2.0, 3.0]))

    def test_geometric_convergence_envelope(self):
        # Warm up the average below the constant (x0 < c keeps the bound
        # monotone: the average rises toward c so the reciprocal shrinks).
        beta, x0, c = 0.2, np.array([1.5, 0.005]), np.array([3.0, 0.01])
        state = EmaState(beta=beta)
        ema_update(state, lv(x0))
        start_gap = np.abs(c / x0 - 1.0)
        for t in range(1, 120):
            w = ema_update(state, lv(c, t))
            lhs = np.abs(w.values * c - 1.0)
            rhs = (1.0 - beta) ** t * start_gap
            assert np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-15)


class TestTrainingRates:
    def test_direct_ratio(self):
        assert rate_ratios([np.array([2.0]), np.array([1.0])], 1).tolist() == [0.5]

    def test_empty_history_convention(self):
        assert rate_ratios([], 3).tolist() == [1.0, 1.0, 1.0]

    def test_one_entry_history_convention(self):
        assert rate_ratios([np.array([4.0, 2.0])], 2).tolist() == [1.0, 1.0]

    def test_constant_stream_rates_exactly_one(self):
        state = Dwa(temperature=1.0)
        for t in range(4):
            state.step(lv([0.7, 0.3], t))
        assert rate_ratios(state.history, state.k).tolist() == [1.0, 1.0]


class TestDwaWeights:
    def test_equal_rates_give_exactly_one(self):
        state = Dwa(temperature=0.7)
        w = state.step(lv([1.0, 2.0, 3.0]))
        assert w.values.tolist() == [1.0, 1.0, 1.0]

    def test_hand_evaluated_softmax(self):
        # K=2, rates (1.0, 0.5), T=0.5: weights 2*exp(r/T)/sum(exp(r/T)).
        w = dwa_coefficients(np.array([1.0, 0.5]), 0.5)
        e2, e1 = math.exp(2.0), math.exp(1.0)
        np.testing.assert_allclose(w, [2 * e2 / (e2 + e1), 2 * e1 / (e2 + e1)], rtol=1e-12)
        assert abs(w.sum() - 2.0) < 1e-9

    def test_high_temperature_limit_is_uniform(self):
        w = dwa_coefficients(np.array([1.0, 0.25, 3.0]), 1e12)
        np.testing.assert_allclose(w, 1.0, atol=1e-9)

    def test_sum_is_task_count_for_random_streams(self):
        stream = SplitMix64(21)
        state = Dwa(temperature=0.5)
        for t in range(50):
            w = state.step(lv(0.1 + stream.uniform(5), t))
            assert abs(w.values.sum() - 5.0) < 1e-9

    def test_spread_strictly_shrinks_as_temperature_grows(self):
        rates = np.array([1.0, 0.5, 0.8])
        spreads = []
        for temp in (0.25, 0.5, 1.0, 2.0, 4.0):
            w = dwa_coefficients(rates, temp)
            spreads.append(w.max() - w.min())
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_overflow_guard(self):
        w = dwa_coefficients(np.array([4000.0, 1.0]), 0.001)
        assert np.isfinite(w).all()


class TestRemaWeights:
    def test_constant_stream_reduces_to_reciprocal(self):
        state = Rema(beta=0.4)
        c = np.array([2.0, 0.5])
        for t in range(60):
            w = state.step(lv(c, t))
        np.testing.assert_allclose(w.values * c, 1.0, atol=1e-12)

    def test_hand_evaluated_rate_times_reciprocal(self):
        # beta=1, history (4, 2), current 2: rate 0.5, ema 2, weight 0.25.
        state = Rema(beta=1.0)
        state.step(lv([4.0]))
        state.step(lv([2.0]))
        w = state.step(lv([2.0]))
        assert w.values.tolist() == [0.25]
        assert combine(w, lv([2.0])) == 0.5

    def test_startup_identical_to_ema_update(self):
        losses = [3.0, 0.2]
        a, b = Rema(beta=0.3), EmaState(beta=0.3)
        assert np.array_equal(a.step(lv(losses)).values, ema_update(b, lv(losses)).values)


class TestDwemaWeights:
    def test_symmetric_rates_and_common_average(self):
        state = Dwema(beta=0.5, temperature=1.3)
        w = state.step(lv([2.0, 2.0]))
        assert w.values.tolist() == [0.5, 0.5]

    def test_hand_evaluated_startup(self):
        # Startup rates are 1 so the softmax coefficient is exactly 1;
        # beta=1 makes the average the current loss.
        state = Dwema(beta=1.0, temperature=0.77)
        w = state.step(lv([1.0, 4.0]))
        assert w.values.tolist() == [1.0, 0.25]

    def test_reduces_to_ema_for_equal_rates(self):
        # Rates equal but not 1: the dwa coefficient is still exactly 1.
        seq = [np.array([2.0, 4.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0])]
        dw_state = Dwema(beta=0.3, temperature=0.9)
        ema_state = EmaState(beta=0.3)
        for t, vals in enumerate(seq):
            got = dw_state.step(lv(vals, t))
            want = ema_update(ema_state, lv(vals, t))
        assert np.array_equal(got.values, want.values)

    def test_multiply_mode_scales_by_average(self):
        state = Dwema(beta=1.0, temperature=1.0, mode="multiply")
        w = state.step(lv([1.0, 4.0]))
        assert w.values.tolist() == [1.0, 4.0]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            Dwema(beta=0.5, temperature=1.0, mode="average")


class TestUwCombine:
    def test_zero_log_vars_identity(self):
        state = UwState(log_vars=np.zeros(3), learning_rate=0.1)
        total, grads, weights = uw_combine(state, lv([1.0, 2.0, 3.0]))
        assert total == 6.0
        assert weights.values.tolist() == [1.0, 1.0, 1.0]

    def test_stationary_point_matches_reciprocal_losses(self):
        losses = np.array([2.0, 0.5])
        state = UwState(log_vars=np.log(losses), learning_rate=0.1)
        _, grads, weights = uw_combine(state, lv(losses))
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)
        np.testing.assert_allclose(weights.values, 1.0 / losses, rtol=1e-12)

    def test_hand_evaluated_descent_step(self):
        state = UwState(log_vars=np.zeros(1), learning_rate=0.1)
        total, grads, _ = uw_combine(state, lv([2.0]))
        assert grads.tolist() == [-1.0]
        state.log_vars = state.log_vars - state.learning_rate * grads
        assert state.log_vars.tolist() == [0.1]

    def test_frozen_losses_converge_to_reciprocal(self):
        state = UwState(log_vars=np.zeros(2), learning_rate=0.05)
        losses = lv([2.0, 0.5])
        for _ in range(5000):
            _, grads, weights = uw_combine(state, losses)
            state.log_vars = state.log_vars - state.learning_rate * grads
        np.testing.assert_allclose(weights.values * losses.values, 1.0, atol=1e-6)


class TestGradNorm:
    def make_state(self, coeffs=(1.0, 1.0), initial=(1.0, 1.0), alpha=1.5, lr=0.025):
        state = GradNormState(coeffs=np.array(coeffs, dtype=float), alpha=alpha, learning_rate=lr)
        state.step(lv(initial))  # the first step captures the reference losses
        return state

    def test_balanced_norms_leave_coefficients_unchanged(self):
        state = self.make_state()
        w = gradnorm_step(state, lv([1.0, 1.0], 1), np.array([0.7, 0.7]))
        assert w.values.tolist() == [1.0, 1.0]

    def test_subgradient_sign_pushes_toward_target(self):
        # norms (2, 1) with equal rates: target 1.5 each; coefficient of the
        # over-gradiented task falls, the other rises.
        state = self.make_state()
        w = gradnorm_step(state, lv([1.0, 1.0], 1), np.array([2.0, 1.0]))
        assert w.values[0] < 1.0 < w.values[1]

    def test_renormalization_to_task_count(self):
        state = self.make_state(coeffs=(0.2, 1.7), initial=(1.0, 2.0))
        stream = SplitMix64(8)
        for t in range(1, 30):
            losses = 0.1 + stream.uniform(2)
            norms = stream.uniform(2) * 3.0
            w = gradnorm_step(state, lv(losses, t), norms)
            assert abs(w.values.sum() - 2.0) < 1e-9

    def test_floor_binds_before_the_rescale(self):
        # norms (1000, 100) with equal rates: target 550 each. Task 0's
        # coefficient descends to 1 - 0.025 * 1000 < 0 and is clamped to the
        # floor; task 1's rises to 1 + 0.025 * 100 = 3.5. The rescale to sum 2
        # then takes task 0 below the floor.
        state = self.make_state()
        w = gradnorm_step(state, lv([1.0, 1.0], 1), np.array([1000.0, 100.0]))
        assert w.values.sum() == pytest.approx(2.0, rel=1e-15)
        assert w.values[0] < GRADNORM_COEFF_MIN < w.values[1]
        scale = 2.0 / (GRADNORM_COEFF_MIN + 3.5)
        assert w.values.tolist() == [GRADNORM_COEFF_MIN * scale, 3.5 * scale]
        assert np.array_equal(state.coeffs, w.values)

    def test_update_direction_matches_finite_differences(self):
        # Oracle: central differences of the L1 objective in the coefficients,
        # with per-unit norms and targets held fixed; skip kink-adjacent points.
        stream = SplitMix64(77)
        checked = 0
        while checked < 25:
            k = 2 + int(stream.below(4))
            coeffs = 0.2 + stream.uniform(k) * 2.0
            coeffs *= k / coeffs.sum()
            per_unit = 0.1 + stream.uniform(k) * 2.0
            norms = coeffs * per_unit
            losses = 0.1 + stream.uniform(k)
            initial = 0.1 + stream.uniform(k)
            ratios = losses / initial
            targets = norms.mean() * (ratios / ratios.mean()) ** 1.5
            if np.any(np.abs(norms - targets) < 1e-4):
                continue
            analytic = np.sign(norms - targets) * per_unit

            def objective(c):
                return np.sum(np.abs(c * per_unit - targets))

            h = 1e-7
            for i in range(k):
                step = np.zeros(k)
                step[i] = h
                fd = (objective(coeffs + step) - objective(coeffs - step)) / (2 * h)
                assert abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i])) < 1e-4

            state = GradNormState(coeffs=coeffs.copy(), alpha=1.5, learning_rate=1e-9)
            state.initial_losses = initial
            before = state.coeffs.copy()
            gradnorm_step(state, lv(losses, 1), norms)
            # With a vanishing step the pre-renormalization move is -lr*grad.
            moved = (before - 1e-9 * analytic)
            moved = np.maximum(moved, 1e-6)
            expected = moved * (k / moved.sum())
            np.testing.assert_allclose(state.coeffs, expected, rtol=1e-12)
            checked += 1

    def test_requires_captured_initial(self):
        state = GradNormState(coeffs=np.ones(2))
        with pytest.raises(ValueError, match="initial losses"):
            gradnorm_step(state, lv([1.0, 1.0], 1), np.array([1.0, 1.0]))

    def test_zero_initial_loss_clamped_with_warning(self, caplog):
        state = GradNormState(coeffs=np.ones(2))
        with caplog.at_level("WARNING"):
            state.step(lv([0.0, 1.0]))
        assert "clamping" in caplog.text
        assert state.initial_losses[0] == EPS_FLOOR


class TestCombine:
    def test_equal_weights_sum(self):
        losses = lv([1.0, 2.0, 3.5])
        assert combine(WeightVector(np.ones(3)), losses) == 6.5

    def test_hand_evaluated_dot_product(self):
        assert combine(WeightVector(np.array([0.5, 2.0])), lv([4.0, 0.25])) == 2.5

    def test_converged_ema_total_is_task_count(self):
        state = EmaState(beta=0.2)
        c = lv([3.0, 0.01, 7.0])
        for _ in range(50):
            w = ema_update(state, c)
        assert combine(w, c) == pytest.approx(3.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combine(WeightVector(np.ones(2)), lv([1.0, 2.0, 3.0]))


#: Each (method, factor) case's stream seed: fixed, since `hash` of a str
#: changes with PYTHONHASHSEED.
STREAM_SEEDS = {
    ("ema", 10.0): 101,
    ("ema", 1e4): 102,
    ("rema", 10.0): 103,
    ("rema", 1e4): 104,
    ("dwema", 10.0): 105,
    ("dwema", 1e4): 106,
}


class TestScaleEquivariance:
    @pytest.mark.parametrize("method", ["ema", "rema", "dwema"])
    @pytest.mark.parametrize("factor", [10.0, 1e4])
    def test_contribution_stream_invariant(self, method, factor):
        stream = SplitMix64(STREAM_SEEDS[(method, factor)])
        k, steps = 4, 40
        base = grid_stream(stream, (steps, k))
        scaled = base.copy()
        scaled[:, 2] *= factor  # exact products on the grid

        def contributions(losses):
            bal = make_balancer(method, beta=0.2, temperature=0.5)
            return np.array([bal.step(lv(row, t)).values * row for t, row in enumerate(losses)])

        ours = contributions(base)
        theirs = contributions(scaled)
        np.testing.assert_allclose(theirs, ours, rtol=1e-12, atol=0)
        # Unscaled tasks are bit-identical.
        other = [0, 1, 3]
        assert np.array_equal(ours[:, other], theirs[:, other])

    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from(["ema", "rema", "dwema-divide", "dwema-multiply"]),
        beta=st.floats(0.01, 1.0),
        temperature=st.floats(0.5, 10.0),
        data=st.data(),
    )
    def test_dyadic_scales_scale_weights_exactly(self, method, beta, temperature, data):
        # Losses in [0.1, 10] scaled by 2^j, |j| <= 16: EPS_FLOOR never binds,
        # nothing overflows, and a power-of-two factor commutes with rounding.
        k = data.draw(st.integers(1, 4))
        steps = data.draw(st.integers(1, 8))
        row = st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)
        losses = np.array(data.draw(st.lists(row, min_size=steps, max_size=steps)))
        factors = 2.0 ** np.array(data.draw(st.lists(st.integers(-16, 16), min_size=k, max_size=k)))
        name, _, mode = method.partition("-")

        def weights(stream):
            bal = make_balancer(name, beta=beta, temperature=temperature, mode=mode or "divide")
            return np.array([bal.step(lv(r, t)).values for t, r in enumerate(stream)])

        expected = weights(losses) * (factors if mode == "multiply" else 1.0 / factors)
        assert np.array_equal(weights(losses * factors), expected)

    def test_rates_invariant_bitwise(self):
        stream = SplitMix64(99)
        base = grid_stream(stream, (3, 5))
        scaled = base.copy()
        scaled[:, 0] *= 1e4
        assert np.array_equal(rate_ratios(base[:2], 5), rate_ratios(scaled[:2], 5))


class TestDeterminism:
    @pytest.mark.parametrize("method", ["baseline", "ema", "rema", "dwema", "dwa", "uw", "gradnorm"])
    def test_identical_runs_produce_identical_weight_traces(self, method):
        def run():
            stream = SplitMix64(1234)
            bal = make_balancer(method)
            out = []
            for t in range(30):
                losses = lv(0.1 + stream.uniform(3), t)
                norms = stream.uniform(3) + 0.1 if bal.requires_grad_norms else None
                out.append(bal.step(losses, norms).values)
            return np.array(out)

        assert np.array_equal(run(), run())


def vector(text):
    return np.array([float(v) for v in text.split(",")])


class TestSnapshotRestore:
    """A snapshot holds what restoring a balancer by hand would need: every
    state value reads back exactly from its text, nothing more and nothing
    less. A numerical abort prints it."""

    @staticmethod
    def fields(bal):
        header, *lines = snapshot(bal).splitlines()
        assert header == "balancer-state v1"
        pairs = [line.split(" = ") for line in lines]
        fields = dict(pairs)
        assert len(fields) == len(pairs)
        return fields

    @staticmethod
    def pop_hyperparameters(bal, fields):
        for name in bal.hyper:
            value = getattr(bal, name)
            text = fields.pop(name)
            assert (text if isinstance(value, str) else float(text)) == value

    @pytest.mark.parametrize("method", BALANCER_NAMES)
    def test_every_state_value_exactly_and_nothing_else(self, method):
        bal = make_balancer(method, beta=0.2, temperature=0.7, alpha=1.5, learning_rate=0.05)
        stream = SplitMix64(5)
        for t in range(4):
            norms = 0.1 + stream.uniform(3) if bal.requires_grad_norms else None
            bal.step(lv(0.1 + stream.uniform(3), t), norms)
        fields = self.fields(bal)
        assert (fields.pop("method"), fields.pop("iteration"), fields.pop("k")) == (method, "4", "3")
        self.pop_hyperparameters(bal, fields)
        live = {name: getattr(bal, name) for name in bal.arrays}
        live.update({f"history{i}": h for i, h in enumerate(bal.history)})
        assert len(bal.history) == (2 if bal.keeps_history else 0)
        for name, value in live.items():
            assert vector(fields.pop(name)).tobytes() == value.tobytes(), name
        if isinstance(bal, EmaState):
            assert fields.pop("initialized") == "true"
        assert fields == {}

    @pytest.mark.parametrize("method", BALANCER_NAMES)
    def test_fresh_state_roundtrips_hyperparameters(self, method):
        # Before the first step there is no k and no state array to write.
        bal = make_balancer(method, beta=0.1, temperature=0.5, alpha=1.5, learning_rate=0.025)
        fields = self.fields(bal)
        assert (fields.pop("method"), fields.pop("iteration")) == (method, "0")
        self.pop_hyperparameters(bal, fields)
        if isinstance(bal, EmaState):
            assert fields.pop("initialized") == "false"
        assert fields == {}

    def test_full_precision_of_state_arrays(self):
        bal = make_balancer("ema", beta=0.1)
        bal.step(lv([1.0 / 3.0, 2.0 / 7.0]))
        assert np.array_equal(vector(self.fields(bal)["ema"]), bal.ema)

    EMA_SNAPSHOT = (
        "balancer-state v1\nmethod = ema\niteration = 1\nbeta = 0.5\nk = 2\n"
        "initialized = true\nema = 1,2\nhistory0 = 1,2\n"
    )

    def test_exact_bytes(self):
        bal = EmaState(beta=0.5)
        bal.step(lv([1.0, 2.0]))
        assert snapshot(bal) == self.EMA_SNAPSHOT

    def test_non_finite_state_restored(self):
        # A snapshot taken at a numerical abort can hold an overflowed average.
        bal = EmaState(beta=0.5)
        bal.step(lv([1.0, 2.0]))
        bal.ema = np.array([np.inf, np.nan])
        assert snapshot(bal) == self.EMA_SNAPSHOT.replace("ema = 1,2", "ema = inf,nan")
        ema = vector(self.fields(bal)["ema"])
        assert np.isinf(ema[0]) and np.isnan(ema[1])


class TestExtremeLossStreams:
    @pytest.mark.parametrize("method", BALANCER_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_weights_finite_positive_or_value_error(self, method, data):
        # Losses and norms anywhere from 1e-300 to 1e300 (and zero), stepped
        # under the training loop's errstate: a step returns finite positive
        # weights or raises ValueError, nothing else.
        k = data.draw(st.integers(1, 4))
        value = st.one_of(st.just(0.0), st.floats(-300, 300).map(lambda e: 10.0**e))
        vector = st.lists(value, min_size=k, max_size=k).map(np.array)
        bal = make_balancer(method)
        for t in range(data.draw(st.integers(1, 10))):
            losses = lv(data.draw(vector), t)
            norms = data.draw(vector) if bal.requires_grad_norms else None
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    weights = bal.step(losses, norms)
                except ValueError:
                    continue
            assert np.isfinite(weights.values).all() and (weights.values > 0).all()


class TestBaseline:
    def test_equal_weights_and_dimension_latch(self):
        bal = Baseline()
        assert bal.step(lv([5.0, 1.0])).values.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError):
            bal.step(lv([1.0]))

    def test_steps_return_equal_unmodified_weights(self):
        # One read-only vector serves every step; a caller cannot alter it.
        bal = Baseline()
        first = bal.step(lv([5.0, 1.0]))
        second = bal.step(lv([1e300, 2.0], t=1))
        assert first.values.tolist() == second.values.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            first.values[0] = 2.0


class TestMakeBalancer:
    def test_keywords_defaults_and_unknown_names(self):
        # Hyperparameters the method does not declare are ignored; the rest
        # default to the class's declaration.
        bal = make_balancer("dwema", beta=0.3, mode="multiply", alpha=2.0, learning_rate=1.0)
        assert (bal.beta, bal.temperature, bal.mode) == (0.3, Dwema.hyper["temperature"], "multiply")
        assert make_balancer("dwa").temperature == Dwa.hyper["temperature"]
        with pytest.raises(TypeError, match="gamma"):
            make_balancer("ema", gamma=0.5)
        with pytest.raises(ValueError, match="beta"):
            make_balancer("ema", beta=0.0)
