"""Metric oracles from confusion-matrix and moment arithmetic, plus trace ops."""

import numpy as np
import pytest

from mtlbal.balancers import EmaState, LossVector, ema_update
from mtlbal.metrics import (
    TRACE_COLUMNS,
    Trace,
    ccc,
    coefficient_spikiness,
    composite_score,
    f1_binary,
    f1_macro,
    trace_to_text,
)
from mtlbal.rng import SplitMix64


class TestF1Binary:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0, 1])
        assert f1_binary(y, y) == 1.0

    def test_confusion_matrix_hand_value(self):
        # TP=1, FP=1, FN=1 -> precision = recall = 0.5 -> F1 = 0.5
        preds = np.array([1, 1, 0])
        labels = np.array([1, 0, 1])
        assert f1_binary(preds, labels) == 0.5

    def test_all_negative_predictions_score_zero(self):
        assert f1_binary(np.zeros(4), np.array([0, 1, 0, 1])) == 0.0

    def test_range(self):
        stream = SplitMix64(2)
        for _ in range(50):
            p = (stream.uniform(20) > 0.5).astype(int)
            y = (stream.uniform(20) > 0.5).astype(int)
            assert 0.0 <= f1_binary(p, y) <= 1.0


class TestF1Macro:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 1, 0, 2])
        assert f1_macro(y, y, 3) == 1.0

    def test_two_class_case_is_mean_of_one_vs_rest(self):
        p = np.array([0, 1, 1, 0])
        y = np.array([0, 0, 1, 1])
        expected = 0.5 * (f1_binary(p == 0, y == 0) + f1_binary(p == 1, y == 1))
        assert f1_macro(p, y, 2) == expected

    def test_three_class_confusion_hand_value(self):
        # Each class has TP=1, FP=1, FN=1 -> per-class F1 = 0.5 -> macro 0.5.
        labels = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([0, 1, 1, 2, 2, 0])
        assert f1_macro(preds, labels, 3) == 0.5

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            f1_macro(np.array([0, 3]), np.array([0, 1]), 3)


class TestCcc:
    def test_identical_nonconstant_is_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ccc(x, x) == 1.0

    def test_constant_predictions_at_label_mean_score_zero(self):
        assert ccc(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_population_moment_hand_value(self):
        # cov=1, var_x=2/3, var_y=14/9, dmu^2=1/9 -> 2 / (21/9) = 6/7.
        got = ccc(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        assert got == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_symmetric(self):
        stream = SplitMix64(6)
        x, y = stream.normal(30), stream.normal(30)
        assert ccc(x, y) == ccc(y, x)

    def test_range(self):
        stream = SplitMix64(60)
        for _ in range(50):
            x, y = stream.normal(25), stream.normal(25)
            assert -1.0 <= ccc(x, y) <= 1.0

    def test_degenerate_conventions(self):
        same = np.array([3.0, 3.0, 3.0])
        assert ccc(same, same.copy()) == 1.0
        assert ccc(same, np.array([4.0, 4.0, 4.0])) == 0.0

    def test_overflowing_mean_gap_scores_zero(self):
        # (mean_x - mean_y)^2 overflows a float: the denominator is inf.
        assert ccc(np.array([0.0, 1.0]), np.array([1e200, 1e200])) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ccc(np.array([1.0]), np.array([1.0]))


class TestCompositeScore:
    AFFWILD_SHAPE = ("va", "au", "emotion")

    def test_three_group_maximum(self):
        parts = [(1.0, "va"), (1.0, "va")] + [(1.0, "au")] * 12 + [(1.0, "emotion")]
        assert composite_score(parts, self.AFFWILD_SHAPE) == 3.0

    def test_three_group_hand_value(self):
        parts = (
            [(0.5, "va"), (0.5, "va")]
            + [(0.6, "au")] * 12
            + [(0.4, "emotion")]
        )
        assert composite_score(parts, self.AFFWILD_SHAPE) == pytest.approx(1.5, abs=1e-12)

    def test_two_group_variant_drops_au_term(self):
        parts = [(0.4, "va"), (0.6, "va"), (0.5, "emotion")]
        assert composite_score(parts, ("va", "emotion")) == pytest.approx(1.0, abs=1e-12)

    def test_missing_group_is_hard_error(self):
        with pytest.raises(ValueError, match="missing"):
            composite_score([(1.0, "va")], self.AFFWILD_SHAPE)

    def test_unconfigured_group_is_hard_error(self):
        with pytest.raises(ValueError, match="unconfigured"):
            composite_score([(1.0, "va"), (1.0, "extra")], ("va",))

    def test_linear_in_each_part(self):
        base = [(0.2, "va"), (0.4, "va"), (0.7, "emotion")]
        bumped = [(0.2 + 0.3, "va"), (0.4, "va"), (0.7, "emotion")]
        delta = composite_score(bumped) - composite_score(base)
        assert delta == pytest.approx(0.3 / 2, abs=1e-12)


def make_row(t, weights, rates=None, losses=None):
    k = len(weights)
    rates = np.ones(k) if rates is None else np.asarray(rates, dtype=float)
    losses = np.ones(k) if losses is None else np.asarray(losses, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return {
        "iteration": t,
        "loss_{}": losses,
        "weight_{}": weights,
        "rate_{}": rates,
        "rate_std": float(rates.std()),
        "weighted_total": float(weights @ losses),
    }


class TestSpikiness:
    def test_constant_weights_zero(self):
        trace = Trace(task_names=("a", "b"))
        for t in range(5):
            trace.append(make_row(t, [1.3, 0.7]))
        assert coefficient_spikiness(trace.weight_means()) == 0.0

    def test_mean_doubling_once_scores_one(self):
        trace = Trace(task_names=("a", "b"))
        trace.append(make_row(0, [1.0, 1.0]))
        trace.append(make_row(1, [2.0, 2.0]))
        trace.append(make_row(2, [2.0, 2.0]))
        assert coefficient_spikiness(trace.weight_means()) == 1.0

    def test_fast_ema_spikier_than_slow_on_same_noisy_stream(self):
        stream = SplitMix64(40)
        losses = 1.0 + stream.uniform((200, 3)) * 4.0
        means = {}
        for beta in (1.0, 0.1):
            state = EmaState(beta=beta)
            weights = [
                ema_update(state, LossVector(row, t)).values for t, row in enumerate(losses)
            ]
            means[beta] = np.array([w.mean() for w in weights])
        assert coefficient_spikiness(means[1.0]) > coefficient_spikiness(means[0.1])

    def test_short_trace_scores_zero(self):
        trace = Trace(task_names=("a",))
        assert coefficient_spikiness(trace.weight_means()) == 0.0


class TestTrace:
    def test_append_guards(self):
        trace = Trace(task_names=("a", "b"))
        trace.append(make_row(0, [1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            trace.append(make_row(0, [1.0, 2.0]))
        with pytest.raises(ValueError, match="width"):
            trace.append(make_row(1, [1.0, 2.0, 3.0]))
        row = make_row(1, [1.0, 2.0])
        missing = {k: v for k, v in row.items() if k != "rate_std"}
        extra = {**row, "grad_cos_min": 0.0}
        swapped = {k: row[k] for k in ("iteration", "weight_{}", "loss_{}", *TRACE_COLUMNS[3:])}
        for bad in (missing, extra, swapped):
            with pytest.raises(ValueError, match="columns"):
                trace.append(bad)
        with pytest.raises(ValueError, match="width"):
            trace.append({**row, "rate_std": np.array([0.0, 1.0])})
        assert len(trace) == 1
        trace.append(row)
        assert len(trace) == 2

    def test_export_column_order(self):
        trace = Trace(task_names=("a", "b"))
        trace.append(make_row(0, [0.5, 2.0], rates=[1.0, 1.0], losses=[4.0, 0.25]))
        text = trace_to_text(trace)
        lines = text.splitlines()
        assert lines[0] == "iteration,loss_a,loss_b,weight_a,weight_b,rate_a,rate_b,rate_std,weighted_total"
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == 4.0
        assert float(cells[3]) == 0.5
        assert float(cells[8]) == 2.5

    def test_export_full_precision(self):
        trace = Trace(task_names=("a",))
        w = np.array([1.0 / 3.0])
        trace.append(make_row(0, w, losses=[1.0 / 7.0]))
        text = trace_to_text(trace)
        assert float(text.splitlines()[1].split(",")[2]) == 1.0 / 3.0
