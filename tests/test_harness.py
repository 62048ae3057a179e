"""Harness contracts: config schema, determinism, comparisons, failure policy."""

import dataclasses
import inspect
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtlbal.harness
from mtlbal import network
from mtlbal.balancers import (
    BALANCER_NAMES,
    EPS_FLOOR,
    GRADNORM_COEFF_MIN,
    HYPERPARAMETERS,
    EmaState,
    LossVector,
    combine,
    ema_update,
    make_balancer,
)
from mtlbal.harness import (
    COMPARE_COLUMNS,
    MEMORY_CAP,
    SCENARIOS,
    SWEEP_COLUMNS,
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    NumericalAbort,
    RunRecord,
    compare,
    config_to_text,
    parse_config,
    result_to_json,
    run_experiment,
    run_single_task,
    sweep,
)
from mtlbal.metrics import TRACE_COLUMNS, coefficient_spikiness, trace_to_text
from mtlbal.rng import NORMAL_BLOCK, SplitMix64, derive
from mtlbal.tasks import TaskSpec, generate_mtl, loss_and_grad, specs_to_text
from mtlbal.textio import fmt

# Small, fast settings shared by most tests here.
FAST = dict(n_samples=300, input_dim=4, iterations=30, batch_size=16, log_cadence=5)

DIVERGENT = ExperimentConfig(
    tasks=(TaskSpec("regression-mse", 1, 100.0, "boom"), TaskSpec("binary-bce", 1, 1.0, "ok")),
    balancer="baseline",
    optimizer="sgd",
    lr=1000.0,
    seed=1,
    **FAST,
)


# A finite but huge loss (about 1e120) that baseline and ema train through,
# while uw's weight exp(-s) underflows to zero after one step.
OVERFLOW = ExperimentConfig(
    tasks=(TaskSpec("regression-mse", 1, 1.0, "a"), TaskSpec("regression-mse", 1, 1e60, "huge")),
    balancer="baseline",
    seed=1,
    **FAST,
)


# Regression targets of about 1e140: the loss, scaled once more, is inf at
# the first step while the binary task's stays finite.
NONFINITE = ExperimentConfig(
    tasks=(TaskSpec("binary-bce", 1, 1.0, "ok"), TaskSpec("regression-mse", 1, 1e140, "inf")),
    balancer="baseline",
    seed=1,
    **FAST,
)

# One run in a fresh process; the config arrives on stdin.
RUN_ALONE = """
import sys
from mtlbal.harness import parse_config, result_to_json, run_experiment, run_single_task
from mtlbal.metrics import trace_to_text
config = parse_config(sys.stdin.read())
result = run_single_task(config, 0) if sys.argv[1] == "single" else run_experiment(config)
sys.stdout.write(trace_to_text(result.trace) + result_to_json(result))
"""


#: One list of wrong values, for every field and every argument checked.
WRONG = [None, True, 1.0, "1", np.int64(1), float("nan"), 10**400, [], object()]
WRONG_IDS = ["None", "True", "1.0", "str", "np.int64", "nan", "10**400", "list", "object"]


def fast_config(**kw):
    merged = {"scenario": "celeb-mini", "balancer": "ema", "seed": 3, **FAST, **kw}
    return ExperimentConfig(**merged)


class TestConfig:
    def test_validation_catches_bad_fields(self):
        for kw, match in [
            (dict(balancer="magic"), "balancer"),
            (dict(beta=0.0), "beta"),
            (dict(temperature=0.0), "temperature"),
            (dict(alpha=-1.0), "alpha"),
            (dict(optimizer="rmsprop"), "optimizer"),
            (dict(iterations=-1), "iterations"),
            (dict(log_cadence=0), "log_cadence|batch_size"),
            (dict(trunk=()), "trunk"),
            (dict(relatedness=2.0), "relatedness"),
            (dict(n_samples=79), "n_samples"),
            (dict(latent_dim=0), "latent_dim"),
            (dict(temperature=float("nan")), "temperature"),
            (dict(alpha=float("nan")), "alpha"),
            (dict(lr=float("nan")), "lr"),
            (dict(balancer_lr=float("nan")), "balancer_lr"),
            (dict(seed=-1), "seed"),
            (dict(seed=2**64), "seed"),
            (dict(scenario=None, tasks=(TaskSpec("multiclass-ce", 3, 1.0, "a"),) * 2), "task labels"),
            # An unnamed task i is labelled task<i>, so a name can shadow it.
            (dict(scenario=None, tasks=(TaskSpec("binary-bce", 1, 1.0, "task1"), TaskSpec("binary-bce"))),
             "task labels"),
        ]:
            with pytest.raises(ConfigError, match=match):
                fast_config(**kw)

    def test_seed_range_ends_are_valid(self):
        for seed in (0, 2**64 - 1):
            assert fast_config(seed=seed).seed == seed

    def test_scenario_xor_tasks(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(scenario=None, tasks=())
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(scenario="celeb-mini", tasks=(TaskSpec("binary-bce", 1, 1.0, "x"),))

    def test_unknown_scenario(self):
        message = "scenario must be one of ['celeb-mini', 'va-mini'], got 'celeb-maxi'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(scenario="celeb-maxi")

    TEXT = "a str with no line break or NUL and no blank at either end"

    # Each rule's message, one shape for every field: "{key} must be {wanted}, got {value!a}".
    @pytest.mark.parametrize("key, value, message", [
        ("iterations", -1, "iterations must be nonnegative, got -1"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("log_cadence", 0, "log_cadence must be >= 1, got 0"),
        ("trunk", (), "trunk must be one or more positive layer sizes, got ()"),
        ("trunk", (8, 0), "trunk must be one or more positive layer sizes, got (8, 0)"),
        ("head_hidden", (0,), "head_hidden must be positive layer sizes, got (0,)"),
        ("seed", 2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
        ("lr", float("nan"), "lr must be positive, got nan"),
        ("optimizer", "rmsprop", "optimizer must be one of ('adam', 'sgd'), got 'rmsprop'"),
        ("beta", 1.5, "beta must be in (0, 1], got 1.5"),
        ("dwema_mode", "caf\u00e9", "dwema_mode must be 'divide' or 'multiply', got 'caf\\xe9'"),
        # Text that would not read back from its config line, or a path with a NUL.
        ("name", " a", f"name must be {TEXT}, got ' a'"),
        ("name", "a\u2028", f"name must be {TEXT}, got 'a\\u2028'"),
        ("out_dir", "a\nb", f"out_dir must be {TEXT}, got 'a\\nb'"),
        ("out_dir", "a\0b", f"out_dir must be {TEXT}, got 'a\\x00b'"),
    ])
    def test_each_rule_words_its_message_in_one_shape(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            fast_config(**{key: value})
        assert str(info.value) == message

    def test_every_range_checked_field_has_one_rule(self):
        rules = mtlbal.harness._RULES
        assert list(rules) == [
            "seed", "balancer", "scenario", "beta", "temperature", "alpha", "balancer_lr",
            "dwema_mode", "lr", "optimizer", "iterations", "batch_size", "log_cadence", "trunk",
            "head_hidden", "out_dir", "name",
        ]
        for key, hyper in mtlbal.harness._BALANCER_FIELDS.items():
            assert rules[key] == HYPERPARAMETERS[hyper][1:]  # the balancers' own pair

    def test_a_replaced_field_is_checked(self):
        cfg = fast_config()
        for key, value in [("seed", -1), ("beta", 0.0), ("batch_size", 0), ("n_samples", 79),
                           ("trunk", (10**6, 10**6))]:
            with pytest.raises(ConfigError, match=key if key != "trunk" else "GiB cap"):
                dataclasses.replace(cfg, **{key: value})

    def test_builtin_scenarios_shape(self):
        celeb = SCENARIOS["celeb-mini"]
        assert len(celeb) == 8
        assert [s.loss_scale for s in celeb] == [1.0] * 7 + [50.0]
        va = SCENARIOS["va-mini"]
        assert [s.kind for s in va] == ["multiclass-ce", "regression-mse", "regression-mse"]
        assert [s.loss_scale for s in va] == [1.0, 1.0, 20.0]

    def test_parse_rejects_unknown_and_duplicate_keys(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("scenario = celeb-mini\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scenario = celeb-mini\nscenario = va-mini\n")

    def test_parse_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("scenario = celeb-mini\niterations = soon\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("scenario celeb-mini\n")
        with pytest.raises(ConfigError, match="trunk"):
            parse_config("scenario = celeb-mini\ntrunk = \n")

    def test_echo_roundtrip(self):
        cfg = fast_config(balancer="dwema", beta=0.25, temperature=1.5, name="trial")
        assert parse_config(config_to_text(cfg)) == cfg
        inline = ExperimentConfig(
            tasks=(TaskSpec("regression-mse", 2, 3.5, "r"), TaskSpec("multiclass-ce", 5, 1.0, "c")),
            head_hidden=(),
        )
        assert parse_config(config_to_text(inline)) == inline

    def test_lines_end_at_newline_alone(self):
        # str.splitlines also breaks at \x0c, \x85 and \u2028, so a comment
        # holding one would end there.
        text = "# a\x0cb\x85c\u2028scenario = va-mini\nscenario = celeb-mini\r\n"
        assert parse_config(text).scenario == "celeb-mini"

    # Names holding a character that str.splitlines breaks at: \x85, \x0c, \u2028.
    @pytest.mark.parametrize("name", ["a\x85b", "a\x0cb", "a\u2028b", "caf\u00e9", "a b", "a=b"])
    def test_task_names_are_printable_ascii(self, name):
        with pytest.raises(ValueError, match="printable ASCII"):
            TaskSpec("binary-bce", 1, 1.0, name)
        with pytest.raises(ConfigError, match="printable ASCII"):
            parse_config(f"tasks = binary-bce:1:1:{name}; binary-bce:1:1:b\n")

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(st.tuples(
        st.sampled_from(["regression-mse", "binary-bce", "multiclass-ce"]),
        st.integers(1, 4),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.one_of(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)), st.text()),
    ), min_size=1, max_size=3))
    @example(specs=[("binary-bce", 1, 1.0, "a\x85b")])
    @example(specs=[("regression-mse", 2, 3.0, "a\x0cb"), ("binary-bce", 1, 1.0, "")])
    @example(specs=[("multiclass-ce", 3, 0.5, "a\u2028b")])
    def test_every_task_spec_tuple_round_trips(self, specs):
        """Every tuple of TaskSpecs that constructs, and that a config
        accepts, parses back from its `config_to_text`."""
        try:
            tasks = tuple(TaskSpec(*spec) for spec in specs)
        except ValueError:
            return
        try:
            cfg = fast_config(scenario=None, tasks=tasks)
        except ConfigError:  # duplicate task labels
            text = config_to_text(fast_config()).replace(
                "scenario = celeb-mini", f"tasks = {specs_to_text(tasks)}"
            )
            with pytest.raises(ConfigError, match="task labels must be unique"):
                parse_config(text)
            return
        assert parse_config(config_to_text(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_config_raises_only_config_error(self, data):
        cfg = fast_config(tasks=(TaskSpec("binary-bce", 1, 2.0, "b"), TaskSpec("multiclass-ce", 3)),
                          scenario=None, latent_dim=3, name="n")
        lines = config_to_text(cfg).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["drop", "duplicate", "value", "line", "cut"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "value":
            # At most three characters, so that a config that parses stays small.
            value = data.draw(st.one_of(
                st.sampled_from(["nan", "inf", "-inf", "1e400", "", "1,2", "0.5"]),
                st.integers(-2, 40).map(str),
                st.text(alphabet="0123456789.-e,:;nai xbr", max_size=3),
            ))
            lines[i] = lines[i].split(" = ")[0] + " = " + value
        elif action == "line":
            lines[i] = data.draw(st.text(alphabet="abn_=:;,.-0123456789 #", max_size=16))
        else:
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        try:
            parsed = parse_config("\n".join(lines) + "\n")
        except ConfigError:
            return
        # A config that validates can be set up: data and parameters.
        specs = parsed.resolved_tasks()
        generate_mtl(**parsed.data_settings())
        network.init_params(parsed.seed, parsed.input_dim, parsed.trunk, parsed.head_hidden, specs)

    #: A value of any kind a caller might put in a field.
    ANY_VALUE = st.one_of(
        st.sampled_from(WRONG), st.integers(), st.floats(), st.booleans(), st.text(max_size=3),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
    )
    #: Every config field and a task's width.
    FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["output_dim"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_field_of_any_type_is_rejected_or_round_trips(self, data):
        """A config is made, and then reads back from its text, or it is a
        ConfigError; no other exception escapes."""
        keys = data.draw(st.lists(st.sampled_from(self.FIELDS), min_size=1, max_size=3, unique=True))
        values = {
            key: data.draw(st.one_of(self.ANY_VALUE, st.lists(self.ANY_VALUE, max_size=2).map(tuple)))
            if key in ("tasks", "trunk", "head_hidden") else data.draw(self.ANY_VALUE)
            for key in keys
        }
        if "output_dim" in values:
            try:
                spec = TaskSpec("multiclass-ce", values.pop("output_dim"))
            except ValueError as exc:
                assert "output_dim" in str(exc)
                return
            values.update(scenario=None, tasks=(spec, TaskSpec("binary-bce")))
        try:
            cfg = fast_config(**values)
        except ConfigError:
            return
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("key", FIELDS[:-1])
    @pytest.mark.parametrize("value", WRONG, ids=WRONG_IDS)
    def test_each_wrong_value_in_each_field_is_rejected_or_round_trips(self, key, value):
        try:
            cfg = fast_config(**{key: value})
        except ConfigError as exc:
            # The field's own rule, or a rule that reads it: the cap or scenario xor tasks.
            assert re.match(f"{key} must be |a run would hold|exactly one of 'scenario'", str(exc)), exc
            return
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("key, value", [
        ("iterations", 3.0), ("n_samples", 800.0), ("batch_size", 8.0), ("seed", 1.5),
        ("seed", True), ("log_cadence", 2.5), ("trunk", (8.5,)), ("trunk", [8]), ("lr", "0.1"),
        ("lr", 2**60), ("latent_dim", 2.5), ("name", 5),
    ])
    def test_a_value_of_the_wrong_type_is_a_config_error_naming_its_field(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            fast_config(**{key: value})

    def test_a_task_width_must_be_an_integer(self):
        for width in (3.5, True, "3"):
            with pytest.raises(ValueError, match="output_dim must be a positive integer"):
                TaskSpec("multiclass-ce", width)

    def test_numpy_integers_are_read_as_ints(self):
        cfg = fast_config(n_samples=np.int64(800), trunk=(np.int64(8),), seed=np.uint64(7))
        assert (type(cfg.n_samples), type(cfg.trunk[0]), type(cfg.seed)) == (int, int, int)
        # A numpy integer's products would overflow in the memory estimate.
        with pytest.raises(ConfigError, match="GiB cap"):
            fast_config(n_samples=np.int64(2**62), trunk=(np.int64(8),), seed=np.uint64(7))
        assert fast_config(lr=1).lr == 1.0 and type(fast_config(lr=1).lr) is float

    def test_numbers_read_as_they_did_in_ascii(self):
        for text, value in [("1e400", math.inf), ("+1.5E-3", 0.0015), (".5", 0.5), ("5.", 5.0),
                            ("Infinity", math.inf), ("64", 64.0)]:
            assert parse_config(f"scenario = celeb-mini\nlr = {text}\n").lr == value
        assert mtlbal.textio.parse_float("-inf") == -math.inf
        assert math.isnan(mtlbal.textio.parse_float("nan"))
        assert parse_config("scenario = celeb-mini\ntrunk = 64, 32,\nseed = +7\n").trunk == (64, 32)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(max_size=8), st.text("0123456789+-._eEinfatyINFATY \t", max_size=8)),
           x=st.floats())
    def test_number_grammar_is_float_and_int_in_ascii(self, text, x):
        """What the grammar reads, float() and int() read alike; all it
        rejects is text they reject or text with `_` or a non-ASCII character.
        Every float reads back from `fmt`."""
        textio = mtlbal.textio
        assert textio.parse_float(fmt(x)) == x or math.isnan(x)
        for parse, builtin in ((textio.parse_float, float), (textio.parse_int, int)):
            try:
                got = parse(text)
            except ValueError as exc:
                assert str(exc).endswith(repr(text))
                try:
                    builtin(text)
                except ValueError:
                    continue
                assert "_" in text or not text.isascii() or text.strip(" \t") != text.strip()
                continue
            assert text.isascii() and "_" not in text
            assert got == builtin(text) or math.isnan(got)

    def test_parse_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nscenario = va-mini\nbalancer = dwa\n")
        assert cfg.scenario == "va-mini"
        assert cfg.balancer == "dwa"


#: A one-task net of width at most 4, whose dataset and batch draws outweigh
#: its activations.
NARROW = dict(scenario=None, tasks=(TaskSpec("regression-mse", 1, 1.0, "r"),),
              input_dim=3, trunk=(4,), head_hidden=(2,))


class TestMemoryCap:
    """A config whose estimated bytes pass MEMORY_CAP is a ConfigError that
    names the largest term; the check reads the config only and allocates
    nothing."""

    @staticmethod
    def validates(**fields) -> bool:
        try:
            ExperimentConfig(**fields)
        except ConfigError as exc:
            assert "GiB cap" in str(exc)
            return False
        return True

    @pytest.mark.parametrize("term, base, field", [
        ("parameters", dict(scenario="celeb-mini"), lambda v: dict(trunk=(v, v))),
        ("dataset", NARROW, lambda v: dict(n_samples=v)),
        ("batch draws", NARROW, lambda v: dict(batch_size=v)),
        ("activations", dict(scenario="celeb-mini"), lambda v: dict(batch_size=v)),
    ])
    def test_each_term_at_and_beyond_the_cap(self, term, base, field):
        lo, hi = 10, 2**50  # the largest size that validates lies in [lo, hi)
        assert self.validates(**base, **field(lo)) and not self.validates(**base, **field(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.validates(**base, **field(mid)) else (lo, mid)
        at = ExperimentConfig(**base, **field(lo)).memory_estimate()
        assert sum(at.values()) <= MEMORY_CAP and max(at, key=at.get) == term
        # Beyond the cap there is no config, and the error names the largest term.
        with pytest.raises(ConfigError, match=f"GiB cap; the largest term is the {term} "):
            ExperimentConfig(**base, **field(hi))

    def test_estimate_allocates_nothing(self):
        tracemalloc.start()
        try:
            for kw in (dict(trunk=(200000, 200000)), dict(n_samples=2 * 10**9),
                       dict(batch_size=10**8, n_samples=1000)):
                assert not self.validates(scenario="celeb-mini", **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_estimate_by_hand_for_celeb_mini(self):
        # 8 tasks; trunk 32 -> 64 -> 64; heads 64 -> 32 -> 1; 1600 test rows,
        # evaluated in blocks of 256 rows, the last 320. Per sample,
        # generation holds at most the latents (32) and noise (1) beside a
        # pre-activation and its temporary (1 each); later the widest task
        # without latents (3), or the packed draws and one list of Python
        # ints (1 + 5).
        est = ExperimentConfig(scenario="celeb-mini").memory_estimate()
        trunk, head = 33 * 64 + 65 * 64, 65 * 32 + 33
        assert est["parameters"] == 32 * (8 * trunk + 8 * head)
        generation = 8000 * (32 + 1 + 2) + 32 * (32 + 1 + 8)
        assert est["dataset"] == 8 * (8000 * (32 + 8) + generation)
        assert est["batch draws"] == 8 * 64 * 64
        assert est["activations"] == 8 * (
            (64 + 320) * (32 + 8 * 128 + 8 * 33) + 1600 * (8 + 8 * 8)
        )

    @pytest.mark.parametrize("data", [
        dict(scenario="celeb-mini"),
        dict(scenario="va-mini"),
        dict(tasks=tuple(TaskSpec("multiclass-ce", 40, 1.0, f"c{i}") for i in range(3))),
    ], ids=["celeb-mini", "va-mini", "three-ce40"])
    def test_estimate_bounds_the_traced_peak_of_a_run(self, data):
        # Generation alone is bounded by the dataset term. A run, the
        # multi-task one or the reference stack's that the estimate models,
        # is bounded by the sum.
        config = ExperimentConfig(**data, n_samples=64000, iterations=5)
        estimate = config.memory_estimate()
        settings, tasks = config.data_settings(), range(len(config.resolved_tasks()))
        peaks = []
        for work in (
            lambda: generate_mtl(**settings),
            lambda: run_experiment(config),
            lambda: mtlbal.harness._reference_run(config, generate_mtl(**settings), tasks),
        ):
            tracemalloc.start()
            try:
                work()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= estimate["dataset"]
        assert max(peaks[1:]) <= sum(estimate.values())

    @pytest.mark.parametrize("trunk", [(5,), (7, 3)])
    @pytest.mark.parametrize("head_hidden", [(), (4,), (6, 2)])
    @pytest.mark.parametrize("tasks", [
        dict(scenario="celeb-mini"),
        dict(scenario="va-mini"),
        dict(tasks=(TaskSpec("multiclass-ce", 3), TaskSpec("regression-mse", 2))),
    ])
    def test_parameters_term_counts_the_reference_stack(self, trunk, head_hidden, tasks):
        config = ExperimentConfig(**tasks, trunk=trunk, head_hidden=head_hidden, input_dim=6)
        specs = config.resolved_tasks()
        full = network.init_params(1, config.input_dim, trunk, head_hidden, specs)
        stack = full.unshared(range(len(specs)))
        assert config.memory_estimate()["parameters"] == 4 * 8 * stack.n_parameters()

    def test_readme_states_the_default_sums_and_the_largest_sizes(self):
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        sums, largest = [], []
        for name in ("celeb-mini", "va-mini"):
            terms = {k: v / 2**20 for k, v in ExperimentConfig(scenario=name).memory_estimate().items()}
            parts = [f"{terms['parameters']:.1f}", f"{terms['dataset']:.1f}",
                     f"{terms['batch draws']:.2f}", f"{terms['activations']:.1f}"]
            sums.append((f"{sum(terms.values()):.1f}", parts))
            lo, hi = 80, 2**40  # the largest n_samples that validates lies in [lo, hi)
            assert self.validates(scenario=name, n_samples=lo)
            assert not self.validates(scenario=name, n_samples=hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                ok = self.validates(scenario=name, n_samples=mid)
                lo, hi = (mid, hi) if ok else (lo, mid)
            largest.append(lo)
        (celeb, (p, d, b, a)), (va, va_parts) = sums
        assert (
            f"At the defaults they sum to {celeb} MiB for celeb-mini ({p} parameters, {d} "
            f"dataset, {b} batch draws, {a} activations) and {va} MiB for va-mini "
            f"({', '.join(va_parts)})."
        ) in readme
        assert (
            f"accepts at otherwise default settings is {largest[0]:,} for celeb-mini and "
            f"{largest[1]:,} for va-mini."
        ) in readme

    def test_scenario_defaults_are_far_below_the_cap(self):
        for name in SCENARIOS:
            assert sum(ExperimentConfig(scenario=name).memory_estimate().values()) < MEMORY_CAP / 50


BALANCER_CLASSES = [type(make_balancer(name)) for name in BALANCER_NAMES]


class TestBalancerRulesHaveOneHome:
    """The config accepts a balancer setting exactly when the balancer does,
    and its defaults are the ones the balancers declare."""

    def test_every_declared_hyperparameter_has_a_config_field(self):
        declared = {name for cls in BALANCER_CLASSES for name in cls.hyper}
        assert set(mtlbal.harness._BALANCER_FIELDS.values()) == declared

    @pytest.mark.parametrize("key", sorted(mtlbal.harness._BALANCER_FIELDS))
    def test_config_rejects_exactly_what_the_balancer_rejects(self, key):
        hyper = mtlbal.harness._BALANCER_FIELDS[key]
        classes = [cls for cls in BALANCER_CLASSES if hyper in cls.hyper]
        if key == "dwema_mode":
            grid = ["divide", "multiply", "", "Divide", "divide ", 0.5]
        else:
            tiny = 5e-324
            grid = [float("nan"), 0.0, -0.0, tiny, -tiny, 0.5, 1.0, 1.0 + 2**-52, -1.0, 2.0,
                    1e300, float("inf"), float("-inf")]
        for value in grid:
            try:
                fast_config(**{key: value})
                config_rejects = False
            except ConfigError as exc:
                assert key in str(exc)
                config_rejects = True
            for cls in classes:
                try:
                    cls(**{hyper: value})
                    class_rejects = False
                except ValueError:
                    class_rejects = True
                assert config_rejects == class_rejects, (key, value, cls.__name__)

    @pytest.mark.parametrize("key", sorted(mtlbal.harness._BALANCER_FIELDS))
    def test_config_defaults_are_the_declared_defaults(self, key):
        hyper = mtlbal.harness._BALANCER_FIELDS[key]
        assert getattr(ExperimentConfig(scenario="celeb-mini"), key) == HYPERPARAMETERS[hyper].default


class TestDataRulesHaveOneHome:
    """The config accepts a data setting exactly when `generate_mtl` does, and
    its data settings resolve latent_dim."""

    @staticmethod
    def generation_args(**fields):
        cfg = {**dataclasses.asdict(fast_config()), **fields}
        return dict(seed=cfg["seed"], input_dim=cfg["input_dim"], n_samples=cfg["n_samples"],
                    specs=SCENARIOS[cfg["scenario"]], relatedness=cfg["relatedness"],
                    latent_dim=cfg["latent_dim"])

    @pytest.mark.parametrize("key, grid", [
        ("input_dim", [1, 2]),
        ("n_samples", [80, 79]),  # celeb-mini's floor of 10 per task, and one below
        ("latent_dim", [None, 0, 1]),
        ("relatedness", [-0.0, 0.0, 1.0, 1.0 + 2**-52, float("nan"), float("inf"),
                         float("-inf")]),
    ])
    def test_config_rejects_exactly_what_generation_rejects(self, key, grid):
        for value in grid:
            try:
                fast_config(**{key: value})
                config_rejects = False
            except ConfigError as exc:
                assert key in str(exc), (key, value)
                config_rejects = True
            try:
                generate_mtl(**self.generation_args(**{key: value}))
                generation_rejects = False
            except ValueError as exc:
                assert key in str(exc), (key, value)
                generation_rejects = True
            assert config_rejects == generation_rejects, (key, value)

    def test_default_latent_dim_is_input_dim(self):
        cfg = fast_config(iterations=0)
        assert cfg.latent_dim is None
        assert cfg.data_settings()["latent_dim"] == cfg.input_dim
        data = generate_mtl(**self.generation_args(latent_dim=cfg.input_dim))
        resolved = generate_mtl(**cfg.data_settings())
        for got, want in zip([data.inputs, *data.targets], [resolved.inputs, *resolved.targets]):
            assert np.array_equal(got, want)


class TestRunExperiment:
    def test_zero_iterations_gives_initial_metrics_and_empty_trace(self):
        res = run_experiment(fast_config(iterations=0))
        assert len(res.trace) == 0
        assert len(res.task_results) == 8
        assert np.isfinite(res.composite)

    def test_trace_length_matches_cadence(self):
        res = run_experiment(fast_config(iterations=30, log_cadence=5))
        # rows at 0,5,...,25 plus the final iteration 29
        assert [r["iteration"] for r in res.trace.rows] == [0, 5, 10, 15, 20, 25, 29]

    def test_bitwise_deterministic(self):
        a = run_experiment(fast_config())
        b = run_experiment(fast_config())
        assert trace_to_text(a.trace) == trace_to_text(b.trace)
        assert a.composite == b.composite
        assert result_to_json(a) == result_to_json(b)

    def test_first_iteration_losses_identical_across_balancers(self):
        # Weights cannot affect the first forward pass.
        rows = {}
        for method in ("baseline", "ema", "dwa", "uw", "gradnorm"):
            res = run_experiment(fast_config(balancer=method, iterations=1, log_cadence=1))
            rows[method] = res.trace.rows[0]["loss_{}"]
        base = rows.pop("baseline")
        for method, losses in rows.items():
            assert np.array_equal(base, losses), method

    def test_all_balancers_run_and_weights_positive(self):
        for method in ("baseline", "ema", "rema", "dwema", "dwa", "uw", "gradnorm"):
            res = run_experiment(fast_config(balancer=method, iterations=12))
            weights = np.array([r["weight_{}"] for r in res.trace.rows])
            assert np.all(weights > 0), method

    def test_numerical_abort_carries_iteration_and_snapshot(self):
        with pytest.raises(NumericalAbort) as info:
            run_experiment(DIVERGENT)
        assert info.value.iteration >= 0
        assert info.value.balancer_snapshot.startswith("balancer-state v1")

    def test_non_finite_loss_abort_names_the_task(self):
        with pytest.raises(NumericalAbort) as info:
            run_experiment(NONFINITE)
        assert info.value.iteration == 0
        assert "loss for task 1 is not finite" in str(info.value)

    def test_malformed_forward_is_not_a_numerical_abort(self):
        # Parameters built for the wrong input width are a caller's bug: the
        # forward pass's ValueError must surface as it is, not as divergence.
        cfg = fast_config(iterations=2)
        specs = cfg.resolved_tasks()
        params = network.init_params(cfg.seed, cfg.input_dim + 1, cfg.trunk, cfg.head_hidden, specs)
        data = generate_mtl(**cfg.data_settings())
        with pytest.raises(ValueError, match="do not match input_dim"):
            mtlbal.harness._train(cfg, data, params, mtlbal.harness._make_balancer(cfg))

    def test_symmetric_tasks_end_within_factor_two(self):
        tasks = tuple(TaskSpec("binary-bce", 1, 1.0, f"s{i}") for i in range(4))
        cfg = ExperimentConfig(
            tasks=tasks, balancer="baseline", seed=5, n_samples=2000, input_dim=8,
            iterations=800, batch_size=64, log_cadence=100, relatedness=0.5,
        )
        res = run_experiment(cfg)
        losses = np.array([t.test_loss for t in res.task_results])
        assert losses.max() / losses.min() < 2.0


class TestBaselineEquivalence:
    def test_converged_ema_total_equals_task_count_on_frozen_losses(self):
        # Frozen-parameter dry run: the loss stream is constant, so each
        # weighted summand is 1 and the total is K.
        state = EmaState(beta=0.1)
        frozen = LossVector(np.array([0.8, 12.0, 3.3]), 0)
        for t in range(40):
            w = ema_update(state, frozen)
            assert combine(w, frozen) == pytest.approx(3.0, abs=1e-9)


def fresh_buffer_losses(config, data, params, balancer):
    """Each step's losses from a loop that draws one batch per call, the
    reference for `_train`'s block of batch draws."""
    stream = SplitMix64(derive(config.seed, mtlbal.harness.BATCH_STREAM_TAG))
    moments = network.init_moments(params)
    k, out = len(data.specs), []
    for t in range(config.iterations):
        batch = data.batch(data.train_index[stream.below(data.train_index.size, config.batch_size)])
        step = network.HeadPass(params, batch)
        norms = None
        if balancer.requires_grad_norms:
            norms = network.shared_layer_grad_norms(params, batch, balancer.coefficients(k), step)
        weights = balancer.step(LossVector(step.losses, iteration=t), norms)
        _, grads = network.backward(params, batch, weights.values, step)
        network.adam_step(params, grads, moments, t + 1, config.lr)
        out.append(step.losses)
    return out


def setup_run(config):
    specs = config.resolved_tasks()
    data = generate_mtl(**config.data_settings())
    params = network.init_params(config.seed, config.input_dim, config.trunk, config.head_hidden, specs)
    return data, params, mtlbal.harness._make_balancer(config)


class TestStepBuffers:
    """`_train` draws its batches in blocks yet follows the per-step draws
    bit for bit, and no two arrays it keeps (trace rows, balancer history)
    share memory."""

    @pytest.mark.parametrize("balancer", ["ema", "gradnorm", "baseline"])
    def test_logged_rows_hold_copies_equal_to_fresh_buffers(self, balancer):
        # 70 steps cross a block of batch draws (64 steps).
        config = fast_config(balancer=balancer, iterations=70, log_cadence=1)
        data, params, bal = setup_run(config)
        rows = mtlbal.harness._train(config, data, params, bal).rows
        _, ref_params, ref_bal = setup_run(config)
        expected = fresh_buffer_losses(config, data, ref_params, ref_bal)
        assert len(rows) == len(expected) == 70
        for row, want in zip(rows, expected):
            assert np.array_equal(row["loss_{}"], want)
        assert np.array_equal(params.vector, ref_params.vector)
        arrays = [r[name] for r in rows for name in ("loss_{}", "weight_{}", "rate_{}")]
        if balancer == "ema":
            arrays += bal.history
            assert np.array_equal(bal.history[-1], rows[-1]["loss_{}"])
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
        for a, b in zip(rows, rows[1:]):
            assert not np.array_equal(a["loss_{}"], b["loss_{}"])

    def test_back_to_back_runs_match_runs_alone(self):
        one_head = fast_config(balancer="baseline")
        va = ExperimentConfig(scenario="va-mini", balancer="gradnorm", seed=4, **FAST)
        together = [run_single_task(one_head, 0), run_experiment(va)]
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        for result, mode in zip(together, ["single", "run"]):
            alone = subprocess.run(
                [sys.executable, "-c", RUN_ALONE, mode],
                input=config_to_text(result.config), capture_output=True, text=True,
                env=env, timeout=120, check=True,
            ).stdout
            assert trace_to_text(result.trace) + result_to_json(result) == alone


class TestEvaluation:
    """`evaluate_model` runs the test split forward in blocks of EVAL_BLOCK
    rows, the remainder joined to the last block, and reads test losses from
    the grouped loss call. Each equals the one-task loss on a forward over
    the whole split bit for bit, and every result equals a one-block run's."""

    MIXED = (
        TaskSpec("regression-mse", 2, 3.0), TaskSpec("binary-bce"),
        TaskSpec("multiclass-ce", 4), TaskSpec("binary-bce", 1, 2.5),
    )

    # Test splits under one block, of one block, one block plus a row, and
    # several blocks plus a remainder.
    @pytest.mark.parametrize("n_test", [60, 256, 257, 3 * 256 + 50])
    @pytest.mark.parametrize("tasks, trunk_less", [
        (dict(scenario="celeb-mini"), False), (dict(scenario="va-mini"), False),
        (dict(tasks=MIXED), False), (dict(scenario="celeb-mini"), True),
    ])
    def test_test_losses_equal_per_task_losses(self, tasks, trunk_less, n_test, monkeypatch):
        fast = {**FAST, "n_samples": 5 * n_test}
        config = ExperimentConfig(balancer="ema", seed=2, **tasks, **fast)
        data, params, balancer = setup_run(config)
        assert data.test_index.size == n_test
        if trunk_less:  # the single-task references as one model
            params, balancer = params.unshared(range(params.n_tasks)), make_balancer("baseline")
        mtlbal.harness._train(config, data, params, balancer)
        forward, rows = network.forward_cache, []
        monkeypatch.setattr(network, "forward_cache", lambda p, x: rows.append(len(x)) or forward(p, x))
        results, composite = mtlbal.harness.evaluate_model(params, data)
        block = mtlbal.harness.EVAL_BLOCK
        assert sum(rows) == n_test and len(rows) == max(n_test // block, 1)
        assert rows[:-1] == [block] * (len(rows) - 1) and rows[-1] >= min(block, n_test)
        monkeypatch.setattr(network, "forward_cache", forward)

        outputs = forward(params, data.inputs[data.test_index]).outputs
        assert [r.name for r in results] == list(mtlbal.harness.task_names(data.specs))
        for k, (spec, result) in enumerate(zip(data.specs, results)):
            target = data.targets[k][data.test_index]
            want = loss_and_grad(spec.kind, outputs[k], target, spec.loss_scale)[0]
            assert type(result.test_loss) is float
            assert result.test_loss == want, (k, result.test_loss, want)
        monkeypatch.setattr(mtlbal.harness, "EVAL_BLOCK", n_test)
        assert mtlbal.harness.evaluate_model(params, data) == (results, composite)
        monkeypatch.undo()
        if trunk_less:
            joint = mtlbal.harness._reference_run(config, data, range(len(data.specs)))
            assert (joint.task_results, joint.composite) == (results, composite)
            for k, result in enumerate(results):
                assert run_single_task(config, k).task_results == [result]
        else:
            ran = run_experiment(config)
            assert (ran.task_results, ran.composite) == (results, composite)


class TestSingleTask:
    def test_single_task_on_k1_equals_baseline_run(self):
        cfg = ExperimentConfig(
            tasks=(TaskSpec("binary-bce", 1, 1.0, "solo"),),
            balancer="baseline",
            seed=9,
            **FAST,
        )
        a = run_experiment(cfg)
        b = run_single_task(cfg, 0)
        assert a.composite == b.composite
        assert trace_to_text(a.trace) == trace_to_text(b.trace)

    # Only an integer is an index: True is not task 1, and 1.0 or "1" is no TypeError.
    @pytest.mark.parametrize("index", [8, -1, 1.0, "1", True, None, np.float64(1.0)],
                             ids=["8", "-1", "float", "str", "True", "None", "np.float64"])
    def test_task_index_validated(self, index):
        message = f"task index {ascii(index)} out of range for 8 tasks"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_single_task(fast_config(), index)

    def test_numpy_integer_index_is_an_index(self):
        cfg = fast_config(iterations=2)
        assert run_single_task(cfg, np.int64(1)).task_results == run_single_task(cfg, 1).task_results

    def test_deterministic(self):
        a = run_single_task(fast_config(), 2)
        b = run_single_task(fast_config(), 2)
        assert a.task_results[0].test_loss == b.task_results[0].test_loss


def assert_records_match_independent_runs(report, configs, dominant):
    """Each record equals one built from a run and from separate single-task
    runs of the same seed, `dominant` being the task the spread leaves out."""
    for rec, cfg in zip(report.rows, [c for c in configs for _ in range(2)]):
        seed_cfg = dataclasses.replace(cfg, seed=rec.seed)
        result = run_experiment(seed_cfg)
        n_tasks = len(seed_cfg.resolved_tasks())
        refs = [run_single_task(seed_cfg, k).task_results[0].test_loss for k in range(n_tasks)]
        losses = np.array([t.test_loss for t in result.task_results])
        norm = losses / np.maximum(np.array(refs), EPS_FLOOR)
        assert rec == RunRecord(
            method=cfg.label,
            seed=rec.seed,
            status="ok",
            composite=result.composite,
            task_metrics=[t.metric for t in result.task_results],
            test_losses=losses.tolist(),
            norm_spread=float(norm.max() / max(norm.min(), EPS_FLOOR)),
            dominated_norm_loss=float(np.delete(norm, dominant).max()),
            spikiness=coefficient_spikiness(result.trace.weight_means()),
        )


class TestCompare:
    def test_single_cell_matches_run_experiment(self):
        cfg = fast_config(balancer="ema")
        report = compare([cfg], [3], normalized_spread=False)
        direct = run_experiment(dataclasses.replace(cfg, seed=3))
        rec = report.rows[0]
        assert rec.status == "ok"
        assert rec.composite == direct.composite
        summary = report.summary("ema")
        assert summary.composite_mean == direct.composite
        assert summary.composite_std == 0.0
        assert summary.wins == 1

    def test_identical_configs_under_names_tie(self):
        cfg = fast_config()
        a = dataclasses.replace(cfg, name="left")
        b = dataclasses.replace(cfg, name="right")
        report = compare([a, b], [1, 2], normalized_spread=False)
        sa, sb = report.summary("left"), report.summary("right")
        assert sa.composite_mean == sb.composite_mean
        assert sa.wins == sb.wins == 2  # ties award both

    def test_duplicate_labels_rejected(self):
        cfg = fast_config()
        with pytest.raises(ConfigError, match="unique"):
            compare([cfg, cfg], [1])

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            compare([fast_config()], [1, 2, 1], normalized_spread=False)

    # Each seed is checked by the config rule, as the seed's config is made.
    @pytest.mark.parametrize("seed, wanted", [
        (-1, "in [0, 2**64)"), (2**64, "in [0, 2**64)"), (1.5, "int"), (True, "int"), ("1", "int"),
    ])
    def test_seed_out_of_range_rejected(self, seed, wanted):
        message = f"seed must be {wanted}, got {ascii(seed)}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            compare([fast_config()], [2, seed], normalized_spread=False)

    def test_numpy_integer_seeds_are_seeds(self):
        cfg = fast_config(iterations=2)
        report = compare([cfg], np.array([4, 5]), normalized_spread=False, jobs=1)
        assert [type(r.seed) for r in report.rows] == [int, int]
        serial = compare([cfg], [4, 5], normalized_spread=False, jobs=1)
        assert report.to_table_text() == serial.to_table_text()

    # Not a list, or a list of the wrong items: "12" is not the seeds "1" and "2".
    @pytest.mark.parametrize("configs, seeds, message", [
        ([0], None, "seeds must be an iterable other than a str, got None"),
        ([0], "12", "seeds must be an iterable other than a str, got '12'"),
        ([0], b"12", "seeds must be an iterable other than a str, got b'12'"),
        ([0], 1, "seeds must be an iterable other than a str, got 1"),
        ([None], [1], "configs must hold ExperimentConfig items, got None"),
        ("ab", [1], "configs must be an iterable other than a str, got 'ab'"),
        (None, [1], "configs must be an iterable other than a str, got None"),
        ([0, "ema"], [1], "configs must hold ExperimentConfig items, got 'ema'"),
    ])
    def test_lists_that_are_not_lists_rejected(self, configs, seeds, message):
        if isinstance(configs, list):  # 0 stands for a valid config
            configs = [fast_config() if c == 0 else c for c in configs]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            compare(configs, seeds, normalized_spread=False, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -1, -2, 1.5, "2", True])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs must be an integer >= 1"):
            compare([fast_config()], [1], normalized_spread=False, jobs=jobs)

    def test_non_balancer_difference_rejected(self):
        a = fast_config(balancer="ema")
        b = dataclasses.replace(fast_config(balancer="dwa"), batch_size=8)
        with pytest.raises(ConfigError, match="batch_size"):
            compare([a, b], [1])

    def test_failed_run_policy_reports_and_continues(self):
        a = dataclasses.replace(DIVERGENT, name="explodes")
        b = dataclasses.replace(DIVERGENT, balancer="ema", name="ema")
        report = compare([a, b], [1, 2], normalized_spread=False)
        assert len(report.rows) == 4
        statuses = {(r.method, r.seed): r.status for r in report.rows}
        assert statuses[("explodes", 1)] == "failed"
        failed = report.summary("explodes")
        assert failed.n_failed >= 1
        text = report.to_table_text()
        assert text.count("\n") == 3  # header + one row per method

    def test_balancer_error_marks_run_failed_and_others_complete(self):
        methods = [dataclasses.replace(OVERFLOW, balancer=m, name=m) for m in ("baseline", "uw", "ema")]
        report = compare(methods, [1, 2], normalized_spread=True)
        for rec in report.rows:
            if rec.method == "uw":
                assert rec.status == "failed"
                assert "task 1" in rec.error and "strictly positive" in rec.error
            else:
                assert rec.status == "ok"

    def test_per_seed_dataset_reuse_matches_independent_runs(self, monkeypatch):
        generated = []
        real_generate = mtlbal.harness.generate_mtl

        def counting(**kw):
            generated.append(kw["seed"])
            return real_generate(**kw)

        monkeypatch.setattr(mtlbal.harness, "generate_mtl", counting)
        configs = [fast_config(balancer=m, name=m) for m in ("baseline", "ema")]
        report = compare(configs, [3, 4], normalized_spread=True, jobs=1)
        assert generated == [3, 4]
        assert [(r.method, r.seed) for r in report.rows] == [
            ("baseline", 3), ("baseline", 4), ("ema", 3), ("ema", 4)
        ]
        assert_records_match_independent_runs(report, configs, dominant=7)

    # The dominant task is va-mini's x20 one and celeb-mini's x50 one. A
    # seed's references form two groups on va-mini and one on celeb-mini.
    @pytest.mark.parametrize("scenario,optimizer,dominant", [
        ("va-mini", "adam", 2), ("celeb-mini", "sgd", 7),
    ])
    def test_references_match_independent_runs(self, scenario, optimizer, dominant):
        configs = [
            fast_config(scenario=scenario, optimizer=optimizer, balancer=m, name=m)
            for m in ("baseline", "ema")
        ]
        report = compare(configs, [3, 4], normalized_spread=True)
        assert_records_match_independent_runs(report, configs, dominant)

    def test_reference_abort_disables_spread_but_proceeds(self):
        # Only the first task's reference diverges, and at the same step
        # whether it trains alone or beside the other; ema trains through.
        a = dataclasses.replace(DIVERGENT, name="x")
        b = dataclasses.replace(DIVERGENT, balancer="ema", name="ema")
        with pytest.raises(NumericalAbort) as alone:
            run_single_task(DIVERGENT, 0)
        run_single_task(DIVERGENT, 1)
        data = generate_mtl(**DIVERGENT.data_settings())
        with pytest.raises(NumericalAbort) as joint:
            mtlbal.harness._reference_run(DIVERGENT, data, [0, 1])
        assert joint.value.iteration == alone.value.iteration
        assert str(joint.value) == str(alone.value)
        report = compare([a, b], [1], normalized_spread=True)
        assert report.rows[0].status == "failed"
        assert report.rows[1].status == "ok" and report.rows[1].norm_spread is None
        assert report.summary("x").norm_spread_median is None
        assert report.summary("ema").norm_spread_median is None
        assert "x,1,1," in report.to_table_text()

    def test_references_whose_losses_sum_past_the_float_range_are_kept(self):
        # Each reference's loss is finite, about 1e308, but their sum is
        # not. Separate runs train through, and so does the joint one.
        cfg = ExperimentConfig(
            tasks=(TaskSpec("regression-mse", 1, 1.5e103, "a"),
                   TaskSpec("regression-mse", 1, 8e102, "b")),
            balancer="ema",
            seed=1,
            **{**FAST, "iterations": 5, "log_cadence": 1},
        )
        data = generate_mtl(**cfg.data_settings())
        joint = mtlbal.harness._reference_run(cfg, data, [0, 1])
        assert joint.trace.rows[0]["weighted_total"] == np.inf
        alone = [run_single_task(cfg, k).task_results[0] for k in range(2)]
        assert joint.task_results == alone
        rec = compare([cfg], [1], normalized_spread=True).rows[0]
        assert rec.status == "ok" and rec.norm_spread is not None

    def test_single_task_scenario_spread_degenerates_to_one(self):
        cfg = ExperimentConfig(
            tasks=(TaskSpec("binary-bce", 1, 1.0, "solo"),), balancer="baseline", **FAST
        )
        report = compare([cfg], [2], normalized_spread=True)
        rec = report.rows[0]
        assert rec.status == "ok"
        assert rec.norm_spread == pytest.approx(1.0)
        assert rec.dominated_norm_loss is not None

    def test_normalized_spread_statistics_present(self):
        cfg = fast_config(balancer="ema", iterations=20)
        base = dataclasses.replace(cfg, balancer="baseline", name="baseline")
        report = compare([base, dataclasses.replace(cfg, name="ema")], [1], normalized_spread=True)
        for rec in report.rows:
            assert rec.norm_spread is not None and rec.norm_spread >= 1.0
            assert rec.dominated_norm_loss is not None
        table = report.to_table_text()
        header = table.splitlines()[0].split(",")
        assert "norm_spread_median" in header
        assert "metric_attr0_mean" in header

    def test_table_is_deterministic(self):
        cfg = fast_config(balancer="ema")
        variants = [dataclasses.replace(cfg, balancer=m, name=m) for m in ("baseline", "ema")]
        t1 = compare(variants, [1, 2], normalized_spread=False).to_table_text()
        t2 = compare(variants, [1, 2], normalized_spread=False).to_table_text()
        assert t1 == t2


class TestParallelCompare:
    """Seeds split between this process and worker interpreters (one worker
    on two usable cores) give the serial report bit for bit."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(mtlbal.harness, "usable_cores", lambda: 2)

    # Three seeds split unevenly: this process runs seeds 1 and 3, the worker 2.
    @pytest.mark.parametrize(
        "base, check",
        [
            (fast_config(iterations=20), lambda r: all(x.norm_spread is not None for x in r.rows)),
            # uw's cells fail on every seed.
            (OVERFLOW, lambda r: {x.method for x in r.rows if x.status == "failed"} == {"uw"}),
            # Every seed's references abort; some methods still finish.
            (DIVERGENT, lambda r: {x.status for x in r.rows} == {"ok", "failed"}
             and all(x.norm_spread is None for x in r.rows)),
        ],
        ids=["spread", "uw-overflow", "references-abort"],
    )
    def test_all_methods_match_serial(self, base, check):
        configs = [dataclasses.replace(base, balancer=m, name=m) for m in BALANCER_NAMES]
        serial = compare(configs, [1, 2, 3], jobs=1)
        parallel = compare(configs, [1, 2, 3], jobs=2)
        assert check(serial)
        assert parallel.to_table_text() == serial.to_table_text()
        assert repr(parallel.rows) == repr(serial.rows)

    def test_sweep_matches_serial(self):
        cfg = fast_config(balancer="uw", iterations=20)
        serial = sweep(cfg, "balancer_lr", [0.1, 0.01], [1, 2, 3], jobs=1)
        for jobs in ({"jobs": 2}, {}):  # omitted, `jobs` is the usable cores
            assert sweep(cfg, "balancer_lr", [0.1, 0.01], [1, 2, 3], **jobs).to_table_text() == (
                serial.to_table_text()
            )

    @pytest.fixture
    def started(self, monkeypatch):
        """The workers `compare` starts, in order."""
        workers = []

        class Recording(subprocess.Popen):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                workers.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        return workers

    def test_process_count_is_capped(self, monkeypatch, started):
        configs = [fast_config(iterations=5)]
        serial = compare(configs, [1, 2, 3], normalized_spread=False, jobs=1)
        assert started == []
        # Two usable cores: one worker besides this process, whatever `jobs`
        # asks; omitted, `jobs` is the usable cores.
        for workers, jobs in enumerate(({"jobs": 8}, {}, {"jobs": np.int64(2)}), start=1):
            capped = compare(configs, [1, 2, 3], normalized_spread=False, **jobs)
            assert capped.to_table_text() == serial.to_table_text()
            compare(configs, [1], normalized_spread=False, **jobs)  # one seed
            assert len(started) == workers
        monkeypatch.setattr(mtlbal.harness, "usable_cores", lambda: 1)
        for jobs in ({"jobs": 8}, {}):
            compare(configs, [1, 2], normalized_spread=False, **jobs)  # one core
        assert len(started) == 3
        assert all(worker.returncode == 0 for worker in started)

    def test_a_serial_compare_imports_no_subprocess(self):
        code = (
            "import sys\n"
            "from mtlbal import ExperimentConfig, compare\n"
            "config = ExperimentConfig(scenario='celeb-mini', n_samples=300, input_dim=4,\n"
            "                          iterations=2, batch_size=16)\n"
            "compare([config], [1, 2], jobs=1)\n"
            "print('subprocess' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_an_unguarded_script_needs_no_pythonpath(self, tmp_path):
        # The script puts src on sys.path itself and has no __main__ guard;
        # the worker imports mtlbal from that path and not the script.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import subprocess, sys\n"
            f"sys.path.insert(0, {str(Path(mtlbal.__file__).parents[1])!r})\n"
            "from mtlbal import ExperimentConfig, harness\n"
            "print('script runs', flush=True)\n"
            "harness.usable_cores = lambda: 2\n"
            "started = []\n"
            "class Recording(subprocess.Popen):\n"
            "    def __init__(self, *args, **kw):\n"
            "        started.append(args)\n"
            "        super().__init__(*args, **kw)\n"
            "subprocess.Popen = Recording\n"
            "config = ExperimentConfig(scenario='celeb-mini', n_samples=300, input_dim=4,\n"
            "                          iterations=5, batch_size=16)\n"
            "for jobs in (2, 1):\n"
            "    report = harness.compare([config], [1, 2, 3], False, jobs)\n"
            "    print(report.to_table_text(), end='')\n"
            "print('workers started', len(started))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, timeout=120, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[0] == "script runs" and lines[-1] == "workers started 1"
        assert proc.stdout.count("script runs") == 1
        tables = lines[1:-1]
        assert tables[0].startswith("method,")
        assert tables[: len(tables) // 2] == tables[len(tables) // 2:]

    def test_a_killed_worker_stops_the_parent_early(self, monkeypatch, started):
        # Three processes: this one owns seeds 1 and 4, the workers 2, 5 and 3, 6.
        monkeypatch.setattr(mtlbal.harness, "usable_cores", lambda: 3)
        own_seed = mtlbal.harness._seed_records
        own = []

        def kill_first_worker(seed, *args):
            own.append(seed)
            started[0].kill()
            started[0].wait()
            return own_seed(seed, *args)

        monkeypatch.setattr(mtlbal.harness, "_seed_records", kill_first_worker)
        configs = [fast_config(iterations=5)]
        with pytest.raises(RuntimeError, match=rf"exited with status -{int(signal.SIGKILL)}\b"):
            compare(configs, range(1, 7), normalized_spread=False, jobs=3)
        assert own == [1]
        # The other worker is stopped and reaped too.
        assert len(started) == 2 and all(w.returncode is not None for w in started)


class TestSweep:
    def test_single_value_sweep_equals_compare(self):
        cfg = fast_config(balancer="ema")
        sw = sweep(cfg, "beta", [0.1], [4])
        cm = compare([dataclasses.replace(cfg, beta=0.1, name="beta=0.1")], [4],
                     normalized_spread=False)
        assert sw.comparison.summary("beta=0.1").composite_mean == cm.summary(
            "beta=0.1"
        ).composite_mean

    def test_beta_grid_shape_and_spikiness_column(self):
        cfg = fast_config(balancer="ema", iterations=20)
        sw = sweep(cfg, "beta", [0.5, 0.2, 0.1], [1])
        lines = sw.to_table_text().splitlines()
        assert lines[0].startswith("parameter,value,")
        assert len(lines) == 4
        assert all(ln.startswith("beta,") for ln in lines[1:])
        for summary in sw.comparison.summaries:
            assert summary.spikiness_mean is not None

    def test_temperature_grid(self):
        cfg = fast_config(balancer="dwa", iterations=10)
        sw = sweep(cfg, "temperature", [2.0, 1.0, 0.5], [1])
        assert [s.n_failed for s in sw.comparison.summaries] == [0, 0, 0]

    # Each is rejected as the config rejects it, before any cell runs.
    @pytest.mark.parametrize("values, message", [
        (["x"], "beta must be float, got 'x'"),
        ([None], "beta must be float, got None"),
        ([0.5, True], "beta must be float, got True"),
        ([0.5, float("nan")], r"beta must be in \(0, 1\], got nan"),
    ], ids=["str", "none", "bool", "nan"])
    def test_value_that_is_not_a_real_number_rejected(self, monkeypatch, values, message):
        monkeypatch.setattr(mtlbal.harness, "_parallel_seed_records", None)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            sweep(fast_config(balancer="ema"), "beta", values, [1], jobs=1)

    @pytest.mark.parametrize("values, message", [
        (None, "values must be an iterable other than a str, got None"),
        ("0.5", "values must be an iterable other than a str, got '0.5'"),
        (0.5, "values must be an iterable other than a str, got 0.5"),
    ])
    def test_values_that_are_not_a_list_rejected(self, values, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sweep(fast_config(balancer="ema"), "beta", values, [1], jobs=1)
        with pytest.raises(ConfigError, match="^seeds must be an iterable"):
            sweep(fast_config(balancer="ema"), "beta", [0.5], None, jobs=1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="parameter"):
            sweep(fast_config(), "warp", [1.0], [1])
        with pytest.raises(ConfigError, match="balancer must be one of"):
            sweep(fast_config(balancer="warp"), "beta", [1.0], [1])

    # Every cell of such a sweep would train the same run.
    @pytest.mark.parametrize(
        "balancer, parameter, uses",
        [("ema", "balancer_lr", "beta"), ("dwa", "beta", "temperature"), ("baseline", "beta", "none")],
    )
    def test_parameter_the_balancer_ignores_rejected(self, balancer, parameter, uses):
        with pytest.raises(ConfigError, match=f"'{balancer}' ignores '{parameter}'; it uses {uses}$"):
            sweep(fast_config(balancer=balancer), parameter, [0.5, 0.1], [1])

    def test_parameters_are_config_keys(self):
        assert SWEEPABLE == ("beta", "temperature", "alpha", "balancer_lr")
        # The optimizer's lr is not a balancer setting; the error names the one that is.
        with pytest.raises(ConfigError, match="'balancer_lr'"):
            sweep(fast_config(), "lr", [0.1], [1])
        sw = sweep(fast_config(balancer="uw", iterations=10), "balancer_lr", [0.1], [1])
        assert sw.to_table_text().splitlines()[1].startswith("balancer_lr,0.10000000000000001,")


class TestTableColumns:
    """Each CSV table's columns are declared once; README spells each
    declaration out on its table's `columns:` line."""

    @pytest.mark.parametrize("table", ["trace.csv", "compare.csv", "sweep.csv"])
    def test_readme_lists_the_declared_columns(self, table):
        declared = {"trace.csv": TRACE_COLUMNS, "compare.csv": COMPARE_COLUMNS, "sweep.csv": SWEEP_COLUMNS}[table]
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [ln for ln in readme.splitlines() if ln.startswith(f"**{table}** columns: ")]
        assert len(lines) == 1
        documented = re.findall(r"`([^`]+)`", lines[0])
        assert documented == [name.replace("{}", "<task>") for name in declared]


README = Path(__file__).parents[1] / "README.md"


def readme_text() -> str:
    """README with its whitespace runs folded to single spaces."""
    return " ".join(README.read_text(encoding="utf-8").split())


class TestReadme:
    """The section titles the code cites and the figures README states match
    the code."""

    def test_cited_titles_exist(self):
        root = Path(__file__).parents[1]
        cited = {
            title
            for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]
            for title in re.findall(r'README, "([A-Z][^"]*)"', path.read_text(encoding="utf-8"))
        }
        assert cited
        assert sorted(t for t in cited if t not in readme_text()) == []

    def test_stated_constants_equal_the_code(self):
        readme = readme_text()
        constants = {
            "EVAL_BLOCK": mtlbal.harness.EVAL_BLOCK, "DRAW_BLOCK": mtlbal.harness.DRAW_BLOCK,
            "NORMAL_BLOCK": NORMAL_BLOCK, "GRADNORM_COEFF_MIN": GRADNORM_COEFF_MIN,
            "MEMORY_CAP": MEMORY_CAP,
        }
        for name, value in constants.items():
            stated = re.findall(rf"`{name}` \(([\d.,e-]+)( GiB)?\)", readme)
            assert stated, name
            for number, gib in stated:
                assert float(number.replace(",", "")) * (2**30 if gib else 1) == value, name

    def test_states_celeb_mini_parameter_counts(self):
        config = ExperimentConfig(scenario="celeb-mini")
        specs = config.resolved_tasks()
        model = network.init_params(1, config.input_dim, config.trunk, config.head_hidden, specs)
        per_task = model.unshared(range(len(specs))).n_parameters() // len(specs)
        assert (
            f"celeb-mini's model has {model.n_parameters():,} parameters, its stack "
            f"{per_task:,} per task"
        ) in readme_text()

    def test_states_where_gradnorm_under_sgd_aborts_on_va_mini(self):
        config = ExperimentConfig(scenario="va-mini", balancer="gradnorm", optimizer="sgd")
        with pytest.raises(NumericalAbort) as info:
            run_experiment(config)
        coeffs = re.search(r"^coeffs = (.*)$", info.value.balancer_snapshot, re.M).group(1)
        low = min(float(c) for c in coeffs.split(","))
        assert low < GRADNORM_COEFF_MIN
        assert (
            f"(va-mini under `sgd`: {low:.1e}, then an abort at iteration {info.value.iteration})"
        ) in readme_text()

    def test_states_the_default_jobs(self):
        # One rule for the library and the CLI: `None` means the usable cores.
        assert [inspect.signature(f).parameters["jobs"].default for f in (compare, sweep)] == [None] * 2
        assert "take `jobs=` (default `None`: the usable cores, as for the CLI's `--jobs`" in readme_text()

    def test_config_table_states_every_key_and_its_default(self):
        rows = re.findall(r"^\| `(\w+)` +\| ([^|]+?) +\|", README.read_text(encoding="utf-8"), re.M)
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        assert [key for key, _ in rows] == list(defaults)
        for key, cell in rows:
            if defaults[key] not in (None, ()):  # else the cell says it in words
                assert mtlbal.harness._FIELD_CODECS[key][0](cell.strip("`")) == defaults[key], key

    def test_states_the_scenarios_and_the_data_rules(self):
        readme = readme_text()
        celeb, va = SCENARIOS["celeb-mini"], SCENARIOS["va-mini"]
        assert {s.kind for s in celeb} == {"binary-bce"}
        assert [s.kind for s in va] == ["multiclass-ce", "regression-mse", "regression-mse"]
        assert (
            f"`celeb-mini` ({len(celeb)} binary tasks, one loss-scaled "
            f"x{max(s.loss_scale for s in celeb):g}) or `va-mini` ({va[0].output_dim}-class + "
            f"{len(va) - 1} regressions, one x{max(s.loss_scale for s in va):g})"
        ) in readme
        train = mtlbal.tasks.train_size(100)
        per_task = int(re.search(r"at least (\d+) per task", readme).group(1))
        assert f"({train}/{100 - train} train/test split), at least {per_task} per task" in readme
        fast_config(n_samples=per_task * len(celeb))
        with pytest.raises(ConfigError, match="n_samples"):
            fast_config(n_samples=per_task * len(celeb) - 1)
        assert "seed in [0, 2**64)" in readme
        fast_config(seed=2**64 - 1)
        with pytest.raises(ConfigError, match="seed"):
            fast_config(seed=2**64)
        assert "17 significant digits (`%.17g`)" in readme and fmt(1 / 3) == f"{1 / 3:.17g}"

    def test_standalone_balancer_example_gives_its_stated_total(self):
        blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
        (example,) = [b.split("```")[0] for b in blocks if "make_balancer(" in b]
        scope: dict = {}
        exec(example, scope)
        assert scope["total"] == pytest.approx(float(re.search(r"# ~([\d.]+)", example).group(1)))
