"""Experiment orchestration: configure, train, trace, evaluate, compare.

A run is fully determined by its config: the dataset comes from the seed,
parameter init and batch order come from purpose-derived sub-streams of the
same seed, and every emitted byte is reproducible. Weights for iteration t
are computed from the losses measured at t, before the optimizer step.

Distinct (config, seed) runs are independent; each run is sequential over
iterations. A comparison's seeds may run in separate processes; its tables
are assembled in (config, seed) order either way.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from . import network, tasks
from .balancers import (
    _VALID,
    BALANCER_NAMES,
    EPS_FLOOR,
    LossVector,
    combine,
    make_balancer,
    rate_ratios,
    snapshot,
)
from .metrics import (
    Trace,
    ccc,
    coefficient_spikiness,
    composite_score,
    f1_binary,
    f1_macro,
)
from .rng import SplitMix64, derive
from .tasks import Dataset, TaskSpec, generate_mtl, is_int, specs_from_text, specs_to_text
from .textio import fmt, table_text

#: Purpose tag for the batch-sampling stream.
BATCH_STREAM_TAG = 0xBA7C


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


class NumericalAbort(RuntimeError):
    """A run left the finite range (CLI exit code 2): in a training step or
    in its test metrics. The raiser words the whole message."""

    def __init__(self, iteration: int, balancer_snapshot: str, message: str):
        self.iteration = iteration
        self.balancer_snapshot = balancer_snapshot
        super().__init__(message)


# Built-in scenarios. celeb-mini: eight binary tasks, one loss-scaled x50,
# mirroring a many-binary-attribute workload with a single dominating task.
# va-mini: an 8-class task plus two regression tasks with one scaled x20,
# mirroring a categorical + two-continuous-output workload.
SCENARIOS = {
    "celeb-mini": tuple(
        TaskSpec("binary-bce", 1, 50.0 if i == 7 else 1.0, f"attr{i}") for i in range(8)
    ),
    "va-mini": (
        TaskSpec("multiclass-ce", 8, 1.0, "emotion"),
        TaskSpec("regression-mse", 1, 1.0, "valence"),
        TaskSpec("regression-mse", 1, 20.0, "arousal"),
    ),
}

OPTIMIZERS = ("adam", "sgd")

#: Bytes a run may be estimated to hold (`ExperimentConfig.memory_estimate`);
#: a config above it is a ConfigError.
MEMORY_CAP = 2**30

#: Each config field that sets a balancer hyperparameter, with its name there.
_BALANCER_FIELDS = {
    "beta": "beta",
    "temperature": "temperature",
    "alpha": "alpha",
    "balancer_lr": "learning_rate",
    "dwema_mode": "mode",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; see README for the config-file schema."""

    # Dataset defaults are sized so loss-scale domination is visible at desk
    # scale: independent tasks (relatedness 0) contest the trunk, and 8000
    # samples keep single-task references out of the overfitting regime.
    scenario: str | None = None
    tasks: tuple[TaskSpec, ...] = ()
    input_dim: int = 32
    n_samples: int = 8000
    relatedness: float = 0.0
    latent_dim: int | None = None
    balancer: str = "ema"
    beta: float = 0.1
    temperature: float = 0.5
    alpha: float = 1.5
    balancer_lr: float = 0.025
    dwema_mode: str = "divide"
    trunk: tuple[int, ...] = (64, 64)
    head_hidden: tuple[int, ...] = (32,)
    optimizer: str = "adam"
    lr: float = 1e-3
    iterations: int = 2000
    batch_size: int = 64
    seed: int = 1
    log_cadence: int = 10
    out_dir: str = "out"
    name: str | None = None

    def __post_init__(self):
        # Each accepted value as its codec reads it back: an int for a numpy
        # integer, whose products in `memory_estimate` could overflow.
        for key, (parse, to_text, accepts) in _FIELD_CODECS.items():
            if accepts(value := getattr(self, key)):
                object.__setattr__(self, key, parse(to_text(value)))

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value, accepts = getattr(self, f.name), _FIELD_CODECS[f.name][2]
            if not (accepts(value) or value is None and f.type.endswith(" | None")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!a}")
        # Range checks are written so that NaN fails them.
        _check_seed(self.seed)
        if self.balancer not in BALANCER_NAMES:
            raise ConfigError(f"balancer must be one of {BALANCER_NAMES}, got {self.balancer!a}")
        if bool(self.scenario) == bool(self.tasks):
            raise ConfigError("exactly one of 'scenario' or 'tasks' must be set")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!a}; have {sorted(SCENARIOS)}")
        for key, hyper in _BALANCER_FIELDS.items():
            valid, wanted = _VALID[hyper]
            if not valid(getattr(self, key)):
                raise ConfigError(f"{key} must be {wanted}, got {getattr(self, key)!a}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!a}")
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if self.batch_size < 1 or self.log_cadence < 1:
            raise ConfigError("batch_size and log_cadence must be >= 1")
        if not self.trunk or any(s < 1 for s in self.trunk):
            raise ConfigError("trunk needs at least one positive layer size")
        if any(s < 1 for s in self.head_hidden):
            raise ConfigError("head_hidden sizes must be positive")
        names = task_names(self.resolved_tasks())
        if len(set(names)) < len(names):
            raise ConfigError(f"task labels must be unique, got {names}")
        terms = self.memory_estimate()
        total = sum(terms.values())
        if total > MEMORY_CAP:
            name = max(terms, key=terms.get)
            raise ConfigError(
                f"a run would hold about {total / 2**30:,.1f} GiB, above the "
                f"{MEMORY_CAP / 2**30:g} GiB cap; the largest term is the {name} "
                f"({terms[name] / 2**30:,.1f} GiB)"
            )

    def memory_estimate(self) -> dict:
        """Bytes a run holds at its peak, from the config alone, by the terms
        of README, "Memory at a run's peak". The model is the larger one a
        command trains: the single-task references' trunk-less stack, with a
        trunk per task. ConfigError if a data setting is out of range."""
        specs, latent = self.resolved_tasks(), self.data_settings()["latent_dim"]
        k, outs = len(specs), [s.output_dim for s in specs]
        trunk, heads = network.layer_shapes(self.input_dim, self.trunk, self.head_hidden, specs)
        trunk_params = sum((i + 1) * o for i, o, _ in trunk)
        head_params = sum((i + 1) * o for h in heads for i, o, _ in h)
        heads_width = sum(o for h in heads for _, o, _ in h)
        n, n_test = self.n_samples, self.n_samples - tasks.train_size(self.n_samples)
        target_width = sum(1 if s.kind == "multiclass-ce" else s.output_dim for s in specs)
        # Per sample, the most of three phases: the latents and noise beside the
        # widest task's pre-activation or another task's and its temporary; the
        # widest task's pre-activation, noise and temporary; the packed draws and
        # one list of Python ints (8-byte slot, int of <= 32 bytes).
        *_, second, widest = sorted([0] + outs)
        generation = n * max(latent + widest + max(widest, 2 * second), 3 * widest, 1 + 5)
        generation += latent * (self.input_dim + widest + sum(outs))
        block = n_test if n_test < EVAL_BLOCK else EVAL_BLOCK + n_test % EVAL_BLOCK
        return {
            "parameters": 8 * 4 * (k * trunk_params + head_params),
            "dataset": 8 * (n * (self.input_dim + target_width) + generation),
            "batch draws": 8 * DRAW_BLOCK * self.batch_size,
            "activations": 8 * (
                (self.batch_size + block) * (self.input_dim + k * sum(self.trunk) + heads_width)
                + n_test * (target_width + 8 * sum(outs))
            ),
        }

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.balancer

    def resolved_tasks(self) -> tuple:
        return SCENARIOS[self.scenario] if self.scenario else tuple(self.tasks)

    def data_settings(self) -> dict:
        """The settings of the dataset this config generates (see
        `tasks.data_settings`); ConfigError if one is out of range."""
        try:
            return tasks.data_settings(
                self.seed, self.input_dim, self.n_samples, self.resolved_tasks(),
                self.relatedness, self.latent_dim,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit values (see `rng`)."""
    if not (is_int(seed) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def task_names(specs) -> tuple:
    """Each task's label: its name, or task<i> for an unnamed task i."""
    return tuple(s.name or f"task{i}" for i, s in enumerate(specs))


@dataclass
class TaskResult:
    name: str
    kind: str
    metric: float
    test_loss: float
    group: str


@dataclass
class RunResult:
    """Outcome of one training run."""

    config: ExperimentConfig
    task_results: list
    composite: float
    trace: Trace


def _make_balancer(config: ExperimentConfig):
    hyper = {name: getattr(config, key) for key, name in _BALANCER_FIELDS.items()}
    return make_balancer(config.balancer, **hyper)


#: Training steps whose batch indices are drawn in one call.
DRAW_BLOCK = 64


def _train(config: ExperimentConfig, data: Dataset, params, balancer):
    """The inner loop shared by all runs: trains `params` in place, returns the trace."""
    k = len(data.specs)
    trace = Trace(task_names=task_names(data.specs))
    batch_stream = SplitMix64(derive(config.seed, BATCH_STREAM_TAG))
    n_train, size = data.train_index.size, config.batch_size
    moments = network.init_moments(params) if config.optimizer == "adam" else None
    recent: list = []  # the losses of the two previous steps, oldest first

    for t in range(config.iterations):
        # The stream is counter-based, so a block of draws is the same
        # sequence as one call per step.
        offset = (t % DRAW_BLOCK) * size
        if offset == 0:
            rows = data.train_index[batch_stream.below(n_train, DRAW_BLOCK * size)]
        batch = data.batch(rows[offset : offset + size])
        # Divergence shows up as inf/nan and is caught explicitly (LossVector
        # names the first non-finite task), so the float overflow that
        # precedes it is expected, not a warning. Finite but extreme losses
        # can still overflow a balancer's weights; every ValueError from the
        # loss check on aborts this run, not the process. Errors before it
        # (a malformed batch or parameters) propagate as they are.
        with np.errstate(over="ignore", invalid="ignore"):
            step = network.HeadPass(params, batch)
            try:
                loss_vec = LossVector(step.losses, iteration=t)
                grad_norms = None
                if balancer.requires_grad_norms:
                    grad_norms = network.shared_layer_grad_norms(
                        params, batch, balancer.coefficients(k), step
                    )
                weights = balancer.step(loss_vec, grad_norms)
                total = combine(weights, loss_vec)
                # A trunk-less model's tasks are separate runs: each total is
                # one finite loss, but their sum may still overflow.
                if params.trunk and not math.isfinite(total):
                    raise ValueError("weighted total not finite")
                _, grads = network.backward(params, batch, weights.values, step)
                del step  # but not grads: README, "One step at a time"
                if config.optimizer == "adam":
                    network.adam_step(params, grads, moments, t + 1, config.lr)
                else:
                    network.sgd_step(params, grads, config.lr)
            except ValueError as exc:
                message = f"non-finite loss at iteration {t}: {exc}"
                raise NumericalAbort(t, snapshot(balancer), message) from exc

        losses = loss_vec.values
        if t % config.log_cadence == 0 or t == config.iterations - 1:
            rates = rate_ratios(recent, k)
            trace.append({
                "iteration": t,
                "loss_{}": losses,
                "weight_{}": weights.values.copy(),
                "rate_{}": rates,
                "rate_std": float(rates.std()),
                "weighted_total": total,
            })
        recent = recent[-1:] + [losses]
    return trace


#: Test rows run forward at a time by `evaluate_model`. The remainder joins the
#: last block: blocks of 64 rows or more round as a whole-split matmul; a few rows may not.
EVAL_BLOCK = 256


def evaluate_model(params, data: Dataset):
    """Per-task test metrics/losses and the composite score.

    The test split runs forward EVAL_BLOCK rows at a time, keeping only each
    head group's outputs, on which losses and metrics are computed. Runs with
    float overflow silenced: a diverged model produces non-finite metrics here,
    which the caller turns into a NumericalAbort.
    """
    index, results = data.test_index, []
    starts = [*range(0, index.size - EVAL_BLOCK + 1, EVAL_BLOCK)] or [0]
    targets = [t.take(index, axis=0) for t in data.targets]
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = [np.concatenate(parts, axis=1) for parts in zip(*[
            [as_[-1] for as_ in network.forward_cache(params, data.inputs[index[lo:hi]]).group_a]
            for lo, hi in zip(starts, starts[1:] + [index.size])
        ])]
        losses, _ = network.task_losses(params, outputs, targets, data.specs)
        for k, (spec, name) in enumerate(zip(data.specs, task_names(data.specs))):
            g, i = params.slots[k]
            out, target = outputs[g][i], targets[k]
            # Composite groups: regressions pool into one mean-CCC group, binaries
            # into one mean-F1 group, and each multiclass task is its own F1 group.
            if spec.kind == "binary-bce":
                metric = f1_binary((out >= 0.5).astype(np.float64), target)
                group = "binary_f1"
            elif spec.kind == "multiclass-ce":
                metric = f1_macro(np.argmax(out, axis=1), target, spec.output_dim)
                group = f"f1_{name}"
            else:
                cols = [ccc(out[:, j], target[:, j]) for j in range(spec.output_dim)]
                metric = float(np.mean(cols))
                group = "ccc"
            results.append(TaskResult(name, spec.kind, metric, float(losses[k]), group))
    composite = composite_score([(r.metric, r.group) for r in results])
    return results, composite


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Train with the configured balancer and evaluate on the test split.

    Bitwise deterministic in (config, seed). Raises NumericalAbort with the
    offending iteration and a balancer snapshot if the total loss leaves the
    finite range.
    """
    config.validate()
    return _method_run(config, generate_mtl(**config.data_settings()))


def run_single_task(config: ExperimentConfig, task_index: int) -> RunResult:
    """Train the one-task model: a copy of the trunk followed by head k.

    The dataset and the full-model init come from the same seed streams as
    the multi-task run, so trunk and head k start from identical values; the
    balancer is equal-weights (a single task needs no balancing). Results
    serve as per-task reference losses for normalized-spread evaluation.
    This is the one-task case of `_reference_run`, whose composite is that
    task's metric.
    """
    config.validate()
    n_tasks = len(config.resolved_tasks())
    if not 0 <= task_index < n_tasks:
        raise ConfigError(f"task index {task_index} out of range for {n_tasks} tasks")
    return _reference_run(config, generate_mtl(**config.data_settings()), [task_index])


def _method_run(config: ExperimentConfig, data: Dataset) -> RunResult:
    """`config`'s model trained under its balancer on `data`, its dataset."""
    params = network.init_params(
        config.seed, config.input_dim, config.trunk, config.head_hidden, config.resolved_tasks()
    )
    return _run(config, data, params, _make_balancer(config))


def _reference_run(config: ExperimentConfig, data: Dataset, tasks) -> RunResult:
    """The single-task runs of the listed tasks, trained and evaluated as one run.

    Their one-task models are the heads of one trunk-less model
    (`ModelParams.unshared`) trained under baseline weights, so each runs
    exactly as it would alone, bit for bit, and the run aborts exactly when
    one of them would. Reference i's result is `task_results[i]`; the trace
    is the joint one, which for one task is that run's own.
    """
    params = network.init_params(  # the full model is not kept
        config.seed, config.input_dim, config.trunk, config.head_hidden, config.resolved_tasks()
    ).unshared(tasks)
    data = dataclasses.replace(
        data, targets=[data.targets[k] for k in tasks], specs=tuple(data.specs[k] for k in tasks)
    )
    return _run(config, data, params, make_balancer("baseline"))


def _run(config: ExperimentConfig, data: Dataset, params, balancer) -> RunResult:
    """Train `params` and evaluate them; NumericalAbort if a test metric is not finite."""
    trace = _train(config, data, params, balancer)
    task_results, composite = evaluate_model(params, data)
    if not np.isfinite([composite] + [t.test_loss for t in task_results]).all():
        message = f"non-finite test metrics after {config.iterations} iterations"
        raise NumericalAbort(config.iterations, snapshot(balancer), message)
    return RunResult(config, task_results, composite, trace)


# ---------------------------------------------------------------------------
# Comparison across balancers and hyperparameter sweeps.
# ---------------------------------------------------------------------------

#: Config fields the methods under comparison must agree on: all but the
#: balancer settings, the seed and where the outputs go.
_SHARED_FIELDS = [
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in {"balancer", *_BALANCER_FIELDS, "seed", "out_dir", "name"}
]


@dataclass
class RunRecord:
    """One (method, seed) cell of a comparison."""

    method: str
    seed: int
    status: str  # "ok" or "failed"
    composite: float | None = None
    task_metrics: list = field(default_factory=list)
    test_losses: list = field(default_factory=list)
    norm_spread: float | None = None
    dominated_norm_loss: float | None = None
    spikiness: float | None = None
    error: str = ""


@dataclass
class MethodSummary:
    method: str
    n_seeds: int
    n_failed: int
    wins: int
    composite_mean: float | None
    composite_std: float | None
    spikiness_mean: float | None
    norm_spread_median: float | None
    dominated_norm_loss_median: float | None
    task_metric_means: list


#: compare.csv's columns, in order; a name holding {} is one column per
#: task. A table row maps each name to its value.
COMPARE_COLUMNS = (
    "method", "n_seeds", "n_failed", "wins", "composite_mean", "composite_std",
    "spikiness_mean", "norm_spread_median", "dominated_norm_loss_median", "metric_{}_mean",
)
#: sweep.csv's columns: the swept key, its value and the per-seed counts and
#: composite statistics of compare.csv.
SWEEP_COLUMNS = ("parameter", "value", *COMPARE_COLUMNS[1:7])


@dataclass
class ComparisonReport:
    task_names: tuple
    rows: list  # RunRecords in (config, seed) order
    summaries: list

    def summary(self, method: str) -> MethodSummary:
        for s in self.summaries:
            if s.method == method:
                return s
        raise KeyError(method)

    def records(self, method: str) -> list:
        return [r for r in self.rows if r.method == method]

    def to_table_text(self) -> str:
        """compare.csv: one row per method under `COMPARE_COLUMNS` (see README)."""
        rows = [{**vars(s), "metric_{}_mean": s.task_metric_means} for s in self.summaries]
        return table_text(COMPARE_COLUMNS, self.task_names, rows)


def _dominant_index(specs) -> int | None:
    """Index of the unique largest loss_scale, or None if there is a tie."""
    scales = [s.loss_scale for s in specs]
    top = max(scales)
    holders = [i for i, s in enumerate(scales) if s == top]
    return holders[0] if len(holders) == 1 else None


def _record(config: ExperimentConfig, data: Dataset, reference, dominant) -> RunRecord:
    """One comparison cell: run, then normalize by the references if any."""
    try:
        result = _method_run(config, data)
    except NumericalAbort as exc:
        return RunRecord(method=config.label, seed=config.seed, status="failed", error=str(exc))
    losses = np.array([t.test_loss for t in result.task_results])
    record = RunRecord(
        method=config.label,
        seed=config.seed,
        status="ok",
        composite=result.composite,
        task_metrics=[t.metric for t in result.task_results],
        test_losses=losses.tolist(),
        spikiness=coefficient_spikiness(result.trace.weight_means()),
    )
    if reference is not None:
        norm = losses / reference
        record.norm_spread = float(norm.max() / max(norm.min(), EPS_FLOOR))
        others = np.delete(norm, dominant) if dominant is not None else norm
        if others.size == 0:  # single-task comparison has no "others"
            others = norm
        record.dominated_norm_loss = float(others.max())
    return record


def usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_records(seed: int, configs, specs, normalized_spread: bool, dominant) -> list:
    """One seed's comparison cells, in config order.

    `compare` has validated the configs and the seed. The seed's dataset is
    generated once and handed to the references, which train as one run,
    and to each method's run. The references follow the failed-run policy:
    a seed where any reference aborts has no spread statistics.
    """
    seed_cfg = dataclasses.replace(configs[0], seed=seed)
    data = generate_mtl(**seed_cfg.data_settings())
    reference = None
    if normalized_spread:
        try:
            run = _reference_run(seed_cfg, data, range(len(specs)))
            refs = [t.test_loss for t in run.task_results]
            reference = np.maximum(np.array(refs), EPS_FLOOR)
        except NumericalAbort:
            pass
    return [
        _record(dataclasses.replace(cfg, seed=seed), data, reference, dominant) for cfg in configs
    ]


#: What a seed worker runs: a fresh interpreter that ignores Ctrl-C (its
#: parent stops it), takes its parent's `sys.path` from stdin and enters
#: `_worker_main`. The script that called `compare` is not imported again.
_WORKER_CODE = (
    "import signal; signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
    "import pickle, sys; sys.path[:] = pickle.load(sys.stdin.buffer)\n"
    "from mtlbal.harness import _worker_main; _worker_main()\n"
)


def _worker_main() -> None:
    """A seed worker's body: read its seeds and the `_seed_records`
    arguments from stdin, then pickle back (cells, None), or (exception,
    traceback), on the stdout it started with. What it prints goes to
    stderr, so nothing else reaches that channel. It exits once stdin
    reaches EOF, which happens when its parent is gone."""
    import threading
    import traceback

    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    seeds, args = pickle.load(sys.stdin.buffer)

    def exit_with_parent():
        while os.read(0, 4096):
            pass
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    try:
        reply = [_seed_records(seed, *args) for seed in seeds], None
    except Exception as exc:
        reply = exc, traceback.format_exc()
    with channel:
        pickle.dump(reply, channel)


def _worker_cells(proc, seeds: list) -> dict:
    """A worker's cells by seed, read to the end of its reply and reaped.
    Its exception is raised here, and so is an exit status other than 0."""
    raw = proc.stdout.read()
    status = proc.wait()
    if status != 0:
        raise RuntimeError(f"the worker running seeds {seeds} exited with status {status}")
    result, trace = pickle.loads(raw)
    if trace is not None:
        raise result from RuntimeError(f"in the worker running seeds {seeds}:\n{trace}")
    return dict(zip(seeds, result))


def _parallel_seed_records(seeds: list, processes: int, args: tuple) -> dict:
    """Each seed's cells: this process runs seeds[0::processes] in turn while
    worker w (1 <= w < processes), if any, runs seeds[w::processes]."""
    workers = []
    cells = {}
    try:
        for w in range(1, processes):
            import subprocess  # here, so that a serial compare imports nothing more

            part = seeds[w::processes]
            # A fresh interpreter under this one's flags, not a fork: a fork
            # taken after BLAS has started its threads can hang.
            proc = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", _WORKER_CODE],
                bufsize=0, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            workers.append((proc, part))
            proc.stdin.write(pickle.dumps(sys.path) + pickle.dumps((part, args)))
        running = list(workers)
        for seed in seeds[::processes]:
            # A finished worker's error is raised now, not after this
            # process has trained all of its own seeds.
            for worker in [w for w in running if w[0].poll() is not None]:
                running.remove(worker)
                cells.update(_worker_cells(*worker))
            cells[seed] = _seed_records(seed, *args)
        for worker in running:
            cells.update(_worker_cells(*worker))
    except BaseException:
        # Ctrl-C or a failure: stop the workers now, not after their seeds.
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, _ in workers:
            proc.wait()
            proc.stdout.close()
            proc.stdin.close()
    return cells


def compare(configs, seeds, normalized_spread: bool = True, jobs: int = 1) -> ComparisonReport:
    """Run every (config, seed) pair and tabulate per-method statistics.

    The configs must differ only in balancer settings (enforced). With
    `normalized_spread`, single-task reference runs are trained once per
    (seed, task) and each method's final per-task test losses are divided by
    them; the spread is max/min of those normalized losses and the dominated
    statistic is the worst normalized loss among non-dominant tasks. A run
    that aborts numerically is marked failed and the comparison proceeds.

    Seeds run in min(jobs, usable cores, seeds) processes: this one plus
    workers that are fresh interpreters importing mtlbal from this
    process's `sys.path`, so a calling script needs no `__main__` guard.
    The report does not depend on `jobs`.
    """
    configs = list(configs)
    seeds = list(seeds)
    if not configs or not seeds:
        raise ConfigError("compare needs at least one config and one seed")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    for seed in seeds:
        _check_seed(seed)
    if not (isinstance(jobs, int) and jobs >= 1):
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    for cfg in configs:
        cfg.validate()
    base = configs[0]
    for cfg in configs[1:]:
        for fld in _SHARED_FIELDS:
            if getattr(cfg, fld) != getattr(base, fld):
                raise ConfigError(
                    f"configs must differ only in balancer settings; {fld!r} differs"
                )
    labels = [cfg.label for cfg in configs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"config labels must be unique, got {labels}")

    specs = base.resolved_tasks()
    names = task_names(specs)
    args = (configs, specs, normalized_spread, _dominant_index(specs))
    cells = _parallel_seed_records(seeds, min(jobs, usable_cores(), len(seeds)), args)
    rows = [cells[seed][i] for i in range(len(configs)) for seed in seeds]

    summaries = []
    wins = {label: 0 for label in labels}
    for seed in seeds:
        ok = [r for r in rows if r.seed == seed and r.status == "ok"]
        if ok:
            best = max(r.composite for r in ok)
            for r in ok:
                if r.composite == best:
                    wins[r.method] += 1
    for label in labels:
        recs = [r for r in rows if r.method == label]
        ok = [r for r in recs if r.status == "ok"]
        comp = np.array([r.composite for r in ok])
        spreads = [r.norm_spread for r in ok if r.norm_spread is not None]
        dominated = [r.dominated_norm_loss for r in ok if r.dominated_norm_loss is not None]
        summaries.append(
            MethodSummary(
                method=label,
                n_seeds=len(recs),
                n_failed=len(recs) - len(ok),
                wins=wins[label],
                composite_mean=float(comp.mean()) if ok else None,
                composite_std=float(comp.std()) if ok else None,
                spikiness_mean=float(np.mean([r.spikiness for r in ok])) if ok else None,
                norm_spread_median=float(np.median(spreads)) if spreads else None,
                dominated_norm_loss_median=float(np.median(dominated)) if dominated else None,
                task_metric_means=[
                    float(np.mean([r.task_metrics[i] for r in ok])) if ok else None
                    for i in range(len(names))
                ],
            )
        )
    return ComparisonReport(task_names=names, rows=rows, summaries=summaries)


#: Config keys `sweep` can grid: the balancer fields that hold a float.
SWEEPABLE = tuple(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.name in _BALANCER_FIELDS and f.type == "float"
)


@dataclass
class SweepReport:
    parameter: str
    values: list
    comparison: ComparisonReport

    def to_table_text(self) -> str:
        """sweep.csv: one row per value under `SWEEP_COLUMNS` (see README)."""
        rows = [
            {"parameter": self.parameter, "value": float(value), **vars(summary)}
            for value, summary in zip(self.values, self.comparison.summaries)
        ]
        return table_text(SWEEP_COLUMNS, self.comparison.task_names, rows)


def sweep(config: ExperimentConfig, parameter: str, values, seeds, jobs: int = 1) -> SweepReport:
    """Grid the config over one balancer hyperparameter (a config key in
    SWEEPABLE that the config's balancer uses) and compare the cells, with
    `jobs` as in `compare`.

    Normalized-spread references are skipped (sweeps measure performance and
    coefficient spikiness per cell, not transfer).
    """
    if parameter not in SWEEPABLE:
        hint = "; the balancer's learning rate is 'balancer_lr'" if parameter == "lr" else ""
        raise ConfigError(f"parameter must be one of {list(SWEEPABLE)}, got {parameter!r}{hint}")
    config.validate()
    used = _make_balancer(config).hyper
    if _BALANCER_FIELDS[parameter] not in used:
        keys = [key for key, name in _BALANCER_FIELDS.items() if name in used]
        raise ConfigError(
            f"balancer {config.balancer!r} ignores {parameter!r}; it uses {', '.join(keys) or 'none'}"
        )
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    # repr round-trips a float, so distinct values get distinct labels.
    variants = [
        dataclasses.replace(config, **{parameter: v}, name=f"{parameter}={float(v)!r}")
        for v in values
    ]
    report = compare(variants, seeds, normalized_spread=False, jobs=jobs)
    return SweepReport(parameter=parameter, values=values, comparison=report)


# ---------------------------------------------------------------------------
# Config-file schema (key = value text) and run outputs.
# ---------------------------------------------------------------------------

#: Each declared config field type's (parse, format, accepts); `| None` also
#: accepts None. `parse` reads back equal what `format` writes of any accepted value.
_CODECS = {
    "int": (int, str, is_int),
    "float": (float, fmt, lambda v: isinstance(v, float) or is_int(v) and abs(int(v)) <= 2**53),
    "str": (str, str, lambda v: isinstance(v, str)),
    "tuple[int, ...]": (
        lambda text: tuple(int(p) for p in text.split(",") if p.strip()),
        lambda sizes: ",".join(str(s) for s in sizes),
        lambda v: isinstance(v, tuple) and all(map(is_int, v)),
    ),
    "tuple[TaskSpec, ...]": (
        specs_from_text, specs_to_text,
        lambda v: isinstance(v, tuple) and all(isinstance(s, TaskSpec) for s in v),
    ),
}
_FIELD_CODECS = {
    f.name: _CODECS[f.type.removesuffix(" | None")] for f in dataclasses.fields(ExperimentConfig)
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value config text, one setting per LF-ended line; unknown
    keys are rejected. Messages quote the text in ASCII escapes, so their
    bytes do not depend on the locale."""
    values: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!a}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!a}")
        if key not in _FIELD_CODECS:
            raise ConfigError(f"line {lineno}: unknown config key {key!a}")
        try:
            values[key] = _FIELD_CODECS[key][0](val)
        except ValueError as exc:  # its text may quote the value
            detail = str(exc).encode("ascii", "backslashreplace").decode()
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {detail}") from exc
    config = ExperimentConfig(**values)
    config.validate()
    return config


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical echo of a config: one line per set field, in field order
    (None fields and empty tasks are left out); parse_config inverts it."""
    lines = []
    for key, (_, to_text, _) in _FIELD_CODECS.items():
        value = getattr(config, key)
        if value is None or (key == "tasks" and not value):
            continue
        lines.append(f"{key} = {to_text(value)}")
    return "\n".join(lines) + "\n"


def result_to_json(result: RunResult) -> str:
    """Structured run summary; deterministic bytes (no wall-clock)."""
    payload = {
        "balancer": result.config.balancer,
        "scenario": result.config.scenario,
        "seed": result.config.seed,
        "iterations": result.config.iterations,
        "composite": result.composite,
        "trace_rows": len(result.trace),
        "tasks": [
            {
                "name": t.name,
                "kind": t.kind,
                "group": t.group,
                "metric": t.metric,
                "test_loss": t.test_loss,
            }
            for t in result.task_results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
