"""End-to-end and per-layer benchmark of the mtlbal CLI.

Usage, from the root of a checkout:

    python3 bench/bench.py --workload run-va-gradnorm [--seed 1] [--seconds 60] [--trace 0]

Each repeat runs the public `mtlbal` CLI in a fresh child process (see
`child.py`), one at a time, with BLAS pinned to one thread. Repeats continue
while at least half of the next one is predicted to fit in `--seconds`.
With `--trace 0` the end-to-end timings are means over the repeats (the
run's total time over its repeat count) and the other end-to-end metrics are
medians; with `--trace 1` untraced and traced repeats alternate and the
per-layer metrics come from the traced ones. Every metric is printed by name
with its unit, followed by the correctness checks; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when every
check passes, 1 when one fails, and 2 when the checkout has no program.

The seed reaches the program only through the generated config file (and,
for `compare`, the generated `--seeds` list).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import TARGETS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 1
BATCH_SIZE = 64
CELEB_TASKS = 8
#: Repeats stop, and a running child is killed, this long after the first
#: starts, so a run ends well inside 180 s.
RUN_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """One CLI call: its config, arguments and the training work it does."""

    why: str
    scenario: str
    balancer: str
    iterations: int
    #: Lowest acceptable composite at full length, on any seed: about 4-5%
    #: below the lowest seen over 36 to 60 seeds at the seed commit (README.md).
    composite_floor: float
    compare_methods: tuple = ()
    compare_seeds: int = 0

    def config_text(self, seed: int, iterations: int) -> str:
        return (
            f"scenario = {self.scenario}\n"
            f"balancer = {self.balancer}\n"
            f"iterations = {iterations}\n"
            f"batch_size = {BATCH_SIZE}\n"
            f"seed = {seed}\n"
        )

    def cli_args(self, config: Path, out: Path, seed: int) -> list:
        if not self.compare_methods:
            return ["run", "--config", str(config), "--out", str(out)]
        return [
            "compare", "--config", str(config), "--out", str(out),
            "--methods", ",".join(self.compare_methods),
            "--seeds", f"{seed}..{seed + self.compare_seeds - 1}",
        ]

    @property
    def outputs(self) -> tuple:
        if self.compare_methods:
            return ("compare.csv",)
        return ("trace.csv", "result.json", "config.echo")

    @property
    def runs(self) -> int:
        """Training runs per CLI call, single-task references included."""
        if not self.compare_methods:
            return 1
        return self.compare_seeds * (len(self.compare_methods) + CELEB_TASKS)

    @property
    def n_seeds(self) -> int:
        return self.compare_seeds or 1


#: `run-celeb-ema` is not in BENCHMARK.json, so that the two listed workloads
#: can run 60 s each (README.md, "Why timings are means"); it stays runnable
#: by hand for per-step work on 8 equal heads.
WORKLOADS = {
    "run-celeb-ema": Workload(
        why="training-step bound: 8 equal heads, ema; moves with forward/backward/Adam",
        scenario="celeb-mini", balancer="ema", iterations=2000, composite_floor=0.85,
    ),
    "run-va-gradnorm": Workload(
        why="3 unequal heads (CE + 2 MSE) with the gradnorm probe; head stacking bypassed",
        scenario="va-mini", balancer="gradnorm", iterations=2000, composite_floor=1.17,
    ),
    "compare-celeb-spread": Workload(
        why="orchestration and setup: 4 runs + 16 single-task references, 20 generate_mtl calls",
        scenario="celeb-mini", balancer="ema", iterations=500, composite_floor=0.81,
        compare_methods=("baseline", "ema"), compare_seeds=2,
    ),
}

#: (name, unit, span names summed, reduction). Reductions: ms_per_step and s
#: sum self time, calls sums calls, calls_per_seed divides calls by the
#: number of distinct experiment seeds.
PER_LAYER = (
    ("network.forward_ms_per_step", "ms", ("network.forward",), "ms_per_step"),
    ("network.backward_ms_per_step", "ms", ("network.backward",), "ms_per_step"),
    ("network.optimizer_ms_per_step", "ms", ("network.optimizer",), "ms_per_step"),
    ("network.init_s", "s", ("network.init",), "s"),
    ("network.forward_calls", "count", ("network.forward",), "calls"),
    ("network.gradnorm_probe_ms_per_step", "ms", ("network.gradnorm_probe",), "ms_per_step"),
    ("network.gradnorm_probe_calls", "count", ("network.gradnorm_probe",), "calls"),
    ("tasks.loss_ms_per_step", "ms", ("tasks.loss",), "ms_per_step"),
    ("tasks.loss_calls", "count", ("tasks.loss",), "calls"),
    ("tasks.batch_ms_per_step", "ms", ("tasks.batch",), "ms_per_step"),
    ("tasks.generate_s", "s", ("tasks.generate",), "s"),
    ("tasks.generate_calls", "count", ("tasks.generate",), "calls"),
    ("tasks.generate_calls_per_seed", "ratio", ("tasks.generate",), "calls_per_seed"),
    ("rng.below_s", "s", ("rng.below",), "s"),
    ("rng.below_calls", "count", ("rng.below",), "calls"),
    ("rng.normal_s", "s", ("rng.normal",), "s"),
    ("balancers.step_ms_per_step", "ms", ("balancers.step",), "ms_per_step"),
    ("balancers.snapshot_calls", "count", ("balancers.snapshot",), "calls"),
    ("metrics.trace_append_s", "s", ("metrics.trace_append",), "s"),
    ("metrics.spikiness_s", "s", ("metrics.spikiness",), "s"),
    ("metrics.trace_to_text_s", "s", ("metrics.trace_to_text",), "s"),
    ("harness.train_other_ms_per_step", "ms", ("harness.run", "harness.single_task"), "ms_per_step"),
    ("harness.evaluate_s", "s", ("harness.evaluate",), "s"),
    ("harness.runs", "count", ("harness.run",), "calls"),
    ("harness.single_task_runs", "count", ("harness.single_task",), "calls"),
    ("cli.parse_config_s", "s", ("cli.parse_config",), "s"),
    ("cli.write_outputs_s", "s", ("cli.write_outputs", "metrics.trace_to_text"), "s"),
)
COVERAGE_EXCLUDED_LAYERS = ("harness",)


@dataclass
class Repeat:
    """One finished child process."""

    name: str
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    sidecar: dict | None
    outputs: dict = field(default_factory=dict)
    stderr_tail: str = ""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(cmd: list, out_file: Path, err_file: Path, limit_s: float):
    """Run one process to completion; return (exit code, wall s, rusage)."""
    with open(out_file, "wb") as out, open(err_file, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM is raised as SystemExit)
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_repeat(workload: Workload, index: int, seed: int, iterations: int,
               mode: str, limit_s: float) -> Repeat:
    """One child in `mode` (see child.py), in its own work directory."""
    rep_dir = WORK / f"{mode}{index:03d}"
    rep_dir.mkdir(parents=True)
    config = rep_dir / "exp.cfg"
    config.write_text(workload.config_text(seed, iterations))
    out = rep_dir / "out"
    sidecar_path = rep_dir / "sidecar.json"
    cmd = [sys.executable, str(CHILD), str(sidecar_path), mode, "--"]
    cmd += workload.cli_args(config, out, seed)
    code, wall, usage = _run_child(cmd, rep_dir / "stdout.txt", rep_dir / "stderr.txt", limit_s)
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else None
    outputs = {
        name: (out / name).read_bytes() for name in workload.outputs if (out / name).exists()
    }
    return Repeat(
        name=rep_dir.name,
        traced=mode == "trace",
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        sidecar=sidecar,
        outputs=outputs,
        stderr_tail=(rep_dir / "stderr.txt").read_text(errors="replace")[-2000:],
    )


def run_repeats(workload: Workload, seed: int, iterations: int, seconds: float,
                trace: bool) -> list:
    """Repeat while at least half of the next repeat is predicted to fit in
    `seconds`, so a run lasts `seconds` to within half a repeat.

    At least two repeats run, so outputs can be compared byte for byte.
    Traced, untraced and traced repeats alternate, starting untraced.
    """
    repeats: list = []
    started = time.perf_counter()
    while True:
        mode = "trace" if trace and len(repeats) % 2 == 1 else "plain"
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        repeats.append(run_repeat(workload, len(repeats), seed, iterations, mode, remaining))
        elapsed = time.perf_counter() - started
        predicted = statistics.median(r.wall_s for r in repeats)
        if len(repeats) >= 2 and elapsed + predicted / 2 > seconds:
            return repeats
        if elapsed + predicted > RUN_LIMIT_S:
            return repeats


# ---------------------------------------------------------------------------
# Correctness checks.
# ---------------------------------------------------------------------------


def _compare_rows(data: bytes) -> list:
    return list(csv.DictReader(data.decode().splitlines()))


def composite_of(workload: Workload, outputs: dict) -> float:
    """Mean composite over the CLI call's multi-task runs; NaN if a method
    has none (every seed of it aborted, so compare.csv leaves it empty)."""
    if workload.compare_methods:
        cells = [r["composite_mean"] for r in _compare_rows(outputs["compare.csv"])]
        return statistics.fmean(float(c) if c else math.nan for c in cells)
    return float(json.loads(outputs["result.json"])["composite"])


def dominated_of(outputs: dict) -> dict:
    """Per-method dominated_norm_loss_median from compare.csv."""
    rows = _compare_rows(outputs["compare.csv"])
    return {
        r["method"]: float(r["dominated_norm_loss_median"])
        for r in rows if r["dominated_norm_loss_median"]
    }


def check(workload: Workload, repeats: list, full_length: bool) -> tuple:
    """(checks, attempted, failed): checks is a list of (name, ok, detail)."""
    src = str(ROOT / "src")
    first = repeats[0]
    attempted = failed = 0
    for r in repeats:
        attempted += workload.runs
        if r.exit_code != 0 or set(r.outputs) != set(workload.outputs) or r.outputs != first.outputs:
            failed += workload.runs
        elif workload.compare_methods:
            failed += sum(int(row["n_failed"]) for row in _compare_rows(r.outputs["compare.csv"]))
    checks = [
        ("exit_codes_zero", all(r.exit_code == 0 for r in repeats),
         "; ".join(f"{r.name}: exit {r.exit_code}: {r.stderr_tail.strip()[-200:]!r}"
                   for r in repeats if r.exit_code != 0)),
        ("outputs_byte_identical", all(r.outputs == first.outputs for r in repeats),
         f"{len(repeats)} repeats against the first ({', '.join(workload.outputs)})"),
        ("setup_recorded", all(r.sidecar and "setup_s" in r.sidecar for r in repeats),
         f"{len(repeats)} repeats record setup_s"),
        ("program_from_checkout",
         all(r.sidecar and r.sidecar["mtlbal_file"].startswith(src) for r in repeats),
         f"mtlbal imported from {src}"),
    ]
    if first.exit_code == 0 and set(first.outputs) == set(workload.outputs):
        composite = composite_of(workload, first.outputs)
        checks.append(("composite_finite", math.isfinite(composite) and composite > 0,
                       f"composite = {composite!r}"))
        if full_length:
            checks.append(("composite_above_floor", composite >= workload.composite_floor,
                           f"composite {composite:.6g} >= {workload.composite_floor}"))
        if workload.compare_methods:
            dominated = dominated_of(first.outputs)
            checks.append(("dominated_norm_loss_present",
                           set(dominated) == set(workload.compare_methods), repr(dominated)))
            if full_length and {"baseline", "ema"} <= set(dominated):
                checks.append(("ema_reduces_domination",
                               dominated["ema"] < dominated["baseline"],
                               "ema dominated_norm_loss below baseline's (the paper's effect)"))
    checks.append(("no_failed_runs", failed == 0, f"{failed}/{attempted} runs failed"))
    return checks, attempted, failed


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _stat(values: list, unit: str, center=statistics.median) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": center(values), "unit": unit, "center": center.__name__,
        "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values),
        "values": values,
    }


def end_to_end_metrics(workload: Workload, repeats: list, iterations: int) -> dict:
    ok = [r for r in repeats if r.exit_code == 0 and not r.traced]
    setups = [r.sidecar["setup_s"] for r in ok if r.sidecar and "setup_s" in r.sidecar]
    if not ok or not setups:
        return {}
    samples = workload.runs * iterations * BATCH_SIZE
    # The box's speed drifts over minutes; a mean over the whole run averages
    # that drift where a median of a dozen repeats follows whichever phase
    # most of them fell in (README.md, "Why timings are means").
    metrics = {
        "wall_s": _stat([r.wall_s for r in ok], "s", statistics.fmean),
        "samples_per_s": _stat([samples / r.wall_s for r in ok], "1/s"),
        "cpu_s": _stat([r.cpu_s for r in ok], "s", statistics.fmean),
        "setup_s": _stat(setups, "s"),
        "peak_rss_mib": _stat([r.peak_rss_mib for r in ok], "MiB"),
    }
    if set(ok[0].outputs) == set(workload.outputs):
        composite = composite_of(workload, ok[0].outputs)
        if math.isfinite(composite):
            metrics["composite"] = _stat([composite], "score")
    # samples_per_s is all samples of the run over all its wall time, not a mean of rates.
    metrics["samples_per_s"]["value"] = samples / metrics["wall_s"]["value"]
    metrics["samples_per_s"]["center"] = "samples over mean wall_s"
    return metrics


def per_layer_metrics(workload: Workload, repeats: list, iterations: int) -> tuple:
    """(metrics, absent span names) from the traced repeats."""
    traced = [r for r in repeats if r.traced and r.exit_code == 0 and r.sidecar]
    untraced = [r for r in repeats if not r.traced and r.exit_code == 0]
    if not traced or not untraced:
        return {}, []
    absent_targets = set(traced[0].sidecar.get("absent", []))
    by_span: dict = {}
    for name, module_name, qualname in TARGETS:
        by_span.setdefault(name, []).append(f"{module_name}:{qualname}")
    absent = sorted(n for n, ts in by_span.items() if absent_targets.issuperset(ts))
    steps = workload.runs * iterations

    def reduce(spans: dict, names: tuple, how: str) -> float:
        calls = sum(spans.get(n, {}).get("calls", 0) for n in names)
        self_s = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
        if how == "calls":
            return calls
        if how == "calls_per_seed":
            return calls / workload.n_seeds
        if how == "ms_per_step":
            return 1000.0 * self_s / steps
        return self_s

    metrics = {}
    for name, unit, names, how in PER_LAYER:
        if all(n in absent for n in names):
            continue
        values = [reduce(r.sidecar["spans"], names, how) for r in traced]
        metrics[name] = _stat(values, unit)
        if how in ("calls", "calls_per_seed"):
            metrics[name]["value"] = values[0]

    coverage = []
    for r in traced:
        spans = r.sidecar["spans"]
        covered = sum(
            row["self_s"] for n, row in spans.items()
            if n.split(".", 1)[0] not in COVERAGE_EXCLUDED_LAYERS
        )
        coverage.append(covered / r.sidecar["wall_in_child_s"])
    metrics["trace.coverage_share"] = _stat(coverage, "ratio")
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_share"] = _stat(
        [(r.wall_s - untraced_wall) / untraced_wall for r in traced], "ratio"
    )
    return metrics, absent


# ---------------------------------------------------------------------------
# Environment block.
# ---------------------------------------------------------------------------


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import platform

    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = None
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "child_thread_env": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _fmt_stat(name: str, stat: dict) -> str:
    return (
        f"metric {name} = {stat['value']!r} {stat['unit']} "
        f"({stat['center']}; q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, "
        f"min {stat['min']:.6g}, max {stat['max']:.6g}, n={stat['n']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"experiment seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="repeat while half of the next repeat fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the workload's iterations (self-check only)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "mtlbal" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'mtlbal'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    iterations = workload.iterations if args.iterations is None else args.iterations
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    env = environment()
    env["loadavg_start"] = _loadavg()
    # Byte-compile and import once, untimed, so no repeat pays for it.
    warm = subprocess.run([sys.executable, "-c", "import mtlbal.cli"], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"cannot import mtlbal from {ROOT / 'src'}:\n{warm.stderr}", file=sys.stderr)
        return 2

    repeats = run_repeats(workload, args.seed, iterations, args.seconds, bool(args.trace))
    env["loadavg_end"] = _loadavg()
    checks, attempted, failed = check(workload, repeats, args.iterations is None)
    e2e = end_to_end_metrics(workload, repeats, iterations)
    layer, absent = per_layer_metrics(workload, repeats, iterations) if args.trace else ({}, [])
    correct = all(ok for _, ok, _ in checks)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {workload.why}")
    print(f"seed {args.seed}, iterations {iterations}, repeats {len(repeats)} "
          f"({sum(r.traced for r in repeats)} traced), {workload.runs} runs per repeat")
    for name, stat in {**e2e, **layer}.items():
        print(_fmt_stat(name, stat))
    print(f"metric failed_share = {failed / attempted!r} ratio ({failed}/{attempted})")
    if "compare.csv" in repeats[0].outputs:
        for method, value in sorted(dominated_of(repeats[0].outputs).items()):
            print(f"metric dominated_norm_loss[{method}] = {value!r} ratio")
    if absent:
        print(f"trace absent (targets gone, time falls to the caller): {', '.join(absent)}")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}")

    chosen = layer if args.trace else e2e
    report = {
        "workload": args.workload, "seed": args.seed, "iterations": iterations,
        "environment": env, "checks": checks, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layer, "trace_absent": absent,
    }
    (WORK / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": s["value"], "unit": s["unit"]} for n, s in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
