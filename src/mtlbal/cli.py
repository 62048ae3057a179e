"""Command-line entry point.

Subcommands: run, compare, sweep, single-task. Exit codes: 0 success,
1 configuration error, 2 numerical abort. Per-run outputs are trace.csv,
result.json, and config.echo in the output directory; compare and sweep
each write one table file (compare.csv / sweep.csv).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import harness
from .harness import ConfigError, NumericalAbort
from .metrics import trace_to_text


def _parse_seeds(text: str) -> list:
    """Accept '7', '1,2,5', or an inclusive range '1..10'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError("range end before start")
            return list(range(lo, hi + 1))
        return [int(p) for p in text.split(",") if p.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad seed list {text!r}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"bad seed list {text!r}: too many seeds") from exc


def _load_config(path: str) -> harness.ExperimentConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:  # UTF-8 whatever the locale
        return harness.parse_config(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {line}: not UTF-8 ({exc.reason})") from exc


def _out_dir(args, config: harness.ExperimentConfig) -> Path:
    """The output directory, checked before any training: the file system
    encoding must hold its name, and its nearest existing ancestor must be
    a directory this process can write to."""
    out_dir = Path(args.out or config.out_dir)
    try:  # Path.exists reads a name it cannot encode as missing
        os.fsencode(out_dir)
    except UnicodeEncodeError as exc:
        raise ConfigError(
            f"cannot write output directory {str(out_dir)!a}: the file system encoding "
            f"{exc.encoding!r} cannot hold its name"
        ) from None
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write output directory {str(out_dir)!a}")
    return out_dir


def _write(out_dir: Path, files: dict) -> None:
    """Write each named text into `out_dir`, created if missing."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {str(out_dir)!a}: {exc}") from exc


def _cmd_run(args) -> int:
    """`run` and `single-task`: train, then write the run's outputs."""
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = _out_dir(args, config)
    if args.command == "run":
        result = harness.run_experiment(config)
        line = f"{config.balancer}: composite = {result.composite:.6f} -> {out_dir}"
    else:
        result = harness.run_single_task(config, args.task)
        task = result.task_results[0]
        line = f"single-task {task.name}: metric = {task.metric:.6f}, test loss = {task.test_loss:.6g}"
    _write(out_dir, {
        "trace.csv": trace_to_text(result.trace),
        "result.json": harness.result_to_json(result),
        "config.echo": harness.config_to_text(result.config),
    })
    print(line)
    return 0


def _cmd_table(args) -> int:
    """`compare` and `sweep`: run the comparison, then write its table and print it."""
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    seeds = _parse_seeds(args.seeds)
    if args.command == "compare":
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        if not methods:
            raise ConfigError("--methods must name at least one balancer")
        variants = [dataclasses.replace(config, balancer=m, name=m) for m in methods]
        report = harness.compare(
            variants, seeds, normalized_spread=not args.no_spread, jobs=args.jobs
        )
    else:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
        report = harness.sweep(config, args.param, values, seeds, jobs=args.jobs)
    table = report.to_table_text()
    _write(out_dir, {f"{args.command}.csv": table})
    sys.stdout.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlbal", description="Multi-task loss-balancing benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = []
    for name, func, about in [
        ("run", _cmd_run, "train one configuration and write its outputs"),
        ("compare", _cmd_table, "compare balancers over seeds"),
        ("sweep", _cmd_table, "grid one balancer hyperparameter"),
        ("single-task", _cmd_run, "train one task alone for reference losses"),
    ]:
        cmd_p = sub.add_parser(name, help=about)
        cmd_p.add_argument("--config", required=True)
        cmd_p.add_argument("--out", default=None)
        cmd_p.set_defaults(func=func)
        parsers.append(cmd_p)
    run_p, cmp_p, sweep_p, st_p = parsers

    st_p.add_argument("--task", type=int, required=True)
    for seeded_p in (run_p, st_p):
        seeded_p.add_argument("--seed", type=int, default=None)
    cmp_p.add_argument("--methods", required=True, help="comma-separated balancer names")
    cmp_p.add_argument("--seeds", required=True, help="e.g. 1..10 or 1,2,3")
    cmp_p.add_argument(
        "--no-spread", action="store_true", help="skip single-task reference runs"
    )
    sweep_p.add_argument(
        "--param", required=True,
        help=f"one of {', '.join(harness.SWEEPABLE)}, used by the config's balancer",
    )
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--seeds", default="1", help="e.g. 1..5 (default 1)")
    for table_p in (cmp_p, sweep_p):
        table_p.add_argument(
            "--jobs", type=int, default=harness.usable_cores(),
            help="processes that run seeds (default: the usable cores; 1 runs serially)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("config error: the config needs more memory than is available", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        print(exc.balancer_snapshot, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
