"""One benchmark repeat: run the mtlbal CLI in this fresh process.

Usage: python3 bench/child.py SIDECAR MODE -- <mtlbal CLI arguments>

Runs `mtlbal.cli.main` on the given arguments and exits with its code. At
exit it writes SIDECAR, a JSON object with the import time and the set-up
time, both as CPU time of this process since it started, up to the end of
`import mtlbal.cli` and of the first `init_params` (falling back to the first
`generate_mtl` if `init_params` is gone). MODE is one of:

- `plain`: run the command as is;
- `trace`: also wrap every target in TARGETS, keep one span per call in
  memory, and add each span name's calls and self time to SIDECAR; the raw
  spans go to SIDECAR with the suffix `.spans.csv`.

The program is never edited: a target is wrapped by replacing every
reference to it in the namespaces of loaded `mtlbal` modules, so a caller
that imported it by name (as `harness` does with `generate_mtl`) is traced
too. A target that no longer exists is reported as absent and its time falls
into its caller's self time.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

#: (span name, defining module, qualified name). Several targets may share a
#: span name; the span name's prefix up to the first dot is its layer.
TARGETS = (
    ("network.forward", "mtlbal.network", "forward_cache"),
    ("network.backward", "mtlbal.network", "backward"),
    ("network.optimizer", "mtlbal.network", "adam_step"),
    ("network.optimizer", "mtlbal.network", "sgd_step"),
    ("network.init", "mtlbal.network", "init_params"),
    ("network.gradnorm_probe", "mtlbal.network", "shared_layer_grad_norms"),
    ("tasks.loss", "mtlbal.tasks", "loss_and_grad"),
    ("tasks.batch", "mtlbal.tasks", "Dataset.batch"),
    ("tasks.generate", "mtlbal.tasks", "generate_mtl"),
    ("rng.below", "mtlbal.rng", "SplitMix64.below"),
    ("rng.normal", "mtlbal.rng", "SplitMix64.normal"),
    ("balancers.step", "mtlbal.balancers", "Balancer.step"),
    ("balancers.combine", "mtlbal.balancers", "combine"),
    ("balancers.snapshot", "mtlbal.balancers", "snapshot"),
    ("metrics.trace_append", "mtlbal.metrics", "Trace.append"),
    ("metrics.spikiness", "mtlbal.metrics", "coefficient_spikiness"),
    ("metrics.trace_to_text", "mtlbal.metrics", "trace_to_text"),
    ("metrics.score", "mtlbal.metrics", "f1_binary"),
    ("metrics.score", "mtlbal.metrics", "f1_macro"),
    ("metrics.score", "mtlbal.metrics", "ccc"),
    ("metrics.score", "mtlbal.metrics", "composite_score"),
    ("harness.run", "mtlbal.harness", "run_experiment"),
    ("harness.single_task", "mtlbal.harness", "run_single_task"),
    ("harness.compare", "mtlbal.harness", "compare"),
    ("harness.evaluate", "mtlbal.harness", "evaluate_model"),
    ("cli.parse_config", "mtlbal.harness", "parse_config"),
    ("cli.write_outputs", "mtlbal.harness", "config_to_text"),
    ("cli.write_outputs", "mtlbal.harness", "result_to_json"),
    ("cli.write_outputs", "mtlbal.harness", "ComparisonReport.to_table_text"),
)

MODES = ("plain", "trace")

#: Span recorded by hand around `import mtlbal.cli`.
IMPORT_SPAN = "cli.import"


def _resolve(module_name: str, qualname: str):
    """(owner, attribute name, function) for a target, or None if absent."""
    owner = sys.modules.get(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return (owner, attr, fn) if callable(fn) else None


def _replace_everywhere(original, replacement, owner, attr) -> None:
    """Point the owner's attribute and every by-name import at `replacement`."""
    setattr(owner, attr, replacement)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mtlbal" or name.startswith("mtlbal.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Spans (name, start, end, parent) kept in parallel lists until exit."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        self.absent: list = []

    def wrap(self, fn, name: str):
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)

    def install(self, targets) -> None:
        for name, module_name, qualname in targets:
            found = _resolve(module_name, qualname)
            if found is None:
                self.absent.append(f"{module_name}:{qualname}")
                continue
            owner, attr, fn = found
            _replace_everywhere(fn, self.wrap(fn, name), owner, attr)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i] - T0:.9f},{self.ends[i] - T0:.9f},"
                    f"{self.parents[i]}\n"
                )


def _mark_setup_end(sidecar: dict) -> None:
    """Record the end of the first init_params (else generate_mtl) call."""
    for module_name, qualname in (
        ("mtlbal.network", "init_params"),
        ("mtlbal.tasks", "generate_mtl"),
    ):
        found = _resolve(module_name, qualname)
        if found is None:
            continue
        owner, attr, fn = found

        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if "setup_s" not in sidecar:
                sidecar["setup_s"] = time.process_time()
                sidecar["setup_wall_s"] = time.perf_counter() - T0
            return result

        _replace_everywhere(fn, marked, owner, attr)
        sidecar["setup_boundary"] = f"{module_name}:{qualname}"
        return


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in MODES or argv[2] != "--":
        print(f"usage: child.py SIDECAR {{{'|'.join(MODES)}}} -- <mtlbal arguments>",
              file=sys.stderr)
        return 64
    sidecar_path, mode, cli_args = argv[0], argv[1], argv[3:]

    import_start = time.perf_counter()
    import mtlbal.cli

    import_end = time.perf_counter()
    sidecar: dict = {"import_s": time.process_time(), "mtlbal_file": mtlbal.__file__}
    _mark_setup_end(sidecar)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.add(IMPORT_SPAN, import_start, import_end)
        tracer.install(TARGETS)
    try:
        code = mtlbal.cli.main(cli_args)
    finally:
        sidecar["wall_in_child_s"] = time.perf_counter() - T0
        if tracer is not None:
            sidecar["spans"] = tracer.summary()
            sidecar["absent"] = tracer.absent
            tracer.write_spans(sidecar_path + ".spans.csv")
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
