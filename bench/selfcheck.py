"""Quick self-check of the benchmark at a few iterations.

Usage, from the root of a checkout: python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json at 20 iterations, once untraced and
once traced, and checks that each run exits 0 with `correct` true, that
every end-to-end and per-layer metric is emitted with the unit
BENCHMARK.json gives it (a per-layer metric may be missing only when the
benchmark reports its traced targets as absent), and that trace coverage is
a share in (0, 1]. Prints one line per check and exits 1 if any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

from bench import PER_LAYER, ROOT, WORK

ITERATIONS = "20"


def run(workload: str, trace: int) -> tuple:
    """(exit code, final JSON object, report.json) of one short benchmark run."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("bench.py")),
         "--workload", workload, "--seconds", "1", "--trace", str(trace),
         "--iterations", ITERATIONS],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    report = json.loads((WORK / "report.json").read_text())
    return done.returncode, result, report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok' if ok else 'FAILED'}: {what}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, report = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result.get("correct") is True, f"{label}: exit 0, correct")
            emitted = result.get("metrics", {})
            absent_spans = set(report["trace_absent"])
            absent = {name for name, _, spans, _ in PER_LAYER if absent_spans.issuperset(spans)}
            for metric in declared:
                name, unit = metric["name"], metric["unit"]
                if name in absent and name not in emitted:
                    print(f"skip: {label}: {name} (traced targets absent)")
                    continue
                got = emitted.get(name, {}).get("unit")
                expect(got == unit, f"{label}: {name} emitted in {unit} (got {got})")
            if trace:
                coverage = emitted.get("trace.coverage_share", {}).get("value", -1.0)
                expect(0.0 < coverage <= 1.0, f"{label}: trace coverage {coverage}")
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
