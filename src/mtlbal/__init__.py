"""Multi-task loss balancing: EMA-family weighting, reference methods, and a
deterministic benchmark harness on synthetic shared-trunk problems."""

from .balancers import (
    BALANCER_NAMES,
    EPS_FLOOR,
    LossVector,
    WeightVector,
    combine,
    make_balancer,
    snapshot,
)
from .harness import (
    SCENARIOS,
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    NumericalAbort,
    RunResult,
    compare,
    parse_config,
    run_experiment,
    run_single_task,
    sweep,
)
from .metrics import ccc, coefficient_spikiness, composite_score, f1_binary, f1_macro
from .tasks import TaskSpec, generate_mtl, loss_and_grad

__all__ = [
    "BALANCER_NAMES",
    "EPS_FLOOR",
    "LossVector",
    "WeightVector",
    "combine",
    "make_balancer",
    "snapshot",
    "SCENARIOS",
    "ComparisonReport",
    "ConfigError",
    "ExperimentConfig",
    "NumericalAbort",
    "RunResult",
    "compare",
    "parse_config",
    "run_experiment",
    "run_single_task",
    "sweep",
    "ccc",
    "coefficient_spikiness",
    "composite_score",
    "f1_binary",
    "f1_macro",
    "TaskSpec",
    "generate_mtl",
    "loss_and_grad",
]

__version__ = "0.1.0"
