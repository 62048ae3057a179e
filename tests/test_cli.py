"""End-to-end CLI behavior: files, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtlbal
from mtlbal.cli import main

FAST_CONFIG = """\
scenario = celeb-mini
balancer = ema
n_samples = 300
input_dim = 4
iterations = 20
batch_size = 16
log_cadence = 5
seed = 2
"""

DIVERGENT_CONFIG = """\
tasks = regression-mse:1:100:boom; binary-bce:1:1:ok
balancer = baseline
optimizer = sgd
lr = 1000
n_samples = 300
input_dim = 4
iterations = 30
batch_size = 16
seed = 1
"""

# uw's weight for the huge task underflows to zero after one step.
OVERFLOW_CONFIG = """\
tasks = regression-mse:1:1:a; regression-mse:1:1e60:huge
balancer = uw
n_samples = 300
input_dim = 4
iterations = 30
batch_size = 16
seed = 1
"""

# The scaled regression loss overflows to inf at the first step.
NONFINITE_CONFIG = """\
tasks = binary-bce:1:1:ok; regression-mse:1:1e140:inf
balancer = baseline
n_samples = 300
input_dim = 4
iterations = 30
batch_size = 16
seed = 1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_CONFIG)
    return path


class TestRunCommand:
    def test_writes_outputs_and_exits_zero(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "config.echo").exists()
        payload = json.loads((out / "result.json").read_text())
        assert payload["balancer"] == "ema"
        assert len(payload["tasks"]) == 8
        assert "composite" in capsys.readouterr().out

    def test_trace_bytes_reproducible(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(out1)])
        main(["run", "--config", str(config_file), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()

    def test_seed_override_changes_result(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(out1)])
        main(["run", "--config", str(config_file), "--seed", "7", "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = celeb-mini\nwarp = 9\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_numerical_abort_exit_code_and_snapshot(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(DIVERGENT_CONFIG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "numerical abort" in err
        assert "balancer-state v1" in err

    def test_balancer_error_exits_two_without_traceback(self, tmp_path):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(OVERFLOW_CONFIG)
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mtlbal.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "numerical abort" in proc.stderr and "task 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_loss_exits_two_naming_the_task(self, tmp_path):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(NONFINITE_CONFIG)
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mtlbal.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "numerical abort" in proc.stderr and "loss for task 1 is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "setting", ["n_samples = 20", "latent_dim = 0", "lr = nan", "balancer_lr = nan",
                    "temperature = nan", "alpha = nan"],
    )
    def test_invalid_setting_exits_one_without_traceback(self, tmp_path, setting):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + setting + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mtlbal.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "config error" in proc.stderr and setting.split()[0] in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCompareCommand:
    def test_writes_table_and_is_byte_identical_across_invocations(self, config_file, tmp_path):
        args = [
            "compare",
            "--config",
            str(config_file),
            "--methods",
            "baseline,ema",
            "--seeds",
            "1..2",
            "--no-spread",
        ]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "compare.csv").read_bytes()
        assert b1 == (out2 / "compare.csv").read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0].startswith("method,n_seeds,")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["baseline", "ema"]

    def test_bad_method_rejected(self, config_file, tmp_path):
        rc = main(
            ["compare", "--config", str(config_file), "--methods", "magic", "--seeds", "1",
             "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_bad_seed_list_rejected(self, config_file, tmp_path):
        rc = main(
            ["compare", "--config", str(config_file), "--methods", "ema", "--seeds", "1..x",
             "--out", str(tmp_path)]
        )
        assert rc == 1


class TestSweepCommand:
    def test_writes_sweep_table(self, config_file, tmp_path):
        out = tmp_path / "s"
        rc = main(
            ["sweep", "--config", str(config_file), "--param", "beta",
             "--values", "0.5,0.2,0.1", "--seeds", "1", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "0.5"


class TestSingleTaskCommand:
    def test_runs_and_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "st"
        rc = main(
            ["single-task", "--config", str(config_file), "--task", "7", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "trace.csv").exists()
        payload = json.loads((out / "result.json").read_text())
        assert len(payload["tasks"]) == 1
        assert payload["tasks"][0]["name"] == "attr7"

    def test_bad_task_index(self, config_file, tmp_path):
        rc = main(
            ["single-task", "--config", str(config_file), "--task", "11", "--out", str(tmp_path)]
        )
        assert rc == 1
