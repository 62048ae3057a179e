"""End-to-end CLI behavior: files, determinism, exit codes."""

import codecs
import concurrent.futures
import contextlib
import io
import json
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import mtlbal
from mtlbal.balancers import BALANCER_NAMES
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


def run_cli(args, tmp_path):
    """Run the CLI in a fresh process; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "mtlbal.cli", *args], capture_output=True,
                          text=True, env=env, timeout=120, cwd=tmp_path)


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
        proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2
        assert "numerical abort" in proc.stderr and "task 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_loss_exits_two_naming_the_task(self, tmp_path):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(NONFINITE_CONFIG)
        proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2
        assert "numerical abort" in proc.stderr and "loss for task 1 is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_test_metric_abort_is_not_a_training_loss_abort(self, tmp_path, capsys):
        # A 1e308 scale overflows a regression target to inf while
        # generating, so the test metrics are non-finite before any step.
        cfg = tmp_path / "inf-target.cfg"
        cfg.write_text(
            "tasks = regression-mse:1:5e-324:a; regression-mse:1:1e308:b\nbalancer = baseline\n"
            "n_samples = 20\ninput_dim = 3\niterations = 0\nseed = 93\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "non-finite test metrics after 0 iterations" in err
        assert "non-finite loss" not in err

    @staticmethod
    def run_capped(args, cwd, limit_kib):
        """Run the CLI in a child process whose address space is limited."""
        limit = limit_kib * 1024
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "mtlbal.cli", *args],
            capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    def test_config_too_large_for_memory_exits_one_without_traceback(self, tmp_path):
        # The config passes the memory cap (about 0.7 GiB), but its 150 MiB
        # arrays cannot all be allocated under a limit set in the child only.
        cfg = tmp_path / "large.cfg"
        cfg.write_text("scenario = celeb-mini\nn_samples = 600000\niterations = 1\n")
        proc = self.run_capped(["run", "--config", str(cfg), "--out", str(tmp_path / "o")],
                               tmp_path, 400_000)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["config error: the config needs more memory than is available"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("setting, term", [
        ("trunk = 200000,200000", "parameters"),
        ("n_samples = 2000000000", "dataset"),
        ("batch_size = 100000000\nn_samples = 1000", "activations"),
    ], ids=["trunk", "n_samples", "batch_size"])
    @pytest.mark.parametrize("command", [[], ["--methods", "baseline,ema", "--seeds", "1..2", "--jobs", "1"],
                                         ["--methods", "baseline,ema", "--seeds", "1..2", "--jobs", "2"]],
                             ids=["run", "compare-jobs1", "compare-jobs2"])
    def test_config_past_the_memory_cap_exits_one_before_allocating(self, tmp_path, setting, term, command):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"scenario = celeb-mini\n{setting}\niterations = 1\n")
        args = ["compare" if command else "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        proc = self.run_capped(args + command, tmp_path, 1_500_000)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert re.fullmatch(
            rf"config error: a run would hold about [\d,.]+ GiB, above the 1 GiB cap; "
            rf"the largest term is the {term} \([\d,.]+ GiB\)", line), line

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_one_without_traceback(self, config_file, tmp_path, seed):
        proc = run_cli(["run", "--config", str(config_file), "--out", str(tmp_path / "o"),
                        "--seed", seed], tmp_path)
        assert proc.returncode == 1
        assert "config error: seed must be in [0, 2**64)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "setting", ["seed = -1", "n_samples = 20", "latent_dim = 0", "lr = nan",
                    "balancer_lr = nan", "temperature = nan", "alpha = nan"],
    )
    def test_invalid_setting_exits_one_without_traceback(self, tmp_path, setting):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CONFIG + setting + "\n")
        proc = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")], tmp_path)
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
        for seeds in ("1..x", "1,1", "-3..-2", "1,18446744073709551616", "0..18446744073709551615",
                      "0..4611686018427387903"):
            rc = main(
                ["compare", "--config", str(config_file), "--methods", "ema", f"--seeds={seeds}",
                 "--out", str(tmp_path)]
            )
            assert rc == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, config_file, tmp_path, capsys, jobs):
        rc = main(["compare", "--config", str(config_file), "--methods", "ema", "--seeds", "1",
                   "--jobs", jobs, "--out", str(tmp_path)])
        assert rc == 1
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_do_not_change_the_table(self, config_file, tmp_path):
        args = ["compare", "--config", str(config_file), "--methods", "baseline,uw",
                "--seeds", "1..3"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "parallel")]) == 0
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        serial = (tmp_path / "serial" / "compare.csv").read_bytes()
        assert (tmp_path / "parallel" / "compare.csv").read_bytes() == serial
        assert (tmp_path / "default" / "compare.csv").read_bytes() == serial

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads /proc for children")
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL], ids=["ctrl-c", "kill"])
    def test_stopping_a_parallel_compare_stops_its_worker(self, tmp_path, sig):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("scenario = celeb-mini\niterations = 100000\n")
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtlbal.cli", "compare", "--config", str(cfg), "--methods",
             "ema", "--seeds", "1,2", "--jobs", "2", "--out", str(tmp_path / "o")],
            env=env, cwd=tmp_path, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")

        def alive(pid):  # a zombie has finished; only its parent has not reaped it yet
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        def worker():
            for pid in children.read_text().split():
                if "spawn_main" in Path(f"/proc/{pid}/cmdline").read_text():
                    return pid
            return None

        try:
            deadline = time.monotonic() + 60
            while (pid := worker()) is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pid is not None
            time.sleep(1.0)  # let the worker start training
            if sig == signal.SIGINT:  # Ctrl-C reaches the whole foreground process group
                os.killpg(proc.pid, sig)
            else:
                proc.send_signal(sig)
            assert proc.wait(timeout=30) != 0
            deadline = time.monotonic() + 30
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not alive(pid)
        finally:
            try:  # whatever is left of the process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


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

    def test_values_equal_to_six_digits_are_distinct(self, config_file, tmp_path):
        argv = ["sweep", "--config", str(config_file), "--param", "beta", "--seeds", "1"]
        rc = main(argv + ["--values", "0.1,0.1000001", "--out", str(tmp_path / "a")])
        assert rc == 0
        assert len((tmp_path / "a" / "sweep.csv").read_text().splitlines()) == 3
        assert main(argv + ["--values", "0.1,0.10", "--out", str(tmp_path / "b")]) == 1

    def test_optimizer_lr_is_not_sweepable(self, config_file, tmp_path, capsys):
        rc = main(["sweep", "--config", str(config_file), "--param", "lr", "--values", "0.1",
                   "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "'balancer_lr'" in capsys.readouterr().err

    def test_parameter_the_balancer_ignores_exits_one(self, config_file, tmp_path, capsys):
        rc = main(["sweep", "--config", str(config_file), "--param", "balancer_lr",
                   "--values", "0.1,0.01", "--out", str(tmp_path / "s")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: balancer 'ema' ignores")
        assert not (tmp_path / "s").exists()


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


class TestUnwritableOutput:
    """An --out that cannot be a directory is a config error, found before any training."""

    @pytest.mark.parametrize("under_file", [False, True])
    def test_run_exits_one_before_training(self, tmp_path, under_file):
        # This config aborts at its first step, so exit 1 shows that nothing trained.
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(NONFINITE_CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o" if under_file else blocker
        proc = run_cli(["run", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert proc.returncode == 1
        assert "config error: cannot write output directory" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("under_file", [False, True])
    def test_compare_exits_one(self, config_file, tmp_path, under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o" if under_file else blocker
        proc = run_cli(["compare", "--config", str(config_file), "--methods", "ema",
                        "--seeds", "1", "--no-spread", "--out", str(out)], tmp_path)
        assert proc.returncode == 1
        assert "config error: cannot write output directory" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestHeapReuse:
    """README, "Fresh arrays": a step's arrays come back from glibc's heap
    rather than being mapped, or trimmed off the heap and regrown, on every
    step. That holds while the dynamic mmap threshold sits above the step's
    arrays, which `generate_mtl`'s latent array (2 MB here) puts there when
    it is freed whole. Where the heap's top lies also moves with the working
    directory's path, whose strings the heap holds, so the run is launched
    from 16 directories whose paths grow by one character each: one for
    every 16-byte alignment of a chunk."""

    #: celeb-mini's default 8,000 samples, with steps large enough (batch
    #: 256) that freeing the gradient after the optimizer, or a threshold
    #: left at a row block of the latents, trims and regrows the heap.
    CONFIG = "scenario = celeb-mini\nbatch_size = 256\niterations = {}\n"
    ITERATIONS = (20, 60)

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="pins glibc's malloc")
    def test_minor_faults_per_step_stay_small_at_every_path_length(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")

        def minor_faults(cwd, iterations):
            cwd.mkdir(parents=True)
            (cwd / "exp.cfg").write_text(self.CONFIG.format(iterations))
            proc = subprocess.Popen(
                [sys.executable, "-m", "mtlbal.cli", "run", "--config", "exp.cfg", "--out", "out"],
                env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            assert os.waitstatus_to_exitcode(status) == 0
            return usage.ru_minflt

        lo, hi = self.ITERATIONS
        dirs = [tmp_path / ("d" + "x" * i) for i in range(16)]
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            faults = {
                d.name: [pool.submit(minor_faults, d / str(it), it) for it in self.ITERATIONS]
                for d in dirs
            }
            per_step = {
                name: (high.result() - low.result()) / (hi - lo)
                for name, (low, high) in faults.items()
            }
        # Measured: at most 0.1 per step; latents in 1,024-row blocks took about
        # 230, and freeing the gradient after the optimizer about 1,060.
        assert max(per_step.values()) < 10, per_step


#: The environments whose output bytes must agree: UTF-8 mode, and the C
#: locale with its coercion and UTF-8 mode off, where the locale is ASCII.
LOCALES = {
    "utf-8": {"PYTHONUTF8": "1"},
    "C": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
}


def run_cli_bytes(args, cwd, locale):
    """Run the CLI in a fresh process under one of LOCALES; returns the exit
    code, stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(mtlbal.__file__).parents[1]), **LOCALES[locale])
    done = subprocess.run([sys.executable, "-m", "mtlbal.cli", *args], capture_output=True,
                          env=env, timeout=120, cwd=cwd)
    return done.returncode, done.stdout, done.stderr


class TestLocale:
    """Config bytes are read as UTF-8 and every byte written is the same
    whatever the locale; a config that is not UTF-8 is a config error."""

    def test_the_c_locale_is_ascii(self):
        env = dict(os.environ, **LOCALES["C"])
        code = "import locale, sys; print(locale.getpreferredencoding(), sys.stdout.encoding)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout.split()
        assert [codecs.lookup(name).name for name in out] == ["ascii", "ascii"]

    @pytest.mark.parametrize("locale", sorted(LOCALES))
    def test_config_byte_ff_exits_one_naming_the_line(self, tmp_path, locale):
        (tmp_path / "exp.cfg").write_bytes(FAST_CONFIG.encode() + b"name = \xff\n")
        code, out, err = run_cli_bytes(["run", "--config", "exp.cfg"], tmp_path, locale)
        assert (code, out) == (1, b"")
        assert err == b"config error: line 9: not UTF-8 (invalid start byte)\n"

    def test_non_ascii_task_name_exits_one_with_one_line(self, tmp_path):
        config = FAST_CONFIG.replace("scenario = celeb-mini", "tasks = binary-bce:1:1:caf\u00e9")
        (tmp_path / "exp.cfg").write_bytes(config.encode())
        outcomes = {locale: run_cli_bytes(["run", "--config", "exp.cfg"], tmp_path, locale)
                    for locale in LOCALES}
        code, out, err = outcomes["C"]
        assert outcomes["utf-8"] == outcomes["C"]
        assert (code, out) == (1, b"")
        assert err.startswith(b"config error: line 1: bad value for 'tasks': task name 'caf\\xe9'")
        assert err.count(b"\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run"], ["single-task", "--task", "1"],
        ["compare", "--methods", "baseline,ema", "--seeds", "1..2", "--jobs", "1"],
    ])
    def test_outputs_are_the_same_bytes_under_both_locales(self, tmp_path, argv):
        (tmp_path / "exp.cfg").write_bytes(("# caf\u00e9\n" + FAST_CONFIG).encode())
        outputs = []
        for locale in LOCALES:
            cwd = tmp_path / locale  # the same relative --out, since `run` prints it
            cwd.mkdir()
            outcome = run_cli_bytes([*argv, "--config", "../exp.cfg", "--out", "out"], cwd, locale)
            outputs.append((outcome, {p.name: p.read_bytes() for p in sorted(cwd.glob("out/*"))}))
        (code, _, err), files = outputs[0]
        assert (code, err) == (0, b"")
        assert files and outputs[1] == outputs[0]


#: Loss scales from the smallest subnormal to near the largest double.
SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1e308]),
    st.floats(5e-324, 1e308, allow_subnormal=True),
)


class TestOutcomeContract:
    """Every config ends in exit 0, 1 or 2 with no traceback, writes the same
    bytes twice, and on a numerical abort prints a balancer snapshot: `key =
    value` lines naming the method and a nonnegative iteration."""

    @staticmethod
    def invoke(argv):
        """Exit code and stderr; an exception escaping `main` fails the test."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=40),
        st.tuples(st.sampled_from([b"", b"# "]), st.binary(max_size=12)).map(
            lambda parts: b"".join(parts) + b"\n" + FAST_CONFIG.encode()
        ),
    ))
    @example(raw=b"\xff")
    @example(raw=b"# caf\xc3\xa9 \xe2\x80\xa8 \xc2\x85\n" + FAST_CONFIG.encode())
    @example(raw=FAST_CONFIG.encode() + b"\xc3\n")
    def test_any_config_bytes_exit_zero_one_or_two(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "exp.cfg").write_bytes(raw)
            code, err = self.invoke(["run", "--config", str(tmp / "exp.cfg"), "--out", str(tmp)])
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error:") and err.count("\n") == 1

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([-1, 0, 2**64 - 1, 2**64]), st.integers(0, 2**64 - 1)),
        kinds=st.lists(st.sampled_from(["regression-mse", "binary-bce", "multiclass-ce"]),
                       min_size=1, max_size=3),
        scales=st.lists(SCALES, min_size=3, max_size=3),
        lr=st.one_of(st.sampled_from([1e-3, 1e300]), st.floats(1e-6, 1e300)),
        optimizer=st.sampled_from(["adam", "sgd"]),
        balancer=st.sampled_from(BALANCER_NAMES),
        batch_size=st.sampled_from([1, 8, 24, 100]),
        iterations=st.integers(0, 5),
        command=st.sampled_from(["run", "single-task", "compare"]),
    )
    # A 1e308 scale overflows a regression target to inf while generating.
    @example(seed=93, kinds=["regression-mse", "regression-mse"], scales=[5e-324, 1e308, 5e-324],
             lr=1e-3, optimizer="adam", balancer="baseline", batch_size=1, iterations=0,
             command="run")
    def test_exit_code_determinism_and_snapshot(
        self, seed, kinds, scales, lr, optimizer, balancer, batch_size, iterations, command
    ):
        tasks = "; ".join(
            f"{kind}:{3 if kind == 'multiclass-ce' else 1}:{scale!r}:t{i}"
            for i, (kind, scale) in enumerate(zip(kinds, scales))
        )
        # n_samples at the floor of 10 per task: 8 training rows per task, so
        # the larger batch sizes exceed the training rows.
        config = (
            f"tasks = {tasks}\nbalancer = {balancer}\noptimizer = {optimizer}\nlr = {lr!r}\n"
            f"seed = {seed}\nn_samples = {10 * len(kinds)}\ninput_dim = 3\ntrunk = 4\n"
            f"head_hidden = 2\niterations = {iterations}\nbatch_size = {batch_size}\n"
            "log_cadence = 2\n"
        )
        extra = {
            "run": [],
            "single-task": ["--task", "0"],
            "compare": ["--methods", balancer, f"--seeds={seed}", "--jobs", "1"],
        }[command]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "exp.cfg").write_text(config)
            outcomes, files = [], []
            for name in ("a", "b"):
                argv = [command, "--config", str(tmp / "exp.cfg"), "--out", str(tmp / name)]
                outcomes.append(self.invoke(argv + extra))
                files.append({p.name: p.read_bytes() for p in sorted((tmp / name).glob("*"))})
        code, err = outcomes[0]
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert outcomes[1] == outcomes[0]
        assert files[1] == files[0]
        if code == 2:
            # print() ends the snapshot's last line with one more newline.
            snapshot = err[err.index("balancer-state v1"):]
            assert snapshot.endswith("\n\n")
            lines = snapshot.splitlines()[1:-1]
            assert all(re.fullmatch(r"\w+ = \S+", line) for line in lines), lines
            fields = dict(line.split(" = ") for line in lines)
            assert fields["method"] == (balancer if command == "run" else "baseline")
            assert int(fields["iteration"]) >= 0
