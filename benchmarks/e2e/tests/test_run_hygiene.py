"""run.py refuses bad environments and cleans up after its subprocess."""

import os
import shutil
import subprocess
import sys

import gen
import run
from conftest import E2E, ROOT


def run_script(script, *args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_refuses_to_start_under_repro_execution():
    env = dict(os.environ, REPRO_EXECUTION="interpreted")
    done = run_script(E2E / "run.py", "--quick", env=env)
    assert done.returncode == 2
    assert "REPRO_EXECUTION" in done.stderr and not done.stdout


def test_fails_without_the_programs_source(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own files exist: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_script(tmp_path / "benchmarks" / "e2e" / "run.py",
                      "--workload", "warm_serving", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "source is missing" in done.stderr and not done.stdout


def test_unknown_workload_is_an_error():
    done = run_script(E2E / "run.py", "--workload", "nope", "--trace", "0")
    assert done.returncode == 2 and "unknown workload" in done.stderr


def test_watchdog_kills_the_subprocess_and_its_workers():
    workload = gen.generate("distributed_scatter", 1, 1.0, scale=0.1)
    inputs = workload.program_inputs()
    inputs["params"] = {"seconds": 1.0, "trace": False, "setups": 1,
                        "replay_ops": 0, "warmup_ops": gen.WARMUP_OPS}
    before = set(run.group_members(os.getpgid(0)))
    # no set-up finishes within 10 ms of the first heartbeat: the
    # watchdog must give up, kill the group and report nothing
    assert run.run_child(inputs, deadline=0.01) is None
    assert set(run.group_members(os.getpgid(0))) <= before
