"""The bench's per-layer probes (``bench/run.py --trace 1``) call the
program's functions by name; a rename that breaks them fails here."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
# the thread pools bench/run.py pins when it is imported
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# every workload the benchmark declares
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_micro_loops_run_on_every_workload(tmp_path, monkeypatch, workload):
    # importing bench/run.py sets these variables and puts bench/ on
    # sys.path; both are restored after the test
    for var in POOL_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", REPO / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import layers

    setup = run.Setup(workload, 1, tmp_path)
    metrics = layers.micro(setup)
    names = {name for name, _ in layers.PER_LAYER}
    assert set(metrics) <= names
    assert {"connections.newton_iter_ms", "connections.linearization_ms",
            "connections.shoot_step_us"} <= set(metrics)
    assert all(math.isfinite(value) for value in metrics.values())


def test_bench_oracle_tests_pass():
    # bench/test_oracles.py checks the closed forms that the benchmark
    # judges outputs by; it runs in a process of its own, so that the
    # scipy.stats and scipy.linalg it imports stay out of this one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench"], cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
