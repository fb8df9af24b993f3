"""The job entrypoints must at least import and expose a main()."""
import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"


def _load(name: str):
    # spark-submit runs jobs with the jobs/ directory on sys.path (for
    # the shared `_common` bootstrap); emulate that here
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


@pytest.mark.parametrize(
    "name", ["table3", "table4", "table5", "table6", "run_tdh", "assign_tasks"]
)
def test_job_importable_with_main(name):
    mod = _load(name)
    assert callable(mod.main)


def test_run_tdh_without_pythonpath():
    """A Spark job whose Python workers only see ``repro`` if the engine ships it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(JOBS / "run_tdh.py"), "--sf", "0.01"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    (line,) = [ln for ln in out.stdout.splitlines() if ln.startswith("[tdh] ")]
    assert re.search(r" converged=(True|False) ", line), line
    accuracy = float(re.search(r" accuracy=([0-9.]+)", line).group(1))
    assert 0.5 < accuracy <= 1.0, line


def test_assign_tasks_runs_eai_on_a_spark_fit():
    """EAI's per-object ``N_ov`` slices from a ``TDHSpark`` fit's
    shard-concatenated candidates."""
    out = subprocess.run(
        [sys.executable, str(JOBS / "assign_tasks.py"), "--sf", "0.01"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    (line,) = [ln for ln in out.stdout.splitlines() if ln.startswith("[assign] EAI evaluations:")]
    n_eval = int(line.rsplit(":", 1)[1])
    plans = [ln.split(": ", 1)[1] for ln in out.stdout.splitlines() if re.match(r"\[assign\] w\d+: ", ln)]
    n_assigned = sum(len(ast.literal_eval(p)) for p in plans)
    assert len(plans) == 10 and 0 < n_assigned <= n_eval, out.stdout
