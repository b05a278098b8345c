"""A run writes the same bytes at one and at two BLAS threads.

Each config runs as ``blocksweep run`` in two fresh processes, under
``OPENBLAS_NUM_THREADS=1`` and ``=2``, and the trace CSVs and
``report.json`` must be byte for byte the same.  The golden ``pd_dr``
configs, whose graph matrices are small, hold; the ``pd_graph`` benchmark
config (seed 0, 160 primal entries), made by ``perfbench/workloads.py``,
does not yet: LAPACK ``dpotrf``, the blocked Cholesky that ``cho_factor``
calls, gives other last bits at two threads from order 160 up (README's
scope notes).
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import blocksweep as bs

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = os.path.join(HERE, "golden", "cases")


def _pd_graph_config():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        os.path.join(HERE, os.pardir, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate("pd_graph", 0)["jobs"][0]["yaml"]


def _golden_config(name):
    with open(os.path.join(CASES, name, "config.yaml")) as fh:
        return fh.read()


def _run(config, out, threads):
    src = os.path.dirname(os.path.dirname(bs.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "blocksweep.cli", "run", str(config),
         "--out", str(out)],
        capture_output=True, env=env, timeout=300)
    # 2: a seed ended short of the tolerance, which these configs expect
    assert run.returncode in (0, 2), run.stderr
    files = {name: (out / name).read_bytes() for name in os.listdir(out)}
    return run.returncode, files


@pytest.mark.parametrize("config", [
    pytest.param(lambda: _golden_config("pd_dr_bernoulli"),
                 id="pd_dr_bernoulli"),
    pytest.param(lambda: _golden_config("pd_dr_error_all"),
                 id="pd_dr_error_all"),
    pytest.param(_pd_graph_config, id="pd_graph_seed0", marks=pytest.mark.xfail(
        strict=False, reason="ROADMAP item 12: the graph projector's "
        "Cholesky factor changes bits with the BLAS thread count")),
])
def test_a_run_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path,
                                                                 config):
    path = tmp_path / "config.yaml"
    path.write_text(config())
    code, one = _run(path, tmp_path / "one", 1)
    assert "report.json" in one
    assert any(name.endswith(".csv") for name in one)
    assert _run(path, tmp_path / "two", 2) == (code, one)
