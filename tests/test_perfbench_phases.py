"""Every benchmark workload's seed-0 phase runs clean, as the benchmark runs it.

For each workload in ``perfbench/workloads.py`` this writes the seed-0
inputs to a file and runs one measured phase of ``perfbench/rep.py`` in a
fresh process, with ``perfbench/run.py``'s child environment (one BLAS
thread, no ``PYTHONPATH``).  The phase must fail no attempt and report no
problem.  Its output hashes must equal ``perfbench/baseline.json``'s seed-0
hashes wherever Python, numpy and scipy match the baseline's recorded
versions to major.minor; elsewhere the bytes may differ (``sum`` compensates
from Python 3.12 on, and BLAS builds differ).  The files under
``perfbench/`` are read, never changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from importlib import metadata

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
with open(os.path.join(PERFBENCH, "baseline.json")) as fh:
    BASELINE = json.load(fh)


def _major_minor(version):
    return tuple(version.split(".")[:2])


def _same_versions_as_the_baseline():
    recorded = BASELINE["provenance"]
    here = {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}
    return all(_major_minor(here[k]) == _major_minor(recorded[k])
               for k in here)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_the_seed_0_phase_runs_clean_and_matches_the_baseline(workload,
                                                              tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(WORKLOADS.generate(workload, 0, False)))
    run = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "rep.py"), str(spec_path),
         str(tmp_path / "work"), "--budget", "0"],
        capture_output=True, text=True, timeout=300,
        env=_load("run")._child_env(), cwd=os.path.dirname(PERFBENCH))
    assert run.returncode == 0, run.stderr
    phases = json.loads(run.stdout.splitlines()[-1])["phases"]
    assert phases
    for phase in phases:
        assert phase["failed"] == 0, phase["problems"]
        assert phase["problems"] == []
        if _same_versions_as_the_baseline():
            assert phase["hashes"] == BASELINE["hashes"][workload]["0"]
