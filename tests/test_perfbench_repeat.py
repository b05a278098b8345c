"""Every benchmark workload repeats its phase on one set-up, as the benchmark
runs it.

``perfbench/run.py`` gives each ``perfbench/rep.py`` process a time budget,
and a process runs as many phases as fit in it, all on the one set-up
(parsed ``RunConfig`` objects, or the verify_exact family and rule) that it
built first.  ``test_perfbench_phases.py`` runs one phase per process; this
test runs ``rep.py``'s workload classes in-process, with one ``setup`` and
then two ``phase``/``check`` rounds per workload's seed-0 spec.  Both phases
must fail no attempt, report no problem and hash the same outputs.  The
files under ``perfbench/`` are read, never changed.
"""

import importlib.util
import os
import sys

import pytest

import blocksweep

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
REP = _load("rep")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_two_phases_on_one_setup_run_clean_and_hash_the_same(
        workload, tmp_path, monkeypatch):
    # rep.py's check imports the gates as the top-level module ``workloads``
    monkeypatch.setitem(sys.modules, "workloads", WORKLOADS)
    spec = WORKLOADS.generate(workload, 0, False)
    run = (REP.CliWorkload if spec["mode"] == "cli"
           else REP.LibraryWorkload)(spec)
    run.setup(blocksweep)
    records = []
    for k in range(2):
        _, outcome = run.phase(str(tmp_path / f"phase{k}"))
        records.append(run.check(outcome))
    for record in records:
        assert record["failed"] == 0, record["problems"]
        assert record["problems"] == []
        assert record["attempted"] > 0
        assert record["hashes"]
    assert records[0]["hashes"] == records[1]["hashes"]
