"""Self-test of the benchmark in its tiny smoke mode (about a minute).

    python3 perfbench/selftest.py

Checks that
1. every end-to-end and per-layer metric is emitted with the unit that
   BENCHMARK.json declares, on every workload;
2. the span tree nests (each child inside its parent) and no self time is
   negative;
3. the correctness gates fail when given a deliberately wrong reference;
4. the exact counts repeat across two traced runs of the same seed;
5. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("solvers.iterations", "blockspace.offsets.calls_per_iter",
         "sweeping.sample_mask.calls", "operators.block_evals_per_iter",
         "diagnostics.masked_updates_per_expansion")


def check(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def test_names_units_spans(failures):
    e2e, per_layer, names = declared_metrics()
    check(tuple(names) == workloads.WORKLOADS,
          "BENCHMARK.json lists the workloads run.py knows", failures)
    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, e2e), (True, per_layer)):
            record = run.run_workload(workload, 0, 1.0, trace, smoke=True)
            line = run.result_line(record)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == declared and line["correct"],
                  f"{workload} trace={int(trace)}: correct, every declared "
                  "metric emitted with its unit", failures)
            if trace:
                spans = record["span_checks"]
                check(spans["nesting_ok"] and spans["min_self_ns"] >= 0,
                      f"{workload}: spans nest, min self time "
                      f"{spans['min_self_ns']} ns >= 0", failures)
                again = run.run_workload(workload, 0, 1.0, True, smoke=True)
                check(all(record["layers"][k] == again["layers"][k]
                          for k in EXACT),
                      f"{workload}: exact counts repeat across traced runs",
                      failures)


def test_gates_reject_wrong_reference(failures):
    """The batch gate with a shifted reference, and the library gate with a
    wrong fixed point, must both fail; the true ones must pass."""
    import yaml

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from blocksweep.cli import execute_run, parse_config

    spec = workloads.generate("batch_small", 0, smoke=True)
    job = spec["jobs"][0]
    doc = yaml.safe_load(job["yaml"])
    out = os.path.join(run.OUT, "selftest")
    shutil.rmtree(out, ignore_errors=True)
    for shift, want_fail in ((0.0, False), (1e-3, True)):
        doc["reference"] = [[v + shift for v in blk] for blk in doc["reference"]]
        wrong = dict(job, yaml=workloads.to_yaml(doc))
        code = execute_run(parse_config(wrong["yaml"]), out, workers=2)
        _, failed, problems = workloads.check_cli_job(wrong, code, out)
        check((failed > 0) == want_fail,
              f"batch gate with reference shifted by {shift}: "
              f"{'fails' if failed else 'passes'}", failures)

    lib = workloads.generate("verify_exact", 0, smoke=True)["library"]
    good = {"identities": [(0.0, 1.0, 0.0, 1.0)], "max_expected_slack": -1.0,
            "fejer_violations": 0, "oracle_distance": 0.0}
    _, failed, _ = workloads.check_library(lib, good)
    check(failed == 0, "library gate passes a correct outcome", failures)
    _, failed, _ = workloads.check_library(lib, dict(good, oracle_distance=0.1))
    check(failed == 1, "library gate fails an oracle 0.1 from the fixed point",
          failures)


def test_refuses_without_program(failures):
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          f"without src/ run.py exits {proc.returncode} and prints no result",
          failures)
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    test_names_units_spans(failures)
    test_gates_reject_wrong_reference(failures)
    test_refuses_without_program(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
