"""One repetition of a workload in a fresh process.

Usage: ``python3 rep.py SPEC_JSON WORK_DIR --budget S [--trace]``.

Times the set-up (import of blocksweep plus everything before the first
iteration), then repeats the measured phase until ``--budget`` seconds have
passed since this process started (at least once; with ``--trace`` at least
one traced and one untraced phase, alternating).  Each phase's output is
gated and hashed after its clock stops.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_blocksweep():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import blocksweep

    where = os.path.realpath(blocksweep.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"blocksweep imported from {where}, not this checkout")
    return blocksweep


def _hashes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class CliWorkload:
    def __init__(self, spec):
        self.jobs = spec["jobs"]

    def setup(self, bs):
        import blocksweep.cli as cli

        self.cli = cli
        self.rcs = [cli.parse_config(job["yaml"]) for job in self.jobs]

    def phase(self, work_dir):
        dirs = [os.path.join(work_dir, job["name"]) for job in self.jobs]
        t0 = time.perf_counter()
        codes = [self.cli.execute_run(rc, d, workers=job["workers"])
                 for rc, d, job in zip(self.rcs, dirs, self.jobs)]
        wall = time.perf_counter() - t0
        return wall, (codes, dirs)

    def check(self, outcome):
        import workloads

        codes, dirs = outcome
        attempted = failed = iterations = 0
        problems, hashes = [], {}
        for job, code, d in zip(self.jobs, codes, dirs):
            a, f, p = workloads.check_cli_job(job, code, d)
            attempted, failed = attempted + a, failed + f
            problems += p
            try:
                with open(os.path.join(d, "report.json")) as fh:
                    report = json.load(fh)
                iterations += sum(e.get("iterations", 0)
                                  for e in report["per_seed"].values())
                hashes.update({f"{job['name']}/{k}": v
                               for k, v in _hashes(d).items()})
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{job['name']}: {exc}")
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "iterations": iterations, "expansions": 0,
                "updates": iterations, "hashes": hashes}


class LibraryWorkload:
    """verify_exact: a short run, then the diagnostics layer on it."""

    def __init__(self, spec):
        self.p = spec["library"]

    def setup(self, bs):
        import numpy as np

        p = self.p
        self.bs, self.np = bs, np
        fns = [bs.L1Norm(b["dim"], b["weight"]) if b["kind"] == "l1"
               else bs.SquaredDistance(np.array(b["center"]), b["weight"])
               for b in p["blocks"]]
        self.family = bs.prox_family(fns, p["gamma"])
        dims = self.family.dims
        self.rule = bs.independent_bernoulli(p["probabilities"])
        self.x0 = bs.construct(dims, p["x0"])
        self.z = bs.construct(dims, p["fixed_point"])
        self.points = [bs.construct(dims, q) for q in p["points"]]
        self.cfg = bs.SolverConfig(
            sweeping=self.rule, relaxation=bs.Schedule(p["relaxation"]),
            max_iterations=p["iterations"], tolerance=0.0, seed=p["seed"],
            snapshot_stride=1)

    def phase(self, work_dir):
        bs = self.bs
        t0 = time.perf_counter()
        trace = bs.run_single_layer(self.family, self.cfg, self.x0)
        slacks = bs.expected_fejer_check(self.family, trace, self.z, self.rule)
        ids = [bs.expectation_identity_check(self.family, q, self.z,
                                             self.rule, iteration=j)
               for j, q in enumerate(self.points)]
        fejer = bs.fejer_monitor(trace, self.z)
        oracle = bs.oracle_reference(bs.KmProblem(self.family, self.x0))
        wall = time.perf_counter() - t0
        return wall, (trace, slacks, ids, fejer, oracle)

    def check(self, outcome):
        import workloads

        trace, slacks, ids, fejer, oracle = outcome
        np = self.np
        z = np.concatenate([np.asarray(b, dtype=float)
                            for b in self.p["fixed_point"]])
        result = {
            "identities": [(r.target_abs_err, r.target_rhs, r.step_abs_err,
                            r.step_rhs) for r in ids],
            "max_expected_slack": max(slacks),
            "fejer_violations": fejer.violations,
            "oracle_distance": float(np.linalg.norm(oracle.flat - z)),
        }
        attempted, failed, problems = workloads.check_library(self.p, result)
        support = (2 ** self.rule.m) - 1  # every Bernoulli pattern but zero
        expansions = support * (len(slacks) + len(ids))
        digest = hashlib.sha256(json.dumps(
            {"masks": [r.mask for r in trace.records], "slacks": slacks},
        ).encode()).hexdigest()
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "iterations": trace.iterations, "expansions": expansions,
                "updates": trace.iterations + expansions,
                "hashes": {"diagnostics.json": digest}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("work_dir")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true",
                    help="only import blocksweep (fills the bytecode cache)")
    args = ap.parse_args()
    if args.warmup:
        _import_blocksweep()
        return 0
    with open(args.spec) as fh:
        spec = json.load(fh)
    os.makedirs(args.work_dir, exist_ok=True)
    workload = (CliWorkload if spec["mode"] == "cli" else LibraryWorkload)(spec)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    t0 = time.perf_counter()
    bs = _import_blocksweep()
    if tracer is not None:
        tracer.install(bs)
    workload.setup(bs)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        setup_trace = tracer.take()
        import layers  # numpy: imported after the set-up clock stops

    phases, traced_layers = [], []
    k = 0
    while True:
        cycle_start = time.perf_counter()
        traced = tracer is not None and k % 2 == 0
        work = os.path.join(args.work_dir, f"phase{k}")
        if traced:
            tracer.install(bs)
        wall, outcome = workload.phase(work)
        if traced:
            tracer.uninstall()
        record = workload.check(outcome)
        record.update({"wall_s": wall, "traced": traced})
        if traced:
            # the spans of the last traced phase are kept on disk
            traced_layers.append(layers.phase_metrics(
                tracer, record, os.path.join(args.work_dir, "spans.npz")))
        phases.append(record)
        shutil.rmtree(work, ignore_errors=True)
        k += 1
        now = time.perf_counter()
        if tracer is not None and k < 2:
            continue
        # stop when another phase like the last one would overrun the budget
        if now - _START + (now - cycle_start) > args.budget:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phases": phases,
    }
    if tracer is not None:
        result["layers"] = layers.combine(
            layers.setup_metrics(tracer, setup_trace), traced_layers, phases)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
