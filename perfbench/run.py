"""blocksweep benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]

Generates the workload's inputs from the seed, then starts fresh processes
(``rep.py``), one after another, until ``--seconds`` have passed.  Each
process times its own set-up and repeats the measured phase; outputs are
gated for correctness after each phase's clock stops.  With ``--trace 0``
the last stdout line is the end-to-end result, with ``--trace 1`` the
per-layer result, both as one JSON object.  A full record (every sample,
provenance, output hashes) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# (name, unit); each is a median over the samples of one run
END_TO_END = (
    ("setup_s", "s"),        # one sample per process
    ("wall_s", "s"),         # one sample per measured phase
    ("iters_per_s", "1/s"),  # masked updates applied / wall_s, per phase
    ("peak_rss_mb", "MiB"),  # ru_maxrss, one sample per process
)
PROCESSES = 8        # fresh processes per run, sharing its time
HARD_LIMIT_S = 150   # no process starts after this; a run must end within 180 s


def provenance() -> dict:
    from importlib import metadata

    import yaml

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None

    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True,
                                 text=True, timeout=10).stdout.split("\n")
    except (OSError, subprocess.SubprocessError):
        getconf = []
    caches = {}
    for line in getconf:
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value)

    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        # parse_config uses the pure-Python yaml.safe_load either way
        "yaml_c_loader_available": hasattr(yaml, "CSafeLoader"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "loadavg_at_start": list(os.getloadavg()),
        # the benchmark always runs the program with it unset
        "BLOCKSWEEP_OUT_in_environment": os.environ.get("BLOCKSWEEP_OUT"),
        "program_environment": dict(BLAS_THREADS, BLOCKSWEEP_OUT=None),
    }


# One BLAS thread: the program's matrices are small (at most 240 x 240), so
# a second BLAS thread mostly adds synchronisation whose cost swings with
# the load on the other core; batch_small's seed pool gets the second core.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BLOCKSWEEP_OUT", None)
    env.pop("PYTHONPATH", None)
    # an installed package has its bytecode; the warm-up process writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(BLAS_THREADS)
    return env


def _quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload; returns the full record (see module docstring)."""
    import workloads

    started = time.perf_counter()
    prov = provenance()
    work = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.generate(workload, seed, smoke)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = _child_env()
    rep = os.path.join(HERE, "rep.py")
    # fill the bytecode cache once so no process times compilation
    subprocess.run([sys.executable, rep, spec_path, work, "--warmup"],
                   env=env, check=True, timeout=120, cwd=ROOT)

    reps, problems = [], []
    # a traced process runs at least a traced and an untraced phase
    processes = 2 if smoke else PROCESSES // 2 if trace else PROCESSES
    measuring = time.perf_counter()
    while len(reps) < processes:
        elapsed = time.perf_counter() - started
        if reps and elapsed > HARD_LIMIT_S:
            break
        # time a process leaves unused goes to the ones after it
        left = seconds - (time.perf_counter() - measuring)
        budget = max(left, 0.0) / (processes - len(reps))
        cmd = [sys.executable, rep, spec_path,
               os.path.join(work, f"rep{len(reps)}"), "--budget", str(budget)]
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(5.0, HARD_LIMIT_S - elapsed),
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            problems.append(f"repetition {len(reps)} timed out")
            break
        if proc.returncode != 0:
            problems.append(f"repetition {len(reps)} exited with "
                            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
            break
        reps.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    phases = [p for r in reps for p in r["phases"]]
    plain = [p for p in phases if not p["traced"]]
    attempted = sum(p["attempted"] for p in phases) + len(problems)
    failed = sum(p["failed"] for p in phases) + len(problems)
    problems += [msg for p in phases for msg in p["problems"]]
    hash_sets = {json.dumps(p["hashes"], sort_keys=True) for p in phases}

    samples = {
        "setup_s": [r["setup_s"] for r in reps],
        "wall_s": [p["wall_s"] for p in plain],
        "iters_per_s": [p["updates"] / p["wall_s"] for p in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "provenance": prov,
        "processes": len(reps), "phases": len(phases),
        "attempted": max(attempted, 1), "failed": failed,
        "fail_frac": failed / max(attempted, 1),
        "problems": problems,
        "correct": bool(reps) and not problems and failed == 0,
        "hashes": phases[0]["hashes"] if phases else {},
        "hashes_repeat_across_phases": len(hash_sets) == 1,
        "samples": samples,
        "spread": {k: _quartile_spread(v) for k, v in samples.items()},
        "elapsed_s": time.perf_counter() - started,
    }
    if reps and all(samples.values()):
        record["end_to_end"] = {k: statistics.median(samples[k])
                                for k, _ in END_TO_END}
    if trace and reps:
        layer_runs = [r["layers"] for r in reps]
        record["layers"] = {k: statistics.median(lr[k] for lr in layer_runs)
                            for k in layer_runs[0] if not k.startswith("_")}
        record["span_checks"] = {
            "nesting_ok": all(lr["_nesting_ok"] for lr in layer_runs),
            "min_self_ns": min(lr["_min_self_ns"] for lr in layer_runs),
        }
    record["baseline_hashes"] = _baseline_hash_status(record)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _baseline_hash_status(record) -> str:
    """Compare output hashes with the recorded baseline of the same seed.

    A change is reported, never failed: an intended change of mask draws
    changes every trace.
    """
    path = os.path.join(HERE, "baseline.json")
    try:
        with open(path) as fh:
            base = json.load(fh)["hashes"][record["workload"]]
    except (OSError, ValueError, KeyError):
        return "no baseline"
    if str(record["seed"]) not in base or record["smoke"]:
        return "no baseline for this seed"
    return "same" if base[str(record["seed"])] == record["hashes"] else "changed"


def result_line(record: dict) -> dict:
    """The object printed as the last line of stdout."""
    import layers

    if record["trace"]:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in layers.METRICS}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record: dict) -> list[str]:
    lines = [f"workload {record['workload']} seed {record['seed']}: "
             f"{record['processes']} processes, {record['phases']} phases, "
             f"{record['elapsed_s']:.1f} s"]
    if "end_to_end" in record:
        for name, unit in END_TO_END:
            n = len(record["samples"][name])
            lines.append(f"  {name:<14} {record['end_to_end'][name]:>12.6g} "
                         f"{unit:<5} (median of {n}, quartile spread "
                         f"{record['spread'][name]:.3f})")
    lines.append(f"  fail_frac      {record['fail_frac']:>12.6g} ratio "
                 f"({record['failed']} of {record['attempted']})")
    lines.append(f"  correct        {record['correct']}")
    for msg in record["problems"][:10]:
        lines.append(f"  problem: {msg}")
    lines.append(f"  output hashes: {len(record['hashes'])} files, repeat "
                 f"across phases: {record['hashes_repeat_across_phases']}, "
                 f"vs baseline: {record['baseline_hashes']}")
    if record["trace"] and "layers" in record:
        import layers

        for name, unit in layers.METRICS:
            lines.append(f"  {name:<48} {record['layers'][name]:>14.6g} {unit}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one summary")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes, for the benchmark's own self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "blocksweep", "__init__.py")):
        print("error: no blocksweep source under src/ in this checkout",
              file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.all else [args.workload]
    if not args.all and args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        records.append(record)
        print("\n".join(describe(record)), flush=True)
        if "end_to_end" not in record:
            print(f"error: {name} produced no measurement", file=sys.stderr)
            return 1
    if args.all:
        ok = all(r["correct"] for r in records)
        print(f"all workloads correct: {ok}")
        return 0 if ok else 1
    print(json.dumps(result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
