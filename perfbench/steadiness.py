"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--seconds S] [--baseline FILE]

Runs ``run.py`` once per (workload, seed), in a fresh process each time. For
each metric it reports the median over seeds and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median. Compare each spread with the metric's
``bound`` in BENCHMARK.json; a steady benchmark keeps it below a third of
the bound.

With ``--baseline FILE`` it also makes one traced run on the first seed of
each workload and writes the medians, the per-layer figures and the first
seed's output hashes to FILE (``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` call; returns the full record it wrote."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         f"{proc.stdout}")
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}",
                        "result.json")
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--baseline", help="also write a baseline file here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"run_seconds": args.seconds, "seeds": list(seeds),
               "end_to_end": {}, "per_layer": {}, "hashes": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            record = run_once(workload, seed, args.seconds, 0)
            for name in bounds:
                values[name].append(record["end_to_end"][name])
            if seed == args.first_seed:
                summary["provenance"] = record["provenance"]
                summary["hashes"][workload] = {str(seed): record["hashes"]}
        summary["end_to_end"][workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            summary["end_to_end"][workload][name] = {
                "median": med, "spread": spread, "values": vals}
            flag = ("below a third of its bound" if spread < bounds[name] / 3
                    else "within its bound" if spread <= bounds[name]
                    else "WIDER THAN ITS BOUND")
            print(f"{workload:<13} {name:<12} median {med:>12.6g}  spread "
                  f"{spread:.3f}  bound {bounds[name]}  {flag}", flush=True)
        if args.baseline:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            summary["per_layer"][workload] = traced["layers"]
    out = args.baseline or os.path.join(OUT, "steadiness.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
