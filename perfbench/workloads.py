"""Seeded workload generators, independent references and correctness gates.

Everything here uses numpy only, never ``blocksweep``: the program sees the
generated YAML documents (CLI workloads) or plain arrays (``verify_exact``),
and the references the gates compare against are computed by separate
numpy code outside any timed region.

A workload spec is plain JSON data:

``{"workload", "seed", "mode": "cli"|"library", "jobs" | "library", ...}``

CLI jobs carry the YAML text, the ``workers`` count passed to
``execute_run`` and a ``gate`` describing what a correct outcome is.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("wide_fbmin", "batch_small", "pd_graph", "verify_exact")

# Distance from each seed's final iterate to the independent reference that
# batch_small accepts.  Runs stop at residual < 1e-8; the problems are well
# conditioned, so a correct run lands far inside this.
BATCH_REFERENCE_TOL = 1e-5


# ---------------------------------------------------------------------------
# YAML emission (deterministic text, independent of the PyYAML emitter)
# ---------------------------------------------------------------------------


def _num(v) -> str:
    """A number as YAML 1.1 reads it back exactly (PyYAML needs the dot)."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    mantissa, e, exponent = repr(float(v)).partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + e + exponent


def _flow(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_flow(v) for v in value) + "]"
    if isinstance(value, str):
        return value
    return _num(value)


def to_yaml(doc: dict) -> str:
    """Two-level block YAML; lists of mappings one item per line."""
    lines = []
    for key, value in doc.items():
        if not isinstance(value, dict):
            lines.append(f"{key}: {_flow(value)}")
            continue
        lines.append(f"{key}:")
        for k, v in value.items():
            if isinstance(v, list) and v and isinstance(v[0], dict):
                lines.append(f"  {k}:")
                lines.extend(f"    - {_flow(item)}" for item in v)
            elif isinstance(v, list) and v and isinstance(v[0], list) \
                    and v[0] and isinstance(v[0][0], list):
                lines.append(f"  {k}:")  # grid / per-block arrays
                lines.extend(f"    - {_flow(row)}" for row in v)
            else:
                lines.append(f"  {k}: {_flow(v)}")
    return "\n".join(lines) + "\n"


def _r6(a: np.ndarray) -> np.ndarray:
    """Round like the emitter so references see the program's exact data."""
    return np.round(np.asarray(a, dtype=np.float64), 6)


# ---------------------------------------------------------------------------
# independent numpy references
# ---------------------------------------------------------------------------


def _prox_np(kind: str, x: np.ndarray, t: float, spec: dict) -> np.ndarray:
    if kind == "l1":
        return np.sign(x) * np.maximum(np.abs(x) - t * spec["weight"], 0.0)
    if kind == "box":
        return np.clip(x, spec["lo"], spec["hi"])
    raise ValueError(kind)


def _forward_backward_np(prox_parts, grad, step: float, x0: np.ndarray,
                         tol: float = 1e-15, limit: int = 2_000_000) -> np.ndarray:
    """Full-vector proximal gradient to a tiny step length."""
    x = x0.copy()
    for _ in range(limit):
        y = x - step * grad(x)
        nxt = np.concatenate([_prox_np(kind, y[sl], step, spec)
                              for kind, sl, spec in prox_parts])
        if np.linalg.norm(nxt - x) < tol:
            return nxt
        x = nxt
    raise RuntimeError("reference proximal gradient did not converge")


def _slices(dims):
    off = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    return [slice(int(off[i]), int(off[i + 1])) for i in range(len(dims))]


def _row_norms(grid) -> list[float]:
    out = []
    for row in grid:
        g = sum(np.asarray(e) @ np.asarray(e).T for e in row)
        out.append(float(np.linalg.eigvalsh(g).max()))
    return out


def _cocoercivity(grid, weights) -> float:
    """``1 / sum_k w_k ||sum_i L_ki L_ki'||`` by dense eigenvalues."""
    return 1.0 / sum(w * n for w, n in zip(weights, _row_norms(grid)))


# ---------------------------------------------------------------------------
# batch_small: the seven problem kinds at desk size
# ---------------------------------------------------------------------------


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Rounded symmetric matrix with eigenvalues near [lo, hi]."""
    q = _orthogonal(rng, n)
    a = _r6(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)
    return np.triu(a) + np.triu(a, 1).T


def _batch_km(rng):
    m = 6
    S = _r6(0.5 * _orthogonal(rng, m))
    c = _r6(rng.uniform(-1, 1, m))
    ref = np.linalg.solve(np.eye(m) - S, c)
    doc = {
        "problem": {"kind": "km", "dims": [1] * m,
                    "operator": {"type": "affine", "matrix": S.tolist(),
                                 "offset": c.tolist(),
                                 "regularity": "nonexpansive"}},
        "solver": {"relaxation": 0.8, "tolerance": 1e-8,
                   "max_iterations": 20000},
        "sweeping": {"scheme": "independent_bernoulli",
                     "probabilities": [0.3, 0.4, 0.5, 0.6, 0.7, 0.5]},
        "errors": {"a": {"kind": "gaussian_decay", "scale": 0.05,
                         "decay": 0.9}},
    }
    return doc, [1] * m, ref


def _batch_averaged(rng):
    dims = [2, 1, 2, 1, 1]
    fns, ref = [], []
    for d in dims:
        if d == 2:
            Q = _spd(rng, 2, 0.8, 1.25)
            b = _r6(rng.uniform(-1, 1, 2))
            fns.append({"kind": "quadratic", "matrix": Q.tolist(),
                        "offset": b.tolist()})
            ref.append(np.linalg.solve(Q, -b))
        else:
            c = _r6(rng.uniform(-2, 2, 1))
            fns.append({"kind": "sq_l2", "center": c.tolist(),
                        "weight": 1.0})
            ref.append(c)
    doc = {
        "problem": {"kind": "averaged", "dims": dims,
                    "operator": {"type": "prox", "functions": fns,
                                 "gamma": 1.0}},
        "solver": {"relaxation": 1.5, "tolerance": 1e-8,
                   "max_iterations": 20000},
        "sweeping": {"scheme": "fixed_subset_size", "size": 2},
    }
    return doc, dims, np.concatenate(ref)


def _conditioned(rng, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
    """Rounded ``rows x cols`` matrix with singular values in [lo, hi].

    Iteration counts to a fixed tolerance follow the conditioning, so fixing
    the spectrum keeps the work of a workload nearly the same for every seed.
    """
    k = min(rows, cols)
    u = _orthogonal(rng, rows)[:, :k]
    v = _orthogonal(rng, cols)[:, :k]
    return _r6(u @ np.diag(rng.uniform(lo, hi, k)) @ v.T)


def _split_grid(L: np.ndarray, row_dims, col_dims) -> list:
    return [[L[r, c].tolist() for c in _slices(col_dims)]
            for r in _slices(row_dims)]


def _batch_double_layer(rng):
    dims = [1, 2, 1, 2]
    n = sum(dims)
    L = _conditioned(rng, 3, n, 0.7, 1.3)
    grid = _split_grid(L, [1] * 3, dims)
    d = _r6(rng.uniform(-1, 1, 3))
    theta = _cocoercivity(grid, [1.0] * 3)
    s = round(theta, 6)
    centers = [_r6(rng.uniform(-1, 1, k)) for k in dims]
    c = np.concatenate(centers)
    # x = prox_{gamma f}(x - s grad h(x)), f = sum 1/2||x_i - c_i||^2 and
    # h = sum_k 1/2 (L_k x - d_k)^2, solves (gamma I + s L'L) x = gamma c + s L'd
    gamma = 1.0
    ref = np.linalg.solve(gamma * np.eye(n) + s * L.T @ L,
                          gamma * c + s * L.T @ d)
    doc = {
        "problem": {"kind": "double_layer", "dims": dims,
                    "outer": {"type": "prox", "gamma": gamma, "functions": [
                        {"kind": "sq_l2", "center": ci.tolist(),
                         "weight": 1.0} for ci in centers]},
                    "inner": {"type": "forward_step", "stepsize": s,
                              "smooth": [{"kind": "sq_l2",
                                          "center": [float(dk)],
                                          "weight": 1.0} for dk in d],
                              "grid": grid}},
        "solver": {"relaxation": 1.0, "tolerance": 1e-8,
                   "max_iterations": 20000},
        "sweeping": {"scheme": "single_block",
                     "weights": [1.0, 2.0, 1.0, 2.0]},
        "errors": {"b": {"kind": "gaussian_decay", "scale": 0.05,
                         "decay": 0.85}},
    }
    return doc, dims, ref


def _batch_dr(rng):
    m = 5
    M = _spd(rng, m, 0.8, 1.25)
    q = _r6(rng.uniform(-2, 2, m))
    w = _r6(rng.uniform(0.02, 0.05, m))
    parts = [("l1", slice(i, i + 1), {"weight": float(w[i])}) for i in range(m)]
    step = 1.0 / float(np.linalg.eigvalsh(M).max())
    ref = _forward_backward_np(parts, lambda x: M @ x + q, step, np.zeros(m))
    doc = {
        "problem": {"kind": "dr", "dims": [1] * m,
                    "blocks": [{"kind": "l1", "dim": 1, "weight": float(wi)}
                               for wi in w],
                    "coupling": {"type": "linear", "matrix": M.tolist(),
                                 "offset": q.tolist()}},
        "solver": {"gamma": 1.0, "dr_relaxation": 1.0, "tolerance": 1e-8,
                   "max_iterations": 20000},
        "sweeping": {"scheme": "independent_bernoulli",
                     "probabilities": [0.4, 0.5, 0.6, 0.7, 0.8]},
    }
    return doc, [1] * m, ref


def _batch_pd_dr(rng):
    hdims, gdims = [1, 1, 2], [2, 2]
    L = _conditioned(rng, sum(gdims), sum(hdims), 0.7, 1.3)
    grid = _split_grid(L, gdims, hdims)
    w = _r6(rng.uniform(0.02, 0.05, len(hdims)))
    d = [_r6(rng.uniform(-1, 1, g)) for g in gdims]
    dv = np.concatenate(d)
    parts = [("l1", sl, {"weight": float(w[i])})
             for i, sl in enumerate(_slices(hdims))]
    step = 1.0 / float(np.linalg.eigvalsh(L.T @ L).max())
    ref = _forward_backward_np(parts, lambda x: L.T @ (L @ x - dv), step,
                               np.zeros(sum(hdims)))
    doc = {
        "problem": {"kind": "pd_dr", "dims": hdims,
                    "functions": [{"kind": "l1", "dim": h, "weight": float(wi)}
                                  for h, wi in zip(hdims, w)],
                    "duals": [{"kind": "sq_l2", "center": dk.tolist(),
                               "weight": 1.0} for dk in d],
                    "grid": grid},
        "solver": {"gamma": 1.0, "dr_relaxation": 1.0, "tolerance": 1e-8,
                   "max_iterations": 20000},
        "sweeping": {"scheme": "fixed_subset_size", "size": 3},
    }
    return doc, hdims, ref


def _batch_fb(rng):
    m = 4
    M = _spd(rng, m, 0.8, 1.25)
    b = _r6(rng.uniform(-0.5, 0.5, m))
    lo = _r6(rng.uniform(-2.0, -1.5, m))
    hi = _r6(rng.uniform(1.5, 2.0, m))
    norm = float(np.linalg.eigvalsh(M).max())
    parts = [("box", slice(i, i + 1), {"lo": lo[i], "hi": hi[i]})
             for i in range(m)]
    ref = _forward_backward_np(parts, lambda x: M @ x - b, 1.0 / norm,
                               np.zeros(m))
    doc = {
        "problem": {"kind": "fb", "dims": [1] * m,
                    "blocks": [{"kind": "normal_cone_box", "lo": [float(lo[i])],
                                "hi": [float(hi[i])]} for i in range(m)],
                    "forward": {"type": "linear", "matrix": M.tolist(),
                                "offset": (-b).tolist()}},
        "solver": {"relaxation": 1.0, "stepsize": round(1.0 / norm, 6),
                   "tolerance": 1e-8, "max_iterations": 20000},
        "sweeping": {"scheme": "single_block"},
        "errors": {"c": {"kind": "gaussian_decay", "scale": 0.05,
                         "decay": 0.85}},
    }
    return doc, [1] * m, ref


def _batch_fb_min(rng):
    dims = [1, 2, 1, 2, 1, 1]
    L = _conditioned(rng, 8, sum(dims), 1.0, 1.0)
    grid = _split_grid(L, [1] * 8, dims)
    d = _r6(rng.uniform(-1, 1, 8))
    w = _r6(rng.uniform(0.01, 0.03, len(dims)))
    parts = [("l1", sl, {"weight": float(w[i])})
             for i, sl in enumerate(_slices(dims))]
    step = 1.0 / float(np.linalg.eigvalsh(L.T @ L).max())
    ref = _forward_backward_np(parts, lambda x: L.T @ (L @ x - d), step,
                               np.zeros(sum(dims)))
    theta = _cocoercivity(grid, [1.0] * 8)
    doc = {
        "problem": {"kind": "fb_min", "dims": dims,
                    "functions": [{"kind": "l1", "dim": k, "weight": float(wi)}
                                  for k, wi in zip(dims, w)],
                    "smooth": [{"kind": "sq_l2", "center": [float(dk)],
                                "weight": 1.0} for dk in d],
                    "grid": grid},
        "solver": {"relaxation": 1.0, "stepsize": round(theta, 6),
                   "tolerance": 1e-8, "max_iterations": 20000},
        "sweeping": {"scheme": "independent_bernoulli",
                     "probabilities": [0.3, 0.4, 0.5, 0.6, 0.4, 0.5]},
    }
    return doc, dims, ref


_BATCH_KINDS = (
    ("km", _batch_km),
    ("averaged", _batch_averaged),
    ("double_layer", _batch_double_layer),
    ("dr", _batch_dr),
    ("pd_dr", _batch_pd_dr),
    ("fb", _batch_fb),
    ("fb_min", _batch_fb_min),
)


def _blocks_of(vec: np.ndarray, dims) -> list[list[float]]:
    return [_r6(vec[sl]).tolist() for sl in _slices(dims)]


def _gen_batch_small(seed: int, smoke: bool) -> dict:
    seeds_per_kind = 2 if smoke else 3  # one more than the pool's 2 workers
    jobs = []
    for j, (kind, build) in enumerate(_BATCH_KINDS):
        rng = np.random.default_rng([seed, j])
        doc, dims, ref = build(rng)
        doc["seeds"] = [seed * 16 + s for s in range(seeds_per_kind)]
        x0 = _r6(rng.uniform(-2, 2, sum(dims)))
        doc["initial"] = {"x0": _blocks_of(x0, dims)}
        doc["reference"] = [[float(v) for v in blk]
                            for blk in (ref[sl] for sl in _slices(dims))]
        jobs.append({"name": kind, "yaml": to_yaml(doc), "workers": 2,
                     "gate": {"type": "reference", "tol": BATCH_REFERENCE_TOL}})
    return {"mode": "cli", "jobs": jobs}


# ---------------------------------------------------------------------------
# fixed-budget CLI workloads
# ---------------------------------------------------------------------------


def _gen_wide_fbmin(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng([seed, 100])
    m, rows, budget = (20 if smoke else 1000), 2, 6
    dims = [2] * m
    grid = [[_r6(rng.standard_normal((1, 2)) / math.sqrt(m)).tolist()
             for _ in range(m)] for _ in range(rows)]
    theta = _cocoercivity(grid, [1.0] * rows)
    doc = {
        "problem": {"kind": "fb_min", "dims": dims,
                    "functions": [{"kind": "l1", "dim": 2, "weight": 2.0}
                                  for _ in range(m)],
                    "smooth": [{"kind": "sq_l2",
                                "center": [float(_r6(rng.standard_normal()))],
                                "weight": 1.0} for _ in range(rows)],
                    "grid": grid},
        "solver": {"relaxation": 1.0, "stepsize": round(theta, 6),
                   "tolerance": 0.0, "max_iterations": budget},
        "sweeping": {"scheme": "single_block"},
        "seeds": [seed],
        "initial": {"x0": _blocks_of(rng.standard_normal(2 * m), dims)},
    }
    return {"mode": "cli", "jobs": [{
        "name": "fb_min", "yaml": to_yaml(doc), "workers": 1,
        "gate": {"type": "budget", "budget": budget}}]}


def _gen_pd_graph(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng([seed, 200])
    width = 4 if smoke else 40
    hdims, gdims = [width] * 4, [width] * 2
    budget = 50 if smoke else 1000
    scale = 1.0 / math.sqrt(sum(hdims))
    grid = [[_r6(scale * rng.standard_normal((g, h))).tolist() for h in hdims]
            for g in gdims]
    doc = {
        "problem": {"kind": "pd_dr", "dims": hdims,
                    "functions": [{"kind": "l1", "dim": h, "weight": 0.1}
                                  for h in hdims],
                    "duals": [{"kind": "sq_l2",
                               "center": _r6(rng.standard_normal(g)).tolist(),
                               "weight": 1.0} for g in gdims],
                    "grid": grid},
        "solver": {"gamma": 1.0, "dr_relaxation": 1.0, "tolerance": 0.0,
                   "max_iterations": budget},
        "sweeping": {"scheme": "single_block"},
        "seeds": [seed],
        "initial": {"x0": _blocks_of(rng.standard_normal(sum(hdims)), hdims)},
    }
    return {"mode": "cli", "jobs": [{
        "name": "pd_dr", "yaml": to_yaml(doc), "workers": 1,
        "gate": {"type": "budget", "budget": budget}}]}


# ---------------------------------------------------------------------------
# verify_exact: library-level diagnostics
# ---------------------------------------------------------------------------


def _gen_verify_exact(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng([seed, 300])
    m = 4 if smoke else 10
    blocks, fixed = [], []
    for i in range(m):
        if i % 2 == 0:
            c = _r6(rng.uniform(-1, 1, 2))
            blocks.append({"kind": "sq_l2", "center": c.tolist(), "weight": 1.0})
            fixed.append(c.tolist())
        else:
            blocks.append({"kind": "l1", "dim": 1, "weight": 0.5})
            fixed.append([0.0])
    dims = [len(f) for f in fixed]
    points = [_blocks_of(rng.uniform(-3, 3, sum(dims)), dims)
              for _ in range(2 if smoke else 3)]
    return {"mode": "library", "library": {
        "blocks": blocks,
        "fixed_point": fixed,
        "probabilities": _r6(rng.uniform(0.3, 0.7, m)).tolist(),
        "x0": _blocks_of(rng.uniform(-3, 3, sum(dims)), dims),
        "points": points,
        "gamma": 1.0,
        "relaxation": 0.9,
        "iterations": 6,
        "identity_rel_tol": 1e-9,
        "slack_tol": 1e-12,
        "oracle_tol": 1e-8,
        "seed": seed,
    }}


_GENERATORS = {
    "wide_fbmin": _gen_wide_fbmin,
    "batch_small": _gen_batch_small,
    "pd_graph": _gen_pd_graph,
    "verify_exact": _gen_verify_exact,
}


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's inputs as plain JSON data; same seed, same inputs."""
    spec = _GENERATORS[workload](seed, smoke)
    spec.update({"workload": workload, "seed": seed, "smoke": smoke})
    return spec


# ---------------------------------------------------------------------------
# correctness gates on the program's artefacts
# ---------------------------------------------------------------------------


def _read_trace(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_rows(rows: list[dict]) -> bool:
    for row in rows:
        for key in ("residual", "dist_to_ref", "lambda", "gamma", "objective"):
            text = row[key]
            if text and not math.isfinite(float(text)):
                return False
    return True


def check_cli_job(job: dict, exit_code: int,
                  out_dir: str) -> tuple[int, int, list[str]]:
    """Gate one ``execute_run`` call; returns (attempted, failed, problems).

    Each seed is one attempt.  A seed fails when it raised, missed its
    tolerance, or failed a check.
    """
    gate = job["gate"]
    problems: list[str] = []
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return 1, 1, [f"{job['name']}: no readable report.json ({exc})"]
    per_seed = report.get("per_seed", {})
    attempted = max(1, len(report.get("seeds", [])))
    failed_seeds = set()

    def fail(seed, message):
        failed_seeds.add(seed)
        problems.append(f"{job['name']} seed {seed}: {message}")

    expected_code = 0 if gate["type"] == "reference" else 2
    if exit_code != expected_code:
        problems.append(f"{job['name']}: exit status {exit_code}, expected "
                        f"{expected_code}")
    for seed in report.get("seeds", []):
        entry = per_seed.get(str(seed), {})
        if "error" in entry:
            fail(seed, entry["error"])
            continue
        path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        try:
            rows = _read_trace(path)
        except OSError as exc:
            fail(seed, f"no trace CSV ({exc})")
            continue
        if not rows or not _finite_rows(rows):
            fail(seed, "trace has non-finite or no rows")
            continue
        if gate["type"] == "reference":
            if not entry.get("reached_tolerance"):
                fail(seed, f"stopped by {entry.get('termination')}")
            dist = entry.get("distance_to_reference")
            if dist is None or not dist <= gate["tol"]:
                fail(seed, f"distance to reference {dist} > {gate['tol']}")
        else:
            if entry.get("iterations") != gate["budget"]:
                fail(seed, f"{entry.get('iterations')} iterations, budget "
                           f"{gate['budget']}")
            first, last = float(rows[0]["residual"]), float(rows[-1]["residual"])
            if not last < first:
                fail(seed, f"final residual {last} not below first {first}")
    if gate["type"] == "reference" and report.get("success_fraction") != 1.0:
        problems.append(f"{job['name']}: success_fraction "
                        f"{report.get('success_fraction')}")
    failed = len(failed_seeds)
    if problems and not failed_seeds:
        failed = 1  # a job-level problem fails the job's first attempt
    return attempted, failed, problems


def check_library(spec: dict, result: dict) -> tuple[int, int, list[str]]:
    """Gate the verify_exact diagnostics; each check is one attempt."""
    problems = []
    checks = 0
    for j, (target_err, target_rhs, step_err, step_rhs) in enumerate(
            result["identities"]):
        checks += 1
        tol = spec["identity_rel_tol"]
        if target_err > tol * max(1.0, abs(target_rhs)) or \
                step_err > tol * max(1.0, abs(step_rhs)):
            problems.append(f"identity at point {j}: errors {target_err:.3e}, "
                            f"{step_err:.3e}")
    checks += 1
    if result["max_expected_slack"] > spec["slack_tol"]:
        problems.append(f"max expected slack {result['max_expected_slack']:.3e}"
                        f" > {spec['slack_tol']}")
    checks += 1
    if result["fejer_violations"] != 0:
        problems.append(f"{result['fejer_violations']} Fejer violations")
    checks += 1
    if not result["oracle_distance"] <= spec["oracle_tol"]:
        problems.append(f"oracle distance {result['oracle_distance']:.3e} > "
                        f"{spec['oracle_tol']}")
    return checks, len(problems), problems
