"""Per-layer metrics from the spans of a traced run.

Set-up metrics (``cli.yaml_load_s``, ``cli.parse_config.self_s`` and the
set-up part of ``operators.setup.self_s``) come from the traced set-up; all
others from one traced measured phase, as medians over the traced phases
of a repetition.  "Per iter" divides by the masked updates the phase applied:
driver iterations, plus for verify_exact the diagnostics' mask expansions,
each of which is one ``masked_update``.
"""

from __future__ import annotations

import statistics

import numpy as np

import tracer as tracing

# (name, unit); the order is the order of the printed report
METRICS = (
    ("blockspace.offsets.calls_per_iter", "calls/iter"),
    ("blockspace.offsets.self_s", "s"),
    ("blockspace.vector_new.calls_per_iter", "calls/iter"),
    ("blockspace.vector_new.self_s", "s"),
    ("blockspace.bytes_per_iter", "B/iter"),
    ("blockspace.masked_update.self_s", "s"),
    ("blockspace.reduce.self_s", "s"),
    ("sweeping.sample_mask.calls", "count"),
    ("sweeping.sample_mask.us_per_call", "us"),
    ("sweeping.sample_error.calls", "count"),
    ("sweeping.sample_error.us_per_call", "us"),
    ("sweeping.mask_law.self_s", "s"),
    ("sweeping.active_frac", "ratio"),
    ("operators.block_evals_per_iter", "evals/iter"),
    ("operators.useful_eval_frac", "ratio"),
    ("operators.prox.self_s", "s"),
    ("operators.evaluate.self_s", "s"),
    ("operators.forward_coupling_eval.calls_per_iter", "calls/iter"),
    ("operators.forward_coupling_eval.self_s", "s"),
    ("operators.linear_apply.calls_per_iter", "calls/iter"),
    ("operators.linear_apply.self_s", "s"),
    ("operators.graph_projection.us_per_call", "us"),
    ("operators.graph_projection.self_s", "s"),
    ("operators.setup.self_s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.self_us_per_iter", "us/iter"),
    ("solvers.records", "count"),
    ("solvers.snapshots", "count"),
    ("solvers.snapshot_bytes", "B"),
    ("cli.yaml_load_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.seed_s.p50", "s"),
    ("cli.seed_s.p90", "s"),
    ("cli.seed_s.samples", "count"),
    ("cli.seed_wait_s", "s"),
    ("cli.cpu_per_wall", "ratio"),
    ("cli.write_trace.self_s", "s"),
    ("cli.write_trace.bytes", "B"),
    ("cli.execute_run.self_s", "s"),
    ("diagnostics.expected_fejer_check.self_s", "s"),
    ("diagnostics.expectation_identity_check.self_s", "s"),
    ("diagnostics.oracle_reference.self_s", "s"),
    ("diagnostics.fejer_monitor.self_s", "s"),
    ("diagnostics.masked_updates_per_expansion", "ratio"),
    ("diagnostics.expansions_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

_EVALS = ("operators.prox", "operators.resolvent")


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


class _Spans:
    def __init__(self, table):
        self.t = table
        self.names = table["names"]
        order = np.argsort(table["sid"])
        self._sorted_sid = table["sid"][order]
        self._sorted_nid = table["nid"][order]

    def mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.t["nid"], ids)

    def prefix(self, prefix):
        ids = [j for j, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.t["nid"], ids)

    def calls(self, *names) -> int:
        return int(self.mask(*names).sum())

    def self_s(self, *names) -> float:
        return float(self.t["self"][self.mask(*names)].sum()) * 1e-9

    def dur_s(self, *names) -> float:
        return float(self.t["dur"][self.mask(*names)].sum()) * 1e-9

    def parent_nid(self) -> np.ndarray:
        """Name id of each span's parent, -1 for roots."""
        p = np.abs(self.t["parent"])
        pos = np.searchsorted(self._sorted_sid, p)
        pos = np.clip(pos, 0, len(self._sorted_sid) - 1)
        found = (p > 0) & (self._sorted_sid[pos] == p)
        return np.where(found, self._sorted_nid[pos], -1)

    def with_parent(self, child_names, parent_test) -> int:
        pn = self.parent_nid()
        ok = np.array([parent_test(self.names[j]) if j >= 0 else False
                       for j in range(len(self.names))] + [False])
        return int((self.mask(*child_names) & ok[pn]).sum())


def setup_metrics(tracer, setup_trace) -> dict:
    spans, _, _ = setup_trace
    s = _Spans(tracing.span_table(spans, tracer.names))
    return {
        "cli.yaml_load_s": s.dur_s("cli.yaml_load"),
        "cli.parse_config.self_s": s.self_s("cli.parse_config"),
        "operators.setup.self_s": s.self_s("operators.setup"),
    }


def phase_metrics(tracer, record, spans_path) -> dict:
    spans, counts, cpu = tracer.take()
    table = tracing.span_table(spans, tracer.names)
    tracing.save_spans(spans_path, table)
    s = _Spans(table)
    updates = record["updates"]
    iters = record["iterations"]
    t = table

    evals = s.with_parent(_EVALS, lambda name: name not in _EVALS)
    seeds = s.prefix("solvers.") & (t["parent"] < 0)
    seed_s = t["dur"][seeds] * 1e-9
    starts = {int(sid): int(t0) for sid, t0, nid in
              zip(t["sid"], t["t0"], t["nid"])
              if s.names[nid] == "cli.execute_run"}
    waits = [(int(t0) - starts[int(-p)]) * 1e-9
             for t0, p in zip(t["t0"][seeds], t["parent"][seeds])]
    mask_calls = s.calls("sweeping.sample_mask")
    error_calls = s.calls("sweeping.sample_error")
    projections = s.calls("operators.graph_projection")
    diag_updates = s.with_parent(("blockspace.masked_update",),
                                 lambda name: name.startswith("diagnostics."))
    solver_self = float(t["self"][s.prefix("solvers.")].sum()) * 1e-9
    return {
        "blockspace.offsets.calls_per_iter":
            _ratio(s.calls("blockspace.offsets"), updates),
        "blockspace.offsets.self_s": s.self_s("blockspace.offsets"),
        "blockspace.vector_new.calls_per_iter":
            _ratio(s.calls("blockspace.vector_new"), updates),
        "blockspace.vector_new.self_s": s.self_s("blockspace.vector_new"),
        "blockspace.bytes_per_iter": _ratio(counts["vector_bytes"], updates),
        "blockspace.masked_update.self_s": s.self_s("blockspace.masked_update"),
        "blockspace.reduce.self_s": s.self_s("blockspace.reduce"),
        "sweeping.sample_mask.calls": mask_calls,
        "sweeping.sample_mask.us_per_call":
            _ratio(s.dur_s("sweeping.sample_mask") * 1e6, mask_calls),
        "sweeping.sample_error.calls": error_calls,
        "sweeping.sample_error.us_per_call":
            _ratio(s.dur_s("sweeping.sample_error") * 1e6, error_calls),
        "sweeping.mask_law.self_s": s.self_s("sweeping.mask_law"),
        "sweeping.active_frac":
            _ratio(counts["mask_active"], counts["mask_blocks"]),
        "operators.block_evals_per_iter": _ratio(evals, updates),
        "operators.useful_eval_frac": _ratio(counts["mask_active"], evals),
        "operators.prox.self_s": s.self_s(*_EVALS),
        "operators.evaluate.self_s": s.self_s("operators.evaluate"),
        "operators.forward_coupling_eval.calls_per_iter":
            _ratio(s.calls("operators.forward_coupling_eval"), updates),
        "operators.forward_coupling_eval.self_s":
            s.self_s("operators.forward_coupling_eval"),
        "operators.linear_apply.calls_per_iter":
            _ratio(s.calls("operators.linear_apply"), updates),
        "operators.linear_apply.self_s": s.self_s("operators.linear_apply"),
        "operators.graph_projection.us_per_call":
            _ratio(s.dur_s("operators.graph_projection") * 1e6, projections),
        "operators.graph_projection.self_s":
            s.self_s("operators.graph_projection"),
        "operators.setup.self_s": s.self_s("operators.setup"),
        "solvers.iterations": iters,
        "solvers.self_us_per_iter": _ratio(solver_self * 1e6, iters),
        "solvers.records": counts["records"],
        "solvers.snapshots": counts["snapshots"],
        "solvers.snapshot_bytes": counts["snapshot_bytes"],
        "cli.seed_s.p50":
            float(np.percentile(seed_s, 50)) if len(seed_s) else 0.0,
        "cli.seed_s.p90":
            float(np.percentile(seed_s, 90)) if len(seed_s) else 0.0,
        "cli.seed_s.samples": int(len(seed_s)),
        "cli.seed_wait_s": statistics.fmean(waits) if waits else 0.0,
        "cli.cpu_per_wall": _ratio(sum(c for c, _ in cpu),
                                   sum(w for _, w in cpu)),
        "cli.write_trace.self_s": s.self_s("cli.write_trace"),
        "cli.write_trace.bytes": counts["write_trace_bytes"],
        "cli.execute_run.self_s": s.self_s("cli.execute_run"),
        "diagnostics.expected_fejer_check.self_s":
            s.self_s("diagnostics.expected_fejer_check"),
        "diagnostics.expectation_identity_check.self_s":
            s.self_s("diagnostics.expectation_identity_check"),
        "diagnostics.oracle_reference.self_s":
            s.self_s("diagnostics.oracle_reference"),
        "diagnostics.fejer_monitor.self_s":
            s.self_s("diagnostics.fejer_monitor"),
        "diagnostics.masked_updates_per_expansion":
            _ratio(diag_updates, record["expansions"]),
        "trace.spans": len(spans),
        "_min_self_ns": int(t["self"].min()) if len(spans) else 0,
        "_nesting_ok": _nesting_ok(table),
    }


def _nesting_ok(table) -> bool:
    """Every child span lies inside its parent's interval."""
    order = np.argsort(table["sid"])
    sid, t0, t1 = table["sid"][order], table["t0"][order], table["t1"][order]
    p = np.abs(table["parent"])
    has = p > 0
    pos = np.searchsorted(sid, p[has])
    if len(pos) and (pos.max() >= len(sid) or (sid[pos] != p[has]).any()):
        return False
    return bool(((table["t0"][has] >= t0[pos]) &
                 (table["t1"][has] <= t1[pos])).all())


def combine(setup: dict, traced: list[dict], phases: list[dict]) -> dict:
    """Medians over traced phases, plus set-up and overhead figures."""
    out = {}
    for key in traced[0]:
        values = [m[key] for m in traced]
        if key == "_nesting_ok":
            out[key] = all(values)
        elif key == "_min_self_ns":
            out[key] = min(values)
        else:
            out[key] = statistics.median(values)
    for key, value in setup.items():
        out[key] = out.get(key, 0.0) + value
    traced_wall = statistics.median(p["wall_s"] for p in phases if p["traced"])
    plain = [p for p in phases if not p["traced"]]
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out["trace.overhead_ratio"] = traced_wall / plain_wall
    out["diagnostics.expansions_per_s"] = _ratio(
        statistics.median(p["expansions"] for p in plain), plain_wall)
    return out
