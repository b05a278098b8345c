"""Spans around the public functions of blocksweep, installed from outside.

Nothing under ``src/`` is edited.  ``install`` replaces each public function
with a wrapper everywhere its name is bound (the package namespace and every
module that imported it by value), and patches methods at class level.
``uninstall`` puts the originals back, so traced and untraced phases can
alternate in one process.

A span is ``(id, name, start_ns, end_ns, parent)``.  Each thread keeps its
own stack; a span opened on a thread with an empty stack while an
``adopt`` span is open (``execute_run`` and its seed pool) gets that span
as parent, stored negated so cross-thread children can be told apart.
Spans stay in memory until ``take`` hands them over.

Counts are exact.  Self time of very hot, very short spans (``offsets``,
``BlockVector.__init__``) is inflated by the wrapper itself (about a
microsecond per call), so read those as upper bounds.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace

CATALOG_PROX = ("L1Norm", "SquaredDistance", "BoxIndicator", "BallIndicator",
                "Quadratic", "Zero")
CATALOG_RESOLVENT = ("Subdifferential", "LinearMonotone", "BoxNormalCone")
SOLVERS = ("run_single_layer", "run_double_layer", "run_dr", "run_pd_dr",
           "run_fb", "run_fb_min")
FAMILIES = ("prox_family", "resolvent_family", "forward_step_family",
            "affine_family", "constant_family")
DIAGNOSTICS = ("expected_fejer_check", "expectation_identity_check",
               "oracle_reference", "fejer_monitor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counts: Counter = Counter()   # values fed by result hooks
        self._count_lock = threading.Lock()  # hooks run on the seed pool too
        self.cpu: list[tuple[float, float]] = []  # (cpu_s, wall_s) per adopt span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter = 0
        self._undo: list[tuple[object, str, object]] = []
        # wrappers stored inside objects (family evaluators) outlive
        # uninstall; they record only while the tracer is installed
        self.active = False

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook=None, adopt=False):
        nid = self.name_id(name)
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent, parent_name = stack[-1]
            else:
                parent, parent_name = -tracer._adopter, None
            sid = next(ids)
            stack.append((sid, name))
            if adopt:
                outer, tracer._adopter = tracer._adopter, sid
                cpu0 = time.process_time()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if adopt:
                    tracer._adopter = outer
                    tracer.cpu.append((time.process_time() - cpu0,
                                       (t1 - t0) * 1e-9))
                spans.append((sid, nid, t0, t1, parent))
            if hook is not None:
                hook(tracer, args, result, parent_name)
            return result

        return wrapper

    def add(self, key: str, value: int) -> None:
        with self._count_lock:
            self.counts[key] += value

    def take(self):
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts, cpu = self.spans[:], Counter(self.counts), self.cpu[:]
        self.spans.clear()
        self.counts.clear()
        self.cpu.clear()
        return spans, counts, cpu

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _patch_function(self, modules, fn, name, hook=None, adopt=False):
        self._rebind(modules, fn, self.wrap(name, fn, hook, adopt))

    def install(self, bs) -> None:
        """Wrap the layers of the imported ``blocksweep`` package ``bs``."""
        import yaml

        from blocksweep import (blockspace, cli, diagnostics, operators,
                                solvers, sweeping)

        mods = (bs, blockspace, sweeping, operators, solvers, diagnostics, cli)
        for fn in ("masked_update", "reduce", "combine", "construct",
                   "distance"):
            self._patch_function(mods, getattr(blockspace, fn),
                                 f"blockspace.{fn}")
        offsets = blockspace.BlockDims.__dict__["offsets"]
        self._set(blockspace.BlockDims, "offsets",
                  property(self.wrap("blockspace.offsets", offsets.fget)))
        self._set(blockspace.BlockVector, "__init__",
                  self.wrap("blockspace.vector_new",
                            blockspace.BlockVector.__init__, _vector_bytes))

        self._patch_function(mods, sweeping.sample_mask, "sweeping.sample_mask",
                             _mask_bits)
        self._patch_function(mods, sweeping.sample_error,
                             "sweeping.sample_error")
        self._patch_function(mods, sweeping.mask_law, "sweeping.mask_law")

        for cls in CATALOG_PROX:
            c = getattr(operators, cls)
            self._set(c, "prox", self.wrap("operators.prox", c.__dict__["prox"]))
        for cls in CATALOG_RESOLVENT:
            c = getattr(operators, cls)
            self._set(c, "resolvent",
                      self.wrap("operators.resolvent", c.__dict__["resolvent"]))
        lbo = operators.LinearBlockOperator
        for meth in ("apply", "adjoint"):
            self._set(lbo, meth,
                      self.wrap("operators.linear_apply", lbo.__dict__[meth]))
        self._patch_function(mods, operators.forward_coupling_eval,
                             "operators.forward_coupling_eval")
        self._patch_function(mods, operators.graph_projection,
                             "operators.graph_projection")
        self._patch_function(mods, operators.spectral_norm_psd,
                             "operators.setup")
        self._patch_function(mods, operators.cocoercivity_bound,
                             "operators.setup")
        gs = operators.GraphSubspace
        self._set(gs, "__init__",
                  self.wrap("operators.setup", gs.__dict__["__init__"]))
        # a family's evaluate is a closure made by its factory: wrap it there
        for fn in FAMILIES:
            factory = getattr(operators, fn)
            self._rebind(mods, factory, self._traced_family(factory))

        for fn in SOLVERS:
            self._patch_function(mods, getattr(solvers, fn), f"solvers.{fn}",
                                 _solver_result)
        for fn in DIAGNOSTICS:
            self._patch_function(mods, getattr(diagnostics, fn),
                                 f"diagnostics.{fn}")

        self._patch_function(mods, cli.parse_config, "cli.parse_config")
        self._patch_function(mods, cli.execute_run, "cli.execute_run",
                             adopt=True)
        self._patch_function(mods, cli.write_trace, "cli.write_trace",
                             _trace_bytes)
        self._set(yaml, "safe_load", self.wrap("cli.yaml_load", yaml.safe_load))
        self.active = True

    def _traced_family(self, factory):
        def make(*args, **kwargs):
            family = factory(*args, **kwargs)
            return replace(family, evaluate=self.wrap("operators.evaluate",
                                                      family.evaluate))

        return make

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- result hooks (run after the span closes) --------------------------------


def _vector_bytes(tracer, args, result, parent_name):
    tracer.add("vector_bytes", args[1].total * 8)


def _mask_bits(tracer, args, result, parent_name):
    tracer.add("mask_active", sum(result.bits))
    tracer.add("mask_blocks", len(result.bits))


def _solver_result(tracer, args, result, parent_name):
    if parent_name is not None and parent_name.startswith("solvers."):
        return  # nested driver (run_fb_min -> run_fb -> run_double_layer)
    trace = result[0] if isinstance(result, tuple) else result
    snaps = [r.snapshot for r in trace.records if r.snapshot is not None]
    tracer.add("records", len(trace.records))
    tracer.add("snapshots", len(snaps))
    tracer.add("snapshot_bytes", sum(s.flat.nbytes for s in snaps))


def _trace_bytes(tracer, args, result, parent_name):
    tracer.add("write_trace_bytes", os.path.getsize(args[1]))


# -- span arithmetic ----------------------------------------------------------


def span_table(spans, names) -> dict:
    """Per-span arrays plus self time: duration minus the union of children.

    Children on other threads may overlap each other, so their covered
    interval is merged rather than summed; self time is never negative.
    """
    import numpy as np

    n = len(spans)
    sid = np.fromiter((s[0] for s in spans), np.int64, n)
    nid = np.fromiter((s[1] for s in spans), np.int64, n)
    t0 = np.fromiter((s[2] for s in spans), np.int64, n)
    t1 = np.fromiter((s[3] for s in spans), np.int64, n)
    parent = np.fromiter((s[4] for s in spans), np.int64, n)
    children = defaultdict(list)
    for j in range(n):
        p = parent[j]
        if p:
            children[abs(int(p))].append((int(t0[j]), int(t1[j])))
    covered = {}
    for p, ivs in children.items():
        ivs.sort()
        total, cur0, cur1 = 0, ivs[0][0], ivs[0][1]
        for a, b in ivs[1:]:
            if a > cur1:
                total += cur1 - cur0
                cur0, cur1 = a, b
            elif b > cur1:
                cur1 = b
        covered[p] = total + (cur1 - cur0)
    dur = t1 - t0
    cov = np.fromiter((covered.get(int(s), 0) for s in sid), np.int64, n)
    return {"sid": sid, "nid": nid, "t0": t0, "t1": t1, "parent": parent,
            "dur": dur, "self": dur - cov, "names": list(names)}


def save_spans(path: str, table: dict) -> None:
    import numpy as np

    np.savez_compressed(path, names=np.array(table["names"]),
                        **{k: table[k] for k in
                           ("sid", "nid", "t0", "t1", "parent")})
