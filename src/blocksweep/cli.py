"""Configuration ingestion, batch orchestration, and trace emission.

A run is described by one YAML document (nested key-value with arrays).  The
full grammar:

.. code-block:: yaml

    problem:
      kind: km | averaged | double_layer | dr | pd_dr | fb | fb_min
      dims: [2, 3]            # block dimensions of the primal space
      # km / averaged
      operator: <operator-spec>
      # double_layer
      outer: <operator-spec>  # must be averaged
      inner: <operator-spec>  # must be averaged
      # dr
      blocks: [<monotone-spec>, ...]       # one per block
      coupling: {type: linear, matrix: [[...]], offset: [...]}
              | {type: separable, blocks: [<monotone-spec>, ...]}
      # pd_dr
      functions: [<function-spec> | <monotone-spec>, ...]
      duals: [<function-spec> | <monotone-spec>, ...]
      grid: [[<matrix>, ...], ...]         # image rows by primal columns
      # fb
      blocks: [<monotone-spec>, ...]
      forward: {type: linear, matrix, offset}   # symmetric PSD matrix
             | {type: coupling, smooth: [<smooth-spec>, ...], grid: ...}
             | {type: none}
      # fb_min
      functions: [<function-spec>, ...]
      smooth: [<smooth-spec>, ...]
      grid: [[<matrix>, ...], ...]
    solver:
      relaxation: 0.5 | {start: 0.9, end: 0.5, ramp: 100}
      dr_relaxation: 1.0
      stepsize: 1.0
      gamma: 1.0
      max_iterations: 100000
      tolerance: 1.0e-8
      snapshot_stride: 10
    sweeping:
      scheme: single_block | independent_bernoulli | fixed_subset_size
      weights: [...]          # single_block, optional (uniform default)
      probabilities: [...]    # independent_bernoulli
      size: 1                 # fixed_subset_size
    errors:
      a: {kind: gaussian_decay, scale: 0.1, decay: 0.9}
      # slots: a, b, c, d (driver dependent); omitted slots are error-free
    seeds: [0, 1, 2]
    initial: {x0: [[...], ...], z0: ..., y0: ..., w0: ...}
    reference: [[...], ...]   # optional known solution (primal blocks)
    output: {directory: out}

``<function-spec>`` is one of ``{kind: l1, dim, weight}``,
``{kind: sq_l2, center, weight}``, ``{kind: indicator_box, lo, hi}``,
``{kind: indicator_ball, center, radius}``,
``{kind: quadratic, matrix, offset}``, ``{kind: zero, dim}``.
``<monotone-spec>`` is a function spec (used through its subdifferential) or
``{kind: linear_monotone, matrix, offset}`` or
``{kind: normal_cone_box, lo, hi}``.
``<smooth-spec>`` is ``{kind: sq_l2, center, weight}`` or
``{kind: quadratic, matrix, offset}``.
``<operator-spec>`` is one of
``{type: prox, functions: [...], gamma}``,
``{type: box_projection, lo, hi}``,
``{type: affine, matrix, offset, regularity, alpha, fixed_points}``,
``{type: identity}``, ``{type: constant, value}``,
``{type: forward_step, smooth: [...], grid: ..., stepsize}``.

Every driver hypothesis bound is validated at parse time; unknown keys are
rejected.  Traces are written one CSV per seed with 17-significant-digit
floats so a replayed run produces byte-identical files; the aggregate report
is JSON.  The only environment override is ``BLOCKSWEEP_OUT`` for the output
directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import traceback
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .blockspace import BlockDims, BlockVector, construct
from .errors import (
    BlocksweepError,
    ConfigError,
    InvalidRuleError,
    ParameterError,
    ShapeError,
)
from .operators import (
    BlockOperatorFamily,
    BallIndicator,
    BoxIndicator,
    BoxNormalCone,
    CocoerciveOperator,
    L1Norm,
    LinearBlockOperator,
    LinearMonotone,
    MonotoneOperator,
    ProxFunction,
    Quadratic,
    SmoothTerm,
    SquaredDistance,
    Subdifferential,
    Zero,
    affine_family,
    blockwise_resolvent,
    box_projection_family,
    constant_family,
    coupling_forward_operator,
    forward_step_family,
    prox_family,
    spectral_norm_psd,
)
from .solvers import (
    CoupledMinProblem,
    DrProblem,
    FbProblem,
    IterateTrace,
    KmProblem,
    PdDrProblem,
    Schedule,
    SolverConfig,
    _solve_dr,
    _solve_fb,
    _solve_fb_min,
    assemble_pd_problem,
    run_double_layer,
    run_pd_dr,
    run_single_layer,
)
from .sweeping import ErrorModel, SweepingRule

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize_config",
    "execute_run",
    "write_trace",
    "main",
]

_KINDS = ("km", "averaged", "double_layer", "dr", "pd_dr", "fb", "fb_min")
_FUNCTION_KINDS = ("l1", "sq_l2", "indicator_box", "indicator_ball",
                   "quadratic", "zero")
_ERROR_SLOTS = ("a", "b", "c", "d")
# libyaml's parser when PyYAML was built with it; same resolver and
# constructor as yaml.SafeLoader, so the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def _fail(context: str, message: str):
    raise ConfigError(f"{context}: {message}")


def _mapping(node, context: str) -> dict:
    if not isinstance(node, Mapping):
        _fail(context, f"expected a mapping, got {type(node).__name__}")
    return dict(node)


def _allow_keys(node: Mapping, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        _fail(context, f"unknown keys {unknown}; allowed keys are "
                       f"{sorted(allowed)}")


def _get(node: Mapping, key: str, context: str):
    if key not in node:
        _fail(context, f"missing required key {key!r}")
    return node[key]


def _float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(context, f"expected a number, got {value!r}")
    return float(value)


def _int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(context, f"expected an integer, got {value!r}")
    return int(value)


def _float_list(value, context: str) -> list[float]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        _fail(context, f"expected an array of numbers, got {value!r}")
    return [_float(v, f"{context}[{i}]") for i, v in enumerate(value)]


def _int_list(value, context: str) -> list[int]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        _fail(context, f"expected an array of integers, got {value!r}")
    return [_int(v, f"{context}[{i}]") for i, v in enumerate(value)]


def _matrix(value, context: str) -> list[list[float]]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        _fail(context, f"expected a matrix (array of rows), got {value!r}")
    rows = [_float_list(r, f"{context}[{i}]") for i, r in enumerate(value)]
    if not rows:
        _fail(context, "matrix must have at least one row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        _fail(context, "matrix rows must have equal length")
    return rows


def _blocks_value(value, dims: list[int], context: str) -> list[list[float]]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        _fail(context, "expected per-block arrays")
    if len(value) != len(dims):
        _fail(context, f"expected {len(dims)} blocks, got {len(value)}")
    out = []
    for i, blk in enumerate(value):
        arr = _float_list(blk, f"{context}[{i}]")
        if len(arr) != dims[i]:
            _fail(context, f"block {i} has length {len(arr)}, expected "
                           f"{dims[i]}")
        out.append(arr)
    return out


def _schedule_node(value, context: str) -> dict:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {"start": float(value)}
    node = _mapping(value, context)
    _allow_keys(node, ("start", "end", "ramp"), context)
    out = {"start": _float(_get(node, "start", context), f"{context}.start")}
    if "end" in node or "ramp" in node:
        out["end"] = _float(_get(node, "end", context), f"{context}.end")
        out["ramp"] = _int(_get(node, "ramp", context), f"{context}.ramp")
        if out["ramp"] < 1:
            _fail(context, "ramp must be >= 1")
    return out


def _build_schedule(node: Mapping) -> Schedule:
    if "end" in node:
        return Schedule(node["start"], node["end"], node["ramp"])
    return Schedule(node["start"])


# ---------------------------------------------------------------------------
# spec normalization (plain data in, plain data out)
# ---------------------------------------------------------------------------


def _norm_function(node, context: str) -> dict:
    node = _mapping(node, context)
    kind = _get(node, "kind", context)
    if kind == "l1":
        _allow_keys(node, ("kind", "dim", "weight"), context)
        return {"kind": "l1", "dim": _int(_get(node, "dim", context), context),
                "weight": _float(node.get("weight", 1.0), context)}
    if kind == "sq_l2":
        _allow_keys(node, ("kind", "center", "weight"), context)
        return {"kind": "sq_l2",
                "center": _float_list(_get(node, "center", context), context),
                "weight": _float(node.get("weight", 1.0), context)}
    if kind == "indicator_box":
        _allow_keys(node, ("kind", "lo", "hi"), context)
        return {"kind": "indicator_box",
                "lo": _float_list(_get(node, "lo", context), context),
                "hi": _float_list(_get(node, "hi", context), context)}
    if kind == "indicator_ball":
        _allow_keys(node, ("kind", "center", "radius"), context)
        return {"kind": "indicator_ball",
                "center": _float_list(_get(node, "center", context), context),
                "radius": _float(_get(node, "radius", context), context)}
    if kind == "quadratic":
        _allow_keys(node, ("kind", "matrix", "offset"), context)
        return {"kind": "quadratic",
                "matrix": _matrix(_get(node, "matrix", context), context),
                "offset": _float_list(_get(node, "offset", context), context)}
    if kind == "zero":
        _allow_keys(node, ("kind", "dim"), context)
        return {"kind": "zero", "dim": _int(_get(node, "dim", context), context)}
    _fail(context, f"unknown function kind {kind!r}; expected one of "
                   f"{_FUNCTION_KINDS}")


def _norm_monotone(node, context: str) -> dict:
    node = _mapping(node, context)
    kind = _get(node, "kind", context)
    if kind in _FUNCTION_KINDS:
        return _norm_function(node, context)
    if kind == "linear_monotone":
        _allow_keys(node, ("kind", "matrix", "offset"), context)
        out = {"kind": "linear_monotone",
               "matrix": _matrix(_get(node, "matrix", context), context)}
        if "offset" in node:
            out["offset"] = _float_list(node["offset"], context)
        return out
    if kind == "normal_cone_box":
        _allow_keys(node, ("kind", "lo", "hi"), context)
        return {"kind": "normal_cone_box",
                "lo": _float_list(_get(node, "lo", context), context),
                "hi": _float_list(_get(node, "hi", context), context)}
    _fail(context, f"unknown operator kind {kind!r}")


def _norm_smooth(node, context: str) -> dict:
    node = _mapping(node, context)
    kind = _get(node, "kind", context)
    if kind == "sq_l2":
        _allow_keys(node, ("kind", "center", "weight"), context)
        return {"kind": "sq_l2",
                "center": _float_list(_get(node, "center", context), context),
                "weight": _float(node.get("weight", 1.0), context)}
    if kind == "quadratic":
        _allow_keys(node, ("kind", "matrix", "offset"), context)
        return {"kind": "quadratic",
                "matrix": _matrix(_get(node, "matrix", context), context),
                "offset": _float_list(_get(node, "offset", context), context)}
    _fail(context, f"unknown smooth kind {kind!r}; expected sq_l2 or "
                   "quadratic")


def _norm_grid(node, context: str) -> list[list[list[list[float]]]]:
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        _fail(context, "expected a grid (array of rows of matrices)")
    rows = []
    for k, row in enumerate(node):
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            _fail(f"{context}[{k}]", "expected an array of matrices")
        rows.append([_matrix(e, f"{context}[{k}][{i}]")
                     for i, e in enumerate(row)])
    if not rows or not rows[0]:
        _fail(context, "grid must be at least 1 x 1")
    if any(len(r) != len(rows[0]) for r in rows):
        _fail(context, "grid rows must have equal length")
    return rows


def _norm_operator(node, context: str, dims: list[int]) -> dict:
    node = _mapping(node, context)
    typ = _get(node, "type", context)
    total = sum(dims)
    if typ == "prox":
        _allow_keys(node, ("type", "functions", "gamma"), context)
        fns = _get(node, "functions", context)
        if not isinstance(fns, Sequence) or len(fns) != len(dims):
            _fail(context, f"need {len(dims)} functions, one per block")
        return {"type": "prox",
                "functions": [_norm_function(f, f"{context}.functions[{i}]")
                              for i, f in enumerate(fns)],
                "gamma": _float(node.get("gamma", 1.0), context)}
    if typ == "box_projection":
        _allow_keys(node, ("type", "lo", "hi"), context)
        lo = _float_list(_get(node, "lo", context), context)
        hi = _float_list(_get(node, "hi", context), context)
        if len(lo) != total or len(hi) != total:
            _fail(context, f"box bounds must have length {total}")
        return {"type": "box_projection", "lo": lo, "hi": hi}
    if typ == "affine":
        _allow_keys(node, ("type", "matrix", "offset", "regularity",
                           "alpha", "fixed_points"), context)
        out = {"type": "affine",
               "matrix": _matrix(_get(node, "matrix", context), context),
               "regularity": node.get("regularity", "nonexpansive")}
        if out["regularity"] not in ("nonexpansive", "quasinonexpansive",
                                     "averaged"):
            _fail(context, f"unknown regularity {out['regularity']!r}")
        if "offset" in node:
            out["offset"] = _float_list(node["offset"], context)
        if "alpha" in node:
            out["alpha"] = _schedule_node(node["alpha"], f"{context}.alpha")
        if "fixed_points" in node:
            out["fixed_points"] = [
                _blocks_value(fp, dims, f"{context}.fixed_points[{j}]")
                for j, fp in enumerate(node["fixed_points"])
            ]
        return out
    if typ == "identity":
        _allow_keys(node, ("type",), context)
        return {"type": "identity"}
    if typ == "constant":
        _allow_keys(node, ("type", "value"), context)
        return {"type": "constant",
                "value": _blocks_value(_get(node, "value", context), dims,
                                       f"{context}.value")}
    if typ == "forward_step":
        _allow_keys(node, ("type", "smooth", "grid", "stepsize"), context)
        smooth = _get(node, "smooth", context)
        return {"type": "forward_step",
                "smooth": [_norm_smooth(s, f"{context}.smooth[{k}]")
                           for k, s in enumerate(smooth)],
                "grid": _norm_grid(_get(node, "grid", context),
                                   f"{context}.grid"),
                "stepsize": _schedule_node(_get(node, "stepsize", context),
                                           f"{context}.stepsize")}
    _fail(context, f"unknown operator type {typ!r}")


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description in normalized plain data.

    Treat it as immutable after ``parse_config``: its run plan (operators,
    problem set-up, bound checks and the seed-independent solver settings)
    is built on first use and cached on the instance, and every
    ``execute_run`` call and every seed reuses it.  The cache is not a
    field, so equality and ``parse(serialize(rc))`` ignore it.
    """

    problem: dict
    solver: dict
    sweeping: dict
    errors: dict
    seeds: tuple[int, ...]
    initial: dict
    reference: list | None
    output_directory: str | None

    def to_mapping(self) -> dict:
        doc: dict[str, Any] = {
            "problem": self.problem,
            "solver": self.solver,
            "sweeping": self.sweeping,
            "seeds": list(self.seeds),
        }
        if self.errors:
            doc["errors"] = self.errors
        if self.initial:
            doc["initial"] = self.initial
        if self.reference is not None:
            doc["reference"] = self.reference
        if self.output_directory is not None:
            doc["output"] = {"directory": self.output_directory}
        return doc

    @cached_property
    def _plan(self) -> "_RunPlan":
        plan = _build_plan(self)
        _validate_bounds(self, plan)
        plan.config = _build_solver_config(self, plan, self.seeds[0])
        return plan


_PROBLEM_KEYS = {
    "km": ("kind", "dims", "operator"),
    "averaged": ("kind", "dims", "operator"),
    "double_layer": ("kind", "dims", "outer", "inner"),
    "dr": ("kind", "dims", "blocks", "coupling"),
    "pd_dr": ("kind", "dims", "functions", "duals", "grid"),
    "fb": ("kind", "dims", "blocks", "forward"),
    "fb_min": ("kind", "dims", "functions", "smooth", "grid"),
}

_INITIAL_KEYS = {
    "km": ("x0",),
    "averaged": ("x0",),
    "double_layer": ("x0",),
    "dr": ("x0", "z0"),
    "pd_dr": ("x0", "z0", "y0", "w0"),
    "fb": ("x0",),
    "fb_min": ("x0",),
}


def _norm_problem(node, context: str = "problem") -> dict:
    node = _mapping(node, context)
    kind = _get(node, "kind", context)
    if kind not in _KINDS:
        _fail(context, f"unknown kind {kind!r}; expected one of {_KINDS}")
    _allow_keys(node, _PROBLEM_KEYS[kind], context)
    dims = _int_list(_get(node, "dims", context), f"{context}.dims")
    if not dims or any(d < 1 for d in dims):
        _fail(f"{context}.dims", "block dimensions must be positive")
    out: dict[str, Any] = {"kind": kind, "dims": dims}
    if kind in ("km", "averaged"):
        out["operator"] = _norm_operator(_get(node, "operator", context),
                                         f"{context}.operator", dims)
    elif kind == "double_layer":
        out["outer"] = _norm_operator(_get(node, "outer", context),
                                      f"{context}.outer", dims)
        out["inner"] = _norm_operator(_get(node, "inner", context),
                                      f"{context}.inner", dims)
    elif kind == "dr":
        blocks = _get(node, "blocks", context)
        if not isinstance(blocks, Sequence) or len(blocks) != len(dims):
            _fail(context, f"need {len(dims)} blockwise operators")
        out["blocks"] = [_norm_monotone(b, f"{context}.blocks[{i}]")
                         for i, b in enumerate(blocks)]
        cpl = _mapping(_get(node, "coupling", context), f"{context}.coupling")
        typ = _get(cpl, "type", f"{context}.coupling")
        if typ == "linear":
            _allow_keys(cpl, ("type", "matrix", "offset"),
                        f"{context}.coupling")
            out["coupling"] = {
                "type": "linear",
                "matrix": _matrix(_get(cpl, "matrix", context),
                                  f"{context}.coupling.matrix"),
            }
            if "offset" in cpl:
                out["coupling"]["offset"] = _float_list(
                    cpl["offset"], f"{context}.coupling.offset")
        elif typ == "separable":
            _allow_keys(cpl, ("type", "blocks"), f"{context}.coupling")
            cblocks = _get(cpl, "blocks", f"{context}.coupling")
            if not isinstance(cblocks, Sequence) or len(cblocks) != len(dims):
                _fail(f"{context}.coupling", f"need {len(dims)} blocks")
            out["coupling"] = {
                "type": "separable",
                "blocks": [_norm_monotone(b, f"{context}.coupling.blocks[{i}]")
                           for i, b in enumerate(cblocks)],
            }
        else:
            _fail(f"{context}.coupling", f"unknown coupling type {typ!r}")
    elif kind == "pd_dr":
        fns = _get(node, "functions", context)
        duals = _get(node, "duals", context)
        if not isinstance(fns, Sequence) or len(fns) != len(dims):
            _fail(context, f"need {len(dims)} primal functions")
        out["functions"] = [_norm_monotone(f, f"{context}.functions[{i}]")
                            for i, f in enumerate(fns)]
        out["duals"] = [_norm_monotone(g, f"{context}.duals[{k}]")
                        for k, g in enumerate(duals)]
        out["grid"] = _norm_grid(_get(node, "grid", context),
                                 f"{context}.grid")
    elif kind == "fb":
        blocks = _get(node, "blocks", context)
        if not isinstance(blocks, Sequence) or len(blocks) != len(dims):
            _fail(context, f"need {len(dims)} blockwise operators")
        out["blocks"] = [_norm_monotone(b, f"{context}.blocks[{i}]")
                         for i, b in enumerate(blocks)]
        fwd = _mapping(_get(node, "forward", context), f"{context}.forward")
        typ = _get(fwd, "type", f"{context}.forward")
        if typ == "linear":
            _allow_keys(fwd, ("type", "matrix", "offset"),
                        f"{context}.forward")
            out["forward"] = {
                "type": "linear",
                "matrix": _matrix(_get(fwd, "matrix", context),
                                  f"{context}.forward.matrix"),
            }
            if "offset" in fwd:
                out["forward"]["offset"] = _float_list(
                    fwd["offset"], f"{context}.forward.offset")
        elif typ == "coupling":
            _allow_keys(fwd, ("type", "smooth", "grid"), f"{context}.forward")
            out["forward"] = {
                "type": "coupling",
                "smooth": [_norm_smooth(s, f"{context}.forward.smooth[{k}]")
                           for k, s in enumerate(_get(fwd, "smooth", context))],
                "grid": _norm_grid(_get(fwd, "grid", context),
                                   f"{context}.forward.grid"),
            }
        elif typ == "none":
            _allow_keys(fwd, ("type",), f"{context}.forward")
            out["forward"] = {"type": "none"}
        else:
            _fail(f"{context}.forward", f"unknown forward type {typ!r}")
    else:  # fb_min
        fns = _get(node, "functions", context)
        if not isinstance(fns, Sequence) or len(fns) != len(dims):
            _fail(context, f"need {len(dims)} functions")
        out["functions"] = [_norm_function(f, f"{context}.functions[{i}]")
                            for i, f in enumerate(fns)]
        out["smooth"] = [_norm_smooth(s, f"{context}.smooth[{k}]")
                         for k, s in enumerate(_get(node, "smooth", context))]
        out["grid"] = _norm_grid(_get(node, "grid", context),
                                 f"{context}.grid")
    return out


def _norm_solver(node, context: str = "solver") -> dict:
    node = _mapping(node, context) if node is not None else {}
    _allow_keys(node, ("relaxation", "dr_relaxation", "stepsize", "gamma",
                       "max_iterations", "tolerance", "snapshot_stride"),
                context)
    out: dict[str, Any] = {}
    out["relaxation"] = _schedule_node(node.get("relaxation", 0.5),
                                       f"{context}.relaxation")
    out["dr_relaxation"] = _schedule_node(node.get("dr_relaxation", 1.0),
                                          f"{context}.dr_relaxation")
    if "stepsize" in node:
        out["stepsize"] = _schedule_node(node["stepsize"],
                                         f"{context}.stepsize")
    out["gamma"] = _float(node.get("gamma", 1.0), f"{context}.gamma")
    out["max_iterations"] = _int(node.get("max_iterations", 100_000),
                                 f"{context}.max_iterations")
    out["tolerance"] = _float(node.get("tolerance", 1e-8),
                              f"{context}.tolerance")
    out["snapshot_stride"] = _int(node.get("snapshot_stride", 10),
                                  f"{context}.snapshot_stride")
    return out


def _norm_sweeping(node, context: str = "sweeping") -> dict:
    node = _mapping(node, context)
    scheme = _get(node, "scheme", context)
    if scheme == "single_block":
        _allow_keys(node, ("scheme", "weights"), context)
        out = {"scheme": "single_block"}
        if "weights" in node:
            out["weights"] = _float_list(node["weights"], f"{context}.weights")
        return out
    if scheme == "independent_bernoulli":
        _allow_keys(node, ("scheme", "probabilities"), context)
        return {"scheme": "independent_bernoulli",
                "probabilities": _float_list(
                    _get(node, "probabilities", context),
                    f"{context}.probabilities")}
    if scheme == "fixed_subset_size":
        _allow_keys(node, ("scheme", "size"), context)
        return {"scheme": "fixed_subset_size",
                "size": _int(_get(node, "size", context), f"{context}.size")}
    _fail(context, f"unknown scheme {scheme!r}")


def _norm_errors(node, context: str = "errors") -> dict:
    if node is None:
        return {}
    node = _mapping(node, context)
    _allow_keys(node, _ERROR_SLOTS, context)
    out = {}
    for slot, spec in node.items():
        spec = _mapping(spec, f"{context}.{slot}")
        _allow_keys(spec, ("kind", "scale", "decay"), f"{context}.{slot}")
        kind = _get(spec, "kind", f"{context}.{slot}")
        if kind == "none":
            out[slot] = {"kind": "none"}
            continue
        if kind not in ("deterministic_decay", "gaussian_decay"):
            _fail(f"{context}.{slot}", f"unknown error kind {kind!r}")
        out[slot] = {
            "kind": kind,
            "scale": _float(_get(spec, "scale", f"{context}.{slot}"),
                            f"{context}.{slot}.scale"),
            "decay": _float(_get(spec, "decay", f"{context}.{slot}"),
                            f"{context}.{slot}.decay"),
        }
    return out


# ---------------------------------------------------------------------------
# builders from normalized data
# ---------------------------------------------------------------------------


def _build_function(spec: Mapping) -> ProxFunction:
    kind = spec["kind"]
    if kind == "l1":
        return L1Norm(spec["dim"], spec["weight"])
    if kind == "sq_l2":
        return SquaredDistance(np.array(spec["center"]), spec["weight"])
    if kind == "indicator_box":
        return BoxIndicator(np.array(spec["lo"]), np.array(spec["hi"]))
    if kind == "indicator_ball":
        return BallIndicator(np.array(spec["center"]), spec["radius"])
    if kind == "quadratic":
        return Quadratic(np.array(spec["matrix"]), np.array(spec["offset"]))
    return Zero(spec["dim"])


def _build_monotone(spec: Mapping) -> MonotoneOperator:
    kind = spec["kind"]
    if kind in _FUNCTION_KINDS:
        return Subdifferential(_build_function(spec))
    if kind == "linear_monotone":
        M = np.array(spec["matrix"])
        offset = np.array(spec["offset"]) if "offset" in spec else None
        return LinearMonotone(M, offset)
    return BoxNormalCone(np.array(spec["lo"]), np.array(spec["hi"]))


def _build_smooth(spec: Mapping) -> SmoothTerm:
    if spec["kind"] == "sq_l2":
        return SmoothTerm.squared_distance(np.array(spec["center"]),
                                           spec["weight"])
    return SmoothTerm.quadratic(np.array(spec["matrix"]),
                                np.array(spec["offset"]))


def _build_grid(spec) -> LinearBlockOperator:
    return LinearBlockOperator([[np.array(e) for e in row] for row in spec])


def _build_operator(spec: Mapping, dims: BlockDims) -> BlockOperatorFamily:
    typ = spec["type"]
    if typ == "prox":
        fns = [_build_function(f) for f in spec["functions"]]
        fam = prox_family(fns, spec["gamma"])
        if fam.dims != dims:
            raise ConfigError("operator functions do not match problem dims")
        return fam
    if typ == "box_projection":
        return box_projection_family(np.array(spec["lo"]),
                                     np.array(spec["hi"]), dims)
    if typ == "affine":
        offset = np.array(spec["offset"]) if "offset" in spec else None
        alpha = _build_schedule(spec["alpha"]) if "alpha" in spec else None
        fixed = tuple(construct(dims, fp) for fp in spec.get("fixed_points", []))
        return affine_family(dims, np.array(spec["matrix"]), offset,
                             spec["regularity"], alpha, fixed)
    if typ == "identity":
        return affine_family(dims, np.eye(dims.total), None, "averaged", 1e-9)
    if typ == "constant":
        return constant_family(construct(dims, spec["value"]))
    # forward_step
    grid = _build_grid(spec["grid"])
    if grid.source_dims != dims:
        raise ConfigError("forward_step grid does not match problem dims")
    smooth = [_build_smooth(s) for s in spec["smooth"]]
    B = coupling_forward_operator(grid, smooth)
    return forward_step_family(B, _build_schedule(spec["stepsize"]), dims)


class _RunPlan:
    """Everything needed to run and to compute a reference solution."""

    def __init__(self, kind: str, mask_blocks: int, runner, problem,
                 dims: BlockDims):
        self.kind = kind
        self.mask_blocks = mask_blocks
        self.runner = runner  # (SolverConfig) -> (IterateTrace, solution|None)
        self.problem = problem
        self.dims = dims
        # the solver settings of the first seed; a run replaces the seed
        self.config: SolverConfig | None = None


def _initial(rc: RunConfig, key: str, dims: BlockDims) -> BlockVector:
    if key in rc.initial:
        return construct(dims, rc.initial[key])
    return construct(dims)


def _build_plan(rc: RunConfig) -> _RunPlan:
    prob = rc.problem
    kind = prob["kind"]
    dims = BlockDims(prob["dims"])
    gamma = rc.solver["gamma"]
    if kind in ("km", "averaged"):
        family = _build_operator(prob["operator"], dims)
        if kind == "averaged" and family.regularity != "averaged":
            raise ConfigError(
                "averaged driver needs an averaged operator (prox, identity, "
                "or affine with an alpha)")
        x0 = _initial(rc, "x0", dims)
        problem = KmProblem(family, x0)
        return _RunPlan(
            kind, dims.m,
            lambda scfg: (run_single_layer(family, scfg, x0), None),
            problem, dims,
        )
    if kind == "double_layer":
        outer = _build_operator(prob["outer"], dims)
        inner = _build_operator(prob["inner"], dims)
        for name, fam in (("outer", outer), ("inner", inner)):
            if fam.regularity != "averaged":
                raise ParameterError(
                    f"double-layer driver needs an averaged {name} operator")
            a = fam.averaging
            ahi = a.bounds()[1] if hasattr(a, "bounds") else float(a)
            if ahi >= 1:
                raise ParameterError(
                    f"double-layer driver requires sup of the {name} "
                    f"averaging constants < 1, got {ahi}")
        x0 = _initial(rc, "x0", dims)

        def composed(n, x):
            return outer.evaluate(n, inner.evaluate(n, x))

        problem = KmProblem(
            BlockOperatorFamily(dims, composed, "nonexpansive"), x0
        )
        return _RunPlan(
            kind, dims.m,
            lambda scfg: (run_double_layer(outer, inner, scfg, x0), None),
            problem, dims,
        )
    if kind == "dr":
        A = tuple(_build_monotone(b) for b in prob["blocks"])
        cpl = prob["coupling"]
        if cpl["type"] == "linear":
            M = np.array(cpl["matrix"])
            offset = np.array(cpl["offset"]) if "offset" in cpl else None
            op = LinearMonotone(M, offset)
            if op.dim != dims.total:
                raise ConfigError("coupling matrix must act on the full space")
            jb = lambda v: BlockVector(dims, op.resolvent(v.flat, gamma))
            sym = 0.5 * (M + M.T)
            norm = spectral_norm_psd(sym)
            theta = 1.0 / norm if norm > 0 else 1.0
            b_forward = CocoerciveOperator(
                dims, lambda v: BlockVector(dims, op.apply(v.flat)), theta
            )
        else:
            ops = [_build_monotone(b) for b in cpl["blocks"]]
            jb = blockwise_resolvent(ops, gamma)
            b_forward = None
        x0 = _initial(rc, "x0", dims)
        z0 = _initial(rc, "z0", dims)
        problem = DrProblem(A, jb, gamma, dims, b_forward)
        return _RunPlan(
            kind, dims.m,
            lambda scfg: _solve_dr(problem.resolvents, jb, gamma, scfg, x0,
                                   z0, check_resolvent=False),
            problem, dims,
        )
    if kind == "pd_dr":
        grid = _build_grid(prob["grid"])
        primal = [_build_monotone(f) for f in prob["functions"]]
        dual = [_build_monotone(g) for g in prob["duals"]]
        problem = assemble_pd_problem(primal, dual, grid)
        if problem.h_dims != dims:
            raise ConfigError("grid columns do not match problem dims")
        x0 = _initial(rc, "x0", dims)
        z0 = _initial(rc, "z0", dims)
        y0 = (construct(problem.g_dims, rc.initial["y0"])
              if "y0" in rc.initial else None)
        w0 = (construct(problem.g_dims, rc.initial["w0"])
              if "w0" in rc.initial else None)
        return _RunPlan(
            kind, problem.k_dims.m,
            lambda scfg: run_pd_dr(problem, gamma, scfg, x0, z0, y0, w0),
            problem, dims,
        )
    if kind == "fb":
        A = tuple(_build_monotone(b) for b in prob["blocks"])
        fwd = prob["forward"]
        if fwd["type"] == "linear":
            M = np.array(fwd["matrix"])
            if not np.allclose(M, M.T, atol=1e-12):
                raise ConfigError(
                    "forward.matrix must be symmetric so its cocoercivity "
                    "constant is 1/||matrix||")
            offset = (np.array(fwd["offset"]) if "offset" in fwd
                      else np.zeros(dims.total))
            if M.shape != (dims.total, dims.total):
                raise ConfigError("forward.matrix must act on the full space")
            if np.linalg.eigvalsh(M).min() < -1e-10:
                raise ConfigError("forward.matrix must be positive "
                                  "semidefinite")
            norm = spectral_norm_psd(M)
            if norm <= 0:
                raise ConfigError("forward.matrix must be nonzero; use "
                                  "forward type none instead")
            B = CocoerciveOperator(
                dims, lambda v: BlockVector(dims, M @ v.flat + offset),
                1.0 / norm)
        elif fwd["type"] == "coupling":
            grid = _build_grid(fwd["grid"])
            if grid.source_dims != dims:
                raise ConfigError("forward grid does not match problem dims")
            B = coupling_forward_operator(
                grid, [_build_smooth(s) for s in fwd["smooth"]])
        else:
            B = None
        x0 = _initial(rc, "x0", dims)
        problem = FbProblem(A, B, dims)
        return _RunPlan(
            kind, dims.m,
            lambda scfg: (_solve_fb(problem.resolvents, B, scfg, x0,
                                    objective_fn=None,
                                    check_cocoercivity=False), None),
            problem, dims,
        )
    # fb_min
    grid = _build_grid(prob["grid"])
    if grid.source_dims != dims:
        raise ConfigError("grid columns do not match problem dims")
    fs = tuple(_build_function(f) for f in prob["functions"])
    smooth = tuple(_build_smooth(s) for s in prob["smooth"])
    problem = CoupledMinProblem(fs, smooth, grid)
    x0 = _initial(rc, "x0", dims)
    return _RunPlan(
        "fb_min", dims.m,
        lambda scfg: (_solve_fb_min(problem, scfg, x0), None),
        problem, dims,
    )


def _build_sweeping(rc: RunConfig, mask_blocks: int) -> SweepingRule:
    node = rc.sweeping
    if node["scheme"] == "single_block":
        return SweepingRule("single_block", mask_blocks,
                            weights=tuple(node.get(
                                "weights", [1.0] * mask_blocks)))
    if node["scheme"] == "independent_bernoulli":
        return SweepingRule("independent_bernoulli", mask_blocks,
                            probabilities=tuple(node["probabilities"]))
    return SweepingRule("fixed_subset_size", mask_blocks, size=node["size"])


def _build_errors(rc: RunConfig) -> dict[str, ErrorModel]:
    out = {}
    for slot, spec in rc.errors.items():
        if spec["kind"] == "none":
            out[slot] = ErrorModel("none")
        else:
            out[slot] = ErrorModel(spec["kind"], spec["scale"], spec["decay"])
    return out


def _build_solver_config(rc: RunConfig, plan: _RunPlan,
                         seed: int) -> SolverConfig:
    solver = rc.solver
    reference = None
    if rc.reference is not None:
        reference = construct(plan.dims, rc.reference)
    return SolverConfig(
        sweeping=_build_sweeping(rc, plan.mask_blocks),
        relaxation=_build_schedule(solver["relaxation"]),
        dr_relaxation=_build_schedule(solver["dr_relaxation"]),
        stepsize=(_build_schedule(solver["stepsize"])
                  if "stepsize" in solver else None),
        gamma=solver["gamma"],
        max_iterations=solver["max_iterations"],
        tolerance=solver["tolerance"],
        seed=seed,
        errors=_build_errors(rc),
        reference=reference,
        snapshot_stride=solver["snapshot_stride"],
    )


def _validate_bounds(rc: RunConfig, plan: _RunPlan) -> None:
    """Enforce every driver hypothesis before any run starts."""
    kind = plan.kind
    lam = _build_schedule(rc.solver["relaxation"])
    lo, hi = lam.bounds()
    if kind in ("km", "averaged"):
        fam = plan.problem.family
        if fam.regularity == "averaged":
            a = fam.averaging
            alo, ahi = (a.bounds() if hasattr(a, "bounds")
                        else (float(a), float(a)))
            corners = [alo * lo, alo * hi, ahi * lo, ahi * hi]
            if min(corners) <= 0 or max(corners) >= 1:
                raise ConfigError(
                    "averaged driver requires alpha_n * lambda_n inside "
                    f"]0, 1[, got bounds [{min(corners)}, {max(corners)}]")
        else:
            if lo <= 0:
                raise ConfigError("single-layer driver requires "
                                  "inf lambda_n > 0")
            if hi >= 1:
                raise ConfigError(f"sup lambda_n < 1 required by the "
                                  f"single-layer driver, got {hi}")
    if kind in ("double_layer", "fb", "fb_min"):
        if lo <= 0 or hi > 1:
            raise ConfigError("lambda_n must be a sequence in ]0, 1] with "
                              f"inf lambda_n > 0, got bounds [{lo}, {hi}]")
    if kind in ("dr", "pd_dr"):
        mu = _build_schedule(rc.solver["dr_relaxation"])
        mlo, mhi = mu.bounds()
        if mlo <= 0 or mhi >= 2:
            raise ConfigError(
                "mu_n must be a sequence in ]0, 2[ with inf mu_n > 0 and "
                f"sup mu_n < 2, got bounds [{mlo}, {mhi}]")
        if rc.solver["gamma"] <= 0:
            raise ConfigError("gamma must be > 0")
    if kind in ("fb", "fb_min"):
        if "stepsize" not in rc.solver:
            raise ConfigError("forward-backward needs solver.stepsize")
        gam = _build_schedule(rc.solver["stepsize"])
        glo, ghi = gam.bounds()
        if kind == "fb":
            B = plan.problem.B
        else:
            B = plan.problem.forward()
        if B is None:
            if glo <= 0:
                raise ConfigError("gamma_n must satisfy inf gamma_n > 0")
        else:
            two_theta = 2.0 * B.theta
            if glo <= 0 or ghi >= two_theta:
                raise ConfigError(
                    f"gamma_n must be a sequence in ]0, 2*theta[ = "
                    f"]0, {two_theta}[, got bounds [{glo}, {ghi}]")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration document."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    doc = _mapping(doc, "config")
    _allow_keys(doc, ("problem", "solver", "sweeping", "errors", "seeds",
                      "initial", "reference", "output"), "config")
    problem = _norm_problem(_get(doc, "problem", "config"))
    solver = _norm_solver(doc.get("solver"))
    sweeping = _norm_sweeping(_get(doc, "sweeping", "config"))
    errors = _norm_errors(doc.get("errors"))
    seeds = tuple(_int_list(doc.get("seeds", [0]), "seeds"))
    if not seeds:
        _fail("seeds", "need at least one seed")
    initial = {}
    if "initial" in doc and doc["initial"] is not None:
        init = _mapping(doc["initial"], "initial")
        _allow_keys(init, _INITIAL_KEYS[problem["kind"]], "initial")
        dims = problem["dims"]
        for key, value in init.items():
            if key in ("y0", "w0"):
                # image-block dims: the row count of any matrix in grid row k
                gdims = [len(row[0]) for row in problem["grid"]]
                initial[key] = _blocks_value(value, gdims, f"initial.{key}")
            else:
                initial[key] = _blocks_value(value, dims, f"initial.{key}")
    reference = None
    if "reference" in doc and doc["reference"] is not None:
        reference = _blocks_value(doc["reference"], problem["dims"],
                                  "reference")
    output_directory = None
    if "output" in doc and doc["output"] is not None:
        out = _mapping(doc["output"], "output")
        _allow_keys(out, ("directory",), "output")
        if "directory" in out:
            output_directory = str(out["directory"])
    rc = RunConfig(problem, solver, sweeping, errors, seeds, initial,
                   reference, output_directory)
    try:
        rc._plan  # built and bound-checked once, then reused by every run
    except (ParameterError, InvalidRuleError, ShapeError) as exc:
        raise ConfigError(str(exc)) from exc
    return rc


def serialize_config(rc: RunConfig) -> str:
    return yaml.safe_dump(rc.to_mapping(), sort_keys=True)


# ---------------------------------------------------------------------------
# execution and trace emission
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


_MASK_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def write_trace(trace: IterateTrace, path: str) -> None:
    """Write one run as CSV with 17-significant-digit floats.

    Columns: ``n,residual,dist_to_ref,active_mask,lambda,gamma,objective``;
    fields that do not apply are left empty, masks are bitstrings.
    """
    with open(path, "w", newline="") as fh:
        fh.write("n,residual,dist_to_ref,active_mask,lambda,gamma,objective\n")
        for r in trace.records:
            mask = ("" if r.mask is None
                    else bytes(r.mask).translate(_MASK_DIGITS).decode())
            row = [
                str(r.n),
                _fmt(r.residual),
                _fmt(r.distance_to_reference),
                mask,
                _fmt(r.relaxation),
                _fmt(r.stepsize),
                _fmt(r.objective),
            ]
            fh.write(",".join(row) + "\n")


def execute_run(
    rc: RunConfig,
    out_dir: str | None = None,
    seeds: Sequence[int] | None = None,
    max_iter: int | None = None,
    tol: float | None = None,
    workers: int | None = None,
) -> int:
    """Run every seed, write per-seed trace CSVs and a JSON report.

    The run plan is the one cached on ``rc`` (built by ``parse_config``),
    so repeated calls and extra seeds redo no set-up: a seed only builds
    its own ``SolverConfig`` from the cached one and runs the driver.

    Exit status: 0 when every seed stopped at tolerance, 2 when some seed
    exhausted its budget, 1 on configuration or I/O errors or when some seed
    raised.  A seed that raises is recorded as ``"<Type>: <message>"`` under
    its ``error`` key in the report (with the traceback on stderr for
    exceptions from outside blocksweep); the other seeds' traces and the
    report are still written.
    """
    try:
        plan = rc._plan
    except (BlocksweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    directory = (out_dir or os.environ.get("BLOCKSWEEP_OUT")
                 or rc.output_directory or ".")
    seeds = list(seeds if seeds is not None else rc.seeds)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}",
              file=sys.stderr)
        return 1

    overrides = {}
    if max_iter is not None:
        overrides["max_iterations"] = max_iter
    if tol is not None:
        overrides["tolerance"] = tol

    def one_seed(seed: int):
        scfg = replace(plan.config, seed=seed, **overrides)
        trace, solution = plan.runner(scfg)
        return seed, trace, solution

    results = {}
    errors: dict[int, str] = {}
    pool = max(1, min(len(seeds), workers if workers is not None
                      else (os.cpu_count() or 1)))
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=pool) as ex:
            futures = {ex.submit(one_seed, s): s for s in seeds}
            for fut in concurrent.futures.as_completed(futures):
                seed = futures[fut]
                try:
                    _, trace, solution = fut.result()
                    results[seed] = (trace, solution)
                except Exception as exc:
                    # one failing seed must not lose the other seeds' output
                    errors[seed] = f"{type(exc).__name__}: {exc}"
                    if not isinstance(exc, BlocksweepError):
                        traceback.print_exception(exc, file=sys.stderr)
    except OSError as exc:  # pragma: no cover - thread pool failure
        print(f"error: {exc}", file=sys.stderr)
        return 1

    per_seed = {}
    all_ok = True
    try:
        for seed in seeds:
            if seed in errors:
                per_seed[str(seed)] = {"error": errors[seed]}
                all_ok = False
                continue
            trace, solution = results[seed]
            write_trace(trace, os.path.join(directory,
                                            f"trace_seed{seed}.csv"))
            last = trace.records[-1] if trace.records else None
            entry = {
                "final_residual": trace.final_residual,
                "iterations": trace.iterations,
                "termination": trace.termination,
                "reached_tolerance": trace.termination == "tolerance",
            }
            if last is not None and last.distance_to_reference is not None:
                entry["distance_to_reference"] = last.distance_to_reference
            per_seed[str(seed)] = entry
            if trace.termination != "tolerance":
                all_ok = False
        residuals = [per_seed[str(s)].get("final_residual")
                     for s in seeds if "error" not in per_seed[str(s)]]
        report = {
            "kind": rc.problem["kind"],
            "seeds": list(seeds),
            "success_fraction": (
                sum(1 for s in seeds
                    if per_seed[str(s)].get("reached_tolerance")) / len(seeds)
            ),
            "per_seed": per_seed,
        }
        if residuals:
            report["max_final_residual"] = max(residuals)
        with open(os.path.join(directory, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    if errors:
        for seed, message in sorted(errors.items()):
            print(f"seed {seed} failed: {message}", file=sys.stderr)
        return 1
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _read_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocksweep",
        description="Random-sweeping block-coordinate fixed point runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all seeds and write artifacts")
    run_p.add_argument("config")
    run_p.add_argument("--seeds", help="comma-separated seed override")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument("--max-iter", type=int, dest="max_iter")
    run_p.add_argument("--tol", type=float)
    run_p.add_argument("--workers", type=int)

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("config")

    ora_p = sub.add_parser("oracle",
                           help="print the deterministic reference solution")
    ora_p.add_argument("config")

    args = parser.parse_args(argv)
    try:
        rc = _read_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print("config OK")
        return 0
    if args.command == "oracle":
        from .diagnostics import oracle_reference

        try:
            ref = oracle_reference(rc._plan.problem)
        except BlocksweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"blocks": [list(map(float, b))
                                     for b in ref.blocks]}))
        return 0
    # run
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            print("error: --seeds must be comma-separated integers",
                  file=sys.stderr)
            return 1
    return execute_run(rc, out_dir=args.out, seeds=seeds,
                       max_iter=args.max_iter, tol=args.tol,
                       workers=args.workers)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
