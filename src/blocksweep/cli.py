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
      gamma: 1.0              # dr and pd_dr only: the resolvent parameter
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
    initial: {x0: [[...], ...], y0: ...}  # y0: pd_dr only, image blocks
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

Each kind of spec is one entry of a table that gives its keys (with their
coercers and defaults) and its constructor.  One walker checks the grammar
of every spec against its entry, and only the grammar: unknown or missing
keys, value types, and one spec per block.  The values are checked only by
what it feeds, with their own messages: the constructors (block dims,
schedules, regularity tags, grids, box bounds), ``construct`` (the blocks
of ``initial``, ``reference``, ``constant.value`` and
``affine.fixed_points``) and each driver's ``_check_*`` (shapes, sweeping
rule, error slots, hypothesis bounds), on the first seed's settings.  Both
run at parse time, which turns their errors into a ``ConfigError``, so a
config that parses passes every check a seed makes before its first
iteration.
Traces are written one CSV per seed with 17-significant-digit floats so a
replayed run produces byte-identical files; the aggregate report is JSON.
The only environment override is ``BLOCKSWEEP_OUT`` for the output
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .blockspace import BlockDims, BlockVector, _check_terms, construct
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
    Quadratic,
    Schedule,
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
    SolverConfig,
    _SLOT_STREAMS,
    _check_double_layer,
    _check_dr,
    _check_forward_backward,
    _check_pd_dr,
    _check_single_layer,
    assemble_pd_problem,
    run_double_layer,
    run_dr,
    run_fb,
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

# libyaml's parser when PyYAML was built with it; same resolver and
# constructor as yaml.SafeLoader, so the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# exponent notation that YAML 1.1 reads as a string (1e-8 needs 1.0e-8)
_EXPONENT = re.compile(r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)")


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


# ---------------------------------------------------------------------------
# coercers: (value, context, dims) -> plain data, where dims are the block
# dimensions of the problem, read by the per-block coercers
# ---------------------------------------------------------------------------


def _float(value, context: str, dims=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        exp = _EXPONENT.fullmatch(value) if isinstance(value, str) else None
        if exp:
            mant, frac, sign, power = exp.groups()
            hint = (" (YAML 1.1 reads this as a string; write "
                    f"{mant}{frac or '.0'}e{sign or '+'}{power})")
        _fail(context, f"expected a number, got {value!r}{hint}")
    return float(value)


def _int(value, context: str, dims=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(context, f"expected an integer, got {value!r}")
    return int(value)


def _list_of(item, per_block: bool = False):
    """The coercer of an array whose entries ``item`` coerces.

    With ``per_block`` the array needs one entry per block of the problem.
    """

    def coerce(value, context: str, dims=None) -> list:
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            _fail(context, f"expected an array, got {value!r}")
        if per_block and len(value) != len(dims):
            _fail(context, f"expected {len(dims)} entries, one per block, "
                           f"got {len(value)}")
        return [item(v, f"{context}[{i}]", dims) for i, v in enumerate(value)]

    return coerce


_float_list = _list_of(_float)
_int_list = _list_of(_int)
_rows = _list_of(_float_list)


def _matrix(value, context: str, dims=None) -> list[list[float]]:
    rows = _rows(value, context)
    if not rows:
        _fail(context, "matrix must have at least one row")
    if any(len(r) != len(rows[0]) for r in rows):
        _fail(context, "matrix rows must have equal length")
    return rows


_grid = _list_of(_list_of(_matrix))


def _str(value, context: str, dims=None) -> str:
    if not isinstance(value, str):
        _fail(context, f"expected a string, got {value!r}")
    return value


def _schedule_node(value, context: str, dims=None) -> dict:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {"start": float(value)}
    return _walk(value, context, _RAMP)


# ---------------------------------------------------------------------------
# spec tables: each kind maps its keys to (coercer, default) and names the
# constructor of what it describes
# ---------------------------------------------------------------------------

_REQUIRED = object()  # default of a key that must be given
_OMITTED = object()   # default of a key left out of the spec when absent


class _Table(NamedTuple):
    name: str   # what the kinds are kinds of, for messages
    tag: str    # the key that names the kind
    kinds: dict  # kind -> (fields, build)


def _walk(node, context: str, fields: Mapping, dims=None,
          head: Mapping = {}) -> dict:
    """Normalise ``node`` by ``fields``: key -> (coercer, default).

    Keys outside ``fields`` and ``head`` (keys already read, such as the
    kind tag) are rejected, and so are missing required keys; a given value,
    or else a default other than ``_OMITTED``, goes through its coercer.
    """
    node = _mapping(node, context)
    out = dict(head)
    _allow_keys(node, [*out, *fields], context)
    for key, (coerce, default) in fields.items():
        value = node.get(key, default)
        if value is _REQUIRED:
            _fail(context, f"missing required key {key!r}")
        if value is not _OMITTED:
            out[key] = coerce(value, f"{context}.{key}", dims)
            if key == "dims":  # a problem's later keys see its own dims
                dims = out[key]
    return out


def _spec(node, context: str, table: _Table, dims=None) -> dict:
    node = _mapping(node, context)
    kind = _get(node, table.tag, context)
    if not isinstance(kind, str) or kind not in table.kinds:
        _fail(context, f"unknown {table.name} {table.tag} {kind!r}; expected "
                       f"one of {list(table.kinds)}")
    return _walk(node, context, table.kinds[kind][0], dims, {table.tag: kind})


def _spec_of(table: _Table):
    return lambda value, context, dims=None: _spec(value, context, table, dims)


def _build(table: _Table, spec: Mapping, *args):
    """Construct what the normalised ``spec`` of ``table`` describes."""
    return table.kinds[spec[table.tag]][1](spec, *args)


def _array(spec: Mapping, key: str) -> np.ndarray | None:
    return np.array(spec[key]) if key in spec else None


# The constructors below name module globals that are looked up when a spec
# is built, so rebinding one of them here (as a tracing wrapper does) also
# reaches CLI-built objects.

_RAMP = {"start": (_float, _REQUIRED), "end": (_float, _OMITTED),
         "ramp": (_int, _OMITTED)}
_SQ_L2 = {"center": (_float_list, _REQUIRED), "weight": (_float, 1.0)}
_QUADRATIC = {"matrix": (_matrix, _REQUIRED),
              "offset": (_float_list, _REQUIRED)}
_LO_HI = {"lo": (_float_list, _REQUIRED), "hi": (_float_list, _REQUIRED)}
_LINEAR = {"matrix": (_matrix, _REQUIRED), "offset": (_float_list, _OMITTED)}

_FUNCTIONS = _Table("function", "kind", {
    "l1": ({"dim": (_int, _REQUIRED), "weight": (_float, 1.0)},
           lambda s: L1Norm(s["dim"], s["weight"])),
    "sq_l2": (_SQ_L2,
              lambda s: SquaredDistance(np.array(s["center"]), s["weight"])),
    "indicator_box": (_LO_HI, lambda s: BoxIndicator(np.array(s["lo"]),
                                                     np.array(s["hi"]))),
    "indicator_ball": (
        {"center": (_float_list, _REQUIRED), "radius": (_float, _REQUIRED)},
        lambda s: BallIndicator(np.array(s["center"]), s["radius"])),
    "quadratic": (_QUADRATIC, lambda s: Quadratic(np.array(s["matrix"]),
                                                  np.array(s["offset"]))),
    "zero": ({"dim": (_int, _REQUIRED)}, lambda s: Zero(s["dim"])),
})

# a function spec stands for its subdifferential
_MONOTONES = _Table("operator", "kind", {
    **{kind: (fields, lambda s: Subdifferential(_build(_FUNCTIONS, s)))
       for kind, (fields, _) in _FUNCTIONS.kinds.items()},
    "linear_monotone": (_LINEAR, lambda s: LinearMonotone(
        np.array(s["matrix"]), _array(s, "offset"))),
    "normal_cone_box": (_LO_HI, lambda s: BoxNormalCone(np.array(s["lo"]),
                                                        np.array(s["hi"]))),
})

_SMOOTHS = _Table("smooth", "kind", {
    "sq_l2": (_SQ_L2, lambda s: SmoothTerm.squared_distance(
        np.array(s["center"]), s["weight"])),
    "quadratic": (_QUADRATIC, lambda s: SmoothTerm.quadratic(
        np.array(s["matrix"]), np.array(s["offset"]))),
})

_BLOCK_FUNCTIONS = _list_of(_spec_of(_FUNCTIONS), per_block=True)
_BLOCK_MONOTONES = _list_of(_spec_of(_MONOTONES), per_block=True)
_SMOOTH_TERMS = _list_of(_spec_of(_SMOOTHS))
_COUPLED_SMOOTH = {"smooth": (_SMOOTH_TERMS, _REQUIRED),
                   "grid": (_grid, _REQUIRED)}


def _grid_operator(spec: Mapping) -> LinearBlockOperator:
    return LinearBlockOperator([[np.array(e) for e in row]
                                for row in spec["grid"]])


def _coupling_gradient(spec: Mapping) -> CocoerciveOperator:
    return coupling_forward_operator(
        _grid_operator(spec), [_build(_SMOOTHS, s) for s in spec["smooth"]])


def _affine(spec: Mapping, dims: BlockDims) -> BlockOperatorFamily:
    alpha = Schedule(**spec["alpha"]) if "alpha" in spec else None
    fixed = tuple(construct(dims, fp) for fp in spec.get("fixed_points", []))
    return affine_family(dims, np.array(spec["matrix"]), _array(spec, "offset"),
                         spec["regularity"], alpha, fixed)


_OPERATORS = _Table("operator", "type", {
    "prox": ({"functions": (_BLOCK_FUNCTIONS, _REQUIRED),
              "gamma": (_float, 1.0)},
             lambda s, dims: prox_family(
                 [_build(_FUNCTIONS, f) for f in s["functions"]],
                 s["gamma"])),
    "box_projection": (
        {"lo": (_float_list, _REQUIRED), "hi": (_float_list, _REQUIRED)},
        lambda s, dims: box_projection_family(np.array(s["lo"]),
                                              np.array(s["hi"]), dims)),
    "affine": ({"matrix": (_matrix, _REQUIRED),
                "offset": (_float_list, _OMITTED),
                "regularity": (_str, "nonexpansive"),
                "alpha": (_schedule_node, _OMITTED),
                "fixed_points": (_list_of(_rows), _OMITTED)},
               _affine),
    "identity": ({}, lambda s, dims: forward_step_family(None, 1.0, dims)),
    "constant": ({"value": (_rows, _REQUIRED)},
                 lambda s, dims: constant_family(construct(dims, s["value"]))),
    "forward_step": (
        {**_COUPLED_SMOOTH, "stepsize": (_schedule_node, _REQUIRED)},
        lambda s, dims: forward_step_family(
            _coupling_gradient(s), Schedule(**s["stepsize"]),
            dims)),
})


def _linear_coupling(spec: Mapping, dims: BlockDims, gamma: float):
    """The coupled resolvent of a linear monotone ``B``.

    ``B`` need not be cocoercive, so the plan claims no forward evaluation.
    """
    op = LinearMonotone(np.array(spec["matrix"]), _array(spec, "offset"))
    if op.dim != dims.total:
        raise ConfigError("coupling matrix must act on the full space")
    return lambda v: BlockVector._own(dims, op.resolvent(v.flat, gamma))


def _separable_coupling(spec: Mapping, dims: BlockDims, gamma: float):
    """The coupled resolvent of a blockwise ``B``, whose blocks match dims."""
    ops = [_build(_MONOTONES, b) for b in spec["blocks"]]
    _check_terms(tuple(op.dim for op in ops), dims, "coupling block")
    return blockwise_resolvent(ops, gamma)


_COUPLINGS = _Table("coupling", "type", {
    "linear": (_LINEAR, _linear_coupling),
    "separable": ({"blocks": (_BLOCK_MONOTONES, _REQUIRED)},
                  _separable_coupling),
})


def _linear_forward(spec: Mapping, dims: BlockDims) -> CocoerciveOperator:
    """``x -> M x + offset``, the gradient of a convex ``Quadratic``."""
    # Quadratic checks that M is symmetric PSD: the map is 1/||M||-cocoercive
    M = spec["matrix"]
    f = Quadratic(np.array(M), np.array(spec.get("offset", [0.0] * len(M))))
    if f.dim != dims.total:
        raise ConfigError("forward.matrix must act on the full space")
    norm = spectral_norm_psd(f.Q)
    if norm <= 0:
        raise ConfigError("forward.matrix must be nonzero; use forward type "
                          "none instead")
    return CocoerciveOperator(
        dims, lambda v: BlockVector._own(dims, f.Q @ v.flat + f.b),
        1.0 / norm)


_FORWARDS = _Table("forward", "type", {
    "linear": (_LINEAR, _linear_forward),
    "coupling": (_COUPLED_SMOOTH, lambda s, dims: _coupling_gradient(s)),
    "none": ({}, lambda s, dims: None),
})

_SCHEMES = _Table("sweeping", "scheme", {
    "single_block": ({"weights": (_float_list, _OMITTED)},
                     lambda s, m: SweepingRule("single_block", m, weights=tuple(
                         s.get("weights", [1.0] * m)))),
    "independent_bernoulli": (
        {"probabilities": (_float_list, _REQUIRED)},
        lambda s, m: SweepingRule("independent_bernoulli", m,
                                  probabilities=tuple(s["probabilities"]))),
    "fixed_subset_size": ({"size": (_int, _REQUIRED)},
                          lambda s, m: SweepingRule("fixed_subset_size", m,
                                                    size=s["size"])),
})

_DECAY = {"scale": (_float, _REQUIRED), "decay": (_float, _REQUIRED)}
_ERROR_MODELS = _Table("error", "kind", {
    "none": ({}, lambda s: ErrorModel(**s)),
    "deterministic_decay": (_DECAY, lambda s: ErrorModel(**s)),
    "gaussian_decay": (_DECAY, lambda s: ErrorModel(**s)),
})
_ERRORS = {slot: (_spec_of(_ERROR_MODELS), _OMITTED)
           for slot in _SLOT_STREAMS}

# the driver settings default as SolverConfig does; gamma is the plans' own
_SOLVER = {
    "relaxation": (_schedule_node, SolverConfig.relaxation.start),
    "dr_relaxation": (_schedule_node, SolverConfig.dr_relaxation.start),
    "stepsize": (_schedule_node, _OMITTED),
    "gamma": (_float, 1.0),
    "max_iterations": (_int, SolverConfig.max_iterations),
    "tolerance": (_float, SolverConfig.tolerance),
    "snapshot_stride": (_int, SolverConfig.snapshot_stride),
}


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description in normalized plain data.

    Treat it as immutable after ``parse_config``: its run plan (operators,
    problem set-up, the driver's hypothesis check and the seed-independent
    solver settings) is built on first use and cached on the instance, and
    every ``execute_run`` call and every seed reuses it.  The cache is not a
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
        plan.config = _build_solver_config(self, plan, self.seeds[0])
        plan.check(plan.config)
        return plan


# ---------------------------------------------------------------------------
# run plans: one builder per problem kind, each calling a public driver
# ---------------------------------------------------------------------------


@dataclass
class _RunPlan:
    """Everything needed to run and to compute a reference solution."""

    mask_blocks: int
    problem: Any
    dims: BlockDims
    runner: Callable  # (SolverConfig) -> IterateTrace
    check: Callable  # (SolverConfig) -> None, the driver's own check
    # the solver settings of the first seed; a run replaces the seed
    config: SolverConfig | None = None


def _construct(dims: BlockDims, blocks, key: str) -> BlockVector:
    """``construct(dims, blocks)``, its error named by the config ``key``."""
    try:
        return construct(dims, blocks)
    except ShapeError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _initial(rc: RunConfig, key: str, dims: BlockDims,
             zero: bool = True) -> BlockVector | None:
    """The config's start ``key`` on ``dims``; if absent, zero or None."""
    if key not in rc.initial:
        return construct(dims) if zero else None
    return _construct(dims, rc.initial[key], f"initial.{key}")


def _plan_km(prob: Mapping, rc: RunConfig, dims: BlockDims) -> _RunPlan:
    family = _build(_OPERATORS, prob["operator"], dims)
    if prob["kind"] == "averaged" and family.regularity != "averaged":
        raise ConfigError(
            "averaged driver needs an averaged operator (prox, identity, "
            "or affine with an alpha)")
    x0 = _initial(rc, "x0", dims)
    return _RunPlan(
        dims.m, KmProblem(family, x0), dims,
        lambda scfg: run_single_layer(family, scfg, x0),
        lambda scfg: _check_single_layer(family, scfg, x0),
    )


def _plan_double_layer(prob: Mapping, rc: RunConfig,
                       dims: BlockDims) -> _RunPlan:
    outer = _build(_OPERATORS, prob["outer"], dims)
    inner = _build(_OPERATORS, prob["inner"], dims)
    x0 = _initial(rc, "x0", dims)

    def composed(n, x):
        return outer.evaluate(n, inner.evaluate(n, x))

    return _RunPlan(
        dims.m,
        KmProblem(BlockOperatorFamily(dims, composed, "nonexpansive"), x0),
        dims,
        lambda scfg: run_double_layer(outer, inner, scfg, x0),
        lambda scfg: _check_double_layer(outer, inner, scfg, x0),
    )


def _plan_dr(prob: Mapping, rc: RunConfig, dims: BlockDims) -> _RunPlan:
    gamma = rc.solver["gamma"]
    A = tuple(_build(_MONOTONES, b) for b in prob["blocks"])
    jb = _build(_COUPLINGS, prob["coupling"], dims, gamma)
    problem = DrProblem(A, jb, gamma, dims)
    x0 = _initial(rc, "x0", dims)
    return _RunPlan(
        dims.m, problem, dims,
        lambda scfg: run_dr(problem.resolvents, jb, gamma, scfg, x0,
                            check_resolvent=False)[0],
        lambda scfg: _check_dr(problem.resolvents, gamma, scfg, x0),
    )


def _plan_pd_dr(prob: Mapping, rc: RunConfig, dims: BlockDims) -> _RunPlan:
    gamma = rc.solver["gamma"]
    grid = _grid_operator(prob)
    problem = assemble_pd_problem(
        [_build(_MONOTONES, f) for f in prob["functions"]],
        [_build(_MONOTONES, g) for g in prob["duals"]], grid)
    x0 = _initial(rc, "x0", dims)
    y0 = _initial(rc, "y0", problem.g_dims, zero=False)
    return _RunPlan(
        problem.k_dims.m, problem, dims,
        lambda scfg: run_pd_dr(problem, gamma, scfg, x0, y0=y0)[0],
        lambda scfg: _check_pd_dr(problem, gamma, scfg, x0, y0),
    )


def _fb_plan(problem, B, objective, rc: RunConfig,
             dims: BlockDims) -> _RunPlan:
    x0 = _initial(rc, "x0", dims)
    return _RunPlan(
        dims.m, problem, dims,
        lambda scfg: run_fb(problem.resolvents, B, scfg, x0, objective,
                            check_cocoercivity=False),
        lambda scfg: _check_forward_backward(problem.resolvents, B, scfg, x0),
    )


def _plan_fb(prob: Mapping, rc: RunConfig, dims: BlockDims) -> _RunPlan:
    A = tuple(_build(_MONOTONES, b) for b in prob["blocks"])
    B = _build(_FORWARDS, prob["forward"], dims)
    return _fb_plan(FbProblem(A, B, dims), B, None, rc, dims)


def _plan_fb_min(prob: Mapping, rc: RunConfig, dims: BlockDims) -> _RunPlan:
    grid = _grid_operator(prob)
    problem = CoupledMinProblem(
        tuple(_build(_FUNCTIONS, f) for f in prob["functions"]),
        tuple(_build(_SMOOTHS, s) for s in prob["smooth"]), grid)
    return _fb_plan(problem, problem.forward(), problem.objective, rc, dims)


_DIMS = {"dims": (_int_list, _REQUIRED)}
_OPERATOR = (_spec_of(_OPERATORS), _REQUIRED)

_PROBLEMS = _Table("problem", "kind", {
    "km": ({**_DIMS, "operator": _OPERATOR}, _plan_km),
    "averaged": ({**_DIMS, "operator": _OPERATOR}, _plan_km),
    "double_layer": ({**_DIMS, "outer": _OPERATOR, "inner": _OPERATOR},
                     _plan_double_layer),
    "dr": ({**_DIMS, "blocks": (_BLOCK_MONOTONES, _REQUIRED),
            "coupling": (_spec_of(_COUPLINGS), _REQUIRED)}, _plan_dr),
    "pd_dr": ({**_DIMS, "functions": (_BLOCK_MONOTONES, _REQUIRED),
               "duals": (_list_of(_spec_of(_MONOTONES)), _REQUIRED),
               "grid": (_grid, _REQUIRED)}, _plan_pd_dr),
    "fb": ({**_DIMS, "blocks": (_BLOCK_MONOTONES, _REQUIRED),
            "forward": (_spec_of(_FORWARDS), _REQUIRED)}, _plan_fb),
    "fb_min": ({**_DIMS, "functions": (_BLOCK_FUNCTIONS, _REQUIRED),
                **_COUPLED_SMOOTH}, _plan_fb_min),
})


def _build_plan(rc: RunConfig) -> _RunPlan:
    return _build(_PROBLEMS, rc.problem, rc, BlockDims(rc.problem["dims"]))


def _build_sweeping(rc: RunConfig, mask_blocks: int) -> SweepingRule:
    return _build(_SCHEMES, rc.sweeping, mask_blocks)


def _build_solver_config(rc: RunConfig, plan: _RunPlan,
                         seed: int) -> SolverConfig:
    solver = rc.solver
    reference = None
    if rc.reference is not None:
        reference = _construct(plan.dims, rc.reference, "reference")
    return SolverConfig(
        sweeping=_build_sweeping(rc, plan.mask_blocks),
        relaxation=Schedule(**solver["relaxation"]),
        dr_relaxation=Schedule(**solver["dr_relaxation"]),
        stepsize=(Schedule(**solver["stepsize"])
                  if "stepsize" in solver else None),
        max_iterations=solver["max_iterations"],
        tolerance=solver["tolerance"],
        seed=seed,
        errors={slot: _build(_ERROR_MODELS, spec)
                for slot, spec in rc.errors.items()},
        reference=reference,
        snapshot_stride=solver["snapshot_stride"],
    )


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
    problem = _spec(_get(doc, "problem", "config"), "problem", _PROBLEMS)
    solver = _walk({} if doc.get("solver") is None else doc["solver"],
                   "solver", _SOLVER)
    sweeping = _spec(_get(doc, "sweeping", "config"), "sweeping", _SCHEMES)
    errors = ({} if doc.get("errors") is None
              else _walk(doc["errors"], "errors", _ERRORS))
    seeds = tuple(_int_list(doc.get("seeds", [0]), "seeds"))
    if not seeds:
        _fail("seeds", "need at least one seed")
    initial = {}
    if doc.get("initial") is not None:
        init = _mapping(doc["initial"], "initial")
        # every driver starts from x0, and pd_dr also from y0; each start
        # is checked against its blocks by the plan: y0 lives on the image
        # blocks, known once the grid is checked
        _allow_keys(init, ("x0", "y0") if problem["kind"] == "pd_dr"
                    else ("x0",), "initial")
        initial = {key: _rows(value, f"initial.{key}")
                   for key, value in init.items()}
    reference = None
    if doc.get("reference") is not None:  # checked by the plan, as a start
        reference = _rows(doc["reference"], "reference")
    output_directory = None
    if doc.get("output") is not None:
        out = _mapping(doc["output"], "output")
        _allow_keys(out, ("directory",), "output")
        if "directory" in out:
            output_directory = str(out["directory"])
    rc = RunConfig(problem, solver, sweeping, errors, seeds, initial,
                   reference, output_directory)
    try:
        rc._plan  # built and checked by its driver once, reused by every run
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


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_seed(plan: _RunPlan, seed: int, overrides: Mapping,
              path: str) -> dict:
    """Run one seed and write its trace CSV to ``path``; its report entry.

    The seed's ``SolverConfig`` is the plan's with ``seed`` and
    ``overrides`` replaced.  A seed that raises, also while those settings
    are checked, gets ``{"error": "<Type>: <message>"}`` and no CSV, with
    the traceback on stderr for exceptions from outside blocksweep, so one
    failing seed does not lose the other seeds' output.  An ``OSError``
    from writing the CSV propagates.
    """
    try:
        trace = plan.runner(replace(plan.config, seed=seed, **overrides))
    except Exception as exc:
        if not isinstance(exc, BlocksweepError):
            traceback.print_exception(exc, file=sys.stderr)
        return {"error": f"{type(exc).__name__}: {exc}"}
    write_trace(trace, path)
    entry = {
        "final_residual": trace.final_residual,
        "iterations": trace.iterations,
        "termination": trace.termination,
        "reached_tolerance": trace.termination == "tolerance",
    }
    last = trace.records[-1] if trace.records else None
    if last is not None and last.distance_to_reference is not None:
        entry["distance_to_reference"] = last.distance_to_reference
    return entry


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
    Seeds run one after another, in order, on the calling thread, and each
    seed's CSV is written as soon as that seed ends, so no trace outlives
    its seed.  ``workers`` is accepted for compatibility and has no effect.

    Exit status: 0 when every seed stopped at tolerance, 2 when some seed
    exhausted its budget or diverged (its trace holds the completed
    iterations, its ``termination`` is ``"diverged"`` and its
    ``iterations`` is the iteration that did not complete), 1 on
    configuration or I/O errors, on an empty seed list or when some seed
    raised.  A seed that raises is recorded as ``"<Type>: <message>"``
    under its ``error`` key in the report (with the traceback on stderr for
    exceptions from outside blocksweep, and one ``seed N failed`` line per
    failed seed at the end); the other seeds' traces and the report are
    still written.  The report is strict JSON (RFC 8259): a non-finite
    float, such as the final residual of a diverged seed, is written as
    ``null``.
    """
    try:
        plan = rc._plan
    except (BlocksweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    directory = (out_dir or os.environ.get("BLOCKSWEEP_OUT")
                 or rc.output_directory or ".")
    seeds = list(seeds if seeds is not None else rc.seeds)
    if not seeds:
        print("error: need at least one seed", file=sys.stderr)
        return 1
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

    per_seed = {}
    try:
        for seed in seeds:
            per_seed[str(seed)] = _run_seed(
                plan, seed, overrides,
                os.path.join(directory, f"trace_seed{seed}.csv"))
        entries = [per_seed[str(s)] for s in seeds]
        residuals = [e["final_residual"] for e in entries if "error" not in e]
        report = {
            "kind": rc.problem["kind"],
            "seeds": seeds,
            "success_fraction": (
                sum(1 for e in entries if e.get("reached_tolerance"))
                / len(seeds)),
            "per_seed": per_seed,
        }
        if residuals:
            # null when some seed has no finite residual, as for an inf one
            report["max_final_residual"] = (
                None if None in residuals else max(residuals))
        with open(os.path.join(directory, "report.json"), "w") as fh:
            json.dump(_finite_or_null(report), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    failed = sorted({s for s in seeds if "error" in per_seed[str(s)]})
    for seed in failed:
        print(f"seed {seed} failed: {per_seed[str(seed)]['error']}",
              file=sys.stderr)
    if failed:
        return 1
    return 0 if all(e["reached_tolerance"] for e in entries) else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blocksweep",
        description="Random-sweeping block-coordinate fixed point runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all seeds and write artifacts")
    run_p.add_argument("config")
    run_p.add_argument("--seeds", help="comma-separated seed override "
                       "(at least one seed)")
    run_p.add_argument("--out", help="output directory override")
    run_p.add_argument("--max-iter", type=int, dest="max_iter")
    run_p.add_argument("--tol", type=float)

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("config")

    ora_p = sub.add_parser("oracle",
                           help="print the deterministic reference solution")
    ora_p.add_argument("config")

    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            rc = parse_config(fh.read())
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
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            print("error: --seeds must be comma-separated integers",
                  file=sys.stderr)
            return 1
    return execute_run(rc, out_dir=args.out, seeds=seeds,
                       max_iter=args.max_iter, tol=args.tol)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
