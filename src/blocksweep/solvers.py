"""Random-sweeping block-coordinate fixed point drivers.

Every driver advances only the randomly activated blocks at each iteration,
evaluates operators at the full pre-update iterate (synchronous reads), and
emits a complete per-iteration trace.  Runs are deterministic given the
configuration and seed: masks and stochastic errors are drawn from streams
keyed only by ``(seed, iteration, stream)``.

All six drivers run one loop, ``_engine``, which owns the tolerance stop,
the mask draw, the snapshot stride and the trace records.  Its
``measure(n, x)`` does the full-vector work (residual, distance, objective,
stepsize or gamma column) and its ``step(n, x, mask, relax, state)`` updates
the active blocks only.  The relaxed drivers share one measure/step pair
(``_km``), the splitting drivers another (``_splitting``).  Each driver
checks its cheap preconditions in one ``_check_*`` function, which the CLI
also calls when it parses a config and which calls ``_check_run``; the
loop itself compares no ``BlockDims``.

The loop works on flat float64 arrays: the iterate, error draws, targets,
reflections, distances, the masked update and every operator value.  It
calls the array cores of the operators: each family's ``_flat``, the
resolvent sweeps' ``_apply_flat``, ``run_pd_dr``'s graph projection and
``CoupledMinProblem``'s objective.  A ``BlockVector`` is built only for a
callable that takes or returns one (a family built from an ``evaluate``
alone, ``run_dr``'s coupled resolvent, a forward operator or objective
given as a plain callable), and for the snapshots and the final point.
Every family's value, the reflected point and the resolvent sweep of the
splitting drivers, the graph projection, the double layer's perturbed
input ``R_n x + b_n`` (with ``run_fb``'s scaled ``c`` draw) and every new
iterate are checked to be finite.  The other perturbed values, ``_km``'s
``target + a_n`` and ``_splitting``'s ``z + b_n`` with its second
resolvent sweep, are not scanned themselves: they reach the iterate only
through its active blocks, and the new iterate is scanned.  A
``NonFiniteError`` from any check ends the run with
``termination="diverged"``: the trace keeps the completed iterations and
``final`` is the last finite iterate.  The loop runs under one
``np.errstate`` that keeps the overflow warnings of a diverging run quiet,
and so does the splitting drivers' solution at the final point.
Masks and error draws come from ``sweeping``'s chunk-seeded twins of
``sample_mask`` and ``sample_error``, which make the same draws.

Drivers
-------
``run_single_layer``
    Relaxed iteration of one quasinonexpansive operator family,
    ``x_i <- x_i + eps_i * lambda_n * (T_i(x) + a_i - x_i)``.
``run_double_layer``
    Two averaged layers, ``y = R_n x + b_n`` followed by the masked relaxed
    update toward ``T_n y + a_n``.
``run_dr``
    Splitting for ``0 in A_i x_i + B_i(x)`` from the resolvent of the coupled
    operator and per-block resolvents of the ``A_i``.
``run_pd_dr``
    The same splitting run on the paired space of primal and image blocks,
    coupling them through the projector onto ``{(x, y): Lx = y}``.
``run_fb``, ``run_fb_min``
    Forward-backward steps with a cocoercive forward operator, and its
    minimization form built from proximal terms plus smooth coupled terms.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .blockspace import (
    BlockDims,
    BlockVector,
    _check_terms,
    _finite,
    _masked_flat,
    _norm,
)
from .errors import NonFiniteError, ParameterError, ShapeError
from .operators import (
    BlockOperatorFamily,
    CocoerciveOperator,
    GraphSubspace,
    LinearBlockOperator,
    MonotoneOperator,
    ProxFunction,
    Schedule,
    SeparableSweep,
    SmoothTerm,
    Subdifferential,
    _SmoothRows,
    _check_gamma,
    _coupling_operator,
    _data,
    _family,
    _graph_projection_flat,
    _row_grams,
    _sweep_map,
    _sweep_values,
    as_schedule,
    forward_step_family,
    regularity_test,
    resolvent_family,
)
from .sweeping import ErrorModel, SweepingRule, _error_draws, _mask_draws

__all__ = [
    "Schedule",
    "as_schedule",
    "SolverConfig",
    "TraceRecord",
    "IterateTrace",
    "PrimalDualSolution",
    "KmProblem",
    "FbProblem",
    "DrProblem",
    "PdDrProblem",
    "CoupledMinProblem",
    "run_single_layer",
    "run_double_layer",
    "run_dr",
    "assemble_pd_problem",
    "run_pd_dr",
    "run_fb",
    "run_fb_min",
]

_SLOT_STREAMS = {"a": 1, "b": 2, "c": 3, "d": 4}


# ---------------------------------------------------------------------------
# configuration and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Shared driver configuration.

    ``relaxation`` is the masked-update relaxation (each driver enforces its
    own admissible range), ``dr_relaxation`` the splitting relaxation in
    ]0, 2[ and ``stepsize`` the forward stepsize sequence.  ``errors`` maps
    slot names ("a", "b", "c", "d") to error models; missing slots are
    error-free.
    """

    sweeping: SweepingRule
    relaxation: Schedule = Schedule(0.5)
    dr_relaxation: Schedule = Schedule(1.0)
    stepsize: Schedule | None = None
    max_iterations: int = 100_000
    tolerance: float = 1e-8
    seed: int = 0
    errors: Mapping[str, ErrorModel] = field(default_factory=dict)
    reference: BlockVector | None = None
    snapshot_stride: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if not self.tolerance >= 0:  # a NaN tolerance could never stop a run
            raise ParameterError("tolerance must be >= 0")
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride must be >= 1")
        object.__setattr__(self, "errors", dict(self.errors))
        for slot in self.errors:
            if slot not in _SLOT_STREAMS:
                raise ParameterError(f"unknown error slot {slot!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a run.

    ``residual`` is measured at the pre-update iterate; ``mask`` and
    ``relaxation`` are absent on the final record of a run that stopped at
    tolerance (no update was applied).
    """

    n: int
    residual: float
    mask: tuple[int, ...] | None
    relaxation: float | None
    stepsize: float | None
    distance_to_reference: float | None
    objective: float | None
    snapshot: BlockVector | None


@dataclass(frozen=True)
class IterateTrace:
    records: tuple[TraceRecord, ...]
    final: BlockVector
    termination: str  # "tolerance" | "max_iterations" | "diverged"

    @property
    def iterations(self) -> int:
        """Number of masked updates actually applied."""
        return sum(1 for r in self.records if r.mask is not None)

    @property
    def final_residual(self) -> float | None:
        """The last record's residual, None without records (no finite one)."""
        return self.records[-1].residual if self.records else None

    def snapshots(self) -> list[BlockVector]:
        """Stored iterates in order, ending with the final iterate."""
        xs = [r.snapshot for r in self.records if r.snapshot is not None]
        xs.append(self.final)
        return xs


@dataclass(frozen=True)
class PrimalDualSolution:
    primal: BlockVector
    dual: BlockVector


# ---------------------------------------------------------------------------
# problem containers (consumed by the diagnostics layer and the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KmProblem:
    """Fixed point problem for one operator family, with a starting point."""

    family: BlockOperatorFamily
    x0: BlockVector


@dataclass(frozen=True)
class FbProblem:
    """Blockwise inclusion ``0 in A_i x_i + B_i(x)`` with cocoercive ``B``.

    ``resolvents``, the sweep of the ``J_{gamma A_i}``, is built once here
    and reused by every run.
    """

    A: tuple[MonotoneOperator, ...]
    B: CocoerciveOperator | None
    dims: BlockDims
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "resolvents",
                           SeparableSweep(self.A, "resolvent"))


@dataclass(frozen=True)
class DrProblem:
    """Inclusion ``0 in A_i x_i + B_i(x)`` given the coupled resolvent.

    ``B_forward`` optionally provides a single-valued evaluation of the
    coupled operator for residual diagnostics.  ``resolvents``, the sweep of
    the ``J_{gamma A_i}``, is built once here and reused by every run.
    """

    A: tuple[MonotoneOperator, ...]
    JB: Callable[[BlockVector], BlockVector]
    gamma: float
    dims: BlockDims
    B_forward: CocoerciveOperator | None = None
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "resolvents",
                           SeparableSweep(self.A, "resolvent"))


@dataclass(frozen=True)
class PdDrProblem:
    """Primal-dual splitting data over the paired space.

    Primal blocks carry the ``A_i``, image blocks the ``B_k``, and the
    linear grid couples them through its graph subspace ``V``.  The terms
    must match the source and target blocks of the grid, and every image
    row of the grid must carry a nonzero operator.  ``V`` and
    ``resolvents``, the sweep of the resolvents over all ``m + p`` blocks,
    are built once here and reused by every run.
    """

    h_ops: tuple[MonotoneOperator, ...]
    g_ops: tuple[MonotoneOperator, ...]
    L: LinearBlockOperator
    V: GraphSubspace = field(init=False, repr=False, compare=False)
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_terms(tuple(op.dim for op in self.h_ops), self.h_dims,
                     "primal term")
        _check_terms(tuple(op.dim for op in self.g_ops), self.g_dims,
                     "dual term")
        _row_grams(self.L)
        object.__setattr__(self, "V", GraphSubspace(self.L))
        object.__setattr__(self, "resolvents",
                           SeparableSweep(self.k_ops, "resolvent"))
        object.__setattr__(self, "_k_dims", self.h_dims.concat(self.g_dims))

    @property
    def h_dims(self) -> BlockDims:
        return self.L.source_dims

    @property
    def g_dims(self) -> BlockDims:
        return self.L.target_dims

    @property
    def k_dims(self) -> BlockDims:
        return self._k_dims

    @property
    def k_ops(self) -> tuple[MonotoneOperator, ...]:
        return self.h_ops + self.g_ops

    def project(self, v: BlockVector) -> BlockVector:
        """Graph projector on the paired space, the coupled resolvent."""
        if v.dims != self._k_dims:
            raise ShapeError("projection input dims do not match the paired "
                             "blocks")
        return BlockVector._own(self._k_dims, self._project_flat(v.flat))

    def _project_flat(self, v: np.ndarray) -> np.ndarray:
        """``project`` on a flat paired array, a new array."""
        split = self.h_dims.total
        return _graph_projection_flat(self.V, v[:split], v[split:])


@dataclass(frozen=True)
class CoupledMinProblem:
    """Minimize ``sum_i f_i(x_i) + sum_k g_k(sum_i L_ki x_i)``.

    Everything a run reuses is built once here: the coupling gradient with
    its cocoercivity constant (``forward()``) and ``resolvents``, the prox
    sweep of the ``f_i``, which maps the resolvents of their
    subdifferentials and evaluates the objective.  The ``f_i`` must match
    the source blocks of the grid.
    """

    fs: tuple[ProxFunction, ...]
    smooth: tuple[SmoothTerm, ...]
    L: LinearBlockOperator
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_terms(tuple(f.dim for f in self.fs), self.dims, "function")
        rows = _SmoothRows(self.L, self.smooth)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_forward", _coupling_operator(rows))
        object.__setattr__(self, "resolvents",
                           SeparableSweep(self.fs, "prox"))
        object.__setattr__(self, "_values", _sweep_values(self.resolvents))

    @property
    def dims(self) -> BlockDims:
        return self.L.source_dims

    def forward(self) -> CocoerciveOperator:
        return self._forward

    def objective(self, x: BlockVector) -> float | None:
        """The objective at ``x``, or None when a smooth term has no value."""
        # quiet as the loop is: ``inf - inf`` in the sum is a nan, no warning
        with np.errstate(invalid="ignore"):
            return self._objective_flat(x.flat)

    def _objective_flat(self, x: np.ndarray) -> float | None:
        rows = self._rows
        if not rows.has_values:
            return None
        # grouped per-block and per-row values, each added as ``sum`` adds
        total = _sum(self._values(x))
        total += sum(rows.values(rows.L.stacked @ x))
        return float(total)


if sys.version_info >= (3, 12):
    def _sum(values: np.ndarray) -> float:
        """``sum(values.tolist())``, which compensates from Python 3.12 on."""
        return sum(values.tolist())
else:
    def _sum(values: np.ndarray) -> float:
        """``sum(values.tolist())`` bit for bit, without building the list.

        Before Python 3.12 ``sum`` adds floats left to right from 0.0.  The
        running sum from ``v[0]`` differs from that only while it is
        ``-0.0``, and ``+ 0.0`` turns a total of ``-0.0`` into ``0.0``.
        ``values`` is not empty.  Unlike ``sum``, ``inf - inf`` warns
        unless the caller ignores invalid values.
        """
        return float(np.add.accumulate(values)[-1]) + 0.0


# ---------------------------------------------------------------------------
# shared plumbing and the engine
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _check_run(cfg: SolverConfig, m: int, slots: tuple[str, ...],
               driver: str, primal_dims: BlockDims) -> None:
    """The rules of every run: mask size, error slots, reference blocks."""
    if cfg.sweeping.m != m:
        raise ShapeError(f"{driver}: sweeping rule covers {cfg.sweeping.m} "
                         f"blocks, iteration has {m}")
    extra = sorted(set(cfg.errors) - set(slots))
    if extra:
        raise ParameterError(
            f"{driver} supports error slots {list(slots)}, got {extra}")
    if cfg.reference is not None and cfg.reference.dims != primal_dims:
        raise ShapeError("reference must live on the primal blocks")


def _check_relaxation(cfg: SolverConfig, driver: str) -> None:
    lo, hi = cfg.relaxation.bounds()
    _require(lo > 0 and hi <= 1,
             f"{driver} requires lambda_n in ]0, 1] with inf lambda_n > 0, "
             f"got bounds [{lo}, {hi}]")


def _error_sampler(
    cfg: SolverConfig, *parts: tuple[str, BlockDims]
) -> Callable[[int], np.ndarray] | None:
    """The error draws of the ``(slot, dims)`` parts as flat arrays.

    None when every slot is error-free.  A single part's sampler is returned
    as it is; several are concatenated, an error-free slot as zeros.
    """
    samplers = []
    for slot, dims in parts:
        model = cfg.errors.get(slot)
        samplers.append(None if model is None or model.kind == "none" else
                        _error_draws(model, dims.total, cfg.seed,
                                     _SLOT_STREAMS[slot], cfg.max_iterations))
    if len(samplers) == 1:
        return samplers[0]
    if all(s is None for s in samplers):
        return None
    sizes = [dims.total for _, dims in parts]

    def sample(n: int) -> np.ndarray:
        return np.concatenate([s(n) if s else np.zeros(size)
                               for s, size in zip(samplers, sizes)])

    return sample


def _engine(
    cfg: SolverConfig,
    x0: BlockVector,
    relaxation: Schedule,
    measure: Callable[[int, np.ndarray], tuple],
    step: Callable[..., np.ndarray],
) -> IterateTrace:
    """The iteration loop of every driver; see the module docstring.

    The iterate is the flat read-only data of ``x0`` and then the arrays
    ``step`` returns, each checked finite.  ``measure(n, x)`` returns
    ``(residual, stepsize, distance, objective, state)`` and ``state`` is
    handed on to ``step(n, x, mask, relax, state)``, which returns the next
    iterate as a new array.  Snapshots and the final point are wrapped as
    ``BlockVector``s.
    """
    dims = x0.dims

    def vector(flat: np.ndarray) -> BlockVector:
        return x0 if flat is x0.flat else BlockVector._own(dims, flat)

    records: list[TraceRecord] = []
    x = x0.flat
    termination = "max_iterations"
    masks = _mask_draws(cfg.sweeping, cfg.seed, cfg.max_iterations)
    try:
        with np.errstate(all="ignore"):
            for n in range(cfg.max_iterations):
                residual, g, dist, obj, state = measure(n, x)
                if residual < cfg.tolerance:
                    records.append(
                        TraceRecord(n, residual, None, None, g, dist, obj, None)
                    )
                    termination = "tolerance"
                    break
                mask = masks(n)
                relax = relaxation.at(n)
                nxt = _finite(step(n, x, mask, relax, state))
                nxt.setflags(write=False)
                snap = vector(x) if n % cfg.snapshot_stride == 0 else None
                records.append(
                    TraceRecord(n, residual, mask.bits, relax, g, dist, obj, snap)
                )
                x = nxt
    except NonFiniteError:
        termination = "diverged"
    return IterateTrace(tuple(records), vector(x), termination)


def _km(
    cfg: SolverConfig,
    x0: BlockVector,
    target_fn: Callable[[int, np.ndarray], np.ndarray],
    sampler_a: Callable[[int], np.ndarray] | None,
    objective_fn: Callable[[BlockVector], float] | None = None,
    stepsize: Schedule | None = None,
) -> IterateTrace:
    """Relax the active blocks toward ``target_fn(n, x) + a_n``.

    ``target_fn`` maps flat arrays and returns its value checked finite.
    """
    ref = cfg.reference.flat if cfg.reference is not None else None
    offsets = x0.dims.offsets
    objective = _flat_objective(objective_fn, x0.dims)

    def measure(n: int, x: np.ndarray) -> tuple:
        target = target_fn(n, x)
        return (_norm(target - x),
                stepsize.at(n) if stepsize is not None else None,
                _norm(x - ref) if ref is not None else None,
                objective(x) if objective else None,
                target)

    def step(n: int, x: np.ndarray, mask, lam: float,
             target: np.ndarray) -> np.ndarray:
        if sampler_a is not None:
            target = target + sampler_a(n)
        return _masked_flat(x, mask.active, lam, target, offsets)

    return _engine(cfg, x0, cfg.relaxation, measure, step)


def _flat_objective(
    objective_fn: Callable[[BlockVector], float] | None, dims: BlockDims
) -> Callable[[np.ndarray], float] | None:
    """``objective_fn`` on flat arrays.

    ``CoupledMinProblem.objective`` runs on its array core; any other
    callable gets a ``BlockVector`` wrap of the iterate.
    """
    if objective_fn is None:
        return None
    owner = getattr(objective_fn, "__self__", None)
    if (isinstance(owner, CoupledMinProblem)
            and objective_fn.__func__ is CoupledMinProblem.objective):
        return owner._objective_flat
    return lambda x: objective_fn(BlockVector._own(dims, x))


def _splitting(
    cfg: SolverConfig,
    x0: BlockVector,
    sweep: SeparableSweep,
    jb: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    sampler_a: Callable[[int], np.ndarray] | None,
    sampler_b: Callable[[int], np.ndarray] | None,
    split: int,
    solution: Callable[[np.ndarray, np.ndarray], PrimalDualSolution],
) -> tuple[IterateTrace, PrimalDualSolution | None]:
    """The splitting loop of ``run_dr`` and ``run_pd_dr``, and its solution.

    ``jb`` maps the flat iterate to the coupled resolvent there.  The
    shadow state ``z = jb(x) + b_n`` is read only on the active blocks,
    which are exactly the blocks it refreshes, so it is not carried between
    iterations.  ``measure`` sweeps the resolvents of the ``A_i`` at the
    reflection ``2 jb(x) - x`` for the residual, and ``step`` reuses that
    sweep; only a ``b_n`` draw makes it form ``z`` over the whole vector and
    sweep again at ``2z - x``.  The distance to the reference is measured on
    the first ``split`` entries of ``jb(x)``, the primal blocks.

    Whatever the termination, the run ends with ``solution(x, jb(x))`` at
    the final point, quiet as the loop is; it is None when that raises
    ``NonFiniteError``.
    """
    offsets = x0.dims.offsets
    ref = cfg.reference.flat if cfg.reference is not None else None
    resolvents = _sweep_map(sweep)

    def measure(n: int, x: np.ndarray) -> tuple:
        q = jb(x)
        ja = _finite(resolvents(_finite(2.0 * q - x), gamma))
        return (2.0 * _norm(ja - q), gamma,
                _norm(q[:split] - ref) if ref is not None else None,
                None, (q, ja))

    def step(n: int, x: np.ndarray, mask, mu: float, state) -> np.ndarray:
        z, ja = state
        if sampler_b is not None:
            z = z + sampler_b(n)
            ja = resolvents(2.0 * z - x, gamma)
        a_n = sampler_a(n) if sampler_a is not None else None
        out = x.copy()
        for i in mask.active:
            sl = slice(offsets[i], offsets[i + 1])
            delta = ja[sl] - z[sl]
            if a_n is not None:
                delta = delta + a_n[sl]
            out[sl] = x[sl] + mu * delta
        return out

    trace = _engine(cfg, x0, cfg.dr_relaxation, measure, step)
    x = trace.final.flat
    with np.errstate(all="ignore"):
        try:
            return trace, solution(x, jb(x))
        except NonFiniteError:
            return trace, None


# ---------------------------------------------------------------------------
# single layer
# ---------------------------------------------------------------------------


def run_single_layer(
    T: BlockOperatorFamily,
    cfg: SolverConfig,
    x0: BlockVector,
) -> IterateTrace:
    """Masked relaxed iteration of a quasinonexpansive family.

    Active blocks follow ``x_i <- x_i + lambda_n (T_i(x) + a_i - x_i)`` with
    every ``T_i`` evaluated at the full pre-update iterate.  Stops when the
    full fixed point residual ``||T_n(x) - x||`` falls below the tolerance.

    For plain families the relaxations must be bounded inside ]0, 1[.
    Averaged families with constant ``alpha_n`` widen the admissible range
    to relaxations with ``alpha_n * lambda_n`` bounded inside ]0, 1[; the
    update itself is unchanged.
    """
    _check_single_layer(T, cfg, x0)
    return _km(cfg, x0, T._flat, _error_sampler(cfg, ("a", T.dims)))


def _check_single_layer(T: BlockOperatorFamily, cfg: SolverConfig,
                        x0: BlockVector) -> None:
    """The preconditions of ``run_single_layer``, also checked at parse."""
    if x0.dims != T.dims:
        raise ShapeError("starting point does not match the operator family")
    _check_run(cfg, T.dims.m, ("a",), "single-layer driver", T.dims)
    lo, hi = cfg.relaxation.bounds()
    if T.regularity == "averaged":
        alo, ahi = T.averaging.bounds()
        corners = [alo * lo, alo * hi, ahi * lo, ahi * hi]
        _require(
            min(corners) > 0 and max(corners) < 1,
            "averaged driver requires alpha_n * lambda_n inside ]0, 1[, "
            f"got bounds [{min(corners)}, {max(corners)}]",
        )
    else:
        _require(lo > 0, "single-layer driver requires inf lambda_n > 0")
        _require(hi < 1, f"sup lambda_n < 1 required by the single-layer "
                         f"driver, got {hi}")


# ---------------------------------------------------------------------------
# double layer
# ---------------------------------------------------------------------------


def run_double_layer(
    T: BlockOperatorFamily,
    R: BlockOperatorFamily,
    cfg: SolverConfig,
    x0: BlockVector,
    *,
    stepsize_for_trace: Schedule | None = None,
) -> IterateTrace:
    """Two averaged layers per iteration.

    Computes ``y_n = R_n(x_n) + b_n`` in full (the mask never applies to the
    inner layer) and then updates the active blocks toward
    ``T_n(y_n) + a_n``.  Requires ``sup alpha_n < 1`` and ``sup beta_n < 1``
    for the two averaging sequences and relaxations in ]0, 1] bounded away
    from zero.  ``stepsize_for_trace`` only fills the trace stepsize column.
    """
    _check_double_layer(T, R, cfg, x0)
    return _double_layer(T, R, cfg, x0, _error_sampler(cfg, ("b", R.dims)),
                         None, stepsize_for_trace)


def _double_layer(
    T: BlockOperatorFamily,
    R: BlockOperatorFamily,
    cfg: SolverConfig,
    x0: BlockVector,
    sampler_b: Callable[[int], np.ndarray] | None,
    objective_fn: Callable[[BlockVector], float] | None,
    stepsize: Schedule | None,
) -> IterateTrace:
    """``run_double_layer`` past its checks; ``sampler_b`` gives flat draws."""
    inner, outer = R._flat, T._flat

    def target_fn(n: int, x: np.ndarray) -> np.ndarray:
        y = inner(n, x)
        if sampler_b is not None:
            y = _finite(y + sampler_b(n))
        return outer(n, y)

    return _km(cfg, x0, target_fn, _error_sampler(cfg, ("a", T.dims)),
               objective_fn, stepsize)


def _check_double_layer(T: BlockOperatorFamily, R: BlockOperatorFamily,
                        cfg: SolverConfig, x0: BlockVector) -> None:
    """The preconditions of ``run_double_layer``, also checked at parse."""
    if x0.dims != T.dims or x0.dims != R.dims:
        raise ShapeError("starting point does not match the operator families")
    _check_run(cfg, T.dims.m, ("a", "b"), "double-layer driver", T.dims)
    _require(T.regularity == "averaged",
             "double-layer driver needs an averaged outer family")
    _require(R.regularity == "averaged",
             "double-layer driver needs an averaged inner family")
    _require(T.averaging.bounds()[1] < 1,
             "double-layer driver requires sup alpha_n < 1")
    _require(R.averaging.bounds()[1] < 1,
             "double-layer driver requires sup beta_n < 1")
    _check_relaxation(cfg, "double-layer driver")


# ---------------------------------------------------------------------------
# splitting from the coupled resolvent
# ---------------------------------------------------------------------------


def _coupled_flat(JB: Callable[[BlockVector], BlockVector],
                  dims: BlockDims) -> Callable[[np.ndarray], np.ndarray]:
    """A user-supplied coupled resolvent on flat arrays, checked in shape."""
    return lambda v: _data(JB(BlockVector._own(dims, v)), dims.total)


def _spot_check_resolvent(jb: Callable[[np.ndarray], np.ndarray],
                          dims: BlockDims) -> None:
    """Sampled nonexpansiveness check of ``_coupled_flat``'s map."""
    report = regularity_test(
        _family(dims, lambda n, x: jb(x), "nonexpansive"),
        "nonexpansive", sample_count=8, rng_seed=0x4A42)
    if report.violations:
        raise ParameterError(
            "the supplied coupled resolvent is not nonexpansive "
            f"(sampled slack {report.worst_slack:.3e}); it cannot be the "
            "resolvent of a monotone operator"
        )


def _check_splitting(gamma: float, cfg: SolverConfig) -> None:
    """The bounds shared by ``run_dr`` and ``run_pd_dr``."""
    _check_gamma(gamma)
    lo, hi = cfg.dr_relaxation.bounds()
    _require(lo > 0 and hi < 2,
             f"mu_n must lie in ]0, 2[ with inf mu_n > 0 and sup mu_n < 2, "
             f"got bounds [{lo}, {hi}]")


def run_dr(
    A: Sequence[MonotoneOperator] | SeparableSweep,
    JB: Callable[[BlockVector], BlockVector],
    gamma: float,
    cfg: SolverConfig,
    x0: BlockVector,
    *,
    check_resolvent: bool = True,
) -> tuple[IterateTrace, PrimalDualSolution | None]:
    """Masked splitting iteration for ``0 in A_i x_i + B_i(x)``.

    Each iteration refreshes the active blocks of the shadow state from the
    coupled resolvent, ``z_i <- Q_i(x) + b_i``, and then relaxes
    ``x_i <- x_i + mu_n (J_{gamma A_i}(2 z_i - x_i) + a_i - z_i)``, reading
    the already refreshed ``z_i``.  The coupled resolvent is always evaluated
    on the full vector and sliced.

    Returns the trace of the governing sequence together with the primal
    point ``z = JB(x_final)`` and the dual point ``(x_final - z) / gamma``.
    Whatever the termination, the solution is None when the coupled
    resolvent at the final point, or the dual point, is not finite.
    ``A`` may also be the resolvent ``SeparableSweep`` of the operators
    (``DrProblem.resolvents``); it is then used as is.
    """
    dims = x0.dims
    if not isinstance(A, SeparableSweep):
        A = SeparableSweep(A, "resolvent")
    _check_dr(A, gamma, cfg, x0)
    jb = _coupled_flat(JB, dims)
    if check_resolvent:
        _spot_check_resolvent(jb, dims)

    def solution(x: np.ndarray, z: np.ndarray) -> PrimalDualSolution:
        dual = (1.0 / gamma) * x + (-1.0 / gamma) * z
        return PrimalDualSolution(primal=BlockVector._own(dims, z),
                                  dual=BlockVector._own(dims, dual))

    return _splitting(
        cfg, x0, A, jb, gamma, _error_sampler(cfg, ("a", dims)),
        _error_sampler(cfg, ("b", dims)), dims.total, solution)


def _check_dr(A: SeparableSweep, gamma: float, cfg: SolverConfig,
              x0: BlockVector) -> None:
    """The preconditions of ``run_dr``, also checked at parse."""
    dims = x0.dims
    _check_terms(A.dims.dims, dims, "operator", "blockwise operators")
    _check_run(cfg, dims.m, ("a", "b"), "splitting driver", dims)
    _check_splitting(gamma, cfg)


# ---------------------------------------------------------------------------
# primal-dual splitting on the paired space
# ---------------------------------------------------------------------------


def assemble_pd_problem(
    primal_terms: Sequence[MonotoneOperator | ProxFunction],
    dual_terms: Sequence[MonotoneOperator | ProxFunction],
    L: LinearBlockOperator | Sequence[Sequence],
) -> PdDrProblem:
    """Package a linearly coupled primal-dual problem.

    Proximal functions are wrapped as subdifferentials; ``PdDrProblem``
    checks the terms against the grid and its rows.
    """
    if not isinstance(L, LinearBlockOperator):
        L = LinearBlockOperator(L)

    def wrap(term) -> MonotoneOperator:
        if isinstance(term, ProxFunction):
            return Subdifferential(term)
        if isinstance(term, MonotoneOperator):
            return term
        raise ShapeError(f"expected a function or monotone operator, got "
                         f"{type(term).__name__}")

    return PdDrProblem(tuple(wrap(t) for t in primal_terms),
                       tuple(wrap(t) for t in dual_terms), L)


def run_pd_dr(
    problem: PdDrProblem,
    gamma: float,
    cfg: SolverConfig,
    x0: BlockVector,
    *,
    y0: BlockVector | None = None,
) -> tuple[IterateTrace, PrimalDualSolution | None]:
    """Primal-dual splitting with masks over all ``m + p`` blocks.

    Runs the coupled-resolvent splitting on the paired space where the
    coupled operator is the normal cone of the graph subspace, so its
    resolvent is the graph projector.  The shadow states track the projector
    refresh of the governing state, so the reported primal point is the
    primal part of the final refresh and the reported dual point is
    ``(w - y_final) / gamma`` with ``w`` its image part.  Whatever the
    termination, the solution is None when that refresh (the coupled
    resolvent at the final point) or the dual point is not finite.
    """
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    _check_pd_dr(problem, gamma, cfg, x0, y0)
    y0 = y0 if y0 is not None else problem.L.apply(x0)
    split = h.total

    def solution(x: np.ndarray, zw: np.ndarray) -> PrimalDualSolution:
        dual = (1.0 / gamma) * zw[split:] + (-1.0 / gamma) * x[split:]
        return PrimalDualSolution(primal=BlockVector._own(h, zw[:split]),
                                  dual=BlockVector._own(g, dual))

    return _splitting(
        cfg, BlockVector._own(k, np.concatenate([x0.flat, y0.flat])),
        problem.resolvents, problem._project_flat, gamma,
        _error_sampler(cfg, ("a", h), ("b", g)),
        _error_sampler(cfg, ("c", h), ("d", g)), split, solution)


def _check_pd_dr(problem: PdDrProblem, gamma: float, cfg: SolverConfig,
                 x0: BlockVector, y0: BlockVector | None) -> None:
    """The preconditions of ``run_pd_dr``, also checked at parse."""
    h, g = problem.h_dims, problem.g_dims
    if x0.dims != h:
        raise ShapeError("x0 must live on the primal blocks")
    if y0 is not None and y0.dims != g:
        raise ShapeError("y0 must live on the image blocks")
    _check_run(cfg, problem.k_dims.m, ("a", "b", "c", "d"),
               "primal-dual driver", h)
    _check_splitting(gamma, cfg)


# ---------------------------------------------------------------------------
# forward-backward
# ---------------------------------------------------------------------------


def _spot_check_cocoercive(
    B: CocoerciveOperator, samples: int = 16, tolerance: float = 1e-9
) -> None:
    rng = np.random.default_rng(0x4642)
    d = B.dims.total
    for _ in range(samples):
        x = BlockVector(B.dims, rng.standard_normal(d))
        y = BlockVector(B.dims, rng.standard_normal(d))
        dbx = B.apply(x).flat - B.apply(y).flat
        slack = B.theta * float(dbx @ dbx) - float((x.flat - y.flat) @ dbx)
        if slack > tolerance:
            raise ParameterError(
                f"forward operator fails its cocoercivity constant "
                f"{B.theta} (sampled slack {slack:.3e})"
            )


def run_fb(
    A: Sequence[MonotoneOperator] | SeparableSweep,
    B: CocoerciveOperator | None,
    cfg: SolverConfig,
    x0: BlockVector,
    objective_fn: Callable[[BlockVector], float] | None = None,
    check_cocoercivity: bool = True,
) -> IterateTrace:
    """Masked forward-backward iteration.

    Active blocks follow
    ``x_i <- x_i + lambda_n (J_{gamma_n A_i}(x_i - gamma_n (B_i(x) + c_i))
    + a_i - x_i)``.  Stepsizes must stay below twice the cocoercivity
    constant theta of ``B`` (checked on a sample of pairs), and relaxations
    inside ]0, 1] bounded away from zero.  Runs as two averaged layers on
    ``run_double_layer``'s loop: the backward layer is the blockwise
    resolvent and the forward layer is ``x - gamma_n B x``; this driver's
    check implies the double-layer bounds.  ``A`` may also be the resolvent
    ``SeparableSweep`` of the operators (``FbProblem.resolvents``); it is
    then used as is.
    """
    dims = x0.dims
    if not isinstance(A, SeparableSweep):
        A = SeparableSweep(A, "resolvent")
    _check_forward_backward(A, B, cfg, x0)
    if B is not None and check_cocoercivity:
        _spot_check_cocoercive(B)
    gamma = cfg.stepsize
    T = resolvent_family(A, gamma)
    R = forward_step_family(B, gamma, dims)
    sampler_c = _error_sampler(cfg, ("c", dims))
    sampler_b = None
    if sampler_c is not None:
        # the forward perturbation c enters through the step as -gamma_n * c
        def sampler_b(n: int) -> np.ndarray:
            return _finite((-gamma.at(n)) * sampler_c(n))

    return _double_layer(T, R, cfg, x0, sampler_b, objective_fn, gamma)


def _check_forward_backward(A: SeparableSweep, B: CocoerciveOperator | None,
                            cfg: SolverConfig, x0: BlockVector) -> None:
    """The preconditions of ``run_fb``, also checked at parse."""
    dims = x0.dims
    _check_terms(A.dims.dims, dims, "operator", "blockwise operators")
    if B is not None and B.dims != dims:
        raise ShapeError("forward operator dims do not match the iterate")
    _check_run(cfg, dims.m, ("a", "c"), "forward-backward driver", dims)
    gamma = cfg.stepsize
    if gamma is None:
        raise ParameterError("forward-backward needs a stepsize schedule")
    lo, hi = gamma.bounds()
    if B is not None:
        two_theta = 2.0 * B.theta
        _require(
            lo > 0 and hi < two_theta,
            f"gamma_n must be a sequence in ]0, 2*theta[ = ]0, {two_theta}[ "
            f"with inf > 0 and sup < 2*theta, got bounds [{lo}, {hi}]",
        )
    else:
        _require(lo > 0, "gamma_n must satisfy inf gamma_n > 0")
    _check_relaxation(cfg, "forward-backward driver")


def run_fb_min(
    fs: Sequence[ProxFunction],
    smooth: Sequence[SmoothTerm],
    L: LinearBlockOperator | Sequence[Sequence],
    cfg: SolverConfig,
    x0: BlockVector,
) -> IterateTrace:
    """Proximal-gradient minimization of a linearly coupled objective.

    Minimizes ``sum_i f_i(x_i) + sum_k g_k(sum_i L_ki x_i)`` by delegating to
    the forward-backward driver with the subdifferentials of the ``f_i`` and
    the chain-rule gradient of the coupled smooth part, whose cocoercivity
    constant comes from the grid.  The objective value is recorded on every
    iteration when all smooth terms expose values.
    """
    if not isinstance(L, LinearBlockOperator):
        L = LinearBlockOperator(L)
    problem = CoupledMinProblem(tuple(fs), tuple(smooth), L)
    return run_fb(problem.resolvents, problem.forward(), cfg, x0,
                  problem.objective, check_cocoercivity=False)

