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
also calls when it parses a config; the loop itself compares no
``BlockDims`` (the public callables it calls keep their own checks).

The loop works on flat float64 arrays.  Error draws, targets, reflections,
distances and the masked update stay arrays; a ``BlockVector`` is built
only where a public callable takes or returns one: the iterate once per
iteration, the values of families, sweeps and coupled resolvents, and so
the snapshots and the final point.  Every such vector is checked to be
finite, and a ``NonFiniteError`` from any of them ends the run with
``termination="diverged"``: the trace keeps the completed iterations and
``final`` is the last finite iterate.  The loop runs under one
``np.errstate`` that keeps the overflow warnings of a diverging run quiet.

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

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .blockspace import (
    BlockDims,
    BlockVector,
    _distance_flat,
    _masked_flat,
    combine,
    distance,
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
    as_schedule,
    coupling_forward_operator,
    forward_step_family,
    graph_projection,
    resolvent_family,
)
from .sweeping import ErrorModel, SweepingRule, _error_flat, sample_mask

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
    ]0, 2[, ``stepsize`` the forward stepsize sequence, and ``gamma`` the
    fixed resolvent parameter forwarded to the splitting drivers by the
    orchestration layer.  ``errors`` maps slot names ("a", "b", "c", "d") to
    error models; missing slots are error-free.
    """

    sweeping: SweepingRule
    relaxation: Schedule = Schedule(0.5)
    dr_relaxation: Schedule = Schedule(1.0)
    stepsize: Schedule | None = None
    gamma: float = 1.0
    max_iterations: int = 100_000
    tolerance: float = 1e-8
    seed: int = 0
    errors: Mapping[str, ErrorModel] = field(default_factory=dict)
    reference: BlockVector | None = None
    snapshot_stride: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ParameterError("tolerance must be >= 0")
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride must be >= 1")
        object.__setattr__(self, "errors", dict(self.errors))
        for slot in self.errors:
            if slot not in _SLOT_STREAMS:
                raise ParameterError(f"unknown error slot {slot!r}")
        if self.gamma <= 0:
            raise ParameterError("gamma must be > 0")


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
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else 0.0

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
    linear grid couples them through its graph subspace.  ``resolvents``,
    the sweep of the resolvents over all ``m + p`` blocks, is built once
    here and reused by every run.
    """

    h_ops: tuple[MonotoneOperator, ...]
    g_ops: tuple[MonotoneOperator, ...]
    L: LinearBlockOperator
    V: GraphSubspace
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        h, g = self.h_dims, self.g_dims
        t, lt = graph_projection(self.V, *_split_pair(v, h, g))
        return _join_pair(t, lt, self._k_dims)


@dataclass(frozen=True)
class CoupledMinProblem:
    """Minimize ``sum_i f_i(x_i) + sum_k g_k(sum_i L_ki x_i)``.

    Everything a run reuses is built once here: the coupling gradient with
    its cocoercivity constant (``forward()``), ``resolvents``, the sweep of
    the resolvents of the subdifferentials of the ``f_i``, and the prox
    sweep that evaluates the objective.  The ``f_i`` must match the source
    blocks of the grid.
    """

    fs: tuple[ProxFunction, ...]
    smooth: tuple[SmoothTerm, ...]
    L: LinearBlockOperator
    resolvents: SeparableSweep = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_terms(tuple(f.dim for f in self.fs), self.dims, "function")
        object.__setattr__(self, "_forward",
                           coupling_forward_operator(self.L, self.smooth))
        object.__setattr__(self, "_rows", _SmoothRows(self.L, self.smooth))
        object.__setattr__(self, "resolvents", SeparableSweep(
            [Subdifferential(f) for f in self.fs], "resolvent"))
        object.__setattr__(self, "_sweep", SeparableSweep(self.fs, "prox"))

    @property
    def dims(self) -> BlockDims:
        return self.L.source_dims

    def forward(self) -> CocoerciveOperator:
        return self._forward

    def objective(self, x: BlockVector) -> float | None:
        if not self._rows.has_values:
            return None
        # grouped per-block and per-row values, added in order as one loop
        total = sum(self._sweep.values(x))
        total += sum(self._rows.values(self.L.stacked @ x.flat))
        return float(total)


# ---------------------------------------------------------------------------
# shared plumbing and the engine
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _check_terms(term_dims: tuple[int, ...], dims: BlockDims, noun: str,
                 plural: str | None = None) -> None:
    """One term per block of ``dims``; ``term_dims`` are the terms' dims."""
    if term_dims == dims.dims:
        return
    if len(term_dims) != dims.m:
        raise ShapeError(f"need {dims.m} {plural or noun + 's'}, got "
                         f"{len(term_dims)}")
    i = next(i for i, d in enumerate(dims.dims) if term_dims[i] != d)
    raise ShapeError(f"{noun} {i} has dim {term_dims[i]}, expected "
                     f"{dims.dims[i]}")


def _check_slots(cfg: SolverConfig, allowed: tuple[str, ...],
                 driver: str) -> None:
    extra = sorted(set(cfg.errors) - set(allowed))
    if extra:
        raise ParameterError(
            f"{driver} supports error slots {list(allowed)}, got {extra}"
        )


def _check_relaxation(cfg: SolverConfig, driver: str) -> None:
    lo, hi = cfg.relaxation.bounds()
    _require(lo > 0 and hi <= 1,
             f"{driver} requires lambda_n in ]0, 1] with inf lambda_n > 0, "
             f"got bounds [{lo}, {hi}]")


def _check_rule(rule: SweepingRule, m: int, context: str) -> None:
    if rule.m != m:
        raise ShapeError(
            f"{context}: sweeping rule covers {rule.m} blocks, iteration "
            f"has {m}"
        )


def _error_sampler(
    cfg: SolverConfig, slot: str, dims: BlockDims
) -> Callable[[int], np.ndarray] | None:
    """The slot's error draws as flat arrays, or None when it is error-free."""
    model = cfg.errors.get(slot)
    if model is None or model.kind == "none":
        return None
    stream = _SLOT_STREAMS[slot]
    seed, d = cfg.seed, dims.total
    return lambda n: _error_flat(model, d, n, seed, stream)


def _paired_error_sampler(
    cfg: SolverConfig,
    slot_first: str,
    slot_second: str,
    first_dims: BlockDims,
    second_dims: BlockDims,
) -> Callable[[int], np.ndarray] | None:
    """Concatenate two slot samplers over a paired space."""
    first = _error_sampler(cfg, slot_first, first_dims)
    second = _error_sampler(cfg, slot_second, second_dims)
    if first is None and second is None:
        return None

    def sample(n: int) -> np.ndarray:
        f = first(n) if first else np.zeros(first_dims.total)
        s = second(n) if second else np.zeros(second_dims.total)
        return np.concatenate([f, s])

    return sample


def _data(v: BlockVector, total: int) -> np.ndarray:
    """The flat data of an operator's value, checked against the iterate."""
    if v.flat.shape != (total,):
        raise ShapeError(f"operator value has {v.flat.shape[0]} entries, "
                         f"expected {total}")
    return v.flat


def _engine(
    cfg: SolverConfig,
    x0: BlockVector,
    relaxation: Schedule,
    measure: Callable[[int, BlockVector], tuple],
    step: Callable[..., np.ndarray],
) -> IterateTrace:
    """The iteration loop of every driver; see the module docstring.

    ``measure`` returns ``(residual, stepsize, distance, objective, state)``
    and ``state`` is handed on to ``step``, which gets the flat data of the
    iterate and returns the next one as a new array.
    """
    records: list[TraceRecord] = []
    x = x0
    termination = "max_iterations"
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
                mask = sample_mask(cfg.sweeping, n, cfg.seed)
                relax = relaxation.at(n)
                nxt = BlockVector._own(x.dims, step(n, x.flat, mask, relax,
                                                    state))
                snap = x if n % cfg.snapshot_stride == 0 else None
                records.append(
                    TraceRecord(n, residual, mask.bits, relax, g, dist, obj, snap)
                )
                x = nxt
    except NonFiniteError:
        termination = "diverged"
    return IterateTrace(tuple(records), x, termination)


def _km(
    cfg: SolverConfig,
    x0: BlockVector,
    target_fn: Callable[[int, BlockVector], BlockVector],
    sampler_a: Callable[[int], np.ndarray] | None,
    objective_fn: Callable[[BlockVector], float] | None = None,
    stepsize: Schedule | None = None,
) -> IterateTrace:
    """Relax the active blocks toward ``target_fn(n, x) + a_n``."""
    ref = cfg.reference.flat if cfg.reference is not None else None
    d, offsets = x0.dims.total, x0.dims.offsets

    def measure(n: int, x: BlockVector) -> tuple:
        target = _data(target_fn(n, x), d)
        return (_distance_flat(target, x.flat),
                stepsize.at(n) if stepsize is not None else None,
                _distance_flat(x.flat, ref) if ref is not None else None,
                objective_fn(x) if objective_fn else None,
                target)

    def step(n: int, x: np.ndarray, mask, lam: float,
             target: np.ndarray) -> np.ndarray:
        if sampler_a is not None:
            target = target + sampler_a(n)
        return _masked_flat(x, mask.active, lam, target, offsets)

    return _engine(cfg, x0, cfg.relaxation, measure, step)


def _splitting(
    cfg: SolverConfig,
    x0: BlockVector,
    sweep: SeparableSweep,
    jb: Callable[[BlockVector], np.ndarray],
    gamma: float,
    sampler_a: Callable[[int], np.ndarray] | None,
    sampler_b: Callable[[int], np.ndarray] | None,
    primal: Callable[[np.ndarray], np.ndarray],
) -> IterateTrace:
    """The splitting step of ``run_dr`` and ``run_pd_dr``.

    ``jb`` gives the flat data of the coupled resolvent at the iterate.  The
    shadow state ``z = jb(x) + b_n`` is read only on the active blocks,
    which are exactly the blocks it refreshes, so it is formed there and
    not carried between iterations.  The distance to the reference is
    measured at ``primal(jb(x))``.
    """
    A_ops = sweep.terms
    offsets = x0.dims.offsets
    ref = cfg.reference.flat if cfg.reference is not None else None

    def measure(n: int, x: BlockVector) -> tuple:
        q = jb(x)
        ja = sweep.apply(BlockVector._own(x.dims, 2.0 * q - x.flat),
                         gamma).flat
        return (2.0 * _distance_flat(ja, q), gamma,
                _distance_flat(primal(q), ref) if ref is not None else None,
                None, q)

    def step(n: int, x: np.ndarray, mask, mu: float,
             q: np.ndarray) -> np.ndarray:
        b_n = sampler_b(n) if sampler_b is not None else None
        a_n = sampler_a(n) if sampler_a is not None else None
        out = x.copy()
        for i in mask.active:
            sl = slice(offsets[i], offsets[i + 1])
            z = q[sl] if b_n is None else q[sl] + b_n[sl]
            ji = A_ops[i].resolvent(2.0 * z - x[sl], gamma)
            delta = ji - z
            if a_n is not None:
                delta = delta + a_n[sl]
            out[sl] = x[sl] + mu * delta
        return out

    return _engine(cfg, x0, cfg.dr_relaxation, measure, step)


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
    return _km(cfg, x0, T.evaluate, _error_sampler(cfg, "a", T.dims))


def _check_single_layer(T: BlockOperatorFamily, cfg: SolverConfig,
                        x0: BlockVector) -> None:
    """The preconditions of ``run_single_layer``, also checked at parse."""
    if x0.dims != T.dims:
        raise ShapeError("starting point does not match the operator family")
    _check_rule(cfg.sweeping, T.dims.m, "single-layer driver")
    _check_slots(cfg, ("a",), "single-layer driver")
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
    inner_error_sampler: Callable[[int], BlockVector] | None = None,
    objective_fn: Callable[[BlockVector], float] | None = None,
    stepsize_for_trace: Schedule | None = None,
) -> IterateTrace:
    """Two averaged layers per iteration.

    Computes ``y_n = R_n(x_n) + b_n`` in full (the mask never applies to the
    inner layer) and then updates the active blocks toward
    ``T_n(y_n) + a_n``.  Requires ``sup alpha_n < 1`` and ``sup beta_n < 1``
    for the two averaging sequences and relaxations in ]0, 1] bounded away
    from zero.

    ``inner_error_sampler`` overrides the "b" error slot with a caller-built
    sampler; ``stepsize_for_trace`` only fills the trace stepsize column.
    """
    _check_double_layer(T, R, cfg, x0)
    dims = x0.dims
    sampler_b = _error_sampler(cfg, "b", R.dims)
    if inner_error_sampler is not None:
        def sampler_b(n: int) -> np.ndarray:
            return _data(inner_error_sampler(n), dims.total)

    def target_fn(n: int, x: BlockVector) -> BlockVector:
        y = R.evaluate(n, x)
        if sampler_b is not None:
            y = BlockVector._own(dims, _data(y, dims.total) + sampler_b(n))
        return T.evaluate(n, y)

    return _km(cfg, x0, target_fn, _error_sampler(cfg, "a", T.dims),
               objective_fn, stepsize_for_trace)


def _check_double_layer(T: BlockOperatorFamily, R: BlockOperatorFamily,
                        cfg: SolverConfig, x0: BlockVector) -> None:
    """The preconditions of ``run_double_layer``, also checked at parse."""
    if x0.dims != T.dims or x0.dims != R.dims:
        raise ShapeError("starting point does not match the operator families")
    _check_rule(cfg.sweeping, T.dims.m, "double-layer driver")
    _check_slots(cfg, ("a", "b"), "double-layer driver")
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


def _spot_check_resolvent(
    jb: Callable[[BlockVector], BlockVector],
    dims: BlockDims,
    samples: int = 8,
    tolerance: float = 1e-9,
) -> None:
    """Sampled nonexpansiveness check of a user-supplied coupled resolvent."""
    rng = np.random.default_rng(0x4A42)
    for _ in range(samples):
        x = BlockVector(dims, rng.standard_normal(dims.total))
        y = BlockVector(dims, rng.standard_normal(dims.total))
        slack = distance(jb(x), jb(y)) ** 2 - distance(x, y) ** 2
        if slack > tolerance:
            raise ParameterError(
                "the supplied coupled resolvent is not nonexpansive "
                f"(sampled slack {slack:.3e}); it cannot be the resolvent of "
                "a monotone operator"
            )


def _check_splitting(gamma: float, cfg: SolverConfig) -> None:
    """The bounds shared by ``run_dr`` and ``run_pd_dr``."""
    _require(gamma > 0, "gamma must be > 0")
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
    z0: BlockVector | None = None,
    check_resolvent: bool = True,
) -> tuple[IterateTrace, PrimalDualSolution]:
    """Masked splitting iteration for ``0 in A_i x_i + B_i(x)``.

    Each iteration refreshes the active blocks of the shadow state from the
    coupled resolvent, ``z_i <- Q_i(x) + b_i``, and then relaxes
    ``x_i <- x_i + mu_n (J_{gamma A_i}(2 z_i - x_i) + a_i - z_i)``, reading
    the already refreshed ``z_i``.  The coupled resolvent is always evaluated
    on the full vector and sliced.  Since only refreshed blocks of ``z`` are
    ever read, ``z0`` is checked against the iterate but does not change
    the run.

    Returns the trace of the governing sequence together with the primal
    point ``z = JB(x_final)`` and the dual point ``(x_final - z) / gamma``.
    ``A`` may also be the resolvent ``SeparableSweep`` of the operators
    (``DrProblem.resolvents``); it is then used as is.
    """
    dims = x0.dims
    if not isinstance(A, SeparableSweep):
        A = SeparableSweep(A, "resolvent")
    _check_dr(A, gamma, cfg, x0, z0)
    if check_resolvent:
        _spot_check_resolvent(JB, dims)
    trace = _splitting(
        cfg, x0, A, lambda v: _data(JB(v), dims.total), gamma,
        _error_sampler(cfg, "a", dims), _error_sampler(cfg, "b", dims),
        lambda q: q,
    )
    z = JB(trace.final)
    u = combine(1.0 / gamma, trace.final, -1.0 / gamma, z)
    return trace, PrimalDualSolution(primal=z, dual=u)


def _check_dr(A: SeparableSweep, gamma: float, cfg: SolverConfig,
              x0: BlockVector, z0: BlockVector | None) -> None:
    """The preconditions of ``run_dr``, also checked at parse."""
    dims = x0.dims
    _check_terms(A.dims.dims, dims, "operator", "blockwise operators")
    _check_rule(cfg.sweeping, dims.m, "splitting driver")
    _check_slots(cfg, ("a", "b"), "splitting driver")
    _check_splitting(gamma, cfg)
    if z0 is not None and z0.dims != dims:
        raise ShapeError("shadow state dims do not match the iterate")


# ---------------------------------------------------------------------------
# primal-dual splitting on the paired space
# ---------------------------------------------------------------------------


def assemble_pd_problem(
    primal_terms: Sequence[MonotoneOperator | ProxFunction],
    dual_terms: Sequence[MonotoneOperator | ProxFunction],
    L: LinearBlockOperator | Sequence[Sequence],
) -> PdDrProblem:
    """Package a linearly coupled primal-dual problem.

    Proximal functions are wrapped as subdifferentials.  Every image row of
    the grid must carry a nonzero operator.
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

    h_ops = tuple(wrap(t) for t in primal_terms)
    g_ops = tuple(wrap(t) for t in dual_terms)
    _check_terms(tuple(op.dim for op in h_ops), L.source_dims, "primal term")
    _check_terms(tuple(op.dim for op in g_ops), L.target_dims, "dual term")
    for k in range(L.p):
        if float(np.trace(L.row_gram(k))) <= 0.0:
            raise ParameterError(
                f"image row {k} of the coupling grid is zero; every row "
                "must satisfy min_k sum_i ||L_ki||^2 > 0"
            )
    return PdDrProblem(h_ops, g_ops, L, GraphSubspace(L))


def _split_pair(v: BlockVector, h: BlockDims, g: BlockDims) -> tuple[BlockVector, BlockVector]:
    return (
        BlockVector._own(h, v.flat[: h.total].copy()),
        BlockVector._own(g, v.flat[h.total:].copy()),
    )


def _join_pair(x: BlockVector, y: BlockVector, k: BlockDims) -> BlockVector:
    return BlockVector._own(k, np.concatenate([x.flat, y.flat]))


def run_pd_dr(
    problem: PdDrProblem,
    gamma: float,
    cfg: SolverConfig,
    x0: BlockVector,
    z0: BlockVector | None = None,
    y0: BlockVector | None = None,
    w0: BlockVector | None = None,
) -> tuple[IterateTrace, PrimalDualSolution]:
    """Primal-dual splitting with masks over all ``m + p`` blocks.

    Runs the coupled-resolvent splitting on the paired space where the
    coupled operator is the normal cone of the graph subspace, so its
    resolvent is the graph projector.  The shadow states track the projector
    refresh of the governing state, so the reported primal point is the
    primal part of the final refresh and the reported dual point is
    ``(w - y_final) / gamma`` with ``w`` its image part.  As in ``run_dr``,
    ``z0`` and ``w0`` are checked but do not change the run.
    """
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    _check_pd_dr(problem, gamma, cfg, x0, z0, y0, w0)
    y0 = y0 if y0 is not None else problem.L.apply(x0)

    trace = _splitting(
        cfg, _join_pair(x0, y0, k), problem.resolvents,
        lambda v: problem.project(v).flat, gamma,
        _paired_error_sampler(cfg, "a", "b", h, g),
        _paired_error_sampler(cfg, "c", "d", h, g),
        lambda q: q[:h.total],
    )
    z_final, w_final = _split_pair(problem.project(trace.final), h, g)
    _, y_final = _split_pair(trace.final, h, g)
    dual = combine(1.0 / gamma, w_final, -1.0 / gamma, y_final)
    return trace, PrimalDualSolution(primal=z_final, dual=dual)


def _check_pd_dr(problem: PdDrProblem, gamma: float, cfg: SolverConfig,
                 x0: BlockVector, z0: BlockVector | None,
                 y0: BlockVector | None, w0: BlockVector | None) -> None:
    """The preconditions of ``run_pd_dr``, also checked at parse."""
    h, g = problem.h_dims, problem.g_dims
    if x0.dims != h:
        raise ShapeError("x0 must live on the primal blocks")
    if y0 is not None and y0.dims != g:
        raise ShapeError("y0 must live on the image blocks")
    if (z0 is not None and z0.dims != h) or (w0 is not None and w0.dims != g):
        raise ShapeError("shadow states must match the primal/image blocks")
    _check_rule(cfg.sweeping, problem.k_dims.m, "primal-dual driver")
    _check_slots(cfg, ("a", "b", "c", "d"), "primal-dual driver")
    _check_splitting(gamma, cfg)
    if cfg.reference is not None and cfg.reference.dims != h:
        raise ShapeError("reference must live on the primal blocks")


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
    inside ]0, 1] bounded away from zero.  Runs as two averaged layers: the
    backward layer is the blockwise resolvent and the forward layer is
    ``x - gamma_n B x``.  ``A`` may also be the resolvent ``SeparableSweep``
    of the operators (``FbProblem.resolvents``); it is then used as is.
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
    sampler_c = _error_sampler(cfg, "c", dims)
    inner_sampler = None
    if sampler_c is not None:
        # the forward perturbation c enters through the step as -gamma_n * c
        def inner_sampler(n: int) -> BlockVector:
            return BlockVector._own(dims, (-gamma.at(n)) * sampler_c(n))

    layer_cfg = replace(
        cfg, errors={k: v for k, v in cfg.errors.items() if k == "a"}
    )
    return run_double_layer(
        T, R, layer_cfg, x0,
        inner_error_sampler=inner_sampler,
        objective_fn=objective_fn,
        stepsize_for_trace=gamma,
    )


def _check_forward_backward(A: SeparableSweep, B: CocoerciveOperator | None,
                            cfg: SolverConfig, x0: BlockVector) -> None:
    """The preconditions of ``run_fb``, also checked at parse."""
    dims = x0.dims
    _check_terms(A.dims.dims, dims, "operator", "blockwise operators")
    if B is not None and B.dims != dims:
        raise ShapeError("forward operator dims do not match the iterate")
    _check_rule(cfg.sweeping, dims.m, "forward-backward driver")
    _check_slots(cfg, ("a", "c"), "forward-backward driver")
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
    _check_fb_min(problem, x0)
    return run_fb(problem.resolvents, problem.forward(), cfg, x0,
                  problem.objective, check_cocoercivity=False)


def _check_fb_min(problem: CoupledMinProblem, x0: BlockVector) -> None:
    """The precondition ``run_fb_min`` adds to those of ``run_fb``."""
    if x0.dims != problem.dims:
        raise ShapeError("starting point does not match the coupling grid")
