"""Empirical verification: monotonicity monitors, exact activation-averaged
identities, inclusion residuals, deterministic reference solutions, and
Monte Carlo summaries across seeds.

The expectation utilities enumerate the activation law exactly, so their
claims are equalities up to floating point rather than statistical tests.
The enumeration costs one O(K*m) numpy pass per point for the K patterns of
an m-block law, not K masked updates: under a mask each block term of the
separable weighted norm takes one of two values, and a pattern selects.
Almost-sure convergence is operationalized as a success fraction of 1.0 over
many seeds at a fixed tolerance; this is an empirical surrogate, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .blockspace import (
    BlockDims,
    BlockVector,
    WeightedNormSpec,
    _check_same_dims,
    _finite,
    combine,
    construct,
    distance,
    reduce,
)
from .errors import (
    CapabilityError,
    CapacityError,
    OracleFailureError,
    ParameterError,
    ShapeError,
)
from .operators import (
    BlockOperatorFamily,
    MonotoneOperator,
    SeparableSweep,
    Subdifferential,
)
from .solvers import (
    CoupledMinProblem,
    DrProblem,
    FbProblem,
    IterateTrace,
    KmProblem,
    PdDrProblem,
    PrimalDualSolution,
)
from .sweeping import MaskLaw, SweepingRule, mask_law

__all__ = [
    "FejerReport",
    "fejer_monitor",
    "expected_fejer_check",
    "IdentityReport",
    "expectation_identity_check",
    "InclusionReport",
    "inclusion_residual",
    "oracle_reference",
    "SeedOutcome",
    "ConvergenceReport",
    "monte_carlo_summary",
]

_EXPECTED_SLACK_BLOCK_LIMIT = 10
_ORACLE_DIM_LIMIT = 200


# ---------------------------------------------------------------------------
# monotonicity monitors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FejerReport:
    """Per-step slack of the distance-decrease inequality along one path.

    ``slacks[j]`` compares consecutive stored iterates:
    ``phi(||x_{j+1} - z||) - (1 + chi_j) * phi(||x_j - z||) - eta_j``.
    A single realized path may show positive slack when stochastic errors
    are active; the report flags violations but deciding is left to the
    caller.
    """

    slacks: tuple[float, ...]
    violations: int
    max_positive_slack: float


def _phi(name: str) -> Callable[[float], float]:
    if name == "t":
        return lambda t: t
    if name == "t2":
        return lambda t: t * t
    raise ParameterError(f"phi must be 't' or 't2', got {name!r}")


def _envelope(values, count: int) -> list[float]:
    if values is None:
        return [0.0] * count
    if callable(values):
        return [float(values(j)) for j in range(count)]
    values = list(values)
    if len(values) < count:
        raise ShapeError(f"envelope has {len(values)} entries, need {count}")
    return [float(v) for v in values[:count]]


def fejer_monitor(
    trace: IterateTrace,
    z: BlockVector,
    phi: str = "t2",
    chi=None,
    eta=None,
    tolerance: float = 0.0,
) -> FejerReport:
    """Check the distance-decrease inequality along the stored iterates."""
    xs = trace.snapshots()
    if len(xs) < 2:
        raise ParameterError(
            "trace stores no iterate snapshots; rerun with a snapshot "
            "stride that keeps at least two iterates"
        )
    f = _phi(phi)
    count = len(xs) - 1
    chis = _envelope(chi, count)
    etas = _envelope(eta, count)
    slacks = []
    for j in range(count):
        before = f(distance(xs[j], z))
        after = f(distance(xs[j + 1], z))
        slacks.append(after - (1.0 + chis[j]) * before - etas[j])
    violations = sum(1 for s in slacks if s > tolerance)
    return FejerReport(tuple(slacks), violations,
                       max(0.0, max(slacks)))


def _weighted_sq(d: BlockVector, weights: WeightedNormSpec) -> float:
    return reduce(d, d, weights).weighted_norm_sq_x


def _expected_weighted_sq(
    law: MaskLaw,
    weights: WeightedNormSpec,
    x: BlockVector,
    target: BlockVector,
    relax: float,
    ref: BlockVector,
) -> float:
    """``sum_k p_k |||masked_update(x, mask_k, relax, target) - ref|||^2``.

    Under a mask, block ``i`` of the candidate minus ``ref`` is either
    ``x_i - ref_i`` or ``cand_i - ref_i``, so its weighted term
    ``||b||^2 / w_i`` takes one of two values.  Both are computed once per
    block, and each pattern's norm is a selection over the K-by-m bit array:
    one O(K*m) numpy pass instead of K masked updates.  The candidate, the
    differences and the block dots are computed as ``masked_update``,
    ``combine`` and ``reduce`` compute them, and every sum runs left to
    right, so the result equals their per-pattern loop bit for bit.
    """
    bits, probs = law.bits, law.probabilities
    _check_same_dims(x, target)
    if bits.shape[1] != x.dims.m:
        raise ShapeError(f"mask has {bits.shape[1]} bits for {x.dims.m} blocks")
    cand = (target.flat if relax == 1.0
            else x.flat + relax * (target.flat - x.flat))
    inactive = 1.0 * x.flat + -1.0 * ref.flat
    active = 1.0 * cand + -1.0 * ref.flat
    # a non-finite candidate leaves ``active`` non-finite too
    _finite(inactive)
    _finite(active)
    off = x.dims.offsets
    norms = None
    for i, w in enumerate(weights.weights):
        a = inactive[off[i]:off[i + 1]]
        b = active[off[i]:off[i + 1]]
        term = np.where(bits[:, i], float(b @ b) / w, float(a @ a) / w)
        norms = term if norms is None else norms + term
    # a running total in support order: np.sum would add pairwise
    return float(np.add.accumulate(probs * norms)[-1])


def expected_fejer_check(
    T: BlockOperatorFamily,
    trace: IterateTrace,
    z: BlockVector,
    rule: SweepingRule,
) -> list[float]:
    """Exact expected decrease of the weighted distance at each stored step.

    For every record with a stored iterate, re-expands all activation
    patterns of the rule at the recorded relaxation and returns the exact
    expected change of the squared weighted distance to ``z``.  For an
    error-free run of a quasinonexpansive family and a fixed point ``z``
    every entry is nonpositive up to floating point.

    The law is built once per call; each stored step then costs one
    evaluation of ``T`` and one O(K*m) numpy pass over the K patterns,
    not K masked updates, with results equal bit for bit to that loop.
    """
    if rule.m > _EXPECTED_SLACK_BLOCK_LIMIT:
        raise CapacityError(
            f"expected-slack expansion supports m <= "
            f"{_EXPECTED_SLACK_BLOCK_LIMIT}, got {rule.m}"
        )
    law = mask_law(rule)
    weights = WeightedNormSpec(law.marginals)
    slacks = []
    for rec in trace.records:
        if rec.snapshot is None or rec.relaxation is None:
            continue
        x = rec.snapshot
        tx = T.evaluate(rec.n, x)
        base = _weighted_sq(combine(1.0, x, -1.0, z), weights)
        expected = _expected_weighted_sq(law, weights, x, tx,
                                         rec.relaxation, z)
        slacks.append(expected - base)
    return slacks


# ---------------------------------------------------------------------------
# exact activation-averaged identities
# ---------------------------------------------------------------------------


class IdentityReport(NamedTuple):
    target_lhs: float
    target_rhs: float
    target_abs_err: float
    step_lhs: float
    step_rhs: float
    step_abs_err: float


def expectation_identity_check(
    T: BlockOperatorFamily,
    x: BlockVector,
    z: BlockVector,
    rule: SweepingRule,
    iteration: int = 0,
) -> IdentityReport:
    """Exact second-moment identities of the masked update candidate.

    With ``t(mask)`` the unrelaxed masked candidate built from ``T(x)`` and
    the weighted norm using the rule's marginals, enumeration over the
    activation law gives two exact identities:

    * target: ``E |||t - z|||^2 = |||x - z|||^2 + ||Tx - z||^2 - ||x - z||^2``
    * step:   ``E |||t - x|||^2 = ||Tx - x||^2``

    Both are pure algebra for any operator and any points, so the absolute
    errors are floating-point small.  The left sides are enumerations over
    the law's support, each one O(K*m) numpy pass rather than K masked
    updates; the right sides use the marginals alone.
    """
    if x.dims != T.dims or z.dims != T.dims:
        raise ShapeError("points must match the operator family dims")
    law = mask_law(rule)
    if rule.m != x.dims.m:
        raise ShapeError("rule must cover the same number of blocks")
    weights = WeightedNormSpec(law.marginals)
    tx = T.evaluate(iteration, x)
    lhs_target = _expected_weighted_sq(law, weights, x, tx, 1.0, z)
    lhs_step = _expected_weighted_sq(law, weights, x, tx, 1.0, x)
    diff_xz = combine(1.0, x, -1.0, z)
    r = reduce(diff_xz, diff_xz, weights)
    diff_txz = combine(1.0, tx, -1.0, z)
    diff_txx = combine(1.0, tx, -1.0, x)
    # group the weighted/plain difference first: with one block the two
    # norms cancel bitwise and the identity is exactly a tautology
    rhs_target = ((r.weighted_norm_sq_x - r.norm_sq_x)
                  + reduce(diff_txz, diff_txz).norm_sq_x)
    rhs_step = reduce(diff_txx, diff_txx).norm_sq_x
    return IdentityReport(
        lhs_target, rhs_target, abs(lhs_target - rhs_target),
        lhs_step, rhs_step, abs(lhs_step - rhs_step),
    )


# ---------------------------------------------------------------------------
# inclusion residuals
# ---------------------------------------------------------------------------


class InclusionReport(NamedTuple):
    primal_res: float
    dual_res: float | None


def _membership_residual(op: MonotoneOperator, point: np.ndarray,
                         value: np.ndarray, gamma: float) -> float:
    """Distance surrogate for ``value in op(point)``.

    Uses the resolvent characterization
    ``value in op(point)  iff  point = J_{gamma op}(point + gamma value)``.
    """
    j = op.resolvent(point + gamma * value, gamma)
    return float(np.linalg.norm(point - j))


def _blockwise_fixed_point_residual(
    A: Sequence[MonotoneOperator],
    x: BlockVector,
    bx: BlockVector,
    gamma: float,
) -> float:
    total = 0.0
    for i, op in enumerate(A):
        xi = x.block(i)
        j = op.resolvent(xi - gamma * bx.block(i), gamma)
        total += float(np.linalg.norm(xi - j)) ** 2
    return math.sqrt(total)


def inclusion_residual(problem, candidate) -> InclusionReport:
    """Nonnegative residuals that vanish exactly at solutions.

    Set memberships for subdifferentials are measured through the proximal
    fixed point characterization, so no explicit subdifferential sets are
    formed.  ``candidate`` is a point on the primal blocks or a primal-dual
    pair; dual residuals are only reported for pairs.
    """
    primal = candidate.primal if isinstance(candidate, PrimalDualSolution) else candidate
    dual = candidate.dual if isinstance(candidate, PrimalDualSolution) else None

    if isinstance(problem, PdDrProblem):
        if dual is None:
            raise CapabilityError(
                "linearly coupled inclusions need a primal-dual pair"
            )
        gamma = 1.0
        if primal.dims != problem.h_dims or dual.dims != problem.g_dims:
            raise ShapeError("candidate does not match the problem blocks")
        pullback = problem.L.adjoint(dual)
        res_a_sq = 0.0
        for i, op in enumerate(problem.h_ops):
            res_a_sq += _membership_residual(
                op, primal.block(i), -pullback.block(i), gamma
            ) ** 2
        image = problem.L.apply(primal)
        res_b_sq = 0.0
        for k, op in enumerate(problem.g_ops):
            res_b_sq += _membership_residual(
                op, image.block(k), dual.block(k), gamma
            ) ** 2
        return InclusionReport(math.sqrt(res_a_sq), math.sqrt(res_b_sq))

    if isinstance(problem, CoupledMinProblem):
        A, B = [Subdifferential(f) for f in problem.fs], problem.forward()
        gamma = 1.0
    elif isinstance(problem, FbProblem):
        A, B, gamma = list(problem.A), problem.B, 1.0
    elif isinstance(problem, DrProblem):
        A, B, gamma = list(problem.A), problem.B_forward, problem.gamma
    else:
        raise CapabilityError(
            "inclusion residuals are not available for "
            f"{type(problem).__name__}")

    if dual is not None:
        res_a = max(
            _membership_residual(A[i], primal.block(i), -dual.block(i), gamma)
            for i in range(primal.dims.m)
        )
    if isinstance(problem, DrProblem) and B is None:
        if dual is None:
            raise CapabilityError(
                "need either a forward evaluation of the coupled operator "
                "or a dual point to measure this inclusion"
            )
        # without a forward evaluation both residuals measure the pair
        res_b = distance(primal, problem.JB(combine(1.0, primal, gamma, dual)))
        return InclusionReport(max(res_a, res_b), max(res_a, res_b))
    bx = B.apply(primal) if B is not None else construct(primal.dims)
    primal_res = _blockwise_fixed_point_residual(A, primal, bx, gamma)
    if dual is None:
        return InclusionReport(primal_res, None)
    res_b = float(np.linalg.norm(bx.flat - dual.flat))
    return InclusionReport(primal_res, max(res_a, res_b))


# ---------------------------------------------------------------------------
# deterministic reference solutions
# ---------------------------------------------------------------------------


def _check_oracle_scale(dims: BlockDims) -> None:
    if dims.total > _ORACLE_DIM_LIMIT:
        raise CapacityError(
            f"reference solutions support total dim <= {_ORACLE_DIM_LIMIT}"
        )


def _full_sweep(step: Callable[[int, BlockVector], tuple], x: BlockVector,
                max_iterations: int, tol: float, name: str) -> BlockVector:
    """Iterate ``step(n, x) -> (residual, answer, next_x)`` from ``x`` to
    the answer of the first residual below ``tol``, quiet as the drivers'
    loop: a diverging iterate raises at a finiteness check, not a warning.
    """
    with np.errstate(all="ignore"):
        for n in range(max_iterations):
            residual, answer, x = step(n, x)
            if residual < tol:
                return answer
    raise OracleFailureError(
        f"{name} reference did not reach {tol} in {max_iterations} iterations"
    )


def _full_fb_reference(resolvents: SeparableSweep, B, gamma: float,
                       max_iterations: int, tol: float) -> BlockVector:
    dims = resolvents.dims

    def step(n: int, x: BlockVector) -> tuple:
        arg = x
        if B is not None:
            arg = BlockVector._own(dims, x.flat - gamma * B.apply(x).flat)
        nxt = resolvents.apply(arg, gamma)
        return distance(nxt, x), nxt, nxt

    return _full_sweep(step, construct(dims), max_iterations, tol,
                       "full-sweep forward-backward")


def _full_dr_reference(resolvents: SeparableSweep,
                       jb: Callable[[BlockVector], BlockVector], gamma: float,
                       max_iterations: int, tol: float) -> BlockVector:
    def step(n: int, x: BlockVector) -> tuple:
        q = jb(x)
        ja = resolvents.apply(combine(2.0, q, -1.0, x), gamma)
        return (2.0 * distance(ja, q), q,
                combine(1.0, x, 1.0, combine(1.0, ja, -1.0, q)))

    return _full_sweep(step, construct(resolvents.dims), max_iterations, tol,
                       "full-mask splitting")


def _quadratic_pieces(fn) -> tuple[np.ndarray, np.ndarray] | None:
    """Hessian and linear term of a catalog function, when quadratic."""
    kind = getattr(fn, "kind", None)
    if kind == "zero":
        return np.zeros((fn.dim, fn.dim)), np.zeros(fn.dim)
    if kind == "sq_l2":
        h = fn.weight * np.eye(fn.dim)
        return h, -fn.weight * fn.center
    if kind == "quadratic":
        return fn.Q.copy(), fn.b.copy()
    return None


def oracle_reference(
    problem,
    max_iterations: int = 1_000_000,
    tol: float = 1e-12,
) -> BlockVector:
    """Deterministic full-sweep reference solution at desk scale.

    Forward-backward problems run the deterministic full-coordinate
    iteration at the cocoercivity stepsize; splitting problems run the
    deterministic full-mask iteration with unit relaxation; minimization
    problems whose terms are all quadratic are solved directly by linear
    algebra.  Raises when the budget is exhausted before the target
    residual, so a failed reference is reported rather than faked.
    """
    if isinstance(problem, CoupledMinProblem):
        _check_oracle_scale(problem.dims)
        pieces = [_quadratic_pieces(f) for f in problem.fs]
        smooth_pieces = [_quadratic_pieces(g.fn) for g in problem.smooth]
        if all(p is not None for p in pieces) and all(
            p is not None for p in smooth_pieces
        ):
            d = problem.dims.total
            H = np.zeros((d, d))
            rhs = np.zeros(d)
            for i, (hq, hb) in enumerate(pieces):
                sl = problem.dims.slice(i)
                H[sl, sl] += hq
                rhs[sl] -= hb
            Lm = problem.L.stacked
            Hg = np.zeros((problem.L.target_dims.total,) * 2)
            bg = np.zeros(problem.L.target_dims.total)
            for k, (gq, gb) in enumerate(smooth_pieces):
                sl = problem.L.target_dims.slice(k)
                Hg[sl, sl] += gq
                bg[sl] += gb
            H += Lm.T @ Hg @ Lm
            rhs -= Lm.T @ bg
            if np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 1e-10:
                return BlockVector._own(problem.dims, np.linalg.solve(H, rhs))
        B = problem.forward()
        return _full_fb_reference(problem.resolvents, B, B.theta,
                                  max_iterations, tol)

    if isinstance(problem, FbProblem):
        _check_oracle_scale(problem.dims)
        gamma = problem.B.theta if problem.B is not None else 1.0
        return _full_fb_reference(problem.resolvents, problem.B, gamma,
                                  max_iterations, tol)

    if isinstance(problem, DrProblem):
        _check_oracle_scale(problem.dims)
        return _full_dr_reference(problem.resolvents, problem.JB,
                                  problem.gamma, max_iterations, tol)

    if isinstance(problem, PdDrProblem):
        _check_oracle_scale(problem.k_dims)
        zk = _full_dr_reference(problem.resolvents, problem.project, 1.0,
                                max_iterations, tol)
        return BlockVector(problem.h_dims, zk.flat[: problem.h_dims.total])

    if isinstance(problem, KmProblem):
        _check_oracle_scale(problem.family.dims)

        def step(n: int, x: BlockVector) -> tuple:
            tx = problem.family.evaluate(n, x)
            return distance(tx, x), x, combine(0.5, x, 0.5, tx)

        return _full_sweep(step, problem.x0, max_iterations, tol,
                           "full-mask fixed point")

    raise CapabilityError(
        f"no reference route for {type(problem).__name__}"
    )


# ---------------------------------------------------------------------------
# Monte Carlo summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    residual: float | None
    distance_to_reference: float | None
    iterations: int | None
    termination: str | None
    error: str | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    outcomes: tuple[SeedOutcome, ...]
    success_fraction: float
    threshold: float
    metric: str
    residual_quantiles: dict
    distance_quantiles: dict | None


def _quantiles(values: Sequence[float]) -> dict:
    """``np.quantile``'s linear quantiles, ranked where a value is infinite.

    At ``h = (len - 1) q`` numpy interpolates between the sorted values at
    ``k = floor(h)`` and ``k + 1``, which is ``inf - inf`` or ``inf * 0``
    when one is infinite; the quantile is then the value at ``k`` for a
    whole ``h``, else the infinite one.
    """
    probs = {"min": 0.0, "q25": 0.25, "median": 0.5, "q75": 0.75, "max": 1.0}
    arr = np.asarray(sorted(values), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        qs = np.quantile(arr, list(probs.values())).tolist()
    for j, q in enumerate(probs.values()):
        h = (len(arr) - 1) * q
        k = math.floor(h)
        lo, hi = float(arr[k]), float(arr[min(k + 1, len(arr) - 1)])
        if math.isinf(lo) or math.isinf(hi):
            qs[j] = hi if h > k and math.isinf(hi) else lo
    return dict(zip(probs, qs))


def monte_carlo_summary(
    run_fn: Callable[[int], tuple[IterateTrace, float | None]],
    seeds: Sequence[int],
    threshold: float,
    metric: str = "auto",
) -> ConvergenceReport:
    """Replicate a run across seeds and aggregate the outcomes.

    ``run_fn(seed)`` returns the trace and an optional distance to a
    reference solution.  Success of a replica means its metric (distance
    when available, else final residual) is at or below the threshold; a
    diverged replica is never a success.
    Replica failures are recorded per seed and do not abort the summary,
    and the aggregation does not depend on the seed order.
    """
    if len(seeds) < 2:
        raise ParameterError("Monte Carlo summaries need at least 2 seeds")
    if metric not in ("auto", "residual", "distance"):
        raise ParameterError(f"unknown metric {metric!r}")
    outcomes = []
    for seed in seeds:
        try:
            trace, dist = run_fn(int(seed))
            outcomes.append(SeedOutcome(
                int(seed), trace.final_residual, dist, trace.iterations,
                trace.termination,
            ))
        except Exception as exc:  # noqa: BLE001 - replica errors are data
            outcomes.append(SeedOutcome(int(seed), None, None, None, None,
                                        error=f"{type(exc).__name__}: {exc}"))
    outcomes.sort(key=lambda o: o.seed)
    distances = [o.distance_to_reference for o in outcomes
                 if o.distance_to_reference is not None]
    residuals = [o.residual for o in outcomes if o.residual is not None]
    if metric == "auto":
        metric = "distance" if distances else "residual"
    successes = 0
    for o in outcomes:
        if o.error is not None or o.termination == "diverged":
            continue
        value = (o.distance_to_reference if metric == "distance"
                 else o.residual)
        if value is not None and value <= threshold:
            successes += 1
    return ConvergenceReport(
        tuple(outcomes),
        successes / len(outcomes),
        threshold,
        metric,
        _quantiles(residuals) if residuals else {},
        _quantiles(distances) if distances else None,
    )
