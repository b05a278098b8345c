"""Inclusion residuals by one resolvent sweep, against the per-block loops.

``inclusion_residual`` measures every blockwise membership through the
problem's own sweep.  ``loop_residual`` below keeps the per-block loops it
replaces, one resolvent call per block, as the reference; the reports must
agree by ``repr``, so every float keeps its bits.  Blocks mix the kinds the
sweep groups (``l1``, ``sq_l2``, box, ``zero``) with the kinds it calls one
block at a time (ball, ``quadratic``, ``linear_monotone``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs

from test_separable import (
    FUNCTION_KINDS,
    OPERATOR_KINDS,
    SEED,
    make_function,
    make_operator,
    make_smooth,
    point,
)


def _membership(op, point, value, gamma):
    return float(np.linalg.norm(point - op.resolvent(point + gamma * value,
                                                     gamma)))


def _fixed_point(A, x, bx, gamma):
    total = 0.0
    for i, op in enumerate(A):
        xi = x.block(i)
        j = op.resolvent(xi - gamma * bx.block(i), gamma)
        total += float(np.linalg.norm(xi - j)) ** 2
    return math.sqrt(total)


def loop_residual(problem, candidate):
    """The per-block loops ``inclusion_residual`` replaced."""
    pair = isinstance(candidate, bs.PrimalDualSolution)
    primal = candidate.primal if pair else candidate
    dual = candidate.dual if pair else None
    if isinstance(problem, bs.PdDrProblem):
        pullback = problem.L.adjoint(dual)
        res_a_sq = 0.0
        for i, op in enumerate(problem.h_ops):
            res_a_sq += _membership(op, primal.block(i), -pullback.block(i),
                                    1.0) ** 2
        image = problem.L.apply(primal)
        res_b_sq = 0.0
        for k, op in enumerate(problem.g_ops):
            res_b_sq += _membership(op, image.block(k), dual.block(k),
                                    1.0) ** 2
        return bs.InclusionReport(math.sqrt(res_a_sq), math.sqrt(res_b_sq))
    if isinstance(problem, bs.CoupledMinProblem):
        A, B = [bs.Subdifferential(f) for f in problem.fs], problem.forward()
        gamma = 1.0
    elif isinstance(problem, bs.FbProblem):
        A, B, gamma = list(problem.A), problem.B, 1.0
    else:
        A, B, gamma = list(problem.A), problem.B_forward, problem.gamma
    if dual is not None:
        res_a = max(_membership(A[i], primal.block(i), -dual.block(i), gamma)
                    for i in range(primal.dims.m))
    if isinstance(problem, bs.DrProblem) and B is None:
        res_b = bs.distance(primal, problem.JB(
            bs.combine(1.0, primal, gamma, dual)))
        return bs.InclusionReport(max(res_a, res_b), max(res_a, res_b))
    bx = B.apply(primal) if B is not None else bs.construct(primal.dims)
    primal_res = _fixed_point(A, primal, bx, gamma)
    if dual is None:
        return bs.InclusionReport(primal_res, None)
    res_b = float(np.linalg.norm(bx.flat - dual.flat))
    return bs.InclusionReport(primal_res, max(res_a, res_b))


def _grid(rows, dims, rng):
    return bs.LinearBlockOperator([[rng.standard_normal((r, d)) for d in dims]
                                   for r in rows])


def _forward(dims, rng):
    """A coupling gradient over ``dims``: two smooth rows through a grid."""
    rows = [int(rng.integers(1, 4)) for _ in range(2)]
    smooth = [make_smooth(("sq_l2", "quadratic")[k % 2], r, rng)
              for k, r in enumerate(rows)]
    return bs.coupling_forward_operator(_grid(rows, dims, rng), smooth)


def _operators(spec, rng):
    return tuple(make_operator(kind, dim, rng) for kind, dim in spec)


def make_problem(kind, spec, rng):
    dims = [dim for _, dim in spec]
    if kind == "fb_min":
        fs = tuple(make_function(k, d, rng) for k, d in spec)
        rows = [int(rng.integers(1, 4)) for _ in range(2)]
        smooth = tuple(make_smooth("sq_l2", r, rng) for r in rows)
        return bs.CoupledMinProblem(fs, smooth, _grid(rows, dims, rng))
    if kind == "pd_dr":
        h_ops = _operators(spec, rng)
        g_dims = [int(rng.integers(1, 4)) for _ in range(2)]
        g_ops = _operators([(OPERATOR_KINDS[int(rng.integers(8))], d)
                            for d in g_dims], rng)
        return bs.PdDrProblem(h_ops, g_ops, _grid(g_dims, dims, rng))
    A = _operators(spec, rng)
    bdims = bs.BlockDims(dims)
    if kind == "fb":
        return bs.FbProblem(A, _forward(dims, rng), bdims)
    if kind == "fb_no_forward":
        return bs.FbProblem(A, None, bdims)
    gamma = float(rng.uniform(0.2, 3.0))
    a = rng.standard_normal((bdims.total,) * 2)
    coupling = bs.LinearMonotone(a @ a.T / bdims.total,
                                 rng.standard_normal(bdims.total))

    def jb(v):
        return bs.BlockVector(bdims, coupling.resolvent(v.flat, gamma))

    forward = _forward(dims, rng) if kind == "dr" else None
    return bs.DrProblem(A, jb, gamma, bdims, forward)


KINDS = ("fb", "fb_no_forward", "fb_min", "dr", "dr_no_forward", "pd_dr")
# a point is enough only where a forward evaluation is known
POINT_KINDS = ("fb", "fb_no_forward", "fb_min", "dr")


def _forward_of(problem):
    if isinstance(problem, bs.CoupledMinProblem):
        return problem.forward()
    return problem.B if isinstance(problem, bs.FbProblem) else \
        problem.B_forward


def _candidates(problem, rng):
    """Points where the kind allows them, then pairs: ``(x, y)`` and,
    where a forward evaluation is known, ``(x, B x)``."""
    if isinstance(problem, bs.PdDrProblem):
        return [bs.PrimalDualSolution(point(problem.h_dims, rng),
                                      point(problem.g_dims, rng))]
    dims = problem.resolvents.dims
    x = point(dims, rng)
    pairs = [bs.PrimalDualSolution(x, point(dims, rng))]
    B = _forward_of(problem)
    if B is None:
        return pairs if isinstance(problem, bs.DrProblem) else [x] + pairs
    return [x] + pairs + [bs.PrimalDualSolution(x, B.apply(x))]


def _spec(kinds):
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(1, 12)),
                    min_size=1, max_size=10)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS), spec=_spec(OPERATOR_KINDS),
       fspec=_spec(FUNCTION_KINDS), seed=SEED)
def test_inclusion_residual_matches_the_per_block_loops(kind, spec, fspec,
                                                        seed):
    rng = np.random.default_rng(seed)
    problem = make_problem(kind, fspec if kind == "fb_min" else spec, rng)
    for candidate in _candidates(problem, rng):
        assert repr(bs.inclusion_residual(problem, candidate)) == \
            repr(loop_residual(problem, candidate))


def _on_other_blocks(v):
    """``v`` with one more block of dim 1."""
    return bs.BlockVector(bs.BlockDims(v.dims.dims + (1,)),
                          np.append(v.flat, 0.5))


@pytest.mark.parametrize("kind", KINDS)
def test_a_candidate_on_the_wrong_blocks_is_a_shape_error(kind):
    # the per-block loops measured only the problem's blocks of a longer
    # point, and indexed a missing operator for a longer pair
    rng = np.random.default_rng(3)
    last = "quadratic" if kind == "fb_min" else "linear_monotone"
    problem = make_problem(kind, [("l1", 1), ("ball", 2), (last, 1)], rng)
    pair = _candidates(problem, rng)[-1]
    x, y = pair.primal, pair.dual
    wrong = [bs.PrimalDualSolution(_on_other_blocks(x), y),
             bs.PrimalDualSolution(x, _on_other_blocks(y))]
    if kind in POINT_KINDS:
        wrong.append(_on_other_blocks(x))
    for candidate in wrong:
        with pytest.raises(bs.ShapeError, match="candidate does not match"):
            bs.inclusion_residual(problem, candidate)


def test_fb_min_uses_one_prox_sweep_for_resolvents_and_values():
    problem = bs.CoupledMinProblem(
        (bs.L1Norm(1, 0.5), bs.Quadratic([[2.0]], [1.0])),
        (bs.SmoothTerm.squared_distance(np.array([1.0])),),
        bs.LinearBlockOperator([[np.array([[1.0]]), np.array([[1.0]])]]))
    assert problem.resolvents.method == "prox"
    assert problem.resolvents.terms == problem.fs
