"""Grouped full sweeps against the per-block loop they replace.

``SeparableSweep`` maps blocks of one elementwise kind with one numpy call;
these tests keep the per-block loop as the reference and require equal
bits: ``np.array_equal`` for the maps and ``==`` for the objective.  Block
dims run from 1 to 12, so per-block sums of 8 and more entries reach
numpy's pairwise summation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep import cli, operators, solvers
from blocksweep.solvers import CoupledMinProblem, Schedule, SolverConfig

FUNCTION_KINDS = ("l1", "sq_l2", "box", "ball", "quadratic", "zero")
OPERATOR_KINDS = FUNCTION_KINDS + ("normal_cone", "linear_monotone")


class LoopSweep:
    """The per-block loop: one catalog call per block, in block order."""

    def __init__(self, terms, method):
        self.terms = tuple(terms)
        self.method = method
        self.dims = bs.BlockDims([t.dim for t in self.terms])

    def apply(self, x, gamma):
        return bs.construct(self.dims, [
            getattr(t, self.method)(x.block(i), gamma)
            for i, t in enumerate(self.terms)
        ])

    def values(self, x):
        return [t.value(x.block(i)) for i, t in enumerate(self.terms)]


def make_function(kind, dim, rng):
    if kind == "l1":
        return bs.L1Norm(dim, weight=float(rng.choice([0.0, 0.3, 1.7])))
    if kind == "sq_l2":
        return bs.SquaredDistance(rng.standard_normal(dim),
                                  weight=float(rng.uniform(0.1, 3.0)))
    if kind == "box":
        # sometimes wide enough to hold the point, so values are 0 or inf
        lo = -rng.uniform(0.0, 4.0, size=dim)
        return bs.BoxIndicator(lo, lo + rng.uniform(0.0, 8.0, size=dim))
    if kind == "ball":
        return bs.BallIndicator(rng.standard_normal(dim),
                                float(rng.uniform(0.2, 3.0)))
    if kind == "quadratic":
        a = rng.standard_normal((dim, dim))
        return bs.Quadratic(a @ a.T / dim, rng.standard_normal(dim))
    return bs.Zero(dim)


def make_operator(kind, dim, rng):
    if kind == "normal_cone":
        lo = -rng.uniform(0.0, 2.0, size=dim)
        return bs.BoxNormalCone(lo, lo + rng.uniform(0.0, 4.0, size=dim))
    if kind == "linear_monotone":
        a = rng.standard_normal((dim, dim))
        skew = rng.standard_normal((dim, dim))
        return bs.LinearMonotone(a @ a.T / dim + skew - skew.T,
                                 rng.standard_normal(dim))
    return bs.Subdifferential(make_function(kind, dim, rng))


def blocks(kinds):
    return st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(1, 12)),
        min_size=1, max_size=14,
    )


def point(dims, rng):
    scale = 10.0 ** rng.integers(-3, 3, size=dims.total)
    return bs.BlockVector(dims, rng.standard_normal(dims.total) * scale)


GAMMA = st.floats(0.05, 20.0, allow_nan=False)
SEED = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(spec=blocks(FUNCTION_KINDS), gamma=GAMMA, seed=SEED)
def test_prox_family_matches_loop(spec, gamma, seed):
    rng = np.random.default_rng(seed)
    fs = [make_function(k, d, rng) for k, d in spec]
    T = bs.prox_family(fs, gamma)
    x = point(T.dims, rng)
    expected = LoopSweep(fs, "prox").apply(x, gamma)
    assert np.array_equal(T.evaluate(0, x).flat, expected.flat)


@settings(max_examples=150, deadline=None)
@given(spec=blocks(OPERATOR_KINDS), gamma=GAMMA, seed=SEED)
def test_resolvent_sweeps_match_loop(spec, gamma, seed):
    rng = np.random.default_rng(seed)
    ops = [make_operator(k, d, rng) for k, d in spec]
    x = point(bs.BlockDims([op.dim for op in ops]), rng)
    expected = LoopSweep(ops, "resolvent").apply(x, gamma).flat
    family = bs.resolvent_family(ops, Schedule(gamma))
    assert np.array_equal(family.evaluate(3, x).flat, expected)
    assert np.array_equal(bs.blockwise_resolvent(ops, gamma)(x).flat,
                          expected)


@settings(max_examples=150, deadline=None)
@given(spec=blocks(FUNCTION_KINDS), seed=SEED)
def test_objective_matches_loop(spec, seed):
    rng = np.random.default_rng(seed)
    fs = tuple(make_function(k, d, rng) for k, d in spec)
    dims = bs.BlockDims([f.dim for f in fs])
    L = bs.LinearBlockOperator(
        [[rng.standard_normal((2, d)) for d in dims.dims] for _ in range(2)])
    smooth = (bs.SmoothTerm.squared_distance(rng.standard_normal(2), 0.7),
              bs.SmoothTerm.quadratic(np.eye(2), rng.standard_normal(2)))
    problem = CoupledMinProblem(fs, smooth, L)
    # points inside every box, so box values are 0.0, and arbitrary points
    inside = bs.BlockVector(dims, np.concatenate([
        np.clip(rng.standard_normal(f.dim), f.lo, f.hi)
        if isinstance(f, bs.BoxIndicator) else rng.standard_normal(f.dim)
        for f in fs]))
    for x in (inside, point(dims, rng)):
        y = L.apply(x)
        expected = sum(LoopSweep(fs, "prox").values(x))
        expected += sum(g.value(y.block(k)) for k, g in enumerate(smooth))
        assert problem.objective(x) == float(expected)


def test_sweep_checks_dims_and_gamma():
    fs = [bs.L1Norm(2), bs.Zero(1)]
    T = bs.prox_family(fs, 1.0)
    with pytest.raises(bs.ShapeError):
        T.evaluate(0, bs.construct(bs.BlockDims([1, 2])))
    with pytest.raises(bs.ParameterError):
        bs.prox_family(fs, -1.0).evaluate(0, bs.construct(T.dims))


def test_sweep_rejects_a_wrong_block_image():
    class Flat(bs.Zero):
        def prox(self, x, gamma):
            return np.zeros(self.dim + 1)

    with pytest.raises(bs.ShapeError, match="block 1"):
        bs.prox_family([bs.L1Norm(1), Flat(2)], 1.0).evaluate(
            0, bs.construct(bs.BlockDims([1, 2])))


def _mixed_min_problem(m, rng):
    kinds = ("l1", "sq_l2", "box", "zero", "ball", "quadratic")
    fs = []
    for i in range(m):
        d = int(rng.integers(1, 4))
        kind = kinds[i % len(kinds)]
        if kind == "box":
            fs.append(bs.BoxIndicator(-np.ones(d), np.ones(d)))
        elif kind == "ball":
            fs.append(bs.BallIndicator(np.zeros(d), 2.0))
        else:
            fs.append(make_function(kind, d, rng))
    dims = bs.BlockDims([f.dim for f in fs])
    grid = [[rng.standard_normal((3, d)) / np.sqrt(m) for d in dims.dims]
            for _ in range(2)]
    smooth = [bs.SmoothTerm.squared_distance(rng.standard_normal(3), 1.0)
              for _ in range(2)]
    return fs, smooth, bs.LinearBlockOperator(grid)


def _fb_min_trace_bytes(path, fs, smooth, L):
    B = CoupledMinProblem(tuple(fs), tuple(smooth), L).forward()
    cfg = SolverConfig(sweeping=bs.single_block(len(fs)),
                       relaxation=Schedule(0.9),
                       stepsize=Schedule(B.theta), tolerance=1e-12,
                       max_iterations=400, seed=3)
    trace = bs.run_fb_min(fs, smooth, L, cfg, bs.construct(L.source_dims))
    cli.write_trace(trace, str(path))
    return path.read_bytes()


def test_fb_min_trace_bytes_match_loop(tmp_path, monkeypatch):
    fs, smooth, L = _mixed_min_problem(50, np.random.default_rng(50))
    grouped = _fb_min_trace_bytes(tmp_path / "grouped.csv", fs, smooth, L)
    monkeypatch.setattr(operators, "SeparableSweep", LoopSweep)
    monkeypatch.setattr(solvers, "SeparableSweep", LoopSweep)
    looped = _fb_min_trace_bytes(tmp_path / "looped.csv", fs, smooth, L)
    assert grouped == looped
    rows = grouped.decode().splitlines()
    assert len(rows) == 401
    assert all(row.rsplit(",", 1)[1] not in ("", "inf") for row in rows[1:])


def test_dr_trace_matches_loop(monkeypatch):
    rng = np.random.default_rng(7)
    A = [make_operator(OPERATOR_KINDS[i % len(OPERATOR_KINDS)],
                       int(rng.integers(1, 4)), rng) for i in range(24)]
    coupling = [bs.Subdifferential(bs.SquaredDistance(
        rng.standard_normal(op.dim))) for op in A]
    dims = bs.BlockDims([op.dim for op in A])
    cfg = SolverConfig(sweeping=bs.single_block(dims.m), tolerance=0.0,
                       max_iterations=200, seed=1)

    def run():
        jb = bs.blockwise_resolvent(coupling, 0.8)
        trace, _ = bs.run_dr(A, jb, 0.8, cfg, point(dims,
                               np.random.default_rng(2)))
        return [r.residual for r in trace.records], trace.final.flat

    grouped = run()
    monkeypatch.setattr(operators, "SeparableSweep", LoopSweep)
    monkeypatch.setattr(solvers, "SeparableSweep", LoopSweep)
    looped = run()
    assert grouped[0] == looped[0]
    assert np.array_equal(grouped[1], looped[1])


SMOOTH_ROWS = st.lists(st.tuples(st.sampled_from(("sq_l2", "quadratic")),
                                 st.integers(1, 3)), min_size=1, max_size=8)


def make_smooth(kind, dim, rng):
    if kind == "sq_l2":
        return bs.SmoothTerm.squared_distance(
            rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 3),
            float(rng.uniform(0.1, 3.0)))
    a = rng.standard_normal((dim, dim))
    return bs.SmoothTerm.quadratic(a @ a.T, rng.standard_normal(dim))


@settings(max_examples=150, deadline=None)
@given(rows=SMOOTH_ROWS, cols=st.lists(st.integers(1, 3), min_size=1,
                                       max_size=5), seed=SEED)
def test_grouped_smooth_rows_match_row_loop(rows, cols, seed):
    rng = np.random.default_rng(seed)
    smooth = tuple(make_smooth(kind, dim, rng) for kind, dim in rows)
    L = bs.LinearBlockOperator([[rng.standard_normal((dim, c)) for c in cols]
                                for _, dim in rows])
    fs = tuple(bs.L1Norm(c, 0.5) for c in cols)
    problem = CoupledMinProblem(fs, smooth, L)
    x = point(L.source_dims, rng)
    # the per-row loop: one gradient and one value call per smooth row
    y = L.apply(x)
    grads = [g.gradient(y.block(k)) for k, g in enumerate(smooth)]
    expected = L.adjoint(bs.construct(L.target_dims, grads))
    assert np.array_equal(bs.forward_coupling_eval(L, smooth, x).flat,
                          expected.flat)
    assert np.array_equal(problem.forward().apply(x).flat, expected.flat)
    total = sum(LoopSweep(fs, "prox").values(x))
    total += sum(g.value(y.block(k)) for k, g in enumerate(smooth))
    assert problem.objective(x) == float(total)
