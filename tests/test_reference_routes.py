"""The diagnostics' reference sweeps and kept mask laws.

``oracle_reference`` iterates on flat arrays through the drivers' array
cores; here it is compared, element for element, with the same full-sweep
steps written on ``BlockVector``s with the public operations (``evaluate``,
``apply``, ``project``, ``combine``, ``distance``).  The exact expectation
checks share one mask law per rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep import Schedule, SolverConfig, sweeping

from conftest import random_catalog_function

TOL = 1e-10
BUDGET = 20_000


def _sweep_by_vectors(step, x):
    """The full sweep on ``BlockVector``s; None when the budget runs out."""
    with np.errstate(all="ignore"):
        for n in range(BUDGET):
            residual, answer, x = step(n, x)
            if residual < TOL:
                return answer
    return None


def _km_by_vectors(problem):
    def step(n, x):
        tx = problem.family.evaluate(n, x)
        return bs.distance(tx, x), x, bs.combine(0.5, x, 0.5, tx)

    return _sweep_by_vectors(step, problem.x0)


def _fb_by_vectors(problem):
    dims, B = problem.resolvents.dims, problem.B
    gamma = B.theta

    def step(n, x):
        arg = bs.BlockVector(dims, x.flat - gamma * B.apply(x).flat)
        nxt = problem.resolvents.apply(arg, gamma)
        return bs.distance(nxt, x), nxt, nxt

    return _sweep_by_vectors(step, bs.construct(dims))


def _dr_by_vectors(resolvents, jb, gamma):
    def step(n, x):
        q = jb(x)
        ja = resolvents.apply(bs.combine(2.0, q, -1.0, x), gamma)
        return (2.0 * bs.distance(ja, q), q,
                bs.combine(1.0, x, 1.0, bs.combine(1.0, ja, -1.0, q)))

    return _sweep_by_vectors(step, bs.construct(resolvents.dims))


def _positive_definite(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.3 * np.eye(d)


def _problem(kind, dims, rng):
    fs = [random_catalog_function(rng, d) for d in dims.dims]
    d = dims.total
    if kind == "km":
        return bs.KmProblem(bs.prox_family(fs, float(rng.uniform(0.3, 2.0))),
                            bs.BlockVector(dims, 3.0 * rng.standard_normal(d)))
    A = tuple(bs.Subdifferential(f) for f in fs)
    if kind == "fb":
        Q, b = _positive_definite(rng, d), rng.standard_normal(d)
        theta = 1.0 / float(np.linalg.eigvalsh(Q).max())
        B = bs.CocoerciveOperator(
            dims, lambda v: bs.BlockVector(dims, Q @ v.flat - b), theta)
        return bs.FbProblem(A, B, dims)
    if kind == "dr":
        coupling = bs.LinearMonotone(_positive_definite(rng, d),
                                     rng.standard_normal(d))
        gamma = float(rng.uniform(0.3, 2.0))
        return bs.DrProblem(
            A, lambda v: bs.BlockVector(dims, coupling.resolvent(v.flat, gamma)),
            gamma, dims)
    p = int(rng.integers(1, 3))
    L = bs.LinearBlockOperator([[rng.standard_normal((1, k)) for k in dims.dims]
                                for _ in range(p)])
    gs = [bs.SquaredDistance(rng.standard_normal(1), 1.0) for _ in range(p)]
    return bs.assemble_pd_problem(fs, gs, L)


def _by_vectors(kind, problem):
    if kind == "km":
        return _km_by_vectors(problem)
    if kind == "fb":
        return _fb_by_vectors(problem)
    if kind == "dr":
        return _dr_by_vectors(problem.resolvents, problem.JB, problem.gamma)
    zk = _dr_by_vectors(problem.resolvents, problem.project, 1.0)
    return None if zk is None else bs.BlockVector(
        problem.h_dims, zk.flat[:problem.h_dims.total])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["km", "fb", "dr", "pd_dr"]),
       dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_reference_equals_the_sweep_on_block_vectors(kind, dims, seed):
    dims = bs.BlockDims(dims)
    problem = _problem(kind, dims, np.random.default_rng(seed))
    expected = _by_vectors(kind, problem)
    if expected is None:
        with pytest.raises(bs.OracleFailureError):
            bs.oracle_reference(problem, max_iterations=BUDGET, tol=TOL)
        return
    ref = bs.oracle_reference(problem, max_iterations=BUDGET, tol=TOL)
    assert ref.dims == expected.dims
    assert ref.flat.tolist() == expected.flat.tolist()


def test_oracle_reference_rejects_a_starting_point_of_other_blocks():
    dims = bs.BlockDims([1, 2])
    x0 = bs.construct(bs.BlockDims([2, 1]), [[1.0, 2.0], [3.0]])
    # the identity family returns its input, so no step would notice
    identity = bs.forward_step_family(None, 1.0, dims)
    prox = bs.prox_family([bs.L1Norm(1), bs.L1Norm(2)], 1.0)
    for family in (identity, prox):
        with pytest.raises(bs.ShapeError, match="starting point"):
            bs.oracle_reference(bs.KmProblem(family, x0))


def _overflowing_problems():
    dims = bs.BlockDims([1])
    zero = (bs.Subdifferential(bs.Zero(1)),)
    yield bs.KmProblem(bs.affine_family(dims, [[4.0]]),
                       bs.construct(dims, [[1e300]]))
    yield bs.FbProblem(zero, bs.CocoerciveOperator(
        dims, lambda v: bs.BlockVector(dims, 1e300 - 4.0 * v.flat), 1.0), dims)
    yield bs.DrProblem(zero, lambda v: bs.BlockVector(dims, 4.0 * v.flat + 1e300),
                       1.0, dims)


@pytest.mark.parametrize("problem", list(_overflowing_problems()),
                         ids=["km", "fb", "dr"])
def test_a_diverging_reference_raises_quietly(problem):
    # the suite turns every RuntimeWarning into an error
    with pytest.raises(bs.NonFiniteError, match="must be finite"):
        bs.oracle_reference(problem)


def _counting_laws(monkeypatch):
    built = []
    real = sweeping.MaskLaw

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(sweeping, "MaskLaw", counting)
    return built


def test_one_rule_builds_its_mask_law_once(monkeypatch):
    built = _counting_laws(monkeypatch)
    dims = bs.BlockDims([2, 1, 2])
    rng = np.random.default_rng(6)
    T = bs.prox_family([random_catalog_function(rng, d) for d in dims.dims],
                       1.0)
    rule = bs.independent_bernoulli([0.3, 0.6, 0.5])
    cfg = SolverConfig(sweeping=rule, relaxation=Schedule(0.5),
                       max_iterations=4, tolerance=0.0, snapshot_stride=1,
                       seed=0)
    trace = bs.run_single_layer(T, cfg, bs.BlockVector(dims, rng.standard_normal(5)))
    z = bs.BlockVector(dims, rng.standard_normal(5))
    assert len(bs.expected_fejer_check(T, trace, z, rule)) == 4
    for j in range(3):
        x = bs.BlockVector(dims, rng.standard_normal(5))
        bs.expectation_identity_check(T, x, z, rule, iteration=j)
    assert len(built) == 1
    assert bs.mask_law(rule) is bs.mask_law(rule)
    # an equal rule is another object with its own law
    assert bs.mask_law(bs.independent_bernoulli([0.3, 0.6, 0.5])) is not \
        bs.mask_law(rule)
    assert len(built) == 2


def test_a_rule_of_another_block_count_is_a_shape_error(monkeypatch):
    built = _counting_laws(monkeypatch)
    dims = bs.BlockDims([1, 1, 1])
    T = bs.prox_family([bs.L1Norm(1)] * 3, 1.0)
    x = bs.construct(dims, [[1.0], [2.0], [3.0]])
    trace = bs.IterateTrace(
        (bs.TraceRecord(0, 0.0, (1, 1, 1), 0.5, None, None, None, x),),
        x, "max_iterations")
    # 21 blocks is past both enumeration limits, 4 is inside them
    for rule in (bs.independent_bernoulli([0.5] * 21), bs.single_block(4)):
        with pytest.raises(bs.ShapeError, match="rule must cover"):
            bs.expected_fejer_check(T, trace, x, rule)
        with pytest.raises(bs.ShapeError, match="rule must cover"):
            bs.expectation_identity_check(T, x, x, rule)
    assert built == []
