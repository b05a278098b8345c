import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep import Schedule, SolverConfig
from blocksweep.cli import write_trace
from blocksweep.solvers import as_schedule

from conftest import box_quadratic_m4, dr_1d, lasso_1d, pd_1d


def cfg_for(m, **kw):
    base = dict(sweeping=bs.single_block(m), seed=0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_constant_and_ramp():
    c = Schedule(0.5)
    assert c.at(0) == c.at(100) == 0.5
    assert c.bounds() == (0.5, 0.5)
    r = Schedule(1.0, 0.2, 4)
    assert r.at(0) == 1.0
    assert r.at(2) == pytest.approx(0.6)
    assert r.at(4) == r.at(50) == pytest.approx(0.2)
    assert r.bounds() == (0.2, 1.0)
    assert r.scaled(2.0).bounds() == (0.4, 2.0)


def test_schedule_validation():
    with pytest.raises(bs.ParameterError):
        Schedule(0.5, 0.2, None)
    with pytest.raises(bs.ParameterError):
        Schedule(0.5, 0.2, 0)
    assert as_schedule(0.25).at(3) == 0.25


# ---------------------------------------------------------------------------
# single layer
# ---------------------------------------------------------------------------


def test_single_layer_constant_map_converges_to_target():
    d = bs.BlockDims([2, 1])
    z = bs.construct(d, [[1.0, -1.0], [2.0]])
    T = bs.constant_family(z)
    trace = bs.run_single_layer(T, cfg_for(2, tolerance=1e-12,
                                           relaxation=Schedule(0.9)),
                                bs.construct(d))
    assert trace.termination == "tolerance"
    assert bs.distance(trace.final, z) <= 1e-11


def test_single_layer_halving_map_closed_form():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))
    cfg = cfg_for(1, relaxation=Schedule(0.5), tolerance=1e-6,
                  max_iterations=500)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[8.0]]))
    assert trace.termination == "tolerance"
    # x_{n+1} = x_n + 0.5 (x_n/2 - x_n) = 0.75 x_n, so x_n = 8 (3/4)^n and
    # the residual ||T x - x|| = x_n / 2 crosses 1e-6 at the first n with
    # 4 (3/4)^n < 1e-6, which is n = 53
    assert trace.iterations == 53
    for r in trace.records[:-1]:
        assert r.residual == pytest.approx(4.0 * 0.75 ** r.n, rel=1e-12)
    assert float(trace.final.flat[0]) == pytest.approx(8.0 * 0.75 ** 53,
                                                       rel=1e-12)


def test_single_layer_relaxation_bounds():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))
    with pytest.raises(bs.ParameterError, match="sup lambda_n < 1"):
        bs.run_single_layer(T, cfg_for(1, relaxation=Schedule(1.0)),
                            bs.construct(d))
    with pytest.raises(bs.ParameterError, match="inf lambda_n > 0"):
        bs.run_single_layer(T, cfg_for(1, relaxation=Schedule(0.0)),
                            bs.construct(d))


def test_single_layer_averaged_widened_relaxation():
    d = bs.BlockDims([1])
    prox = bs.prox_family([bs.SquaredDistance(np.array([2.0]))], 1.0)
    # alpha = 1/2 allows lambda up to 2; lambda = 1.5 gives alpha*lambda=0.75
    cfg = cfg_for(1, relaxation=Schedule(1.5), tolerance=1e-10)
    trace = bs.run_single_layer(prox, cfg, bs.construct(d))
    assert trace.termination == "tolerance"
    assert float(trace.final.flat[0]) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(bs.ParameterError, match="alpha_n"):
        bs.run_single_layer(prox, cfg_for(1, relaxation=Schedule(2.0)),
                            bs.construct(d))


def test_single_layer_synchronous_full_evaluation():
    # T couples the blocks; both outputs must read the pre-update iterate
    d = bs.BlockDims([1, 1])
    swap = bs.affine_family(d, np.array([[0.0, 1.0], [1.0, 0.0]]))
    seen = []
    orig = swap.evaluate

    def spy(n, x):
        seen.append(x.flat.copy())
        return orig(n, x)

    T = bs.BlockOperatorFamily(d, spy, "nonexpansive")
    cfg = cfg_for(2, relaxation=Schedule(0.5), max_iterations=3, tolerance=0.0)
    x0 = bs.construct(d, [[1.0], [5.0]])
    trace = bs.run_single_layer(T, cfg, x0)
    assert len(seen) == 3
    # replay: each evaluation argument is the previous full iterate
    x = x0
    for n, arg in enumerate(seen):
        assert np.array_equal(arg, x.flat)
        mask = bs.sample_mask(cfg.sweeping, n, cfg.seed)
        x = bs.masked_update(x, mask, 0.5, orig(n, x))
    assert x == trace.final


def test_single_layer_with_deterministic_errors_matches_manual():
    d = bs.BlockDims([1, 1])
    T = bs.affine_family(d, 0.5 * np.eye(2))
    model = bs.ErrorModel("deterministic_decay", scale=0.2, decay=0.5)
    cfg = cfg_for(2, relaxation=Schedule(0.5), max_iterations=4,
                  tolerance=0.0, errors={"a": model}, seed=9)
    x0 = bs.construct(d, [[4.0], [-2.0]])
    trace = bs.run_single_layer(T, cfg, x0)
    x = x0
    for n in range(4):
        mask = bs.sample_mask(cfg.sweeping, n, 9)
        a = bs.sample_error(model, d, n, 9, stream=1)
        target = bs.combine(1.0, T.evaluate(n, x), 1.0, a)
        x = bs.masked_update(x, mask, 0.5, target)
    assert x == trace.final


def test_trace_reproducibility_and_record_count():
    d = bs.BlockDims([2])
    T = bs.prox_family([bs.L1Norm(2, 0.3)], 1.0)
    cfg = cfg_for(1, relaxation=Schedule(0.7), max_iterations=50,
                  tolerance=1e-9, seed=12)
    x0 = bs.construct(d, [[2.0, -3.0]])
    t1 = bs.run_single_layer(T, cfg, x0)
    t2 = bs.run_single_layer(T, cfg, x0)
    assert t1 == t2
    assert len(t1.records) <= cfg.max_iterations + 1


def test_distance_to_reference_recorded():
    d = bs.BlockDims([1])
    ref = bs.construct(d, [[0.0]])
    T = bs.affine_family(d, np.array([[0.5]]))
    cfg = cfg_for(1, relaxation=Schedule(0.5), max_iterations=5,
                  tolerance=0.0, reference=ref)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[8.0]]))
    dists = [r.distance_to_reference for r in trace.records]
    assert dists[0] == 8.0
    assert dists == sorted(dists, reverse=True)


# ---------------------------------------------------------------------------
# double layer
# ---------------------------------------------------------------------------


def test_double_layer_identity_inner_equals_single_layer():
    d = bs.BlockDims([1, 1])
    T = bs.prox_family([bs.SquaredDistance(np.array([1.0])),
                        bs.L1Norm(1, 0.5)], 1.0)
    R = bs.forward_step_family(None, 1.0, d)
    cfg = cfg_for(2, relaxation=Schedule(0.5), max_iterations=200,
                  tolerance=1e-9, seed=4)
    x0 = bs.construct(d, [[5.0], [-3.0]])
    a = bs.run_single_layer(T, cfg, x0)
    b = bs.run_double_layer(T, R, cfg, x0)
    assert a == b


def test_double_layer_prox_inner_reaches_center():
    d = bs.BlockDims([2])
    c = np.array([1.0, -2.0])
    T = bs.forward_step_family(None, 1.0, d)  # identity outer
    R = bs.prox_family([bs.SquaredDistance(c)], 1.0)
    cfg = cfg_for(1, relaxation=Schedule(1.0), tolerance=1e-10,
                  max_iterations=2000)
    trace = bs.run_double_layer(T, R, cfg, bs.construct(d))
    assert np.allclose(trace.final.flat, c, atol=1e-9)


def test_double_layer_validation():
    d = bs.BlockDims([1])
    T = bs.prox_family([bs.L1Norm(1)], 1.0)
    R = bs.forward_step_family(None, 1.0, d)
    nonavg = bs.affine_family(d, np.array([[0.9]]))
    with pytest.raises(bs.ParameterError, match="averaged"):
        bs.run_double_layer(nonavg, R, cfg_for(1), bs.construct(d))
    with pytest.raises(bs.ParameterError, match="lambda_n"):
        bs.run_double_layer(T, R, cfg_for(1, relaxation=Schedule(1.5)),
                            bs.construct(d))
    alpha_one = bs.BlockOperatorFamily(d, lambda n, x: x, "averaged", 1.0)
    with pytest.raises(bs.ParameterError, match="sup alpha_n < 1"):
        bs.run_double_layer(alpha_one, R, cfg_for(1), bs.construct(d))


# ---------------------------------------------------------------------------
# splitting driver
# ---------------------------------------------------------------------------


def test_dr_1d_inclusion():
    suite = dr_1d()
    cfg = cfg_for(1, tolerance=1e-10)
    x0 = bs.construct(suite["dims"], [[8.0]])
    trace, sol = bs.run_dr(suite["A"], suite["jb"], suite["gamma"], cfg, x0)
    assert trace.termination == "tolerance"
    assert float(sol.primal.flat[0]) == pytest.approx(1.0, abs=1e-6)
    assert float(sol.dual.flat[0]) == pytest.approx(-1.0, abs=1e-6)


def test_dr_zero_backward_blocks_solves_coupled_zero():
    # A_i = 0, B x = x - 2: the primal point must satisfy B z = 0
    d = bs.BlockDims([1, 1])
    A = [bs.Subdifferential(bs.Zero(1)) for _ in range(2)]
    M = np.eye(2)
    coupling = bs.LinearMonotone(M, np.array([-2.0, -2.0]))
    jb = lambda v: bs.BlockVector(d, coupling.resolvent(v.flat, 0.7))
    cfg = cfg_for(2, tolerance=1e-10, seed=2)
    trace, sol = bs.run_dr(A, jb, 0.7, cfg, bs.construct(d))
    assert np.linalg.norm(coupling.apply(sol.primal.flat)) <= 1e-6


def test_dr_relaxation_bounds():
    suite = dr_1d()
    x0 = bs.construct(suite["dims"], [[0.0]])
    with pytest.raises(bs.ParameterError, match=r"\]0, 2\["):
        bs.run_dr(suite["A"], suite["jb"], 1.0,
                  cfg_for(1, dr_relaxation=Schedule(2.0)), x0)
    with pytest.raises(bs.ParameterError, match=r"\]0, 2\["):
        bs.run_dr(suite["A"], suite["jb"], 1.0,
                  cfg_for(1, dr_relaxation=Schedule(0.0)), x0)


def test_dr_rejects_expansive_coupled_resolvent():
    d = bs.BlockDims([1])
    A = [bs.Subdifferential(bs.Zero(1))]
    bad = lambda v: bs.BlockVector(d, 3.0 * v.flat)
    with pytest.raises(bs.ParameterError, match="nonexpansive"):
        bs.run_dr(A, bad, 1.0, cfg_for(1), bs.construct(d))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
def test_splitting_drivers_reject_a_gamma_that_is_not_positive(gamma):
    d = bs.BlockDims([1])
    A = [bs.Subdifferential(bs.Zero(1))]
    with pytest.raises(bs.ParameterError, match="gamma must be > 0"):
        bs.run_dr(A, lambda v: v, gamma, cfg_for(1), bs.construct(d))
    problem = pd_1d()["problem"]
    with pytest.raises(bs.ParameterError, match="gamma must be > 0"):
        bs.run_pd_dr(problem, gamma, cfg_for(2), bs.construct(d))


def test_dr_with_errors_matches_manual_recursion():
    d = bs.BlockDims([1, 1])
    A = [bs.Subdifferential(bs.L1Norm(1, 0.4)),
         bs.BoxNormalCone([-1.0], [1.0])]
    M = np.array([[1.2, 0.3], [0.3, 0.8]])
    coupling = bs.LinearMonotone(M, np.array([-1.0, 0.5]))
    gamma = 0.9
    jb = lambda v: bs.BlockVector(d, coupling.resolvent(v.flat, gamma))
    model_a = bs.ErrorModel("gaussian_decay", 0.05, 0.7)
    model_b = bs.ErrorModel("deterministic_decay", 0.03, 0.6)
    cfg = cfg_for(2, dr_relaxation=Schedule(1.3), max_iterations=6,
                  tolerance=0.0, seed=11,
                  errors={"a": model_a, "b": model_b})
    x0 = bs.construct(d, [[2.0], [-1.0]])
    trace, _ = bs.run_dr(A, jb, gamma, cfg, x0, check_resolvent=False)
    x, z = x0, bs.construct(d)
    for n in range(6):
        q = jb(x)
        mask = bs.sample_mask(cfg.sweeping, n, 11)
        b = bs.sample_error(model_b, d, n, 11, stream=2)
        z = bs.masked_update(z, mask, 1.0, bs.combine(1.0, q, 1.0, b))
        a = bs.sample_error(model_a, d, n, 11, stream=1)
        out = x.flat.copy()
        for i in mask.active:
            sl = d.slice(i)
            ji = A[i].resolvent(2.0 * z.flat[sl] - x.flat[sl], gamma)
            step = ji - z.flat[sl]
            step = step + a.flat[sl]
            out[sl] = x.flat[sl] + 1.3 * step
        x = bs.BlockVector(d, out)
    assert x == trace.final  # bitwise: same operations in the same order


def test_pd_dr_with_errors_matches_manual_recursion():
    # two primal blocks, one image block; all four error slots active
    rng = np.random.default_rng(6)
    grid = [[rng.standard_normal((2, 1)), rng.standard_normal((2, 1))]]
    L = bs.LinearBlockOperator(grid)
    problem = bs.assemble_pd_problem(
        [bs.L1Norm(1, 0.2), bs.SquaredDistance(np.array([1.0]))],
        [bs.BallIndicator(np.zeros(2), 1.5)], L)
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    gamma = 1.1
    models = {s: bs.ErrorModel("gaussian_decay", 0.04, 0.65)
              for s in ("a", "b", "c", "d")}
    cfg = SolverConfig(sweeping=bs.single_block(3), seed=13,
                       dr_relaxation=Schedule(0.7), max_iterations=5,
                       tolerance=0.0, errors=models)
    x0 = bs.construct(h, [[1.0], [2.0]])
    trace, _ = bs.run_pd_dr(problem, gamma, cfg, x0)
    # manual recursion over the paired state
    xk = bs.BlockVector(k, np.concatenate([x0.flat, L.apply(x0).flat]))
    zk = bs.construct(k)
    ops = problem.k_ops
    for n in range(5):
        xh = bs.BlockVector(h, xk.flat[:h.total])
        yg = bs.BlockVector(g, xk.flat[h.total:])
        t, lt = bs.graph_projection(problem.V, xh, yg)
        q = bs.BlockVector(k, np.concatenate([t.flat, lt.flat]))
        mask = bs.sample_mask(cfg.sweeping, n, 13)
        zerr = bs.BlockVector(k, np.concatenate([
            bs.sample_error(models["c"], h, n, 13, stream=3).flat,
            bs.sample_error(models["d"], g, n, 13, stream=4).flat]))
        zk = bs.masked_update(zk, mask, 1.0, bs.combine(1.0, q, 1.0, zerr))
        xerr = bs.BlockVector(k, np.concatenate([
            bs.sample_error(models["a"], h, n, 13, stream=1).flat,
            bs.sample_error(models["b"], g, n, 13, stream=2).flat]))
        out = xk.flat.copy()
        for i in mask.active:
            sl = k.slice(i)
            ji = ops[i].resolvent(2.0 * zk.flat[sl] - xk.flat[sl], gamma)
            step = ji - zk.flat[sl]
            step = step + xerr.flat[sl]
            out[sl] = xk.flat[sl] + 0.7 * step
        xk = bs.BlockVector(k, out)
    assert xk == trace.final


def test_double_layer_inner_error_slot_matches_manual():
    d = bs.BlockDims([1, 1])
    T = bs.prox_family([bs.L1Norm(1, 0.3), bs.Zero(1)], 1.0)
    R = bs.prox_family([bs.SquaredDistance(np.array([1.0])),
                        bs.SquaredDistance(np.array([-1.0]))], 1.0)
    model = bs.ErrorModel("gaussian_decay", 0.1, 0.5)
    cfg = cfg_for(2, relaxation=Schedule(0.8), max_iterations=4,
                  tolerance=0.0, seed=21, errors={"b": model})
    x0 = bs.construct(d, [[3.0], [3.0]])
    trace = bs.run_double_layer(T, R, cfg, x0)
    x = x0
    for n in range(4):
        b = bs.sample_error(model, d, n, 21, stream=2)
        y = bs.combine(1.0, R.evaluate(n, x), 1.0, b)
        target = T.evaluate(n, y)
        mask = bs.sample_mask(cfg.sweeping, n, 21)
        x = bs.masked_update(x, mask, 0.8, target)
    assert x == trace.final


def test_error_slots_checked_per_driver():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))
    bad = cfg_for(1, relaxation=Schedule(0.5),
                  errors={"b": bs.ErrorModel("gaussian_decay", 0.1, 0.5)})
    with pytest.raises(bs.ParameterError, match="error slots"):
        bs.run_single_layer(T, bad, bs.construct(d))
    A = [bs.Subdifferential(bs.Zero(1))]
    bad_fb = cfg_for(1, stepsize=Schedule(1.0),
                     errors={"d": bs.ErrorModel("gaussian_decay", 0.1, 0.5)})
    with pytest.raises(bs.ParameterError, match="error slots"):
        bs.run_fb(A, None, bad_fb, bs.construct(d))
    # the forward slot "c" is accepted and forwarded by the delegation
    ok_fb = cfg_for(1, relaxation=Schedule(1.0), stepsize=Schedule(1.0),
                    max_iterations=10, tolerance=0.0,
                    errors={"c": bs.ErrorModel("gaussian_decay", 0.1, 0.5)})
    bs.run_fb(A, None, ok_fb, bs.construct(d))


# ---------------------------------------------------------------------------
# primal-dual splitting
# ---------------------------------------------------------------------------


def test_assemble_pd_problem_shapes_and_zero_row_rejection():
    L = [[np.array([[1.0]]), np.array([[1.0]])]]
    prob = bs.assemble_pd_problem([bs.L1Norm(1), bs.L1Norm(1)],
                                  [bs.SquaredDistance(np.array([2.0]))], L)
    assert prob.k_dims.total == 3
    with pytest.raises(bs.ParameterError, match="zero"):
        bs.assemble_pd_problem([bs.Zero(1)], [bs.Zero(1)],
                               [[np.array([[0.0]])]])
    with pytest.raises(bs.ShapeError):
        bs.assemble_pd_problem([bs.L1Norm(2)], [bs.Zero(1)],
                               [[np.array([[1.0]])]])


def test_pd_dr_matches_dr_on_shared_instance():
    pd = pd_1d()
    d = bs.BlockDims([1])
    cfg = SolverConfig(sweeping=bs.single_block(2), tolerance=1e-10, seed=3)
    trace, sol = bs.run_pd_dr(pd["problem"], 1.0, cfg,
                              bs.construct(d, [[5.0]]))
    assert trace.termination == "tolerance"
    assert float(sol.primal.flat[0]) == pytest.approx(1.0, abs=1e-6)
    assert float(sol.dual.flat[0]) == pytest.approx(-1.0, abs=1e-6)


def test_pd_dr_degenerate_zero_functions():
    L = [[np.array([[1.0]])]]
    prob = bs.assemble_pd_problem([bs.Zero(1)], [bs.Zero(1)], L)
    d = bs.BlockDims([1])
    cfg = SolverConfig(sweeping=bs.single_block(2), tolerance=1e-11, seed=0)
    trace, sol = bs.run_pd_dr(prob, 1.0, cfg, bs.construct(d, [[3.0]]))
    rep = bs.inclusion_residual(prob, sol)
    assert rep.primal_res <= 1e-8
    assert rep.dual_res <= 1e-8


def test_pd_dr_requires_rule_over_all_blocks():
    pd = pd_1d()
    d = bs.BlockDims([1])
    cfg = SolverConfig(sweeping=bs.single_block(1))
    with pytest.raises(bs.ShapeError, match="sweeping rule"):
        bs.run_pd_dr(pd["problem"], 1.0, cfg, bs.construct(d))


# ---------------------------------------------------------------------------
# forward-backward
# ---------------------------------------------------------------------------


def test_fb_without_forward_is_proximal_point():
    d = bs.BlockDims([1])
    A = [bs.Subdifferential(bs.L1Norm(1))]
    cfg = cfg_for(1, relaxation=Schedule(1.0), stepsize=Schedule(1.0),
                  tolerance=1e-12, max_iterations=500)
    trace = bs.run_fb(A, None, cfg, bs.construct(d, [[5.0]]))
    assert trace.termination == "tolerance"
    assert abs(float(trace.final.flat[0])) <= 1e-11


def test_fb_1d_halved_l1():
    # 0 in 0.5 sign(x) + x - 1 has the solution 0.5
    d = bs.BlockDims([1])
    A = [bs.Subdifferential(bs.L1Norm(1, weight=0.5))]
    B = bs.CocoerciveOperator(
        d, lambda v: bs.BlockVector(d, v.flat - 1.0), 1.0)
    cfg = cfg_for(1, relaxation=Schedule(1.0), stepsize=Schedule(1.0),
                  tolerance=1e-9)
    trace = bs.run_fb(A, B, cfg, bs.construct(d))
    assert float(trace.final.flat[0]) == pytest.approx(0.5, abs=1e-8)


def test_fb_stepsize_bounds():
    box = box_quadratic_m4()
    cfg = cfg_for(4, relaxation=Schedule(0.9),
                  stepsize=Schedule(2.0 * box["theta"]))
    with pytest.raises(bs.ParameterError, match=r"\]0, 2\*theta\["):
        bs.run_fb(box["A"], box["B"], cfg, bs.construct(box["dims"]))
    with pytest.raises(bs.ParameterError, match="stepsize"):
        bs.run_fb(box["A"], box["B"], cfg_for(4), bs.construct(box["dims"]))


def test_fb_rejects_wrong_cocoercivity_constant():
    d = bs.BlockDims([1])
    A = [bs.Subdifferential(bs.Zero(1))]
    # claims theta=1 but the map 4x is only 1/4-cocoercive
    B = bs.CocoerciveOperator(d, lambda v: bs.BlockVector(d, 4.0 * v.flat), 1.0)
    with pytest.raises(bs.ParameterError, match="cocoercivity"):
        bs.run_fb(A, B, cfg_for(1, stepsize=Schedule(0.5)), bs.construct(d))


def test_fb_engine_equivalence_bit_identical():
    box = box_quadratic_m4()
    gamma = Schedule(box["theta"])
    cfg = cfg_for(4, relaxation=Schedule(0.9), stepsize=gamma,
                  tolerance=1e-9, seed=7)
    x0 = bs.construct(box["dims"], [[0.5], [0.5], [0.5], [0.5]])
    direct = bs.run_fb(box["A"], box["B"], cfg, x0)
    T = bs.resolvent_family(box["A"], gamma)
    R = bs.forward_step_family(box["B"], gamma)
    layered = bs.run_double_layer(T, R, cfg, x0, stepsize_for_trace=gamma)
    assert direct == layered


def test_fb_forward_errors_match_manual_recursion():
    d = bs.BlockDims([1, 1])
    A = [bs.Subdifferential(bs.L1Norm(1, 0.2)),
         bs.Subdifferential(bs.Zero(1))]
    Q = np.array([[1.0, 0.2], [0.2, 0.5]])
    b = np.array([1.0, -0.5])
    theta = 1.0 / float(np.linalg.eigvalsh(Q).max())
    B = bs.CocoerciveOperator(d, lambda v: bs.BlockVector(d, Q @ v.flat - b),
                              theta)
    model = bs.ErrorModel("gaussian_decay", scale=0.05, decay=0.6)
    gamma = Schedule(theta)
    cfg = cfg_for(2, relaxation=Schedule(0.8), stepsize=gamma,
                  max_iterations=6, tolerance=0.0, seed=5,
                  errors={"c": model, "a": model})
    x0 = bs.construct(d, [[1.0], [1.0]])
    trace = bs.run_fb(A, B, cfg, x0)
    x = x0
    for n in range(6):
        mask = bs.sample_mask(cfg.sweeping, n, 5)
        c = bs.sample_error(model, d, n, 5, stream=3)
        a = bs.sample_error(model, d, n, 5, stream=1)
        g = gamma.at(n)
        parts = []
        for i, op in enumerate(A):
            arg = x.block(i) - g * (B.apply(x).block(i) + c.block(i))
            parts.append(op.resolvent(arg, g))
        target = bs.combine(1.0, bs.construct(d, parts), 1.0, a)
        x = bs.masked_update(x, mask, 0.8, target)
    assert bs.distance(x, trace.final) <= 1e-12


def test_fb_min_lasso_objective_decreases():
    suite = lasso_1d()
    cfg = cfg_for(1, relaxation=Schedule(0.9), stepsize=Schedule(1.0),
                  tolerance=1e-10, snapshot_stride=1)
    trace = bs.run_fb_min(suite["fs"], suite["smooth"], suite["L"], cfg,
                          bs.construct(bs.BlockDims([1])))
    assert float(trace.final.flat[0]) == pytest.approx(0.5, abs=1e-6)
    objs = [r.objective for r in trace.records if r.objective is not None]
    assert objs, "objective must be recorded"
    for prev, nxt in zip(objs, objs[1:]):
        assert nxt <= prev + 1e-12


def test_fb_min_zero_prox_matches_linear_solve():
    rng = np.random.default_rng(8)
    Q = rng.standard_normal((3, 3))
    Q = Q @ Q.T + 0.5 * np.eye(3)
    b = rng.standard_normal(3)
    fs = [bs.Zero(1) for _ in range(3)]
    smooth = [bs.SmoothTerm.quadratic(Q, b)]
    # identity embedding: one image block of dim 3 split over three columns
    L = bs.LinearBlockOperator([[np.eye(3, 1), np.eye(3, 1, k=-1),
                                 np.eye(3, 1, k=-2)]])
    theta = bs.cocoercivity_bound(L, [smooth[0].lipschitz])
    cfg = SolverConfig(sweeping=bs.single_block(3), relaxation=Schedule(0.9),
                       stepsize=Schedule(theta), tolerance=1e-11, seed=1)
    trace = bs.run_fb_min(fs, smooth, L, cfg,
                          bs.construct(bs.BlockDims([1, 1, 1])))
    expected = np.linalg.solve(Q, -b)
    assert np.linalg.norm(trace.final.flat - expected) <= 1e-8


def test_cross_algorithm_pd_vs_fb_on_coupled_instance():
    # one nontrivial objective, three independent routes: the proximal
    # gradient driver, the primal-dual splitting driver, and the
    # deterministic full-sweep reference must all land on the same point
    L11 = np.array([[1.0, 0.4], [-0.2, 0.9]])
    L12 = np.array([[0.7], [0.3]])
    L = bs.LinearBlockOperator([[L11, L12]])
    fs = (bs.L1Norm(2, weight=0.05),
          bs.SquaredDistance(np.array([0.3]), weight=0.5))
    center = np.array([1.0, -0.5])
    smooth = (bs.SmoothTerm.squared_distance(center, 1.0),)
    min_problem = bs.CoupledMinProblem(fs, smooth, L)
    reference = bs.oracle_reference(min_problem)

    theta = bs.cocoercivity_bound(L, [1.0])
    cfg_fb = SolverConfig(sweeping=bs.single_block(2), seed=3,
                          relaxation=Schedule(0.9),
                          stepsize=Schedule(theta), tolerance=1e-10)
    fb_trace = bs.run_fb_min(fs, smooth, L, cfg_fb,
                             bs.construct(bs.BlockDims([2, 1])))

    pd_problem = bs.assemble_pd_problem(
        list(fs), [bs.SquaredDistance(center, 1.0)], L)
    cfg_pd = SolverConfig(sweeping=bs.single_block(3), seed=3,
                          dr_relaxation=Schedule(1.0), tolerance=1e-10)
    _, pd_sol = bs.run_pd_dr(pd_problem, 1.0, cfg_pd,
                             bs.construct(bs.BlockDims([2, 1])))

    assert bs.distance(fb_trace.final, reference) <= 1e-5
    assert bs.distance(pd_sol.primal, reference) <= 1e-5
    # the splitting route also certifies optimality through its dual point
    rep = bs.inclusion_residual(pd_problem, pd_sol)
    assert rep.primal_res <= 1e-5 and rep.dual_res <= 1e-5


def test_pd_dr_is_the_paired_space_splitting_bitwise():
    # with no errors the primal-dual driver must produce exactly the trace
    # of the plain splitting driver run on the paired space
    pd = pd_1d()
    problem = pd["problem"]
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    gamma = 1.0

    def jb(v):
        xh = bs.BlockVector(h, v.flat[:h.total])
        yg = bs.BlockVector(g, v.flat[h.total:])
        t, lt = bs.graph_projection(problem.V, xh, yg)
        return bs.BlockVector(k, np.concatenate([t.flat, lt.flat]))

    cfg = SolverConfig(sweeping=bs.single_block(2), seed=8,
                       dr_relaxation=Schedule(1.1), tolerance=1e-9)
    x0 = bs.construct(h, [[4.0]])
    y0 = problem.L.apply(x0)
    xk0 = bs.BlockVector(k, np.concatenate([x0.flat, y0.flat]))
    pd_trace, _ = bs.run_pd_dr(problem, gamma, cfg, x0)
    dr_trace, _ = bs.run_dr(problem.k_ops, jb, gamma, cfg, xk0,
                            check_resolvent=False)
    assert pd_trace == dr_trace


def test_fb_min_rejects_zero_grid_row():
    fs = [bs.Zero(1)]
    smooth = [bs.SmoothTerm.squared_distance(np.array([0.0]))]
    cfg = cfg_for(1, stepsize=Schedule(0.1))
    with pytest.raises(bs.ParameterError, match="zero"):
        bs.run_fb_min(fs, smooth, [[np.array([[0.0]])]], cfg,
                      bs.construct(bs.BlockDims([1])))


def test_solver_config_validation():
    with pytest.raises(bs.ParameterError):
        SolverConfig(sweeping=bs.single_block(1), max_iterations=0)
    with pytest.raises(bs.ParameterError):
        SolverConfig(sweeping=bs.single_block(1), errors={"q": bs.ErrorModel()})


def test_coupled_min_problem_checks_functions_against_grid():
    L = bs.LinearBlockOperator([[np.eye(1), np.eye(1)]])
    smooth = (bs.SmoothTerm.squared_distance(np.zeros(1)),)
    with pytest.raises(bs.ShapeError, match="need 2 functions, got 1"):
        bs.CoupledMinProblem((bs.L1Norm(1),), smooth, L)
    with pytest.raises(bs.ShapeError, match="function 1 has dim 2"):
        bs.CoupledMinProblem((bs.L1Norm(1), bs.L1Norm(2)), smooth, L)
    problem = bs.CoupledMinProblem((bs.L1Norm(1), bs.Zero(1)), smooth, L)
    assert problem.forward() is problem.forward()
    assert problem.resolvents.dims == problem.dims


# ---------------------------------------------------------------------------
# every driver's step leaves the inactive blocks untouched
# ---------------------------------------------------------------------------

STEP_DIMS = bs.BlockDims([1, 2, 1, 3])
STEP_ERRORS = {slot: bs.ErrorModel("gaussian_decay", 0.3, 0.9)
               for slot in "abcd"}


def _one_step_cfg(m, seed, slots):
    return SolverConfig(
        sweeping=bs.independent_bernoulli([0.5] * m), seed=seed,
        max_iterations=1, tolerance=0.0,
        errors={s: STEP_ERRORS[s] for s in slots})


def _assert_inactive_kept(trace, start):
    mask = trace.records[0].mask
    assert mask is not None and trace.iterations == 1
    for i, bit in enumerate(mask):
        if not bit:
            assert trace.final.block(i).tobytes() == start.block(i).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_driver_step_keeps_inactive_blocks_bit_identical(seed):
    rng = np.random.default_rng(seed)
    d = STEP_DIMS
    x0 = bs.BlockVector(d, rng.standard_normal(d.total))
    # a dense map, so every block's target moves with every other block
    S = 0.3 * rng.standard_normal((d.total, d.total))
    T = bs.affine_family(d, S, rng.standard_normal(d.total))
    trace = bs.run_single_layer(T, _one_step_cfg(4, seed, "a"), x0)
    _assert_inactive_kept(trace, x0)

    fs = [bs.L1Norm(1, 0.2), bs.SquaredDistance(np.ones(2)),
          bs.BoxIndicator([-0.5], [0.5]), bs.L1Norm(3, 0.4)]
    outer, inner = bs.prox_family(fs, 0.8), bs.prox_family(fs, 1.3)
    trace = bs.run_double_layer(outer, inner, _one_step_cfg(4, seed, "ab"),
                                x0)
    _assert_inactive_kept(trace, x0)

    M = S @ S.T + np.eye(d.total)
    coupling = bs.LinearMonotone(M, rng.standard_normal(d.total))
    jb = lambda v: bs.BlockVector(d, coupling.resolvent(v.flat, 0.9))
    trace, _ = bs.run_dr([bs.Subdifferential(f) for f in fs], jb, 0.9,
                         _one_step_cfg(4, seed, "ab"), x0)
    _assert_inactive_kept(trace, x0)

    L = [[rng.standard_normal((2, 1)), rng.standard_normal((2, 2))]]
    problem = bs.assemble_pd_problem([bs.L1Norm(1), bs.L1Norm(2, 0.5)],
                                     [bs.SquaredDistance(np.ones(2))], L)
    h, g = problem.h_dims, problem.g_dims
    xh = bs.BlockVector(h, rng.standard_normal(h.total))
    yg = bs.BlockVector(g, rng.standard_normal(g.total))
    trace, _ = bs.run_pd_dr(problem, 0.7, _one_step_cfg(3, seed, "abcd"),
                            xh, y0=yg)
    _assert_inactive_kept(
        trace, bs.BlockVector(problem.k_dims,
                              np.concatenate([xh.flat, yg.flat])))


# ---------------------------------------------------------------------------
# the splitting step, block by block
# ---------------------------------------------------------------------------


def _split_operator(i, dim, rng):
    kind = i % 4
    if kind == 0:
        return bs.Subdifferential(bs.L1Norm(dim, 0.3))
    if kind == 1:
        return bs.BoxNormalCone(-np.ones(dim), np.ones(dim))
    a = rng.standard_normal((dim, dim))
    if kind == 2:
        return bs.LinearMonotone(a @ a.T + a - a.T, rng.standard_normal(dim))
    return bs.Subdifferential(bs.Quadratic(a @ a.T, rng.standard_normal(dim)))


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_splitting_step_matches_per_block_resolvent_loop(dims, seed):
    rng = np.random.default_rng(seed)
    d = bs.BlockDims(dims)
    A = [_split_operator(i, dim, rng) for i, dim in enumerate(dims)]
    S = rng.standard_normal((d.total, d.total))
    coupling = bs.LinearMonotone(S @ S.T, rng.standard_normal(d.total))
    gamma, mu = 0.8, 1.2
    jb = lambda v: bs.BlockVector(d, coupling.resolvent(v.flat, gamma))
    model_a = bs.ErrorModel("gaussian_decay", 0.1, 0.8)
    model_b = bs.ErrorModel("gaussian_decay", 0.2, 0.9)
    cfg = SolverConfig(sweeping=bs.independent_bernoulli([0.6] * d.m),
                       dr_relaxation=Schedule(mu), max_iterations=8,
                       tolerance=0.0, snapshot_stride=1, seed=seed,
                       errors={"a": model_a, "b": model_b})
    x0 = bs.BlockVector(d, rng.standard_normal(d.total))
    trace, _ = bs.run_dr(A, jb, gamma, cfg, x0, check_resolvent=False)
    xs = trace.snapshots()
    assert len(trace.records) == 8 and len(xs) == 9
    for n, record in enumerate(trace.records):
        x, nxt = xs[n].flat, xs[n + 1].flat
        q = jb(xs[n]).flat
        a = bs.sample_error(model_a, d, n, seed, stream=1).flat
        b = bs.sample_error(model_b, d, n, seed, stream=2).flat
        for i, bit in enumerate(record.mask):
            sl = d.slice(i)
            if not bit:
                assert nxt[sl].tobytes() == x[sl].tobytes()
                continue
            z = q[sl] + b[sl]
            ji = A[i].resolvent(2.0 * z - x[sl], gamma)
            assert np.array_equal(nxt[sl], x[sl] + mu * (ji - z + a[sl]))


SPLIT_RULES = {
    "single_block": lambda m: bs.single_block(m),
    "independent_bernoulli": lambda m: bs.independent_bernoulli([0.5] * m),
    "fixed_subset_size": lambda m: bs.fixed_subset_size(m, 2),
}


def _assert_error_free_step(trace, ops, jb, gamma, mu, a_draw):
    """Every update is ``x_i + mu (J_{gamma A_i}(2q_i - x_i) - q_i + a_i)``
    with ``q = jb(x)`` and ``a = a_draw(n)``, bit for bit."""
    xs = trace.snapshots()
    dims = xs[0].dims
    assert len(trace.records) == 6 and len(xs) == 7
    for n, record in enumerate(trace.records):
        x, nxt = xs[n].flat, xs[n + 1].flat
        q = jb(xs[n])
        a = a_draw(n)
        for i, bit in enumerate(record.mask):
            sl = dims.slice(i)
            if not bit:
                assert nxt[sl].tobytes() == x[sl].tobytes()
                continue
            delta = ops[i].resolvent(2.0 * q[sl] - x[sl], gamma) - q[sl]
            if a is not None:
                delta = delta + a[sl]
            assert nxt[sl].tobytes() == (x[sl] + mu * delta).tobytes()


def _split_cfg(rule, mu, seed, slots):
    model = bs.ErrorModel("gaussian_decay", 0.1, 0.8)
    return model, SolverConfig(
        sweeping=rule, dr_relaxation=Schedule(mu), max_iterations=6,
        tolerance=0.0, snapshot_stride=1, seed=seed,
        errors={slot: model for slot in slots})


@pytest.mark.parametrize("slots", ["", "a"])
@pytest.mark.parametrize("scheme", sorted(SPLIT_RULES))
def test_error_free_splitting_step_matches_per_block_rule(scheme, slots):
    # without a b draw the step reads the resolvents the residual swept
    rng = np.random.default_rng(21)
    dims = [2, 1, 3, 2, 1, 2, 1, 1]
    d = bs.BlockDims(dims)
    A = [_split_operator(i, dim, rng) for i, dim in enumerate(dims)]
    S = rng.standard_normal((d.total, d.total))
    coupling = bs.LinearMonotone(S @ S.T, rng.standard_normal(d.total))
    gamma, mu, seed = 0.8, 1.2, 17
    model, cfg = _split_cfg(SPLIT_RULES[scheme](d.m), mu, seed, slots)
    jb = lambda v: bs.BlockVector(d, coupling.resolvent(v.flat, gamma))
    trace, _ = bs.run_dr(A, jb, gamma, cfg,
                         bs.BlockVector(d, rng.standard_normal(d.total)),
                         check_resolvent=False)

    def a_draw(n):
        if slots:
            return bs.sample_error(model, d, n, seed, stream=1).flat
        return None

    _assert_error_free_step(trace, A, lambda v: jb(v).flat, gamma, mu,
                            a_draw)


@pytest.mark.parametrize("slots", ["", "a"])
@pytest.mark.parametrize("scheme", sorted(SPLIT_RULES))
def test_error_free_pd_splitting_step_matches_per_block_rule(scheme, slots):
    rng = np.random.default_rng(22)
    a = rng.standard_normal((2, 2))
    L = bs.LinearBlockOperator([[rng.standard_normal((2, 2)),
                                 rng.standard_normal((2, 1))],
                                [rng.standard_normal((1, 2)),
                                 rng.standard_normal((1, 1))]])
    problem = bs.assemble_pd_problem(
        [bs.LinearMonotone(a @ a.T + a - a.T, rng.standard_normal(2)),
         bs.L1Norm(1, 0.3)],
        [bs.Quadratic(a @ a.T, rng.standard_normal(2)),
         bs.BoxIndicator([-1.0], [1.0])], L)
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    gamma, mu, seed = 0.9, 1.3, 19
    model, cfg = _split_cfg(SPLIT_RULES[scheme](k.m), mu, seed, slots)
    trace, _ = bs.run_pd_dr(problem, gamma, cfg,
                            bs.BlockVector(h, rng.standard_normal(h.total)))

    def jb(v):
        t, lt = bs.graph_projection(
            problem.V, bs.BlockVector(h, v.flat[:h.total]),
            bs.BlockVector(g, v.flat[h.total:]))
        return np.concatenate([t.flat, lt.flat])

    def a_draw(n):
        # the "a" slot draws on the primal blocks; the image blocks' is "b"
        if slots:
            return np.concatenate([
                bs.sample_error(model, h, n, seed, stream=1).flat,
                np.zeros(g.total)])
        return None

    _assert_error_free_step(trace, problem.k_ops, jb, gamma, mu, a_draw)


def test_paired_projector_is_the_graph_projection_joined():
    rng = np.random.default_rng(23)
    L = bs.LinearBlockOperator([[rng.standard_normal((2, 1)),
                                 rng.standard_normal((2, 2))]])
    problem = bs.assemble_pd_problem([bs.L1Norm(1), bs.L1Norm(2)],
                                     [bs.SquaredDistance(np.zeros(2))], L)
    h, g, k = problem.h_dims, problem.g_dims, problem.k_dims
    v = bs.BlockVector(k, rng.standard_normal(k.total))
    t, lt = bs.graph_projection(problem.V,
                                bs.BlockVector(h, v.flat[:h.total]),
                                bs.BlockVector(g, v.flat[h.total:]))
    out = problem.project(v)
    assert out.dims == k
    assert out.flat.tobytes() == np.concatenate([t.flat, lt.flat]).tobytes()
    with pytest.raises(bs.ShapeError):
        problem.project(bs.construct(h))
    with pytest.raises(bs.ShapeError):
        problem.project(bs.BlockVector(bs.BlockDims([k.total]), v.flat))


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def test_divergence_ends_the_run_and_keeps_its_trace():
    d = bs.BlockDims([1, 1])
    T = bs.affine_family(d, 3.0 * np.eye(2))
    x0 = bs.construct(d, [[1.0], [1.0]])
    cfg = cfg_for(2, relaxation=Schedule(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes
        trace = bs.run_single_layer(T, cfg, x0)
    assert trace.termination == "diverged"
    # every block doubles when active, so 3x overflows after ~2000 steps
    assert 1000 < trace.iterations == len(trace.records) < 4000
    assert all(r.mask is not None for r in trace.records)
    # the final point is the last finite iterate of the recorded steps
    x = x0
    for r in trace.records:
        x = bs.masked_update(x, bs.ActivationMask(r.mask), r.relaxation,
                             T.evaluate(r.n, x))
    assert x == trace.final
    with np.errstate(over="ignore"), \
            pytest.raises(bs.NonFiniteError, match="must be finite"):
        T.evaluate(0, trace.final)


def test_pd_dr_overflow_in_the_graph_projector_is_a_divergence():
    # L'y = 2e308 overflows in the first projection, which must end the run
    # as a divergence, not as an assertion of the projector's debug check
    problem = bs.assemble_pd_problem(
        [bs.L1Norm(1)], [bs.SquaredDistance([0.0]), bs.SquaredDistance([0.0])],
        [[np.array([[1.0]])], [np.array([[1.0]])]])
    x0 = bs.construct(problem.h_dims, [[1e308]])
    cfg = cfg_for(3, tolerance=0.0, max_iterations=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes
        trace, solution = bs.run_pd_dr(problem, 1.0, cfg, x0)
    assert trace.termination == "diverged"
    assert trace.records == ()
    assert np.array_equal(trace.final.flat, [1e308, 1e308, 1e308])
    assert solution is None


def test_fb_min_records_no_objective_when_a_smooth_term_has_no_value(
        tmp_path):
    # min 0.5 |x| + g(x) for the gradient y - 1 alone: x = 0.5
    fs = [bs.L1Norm(1, weight=0.5)]
    smooth = [bs.SmoothTerm(1, lambda y: y - 1.0, 1.0)]
    L = bs.LinearBlockOperator([[np.array([[1.0]])]])
    cfg = SolverConfig(sweeping=bs.single_block(1), relaxation=Schedule(0.9),
                       stepsize=Schedule(1.0), tolerance=1e-10, seed=0)
    trace = bs.run_fb_min(fs, smooth, L, cfg, bs.construct(bs.BlockDims([1])))
    assert trace.termination == "tolerance"
    assert abs(trace.final.flat[0] - 0.5) <= 1e-9
    assert trace.records and all(r.objective is None for r in trace.records)
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    rows = path.read_text().splitlines()[1:]
    assert rows and all(row.endswith(",") for row in rows)  # objective


# ---------------------------------------------------------------------------
# the run rules every driver checks
# ---------------------------------------------------------------------------


def _drivers_on_two_blocks():
    """One call per driver on dims [1, 1], each taking a SolverConfig."""
    dims = bs.BlockDims([1, 1])
    x0 = bs.construct(dims)
    zeros = [bs.Zero(1), bs.Zero(1)]
    A = [bs.Subdifferential(f) for f in zeros]
    prox = bs.prox_family(zeros, 1.0)
    L = bs.LinearBlockOperator([[np.eye(1), np.eye(1)]])
    smooth = [bs.SmoothTerm.squared_distance(np.array([1.0]))]
    return {
        "single_layer": lambda cfg: bs.run_single_layer(
            bs.affine_family(dims, 0.5 * np.eye(2)), cfg, x0),
        "double_layer": lambda cfg: bs.run_double_layer(prox, prox, cfg, x0),
        "dr": lambda cfg: bs.run_dr(A, lambda v: v, 1.0, cfg, x0),
        "fb": lambda cfg: bs.run_fb(A, None, cfg, x0),
        "fb_min": lambda cfg: bs.run_fb_min(zeros, smooth, L, cfg, x0),
    }


@pytest.mark.parametrize("driver", sorted(_drivers_on_two_blocks()))
@pytest.mark.parametrize("ref_dims", [[1, 1, 1], [2]], ids=["3_blocks", "2"])
def test_every_driver_checks_the_reference_blocks(driver, ref_dims):
    run = _drivers_on_two_blocks()[driver]
    kw = dict(stepsize=Schedule(0.5), max_iterations=5)
    run(cfg_for(2, **kw))  # the host runs with no reference
    bad = bs.construct(bs.BlockDims(ref_dims))
    with pytest.raises(bs.ShapeError,
                       match="^reference must live on the primal blocks$"):
        run(cfg_for(2, reference=bad, **kw))


def test_pd_dr_derives_its_graph_subspace_from_the_grid():
    L = bs.LinearBlockOperator([[np.eye(1), 2.0 * np.eye(1)]])
    problem = bs.assemble_pd_problem([bs.Zero(1), bs.Zero(1)],
                                     [bs.Zero(1)], L)
    assert isinstance(problem.V, bs.GraphSubspace)
    assert problem.V.operator is L
    with pytest.raises(TypeError):
        bs.PdDrProblem(problem.h_ops, problem.g_ops, L, problem.V)
