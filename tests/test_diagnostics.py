import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep import Schedule, SolverConfig

from conftest import (
    box_quadratic_m4,
    dr_1d,
    km_two_halfspaces,
    lasso_1d,
    random_catalog_function,
)


def cfg_for(m, **kw):
    base = dict(sweeping=bs.single_block(m), seed=0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# distance-decrease monitor
# ---------------------------------------------------------------------------


def test_fejer_monitor_contraction_has_no_violations():
    d = bs.BlockDims([2])
    T = bs.affine_family(d, 0.5 * np.eye(2))
    cfg = cfg_for(1, relaxation=Schedule(0.5), max_iterations=60,
                  tolerance=1e-13, snapshot_stride=1)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[4.0, -2.0]]))
    report = bs.fejer_monitor(trace, bs.construct(d), phi="t2")
    assert report.violations == 0
    assert report.max_positive_slack == 0.0
    assert all(s <= 0 for s in report.slacks)


def test_fejer_monitor_stationary_path_zero_slacks():
    d = bs.BlockDims([1])
    T = bs.forward_step_family(None, 1.0, d)  # identity
    cfg = cfg_for(1, relaxation=Schedule(0.7), max_iterations=10,
                  tolerance=0.0, snapshot_stride=1)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[3.0]]))
    report = bs.fejer_monitor(trace, bs.construct(d, [[-1.0]]), phi="t")
    assert report.slacks == tuple([0.0] * len(report.slacks))
    assert report.violations == 0


def test_fejer_monitor_flags_noisy_path_without_failing():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))
    model = bs.ErrorModel("gaussian_decay", scale=0.5, decay=0.8)
    cfg = cfg_for(1, relaxation=Schedule(0.5), max_iterations=40,
                  tolerance=0.0, snapshot_stride=1, errors={"a": model},
                  seed=3)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[1.0]]))
    report = bs.fejer_monitor(trace, bs.construct(d))
    assert len(report.slacks) == len(trace.snapshots()) - 1
    assert report.violations >= 0  # report only; deciding is the caller's job


def test_fejer_monitor_dr_noise_slack_bounded_by_error_envelope():
    # splitting run with known geometric errors: positive slacks of the
    # distance monitor stay under the injected magnitude envelope.  With
    # refresh errors b and update errors a of norm c*q^n each, the governing
    # update is a relaxed step with perturbation at most 2||a|| + 6||b||,
    # so the per-step distance growth is at most (mu/2) * 8 c q^n.
    suite = dr_1d()
    d = suite["dims"]
    clean_cfg = cfg_for(1, tolerance=1e-13, dr_relaxation=Schedule(1.0))
    clean, _ = bs.run_dr(suite["A"], suite["jb"], 1.0, clean_cfg,
                         bs.construct(d, [[4.0]]), check_resolvent=False)
    xstar = clean.final  # fixed point of the governing recursion
    c, q = 0.05, 0.8
    model = bs.ErrorModel("deterministic_decay", scale=c, decay=q)
    cfg = cfg_for(1, tolerance=0.0, max_iterations=60, snapshot_stride=1,
                  dr_relaxation=Schedule(1.0),
                  errors={"a": model, "b": model})
    noisy, _ = bs.run_dr(suite["A"], suite["jb"], 1.0, cfg,
                         bs.construct(d, [[4.0]]), check_resolvent=False)
    report = bs.fejer_monitor(noisy, xstar, phi="t")
    for j, slack in enumerate(report.slacks):
        envelope = 0.5 * (2 * c * q ** j + 6 * c * q ** j)
        assert slack <= envelope + 1e-12


def test_inclusion_residual_of_reference_solutions():
    from conftest import coupled_lasso_m2, pd_1d

    for make in (dr_1d, lasso_1d, box_quadratic_m4, coupled_lasso_m2):
        problem = make()["problem"]
        ref = bs.oracle_reference(problem)
        rep = bs.inclusion_residual(problem, ref)
        assert rep.primal_res <= 1e-8, type(problem).__name__
    # the linearly coupled problem needs a primal-dual pair
    pd = pd_1d()
    cfg = SolverConfig(sweeping=bs.single_block(2), tolerance=1e-11, seed=1)
    _, sol = bs.run_pd_dr(pd["problem"], 1.0, cfg,
                          bs.construct(bs.BlockDims([1]), [[4.0]]))
    rep = bs.inclusion_residual(pd["problem"], sol)
    assert rep.primal_res <= 1e-8 and rep.dual_res <= 1e-8


def test_fejer_monitor_needs_snapshots():
    d = bs.BlockDims([1])
    T = bs.constant_family(bs.construct(d))
    cfg = cfg_for(1, relaxation=Schedule(0.5), tolerance=1e-6)
    trace = bs.run_single_layer(T, cfg, bs.construct(d))
    # converged immediately: only the final iterate is stored
    with pytest.raises(bs.ParameterError, match="snapshot"):
        bs.fejer_monitor(trace, bs.construct(d))


def test_fejer_monitor_envelopes():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))
    cfg = cfg_for(1, relaxation=Schedule(0.5), max_iterations=5,
                  tolerance=0.0, snapshot_stride=1)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[2.0]]))
    generous = bs.fejer_monitor(trace, bs.construct(d), phi="t2",
                                eta=lambda j: 100.0)
    assert all(s < 0 for s in generous.slacks)


def test_expected_fejer_check_nonpositive_for_quasinonexpansive():
    d = bs.BlockDims([1, 1, 1])
    lo = np.array([-2.0, -2.0, -2.0])
    hi = np.array([0.0, 0.5, 1.0])
    T = bs.box_projection_family(lo, hi, d)
    rule = bs.independent_bernoulli([0.5, 0.5, 0.5])
    cfg = SolverConfig(sweeping=rule, relaxation=Schedule(0.6),
                       max_iterations=40, tolerance=1e-14,
                       snapshot_stride=1, seed=2)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[4.0], [3.0], [5.0]]))
    z = bs.construct(d, [[-1.0], [0.0], [0.5]])  # fixed point inside the box
    slacks = bs.expected_fejer_check(T, trace, z, rule)
    assert slacks and all(s <= 1e-12 for s in slacks)


# ---------------------------------------------------------------------------
# exact activation-averaged identities
# ---------------------------------------------------------------------------


def test_identity_check_single_block_is_tautology():
    d = bs.BlockDims([3])
    T = bs.prox_family([bs.L1Norm(3, 0.4)], 1.0)
    rng = np.random.default_rng(0)
    x = bs.BlockVector(d, rng.standard_normal(3))
    z = bs.BlockVector(d, rng.standard_normal(3))
    rep = bs.expectation_identity_check(T, x, z, bs.single_block(1))
    assert rep.target_abs_err == 0.0
    assert rep.step_abs_err == 0.0


def test_identity_check_two_blocks_uniform():
    rng = np.random.default_rng(1)
    d = bs.BlockDims([1, 1])
    T = bs.prox_family([random_catalog_function(rng, 1),
                        random_catalog_function(rng, 1)], 0.8)
    x = bs.BlockVector(d, rng.standard_normal(2))
    z = bs.BlockVector(d, rng.standard_normal(2))
    rep = bs.expectation_identity_check(T, x, z, bs.single_block(2))
    assert rep.target_abs_err <= 1e-12
    assert rep.step_abs_err <= 1e-12


def test_identity_check_three_blocks_bernoulli():
    rng = np.random.default_rng(2)
    d = bs.BlockDims([2, 1, 2])
    fns = [random_catalog_function(rng, k) for k in (2, 1, 2)]
    T = bs.prox_family(fns, 1.3)
    x = bs.BlockVector(d, rng.standard_normal(5))
    z = bs.BlockVector(d, rng.standard_normal(5))
    rep = bs.expectation_identity_check(
        T, x, z, bs.independent_bernoulli([0.5, 0.5, 0.5]))
    assert rep.target_abs_err <= 1e-10
    assert rep.step_abs_err <= 1e-10


def _law_by_pattern(rule):
    """The exact law as a loop over patterns: bits, probabilities, marginals."""
    m = rule.m
    if rule.scheme == "single_block":
        support = [(tuple(int(j == i) for j in range(m)),
                    float(rule._block_p[i])) for i in range(m)]
    elif rule.scheme == "independent_bernoulli":
        q = rule.probabilities
        keep = 1.0 - math.prod(1.0 - qi for qi in q)
        support = []
        for bits in itertools.product((0, 1), repeat=m):
            if not any(bits):
                continue
            p = math.prod(qi if b else 1.0 - qi for qi, b in zip(q, bits))
            if p > 0.0:
                support.append((bits, p / keep))
    else:
        count = math.comb(m, rule.size)
        support = [(tuple(int(j in s) for j in range(m)), 1.0 / count)
                   for s in itertools.combinations(range(m), rule.size)]
    marginals = [0.0] * m
    for bits, p in support:
        for i, b in enumerate(bits):
            if b:
                marginals[i] += p
    return support, tuple(min(v, 1.0) for v in marginals)


def _expected_by_pattern(support, weights, x, tx, relax, ref):
    total = 0.0
    for bits, p in support:
        cand = bs.masked_update(x, bs.ActivationMask(bits), relax, tx)
        d = bs.combine(1.0, cand, -1.0, ref)
        total += p * bs.reduce(d, d, weights).weighted_norm_sq_x
    return total


def _vector(rng, dims, decades):
    # normal entries scaled over six orders of magnitude
    scale = 10.0 ** rng.uniform(-decades, decades, dims.total)
    return bs.BlockVector(dims, scale * rng.standard_normal(dims.total))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_expansion_equals_masked_update_loop(data):
    m = data.draw(st.integers(1, 10), label="m")
    dims = bs.BlockDims(data.draw(st.lists(st.integers(1, 3), min_size=m,
                                           max_size=m), label="dims"))
    scheme = data.draw(st.sampled_from(["single_block",
                                        "independent_bernoulli",
                                        "fixed_subset_size"]), label="scheme")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if scheme == "single_block":
        rule = bs.single_block(m, 10.0 ** rng.uniform(-3.0, 3.0, m))
    elif scheme == "independent_bernoulli":
        rule = bs.independent_bernoulli(
            data.draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m),
                      label="q"))
    else:
        rule = bs.fixed_subset_size(m, data.draw(st.integers(1, m)))
    relax = data.draw(st.one_of(st.just(1.0),
                                st.floats(1e-3, 1.0, exclude_max=True)),
                      label="relax")

    # the batched law equals the pattern-by-pattern enumeration
    law = bs.mask_law(rule)
    support, marginals = _law_by_pattern(rule)
    assert [mask.bits for mask, _ in law.support] == [b for b, _ in support]
    assert [p for _, p in law.support] == [p for _, p in support]
    assert law.marginals == marginals
    for mask, _ in law.support:
        assert mask == bs.ActivationMask(mask.bits)
        assert mask.active == bs.ActivationMask(mask.bits).active

    d = dims.total
    T = bs.affine_family(dims, rng.standard_normal((d, d)),
                         _vector(rng, dims, 3.0).flat)
    xs = [_vector(rng, dims, 3.0) for _ in range(2)]
    z = _vector(rng, dims, 3.0)
    weights = bs.WeightedNormSpec(marginals)

    records = [bs.TraceRecord(n, 0.0, (1,) * m, relax, None, None, None, x)
               for n, x in enumerate(xs)]
    records.append(bs.TraceRecord(2, 0.0, (1,) * m, relax, None, None, None,
                                  None))
    trace = bs.IterateTrace(tuple(records), xs[-1], "max_iterations")
    slacks = bs.expected_fejer_check(T, trace, z, rule)
    expected = []
    for n, x in enumerate(xs):
        tx = T.evaluate(n, x)
        base = bs.combine(1.0, x, -1.0, z)
        expected.append(
            _expected_by_pattern(support, weights, x, tx, relax, z)
            - bs.reduce(base, base, weights).weighted_norm_sq_x)
    assert slacks == expected

    x = xs[0]
    rep = bs.expectation_identity_check(T, x, z, rule, iteration=3)
    tx = T.evaluate(3, x)
    lhs_target = _expected_by_pattern(support, weights, x, tx, 1.0, z)
    lhs_step = _expected_by_pattern(support, weights, x, tx, 1.0, x)
    assert (rep.target_lhs, rep.step_lhs) == (lhs_target, lhs_step)
    assert rep.target_abs_err == abs(lhs_target - rep.target_rhs)
    assert rep.step_abs_err == abs(lhs_step - rep.step_rhs)


def test_checks_run_when_a_marginal_rounds_above_one():
    # 0.1 / (1 - 0.9) rounds to 1.0000000000000002 before the clamp
    rule = bs.independent_bernoulli([0.1])
    assert bs.mask_law(rule).marginals == (1.0,)
    d = bs.BlockDims([2])
    T = bs.affine_family(d, 0.5 * np.eye(2))
    cfg = SolverConfig(sweeping=rule, relaxation=Schedule(0.5),
                       max_iterations=5, tolerance=0.0, snapshot_stride=1,
                       seed=0)
    trace = bs.run_single_layer(T, cfg, bs.construct(d, [[4.0, -2.0]]))
    z = bs.construct(d)
    slacks = bs.expected_fejer_check(T, trace, z, rule)
    assert len(slacks) == 5 and all(s < 0 for s in slacks)
    rep = bs.expectation_identity_check(T, trace.final, z, rule)
    assert rep.target_abs_err <= 1e-12 and rep.step_abs_err <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_expansion_rejects_mismatched_and_non_finite_points():
    d = bs.BlockDims([1, 2])
    T = bs.affine_family(d, 0.5 * np.eye(3))
    rule = bs.independent_bernoulli([0.5, 0.5])
    z = bs.construct(d)
    with pytest.raises(bs.ShapeError, match="rule must cover"):
        bs.expectation_identity_check(T, z, z, bs.single_block(3))
    # x - z overflows in block 0, which some patterns leave inactive
    x = bs.construct(d, [[1e308], [0.0, 0.0]])
    z = bs.construct(d, [[-1e308], [0.0, 0.0]])
    with pytest.raises(bs.ShapeError, match="must be finite"):
        bs.expectation_identity_check(T, x, z, rule)


# ---------------------------------------------------------------------------
# inclusion residuals
# ---------------------------------------------------------------------------


def test_inclusion_residual_exact_solution():
    suite = dr_1d()
    d = suite["dims"]
    sol = bs.PrimalDualSolution(bs.construct(d, [[1.0]]),
                                bs.construct(d, [[-1.0]]))
    rep = bs.inclusion_residual(suite["problem"], sol)
    assert rep.primal_res <= 1e-12
    assert rep.dual_res <= 1e-12


def test_inclusion_residual_of_a_dr_pair_without_forward_evaluation():
    # 0 in sign(x) + (x - 2), given only the coupled resolvent: x = 1, u = -1
    d = bs.BlockDims([1])
    B = bs.LinearMonotone(np.array([[1.0]]), np.array([-2.0]))
    problem = bs.DrProblem(
        (bs.Subdifferential(bs.L1Norm(1)),),
        lambda v: bs.BlockVector(d, B.resolvent(v.flat, 1.0)), 1.0, d)
    assert problem.B_forward is None
    cfg = cfg_for(1, tolerance=1e-13, max_iterations=500)
    trace, sol = bs.run_dr(problem.A, problem.JB, problem.gamma, cfg,
                           bs.construct(d, [[5.0]]))
    assert trace.termination == "tolerance"
    rep = bs.inclusion_residual(problem, sol)
    assert rep.primal_res == rep.dual_res <= 1e-10
    for primal, dual in ((sol.primal.flat + 0.1, sol.dual.flat),
                         (sol.primal.flat, sol.dual.flat + 0.1)):
        rep = bs.inclusion_residual(problem, bs.PrimalDualSolution(
            bs.construct(d, [primal]), bs.construct(d, [dual])))
        assert rep.primal_res == rep.dual_res > 0.01


def test_inclusion_residual_zero_candidate():
    suite = dr_1d()
    d = suite["dims"]
    rep = bs.inclusion_residual(suite["problem"], bs.construct(d))
    assert rep.primal_res == pytest.approx(1.0, abs=1e-12)
    assert rep.dual_res is None


def test_inclusion_residual_box_interior_point():
    d = bs.BlockDims([2])
    problem = bs.FbProblem(
        (bs.Subdifferential(bs.BoxIndicator([-1.0, -1.0], [1.0, 1.0])),),
        None, d)
    rep = bs.inclusion_residual(problem, bs.construct(d, [[0.2, -0.3]]))
    assert rep.primal_res == 0.0


def test_inclusion_residual_unsupported_kind():
    km = km_two_halfspaces()
    with pytest.raises(bs.CapabilityError):
        bs.inclusion_residual(km["problem"], km["x0"])


# ---------------------------------------------------------------------------
# deterministic references
# ---------------------------------------------------------------------------


def test_oracle_quadratic_matches_independent_solve_and_full_sweep():
    rng = np.random.default_rng(4)
    Q = rng.standard_normal((4, 4))
    Q = Q @ Q.T + 0.4 * np.eye(4)
    b = rng.standard_normal(4)
    smooth = (bs.SmoothTerm.quadratic(Q, b),)
    fs = (bs.Zero(2), bs.Zero(2))
    L = bs.LinearBlockOperator([[np.vstack([np.eye(2), np.zeros((2, 2))]),
                                 np.vstack([np.zeros((2, 2)), np.eye(2)])]])
    problem = bs.CoupledMinProblem(fs, smooth, L)
    ref = bs.oracle_reference(problem)
    # independent check 1: solve the normal equations directly
    assert np.linalg.norm(ref.flat - np.linalg.solve(Q, -b)) <= 1e-10
    # independent check 2: a hand-rolled full forward-backward sweep
    theta = 1.0 / float(np.linalg.eigvalsh(Q).max())
    x = np.zeros(4)
    for _ in range(20000):
        x = x - theta * (Q @ x + b)
    assert np.linalg.norm(ref.flat - x) <= 1e-8


def test_oracle_lasso_analytic():
    suite = lasso_1d()
    ref = bs.oracle_reference(suite["problem"])
    assert abs(float(ref.flat[0]) - 0.5) <= 1e-10


def test_oracle_km_quadrant():
    km = km_two_halfspaces()
    ref = bs.oracle_reference(km["problem"])
    assert np.linalg.norm(ref.flat) <= 1e-10


def test_oracle_dr_1d():
    suite = dr_1d()
    ref = bs.oracle_reference(suite["problem"])
    assert abs(float(ref.flat[0]) - 1.0) <= 1e-9


def test_oracle_budget_exhaustion_raises():
    d = bs.BlockDims([1])
    slow = bs.affine_family(d, np.array([[0.999999]]))
    with pytest.raises(bs.OracleFailureError):
        bs.oracle_reference(bs.KmProblem(slow, bs.construct(d, [[1.0]])),
                            max_iterations=5)


def test_oracle_scale_guard():
    d = bs.BlockDims([300])
    slow = bs.affine_family(d, np.eye(300) * 0.5)
    with pytest.raises(bs.CapacityError):
        bs.oracle_reference(bs.KmProblem(slow, bs.construct(d)))


# ---------------------------------------------------------------------------
# Monte Carlo summaries
# ---------------------------------------------------------------------------


def _fb_runner(threshold_problem):
    box = threshold_problem
    oracle = bs.oracle_reference(box["problem"])

    def run(seed):
        cfg = SolverConfig(sweeping=bs.single_block(4),
                           relaxation=Schedule(0.9),
                           stepsize=Schedule(box["theta"]),
                           tolerance=1e-9, seed=seed)
        trace = bs.run_fb(box["A"], box["B"], cfg,
                          bs.construct(box["dims"]),
                          check_cocoercivity=False)
        return trace, bs.distance(trace.final, oracle)

    return run


def test_monte_carlo_summary_success_and_quantiles():
    run = _fb_runner(box_quadratic_m4())
    report = bs.monte_carlo_summary(run, seeds=range(5), threshold=1e-5)
    assert report.metric == "distance"
    assert report.success_fraction == 1.0
    assert report.residual_quantiles["max"] <= 1e-9
    assert report.distance_quantiles["max"] <= 1e-5


def test_monte_carlo_summary_order_invariant():
    run = _fb_runner(box_quadratic_m4())
    a = bs.monte_carlo_summary(run, seeds=[0, 1, 2, 3], threshold=1e-5)
    b = bs.monte_carlo_summary(run, seeds=[3, 1, 0, 2], threshold=1e-5)
    assert a == b


def test_monte_carlo_summary_deterministic_rule_zero_spread():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))

    def run(seed):
        cfg = SolverConfig(sweeping=bs.fixed_subset_size(1, 1),
                           relaxation=Schedule(0.5), tolerance=1e-9,
                           seed=seed)
        trace = bs.run_single_layer(T, cfg, bs.construct(d, [[4.0]]))
        return trace, None

    report = bs.monte_carlo_summary(run, seeds=range(4), threshold=1e-9,
                                    metric="residual")
    q = report.residual_quantiles
    assert q["max"] == q["min"]
    assert report.success_fraction == 1.0


def test_monte_carlo_summary_needs_two_seeds():
    with pytest.raises(bs.ParameterError):
        bs.monte_carlo_summary(lambda s: (None, None), seeds=[1],
                               threshold=1.0)


def test_monte_carlo_summary_records_replica_errors():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]))

    def run(seed):
        if seed == 1:
            raise bs.NumericError("boom")
        cfg = SolverConfig(sweeping=bs.single_block(1),
                           relaxation=Schedule(0.5), tolerance=1e-9,
                           seed=seed)
        return bs.run_single_layer(T, cfg, bs.construct(d, [[4.0]])), None

    report = bs.monte_carlo_summary(run, seeds=[0, 1, 2], threshold=1e-8,
                                    metric="residual")
    failed = [o for o in report.outcomes if o.error is not None]
    assert len(failed) == 1 and failed[0].seed == 1
    assert report.success_fraction == pytest.approx(2 / 3)


def _one_record(residual):
    record = bs.TraceRecord(0, residual, None, None, None, None, None, None)
    return bs.IterateTrace((record,), bs.construct(bs.BlockDims([1])),
                           "max_iterations")


INF = math.inf


@pytest.mark.parametrize("residuals, want", [
    ([1.0, 2.0, INF], [1.0, 1.5, 2.0, INF, INF]),
    ([1.0, INF], [1.0, INF, INF, INF, INF]),
    ([INF, INF, INF], [INF] * 5),
    # finite residuals keep np.quantile's bits
    ([0.3, 0.1, 0.7, 0.2], np.quantile([0.3, 0.1, 0.7, 0.2],
                                       [0, 0.25, 0.5, 0.75, 1]).tolist()),
])
def test_monte_carlo_quantiles_place_infinite_residuals_by_rank(residuals,
                                                                 want):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no inf - inf
        report = bs.monte_carlo_summary(
            lambda s: (_one_record(residuals[s]), None),
            range(len(residuals)), threshold=1.0)
    assert list(report.residual_quantiles.values()) == want
    assert list(report.residual_quantiles) == ["min", "q25", "median",
                                               "q75", "max"]


def _diverged_at_once(seed):
    # 3*I maps the first block past the largest float: no record is made
    d = bs.BlockDims([1, 1])
    T = bs.affine_family(d, 3.0 * np.eye(2))
    trace = bs.run_single_layer(T, cfg_for(2, relaxation=Schedule(0.5),
                                           seed=seed),
                                bs.construct(d, [[1.0e308], [1.0]]))
    assert trace.termination == "diverged" and trace.records == ()
    return trace


def test_a_replica_diverged_before_any_record_is_never_a_success():
    by_residual = bs.monte_carlo_summary(
        lambda s: (_diverged_at_once(s), None), [0, 1, 2], threshold=1e-6)
    assert by_residual.success_fraction == 0.0
    assert all(o.residual is None for o in by_residual.outcomes)
    assert by_residual.residual_quantiles == {}
    # nor when the caller's distance to the reference is small
    by_distance = bs.monte_carlo_summary(
        lambda s: (_diverged_at_once(s), 0.0), [0, 1, 2], threshold=1e-6)
    assert by_distance.metric == "distance"
    assert by_distance.success_fraction == 0.0
