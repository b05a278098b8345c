"""The drivers' array route against the ``BlockVector`` route it replaces.

Every package family has an array core, which the drivers call on the flat
iterate.  A ``BlockOperatorFamily`` built from an ``evaluate`` alone gets an
adapter core that wraps the iterate, calls ``evaluate`` and unwraps the
value.  Both routes must give equal traces bit for bit: the records (floats
compared by ``repr``, so the sign of a zero counts), the snapshots, the
final point and the termination.
"""

import math
import pickle
import warnings

import numpy as np
import pytest

import blocksweep as bs
from blocksweep import blockspace, operators, solvers
from blocksweep.solvers import CoupledMinProblem, Schedule, SolverConfig

SCHEMES = {
    "single_block": lambda m: bs.single_block(m),
    "independent_bernoulli": lambda m: bs.independent_bernoulli(
        np.linspace(0.3, 0.8, m)),
    "fixed_subset_size": lambda m: bs.fixed_subset_size(m, 2),
}
GAUSSIAN = bs.ErrorModel("gaussian_decay", 0.05, 0.9)


def evaluate_only(family):
    """The same family with only its ``evaluate``: the adapter route."""
    return bs.BlockOperatorFamily(family.dims, family.evaluate,
                                  family.regularity, family.averaging,
                                  family.fixed_points)


def evaluate_only_forward(B):
    """The same forward operator with only its ``apply``."""
    return bs.CocoerciveOperator(B.dims, B.apply, B.theta)


def fingerprint(trace):
    records = [
        (r.n, repr(r.residual), r.mask, repr(r.relaxation), repr(r.stepsize),
         repr(r.distance_to_reference), repr(r.objective),
         None if r.snapshot is None else r.snapshot.flat.tobytes())
        for r in trace.records
    ]
    return records, trace.final.flat.tobytes(), trace.termination


def mixed_functions(dims, rng):
    kinds = ("l1", "sq_l2", "box", "zero", "ball", "quadratic")
    fs = []
    for i, d in enumerate(dims):
        kind = kinds[i % len(kinds)]
        if kind == "l1":
            fs.append(bs.L1Norm(d, 0.3))
        elif kind == "sq_l2":
            fs.append(bs.SquaredDistance(rng.standard_normal(d), 1.3))
        elif kind == "box":
            fs.append(bs.BoxIndicator(-np.ones(d), np.ones(d)))
        elif kind == "zero":
            fs.append(bs.Zero(d))
        elif kind == "ball":
            fs.append(bs.BallIndicator(np.zeros(d), 1.5))
        else:
            a = rng.standard_normal((d, d))
            fs.append(bs.Quadratic(a @ a.T / d, rng.standard_normal(d)))
    return fs


def coupling(dims, rng, rows=2):
    L = bs.LinearBlockOperator(
        [[rng.standard_normal((1, d)) / math.sqrt(len(dims)) for d in dims]
         for _ in range(rows)])
    smooth = [bs.SmoothTerm.squared_distance(rng.standard_normal(1), 1.0)
              for _ in range(rows)]
    return L, smooth


def cfg_for(rule, iterations, slots=(), **kw):
    kw.setdefault("relaxation", Schedule(0.8))
    return SolverConfig(sweeping=rule, tolerance=0.0,
                        max_iterations=iterations, seed=11,
                        errors={s: GAUSSIAN for s in slots},
                        snapshot_stride=3, **kw)


def start(dims, rng):
    return bs.BlockVector(dims, rng.standard_normal(dims.total) * 3.0)


# each case builds (package route, evaluate-only route) from (dims, rule, n)


def km_affine(dims, rule, n, rng, monkeypatch):
    a = rng.standard_normal((dims.total, dims.total))
    T = bs.affine_family(dims, 0.9 * a / np.linalg.norm(a),
                         rng.standard_normal(dims.total))
    cfg, x0 = cfg_for(rule, n, "a"), start(dims, rng)
    return (lambda: bs.run_single_layer(T, cfg, x0),
            lambda: bs.run_single_layer(evaluate_only(T), cfg, x0))


def km_prox(dims, rule, n, rng, monkeypatch):
    T = bs.prox_family(mixed_functions(dims.dims, rng), Schedule(1.0, 0.4, 7))
    cfg, x0 = cfg_for(rule, n, "a"), start(dims, rng)
    return (lambda: bs.run_single_layer(T, cfg, x0),
            lambda: bs.run_single_layer(evaluate_only(T), cfg, x0))


def averaged(dims, rule, n, rng, monkeypatch):
    T = bs.prox_family(mixed_functions(dims.dims, rng), 0.7)
    cfg = cfg_for(rule, n, "a", relaxation=Schedule(1.5))
    x0 = start(dims, rng)
    return (lambda: bs.run_single_layer(T, cfg, x0),
            lambda: bs.run_single_layer(evaluate_only(T), cfg, x0))


def double_layer(dims, rule, n, rng, monkeypatch):
    T = bs.prox_family(mixed_functions(dims.dims, rng), 1.0)
    B = bs.coupling_forward_operator(*coupling(dims.dims, rng))
    R = bs.forward_step_family(B, B.theta)
    cfg, x0 = cfg_for(rule, n, "ab"), start(dims, rng)
    # the evaluate-only route also draws the b errors through a public
    # sampler that returns BlockVectors
    inner = (lambda k: bs.sample_error(GAUSSIAN, dims, k, cfg.seed,
                                       solvers._SLOT_STREAMS["b"]))
    cfg_a = cfg_for(rule, n, "a")
    return (lambda: bs.run_double_layer(T, R, cfg, x0),
            lambda: bs.run_double_layer(evaluate_only(T), evaluate_only(R),
                                        cfg_a, x0, inner_error_sampler=inner))


def _patch_fb_families(monkeypatch):
    for name in ("resolvent_family", "forward_step_family"):
        real = getattr(solvers, name)
        monkeypatch.setattr(
            solvers, name,
            lambda *a, _real=real, **k: evaluate_only(_real(*a, **k)))


def fb(dims, rule, n, rng, monkeypatch):
    ops = [bs.Subdifferential(f) for f in mixed_functions(dims.dims, rng)]
    B = bs.coupling_forward_operator(*coupling(dims.dims, rng))
    cfg = cfg_for(rule, n, "ac", stepsize=Schedule(B.theta))
    x0 = start(dims, rng)

    def evaluate_route():
        _patch_fb_families(monkeypatch)
        try:
            return bs.run_fb(ops, evaluate_only_forward(B), cfg, x0)
        finally:
            monkeypatch.undo()

    return lambda: bs.run_fb(ops, B, cfg, x0), evaluate_route


def fb_min(dims, rule, n, rng, monkeypatch):
    fs = mixed_functions(dims.dims, rng)
    L, smooth = coupling(dims.dims, rng)
    problem = CoupledMinProblem(tuple(fs), tuple(smooth), L)
    B = problem.forward()
    cfg = cfg_for(rule, n, "ac", stepsize=Schedule(B.theta))
    x0 = start(dims, rng)

    def evaluate_route():
        _patch_fb_families(monkeypatch)
        try:
            return bs.run_fb(problem.resolvents, evaluate_only_forward(B),
                             cfg, x0, lambda x: problem.objective(x),
                             check_cocoercivity=False)
        finally:
            monkeypatch.undo()

    return lambda: bs.run_fb_min(fs, smooth, L, cfg, x0), evaluate_route


CASES = (km_affine, km_prox, averaged, double_layer, fb, fb_min)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_package_core_and_evaluate_only_family_give_equal_traces(
        case, scheme, monkeypatch):
    dims = bs.BlockDims([1, 2, 1, 3, 2])
    package, evaluate = case(dims, SCHEMES[scheme](dims.m), 40,
                             np.random.default_rng(5), monkeypatch)
    expected = fingerprint(package())
    assert expected[2] == "max_iterations"
    assert fingerprint(evaluate()) == expected


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.__name__)
def test_routes_agree_at_a_thousand_blocks(case, monkeypatch):
    dims = bs.BlockDims([1, 2] * 500)
    package, evaluate = case(dims, bs.single_block(dims.m), 20,
                             np.random.default_rng(6), monkeypatch)
    expected = fingerprint(package())
    assert len(expected[0]) == 20
    assert fingerprint(evaluate()) == expected


def test_an_overflowing_fb_min_run_diverges_at_the_same_n_on_both_routes(
        monkeypatch):
    rng = np.random.default_rng(8)
    dims = bs.BlockDims([2] * 5)
    fs = [bs.L1Norm(2, 0.1) for _ in range(5)]
    L = bs.LinearBlockOperator([[np.full((1, 2), 4.0)] * 5])
    smooth = [bs.SmoothTerm.squared_distance([0.0])]
    problem = CoupledMinProblem(tuple(fs), tuple(smooth), L)
    B = problem.forward()
    # a huge first error lands on the active block; the next gradient
    # overflows
    huge = bs.ErrorModel("deterministic_decay", 1.5e308, 0.5)
    cfg = SolverConfig(sweeping=bs.single_block(5), relaxation=Schedule(0.9),
                       stepsize=Schedule(B.theta), tolerance=0.0,
                       max_iterations=50, seed=3, errors={"a": huge})
    x0 = bs.BlockVector(dims, rng.standard_normal(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        package = fingerprint(bs.run_fb_min(fs, smooth, L, cfg, x0))
        _patch_fb_families(monkeypatch)
        evaluate = fingerprint(bs.run_fb(
            problem.resolvents, evaluate_only_forward(B), cfg, x0,
            lambda x: problem.objective(x), check_cocoercivity=False))
    assert package[2] == "diverged"
    assert len(package[0]) >= 1
    assert evaluate == package


def test_the_loop_wraps_no_vector_and_compares_no_dims(monkeypatch):
    rng = np.random.default_rng(9)
    dims = bs.BlockDims([2] * 40)
    fs = [bs.L1Norm(2, 0.5) for _ in range(40)]
    L, smooth = coupling(dims.dims, rng)
    x0 = start(dims, rng)
    counts = dict.fromkeys(("settle", "dims_eq", "sweep", "rows"), 0)

    def counting(key, real):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(blockspace, "_settle",
                        counting("settle", blockspace._settle))
    monkeypatch.setattr(bs.BlockDims, "__eq__",
                        counting("dims_eq", bs.BlockDims.__eq__))
    for meth in ("apply", "values"):
        monkeypatch.setattr(operators.SeparableSweep, meth, counting(
            "sweep", getattr(operators.SeparableSweep, meth)))
    monkeypatch.setattr(operators._SmoothRows, "apply", counting(
        "rows", operators._SmoothRows.apply))
    problem = CoupledMinProblem(tuple(fs), tuple(smooth), L)

    def run(iterations):
        counts.update(dict.fromkeys(counts, 0))
        cfg = SolverConfig(sweeping=bs.single_block(dims.m),
                           relaxation=Schedule(0.9),
                           stepsize=Schedule(problem.forward().theta),
                           tolerance=0.0, max_iterations=iterations,
                           snapshot_stride=1000)
        bs.run_fb(problem.resolvents, problem.forward(), cfg, x0,
                  problem.objective, check_cocoercivity=False)
        return dict(counts)

    few, many = run(3), run(30)
    assert few == many
    # the final point; the one snapshot, at n = 0, is x0 itself
    assert many["settle"] == 1
    assert many["sweep"] == many["rows"] == 0


@pytest.mark.parametrize("dim", range(1, 11))
def test_sweep_values_equal_the_per_block_values(dim):
    rng = np.random.default_rng(dim)
    fs = [bs.L1Norm(dim, w) for w in (0.0, 0.3, 1.7) for _ in range(9)]
    fs += mixed_functions([dim] * 6, rng)
    fs += [bs.L1Norm(d, 0.7) for d in (1, 3, 9)]
    rng.shuffle(fs)
    dims = bs.BlockDims([f.dim for f in fs])
    sweep = operators.SeparableSweep(fs, "prox")
    for _ in range(20):
        scale = 10.0 ** rng.integers(-8, 8, size=dims.total)
        x = bs.BlockVector(dims, rng.standard_normal(dims.total) * scale)
        values = sweep.values(x)
        expected = [f.value(x.block(i)) for i, f in enumerate(fs)]
        assert [repr(v) for v in values] == [repr(v) for v in expected]


def halve(n, x):
    return bs.BlockVector(x.dims, 0.5 * x.flat)


def negate(x):
    return bs.BlockVector(x.dims, -x.flat)


def test_families_of_module_level_functions_pickle():
    dims = bs.BlockDims([1, 2])
    x = np.array([1.0, -2.0, 4.0])
    T = pickle.loads(pickle.dumps(
        bs.BlockOperatorFamily(dims, halve, "averaged", averaging=0.5)))
    assert T._flat(0, x).tolist() == [0.5, -1.0, 2.0]
    B = pickle.loads(pickle.dumps(bs.CocoerciveOperator(dims, negate, 1.0)))
    assert B._flat(x).tolist() == [-1.0, 2.0, -4.0]


def test_block_sum_is_the_builtin_sum():
    rng = np.random.default_rng(10)
    for values in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [math.inf, 1.0],
                   [math.inf, -math.inf], (rng.standard_normal(1000) * 10.0
                   ** rng.integers(-10, 10, size=1000)).tolist()):
        with np.errstate(invalid="ignore"):
            total = solvers._sum(np.array(values))
        assert repr(total) == repr(sum(values))


def test_distances_of_huge_finite_vectors_are_finite_and_quiet():
    d1 = bs.BlockDims([1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bs.distance(bs.construct(d1, [[1e200]]),
                           bs.construct(d1, [[0.0]])) == 1e200
        d2 = bs.BlockDims([2])
        far = bs.distance(bs.construct(d2, [[1e300, -1e300]]),
                          bs.construct(d2, [[0.0, 0.0]]))
        assert far == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
        V = bs.GraphSubspace(bs.LinearBlockOperator([[np.eye(1)]]))
        t, lt = bs.graph_projection(V, bs.construct(d1, [[1e200]]),
                                    bs.construct(d1, [[1e200]]))
    assert t.flat[0] == lt.flat[0] == pytest.approx(1e200, rel=1e-15)


def test_overflow_safe_norm_keeps_the_bits_of_finite_norms():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 50)))
        v *= 10.0 ** float(rng.integers(-150, 150))
        assert blockspace._norm(v) == math.sqrt(v.dot(v))
