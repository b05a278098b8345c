"""The drivers against the paper's recursions, record by record.

``paper_reference`` transcribes the relaxed random-sweeping update of
``run_single_layer`` and the random block Douglas-Rachford splitting of
``run_dr`` and ``run_pd_dr`` in plain numpy, and draws its masks and errors
through the public samplers.  Each drawn problem runs both ways at snapshot
stride 1, and every record's iterate, residual and distance to the
reference must agree within 1e-12 relative (absolute below 1; 1e-10 for
``run_pd_dr``, whose graph projection is a Cholesky solve here and a dense
``np.linalg.solve`` there), its mask and relaxation exactly or within the
same bound, as must the termination, the final point and the splitting
drivers' solution.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
import paper_reference

TOL = 1e-12


def _close(got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.linalg.norm(got - want)
                <= tol * max(float(np.linalg.norm(want)), 1.0))


# plain-numpy proximal maps of the catalog functions the prox family uses
def _l1(dim, weight):
    return (bs.L1Norm(dim, weight),
            lambda x, g: np.sign(x) * np.maximum(np.abs(x) - weight * g, 0.0))


def _sq_l2(center, weight):
    return (bs.SquaredDistance(center, weight),
            lambda x, g: (x + g * weight * center) / (1.0 + g * weight))


def _box(lo, hi):
    return bs.BoxIndicator(lo, hi), lambda x, g: np.minimum(np.maximum(x, lo),
                                                            hi)


@st.composite
def _family(draw, dims, rng):
    """A package family, its map in plain numpy and its largest admissible
    relaxation."""
    d = sum(dims)
    kind = draw(st.sampled_from(["prox", "affine", "constant", "identity"]),
                label="family")
    bd = bs.BlockDims(dims)
    if kind == "prox":
        gamma = draw(st.floats(0.2, 2.0), label="gamma")
        terms = []
        for k in dims:
            choice = draw(st.sampled_from(["l1", "sq_l2", "box"]))
            if choice == "l1":
                terms.append(_l1(k, float(rng.uniform(0.1, 1.0))))
            elif choice == "box":
                lo = -rng.uniform(0.1, 1.0, k)
                terms.append(_box(lo, lo + rng.uniform(0.1, 2.0, k)))
            else:
                terms.append(_sq_l2(rng.standard_normal(k),
                                    float(rng.uniform(0.1, 2.0))))
        fs, proxes = zip(*terms)
        blocks = [bd.slice(i) for i in range(len(dims))]

        def prox(n, x):
            return np.concatenate([p(x[sl], gamma)
                                   for p, sl in zip(proxes, blocks)])

        return bs.prox_family(list(fs), gamma), prox, 1.9
    if kind == "affine":
        S = rng.standard_normal((d, d))
        S *= rng.uniform(0.2, 1.0) / np.linalg.norm(S, 2)
        c = rng.standard_normal(d)
        return (bs.affine_family(bd, S, c), lambda n, x: S @ x + c, 0.95)
    if kind == "constant":
        z = rng.standard_normal(d)
        return (bs.constant_family(bs.BlockVector(bd, z)),
                lambda n, x: z.copy(), 0.95)
    return bs.forward_step_family(None, 1.0, bd), lambda n, x: x.copy(), 1.9


@st.composite
def _rule(draw, m, rng):
    scheme = draw(st.sampled_from(["single_block", "independent_bernoulli",
                                   "fixed_subset_size"]), label="scheme")
    if scheme == "single_block":
        return bs.single_block(m, rng.uniform(0.1, 1.0, m).tolist())
    if scheme == "independent_bernoulli":
        return bs.independent_bernoulli(rng.uniform(0.2, 1.0, m).tolist())
    return bs.fixed_subset_size(m, draw(st.integers(1, m), label="size"))


@st.composite
def _errors(draw, rng):
    kind = draw(st.sampled_from([None, "deterministic_decay",
                                 "gaussian_decay"]), label="a errors")
    if kind is None:
        return None
    return bs.ErrorModel(kind, float(rng.uniform(0.01, 1.0)),
                         float(rng.uniform(0.0, 0.95)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_run_single_layer_follows_the_paper_update(data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6),
                     label="dims")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="problem seed"))
    family, T, top = data.draw(_family(dims, rng))
    rule = data.draw(_rule(len(dims), rng))
    a = data.draw(_errors(rng))
    start = float(rng.uniform(0.1, top))
    if data.draw(st.booleans(), label="ramp"):
        end, ramp = float(rng.uniform(0.1, top)), int(rng.integers(1, 10))
        relaxation = bs.Schedule(start, end, ramp)

        def lam(n):
            return start + (end - start) * (min(n, ramp) / ramp)
    else:
        relaxation = bs.Schedule(start)

        def lam(n):
            return start
    d = sum(dims)
    bd = bs.BlockDims(dims)
    ref = rng.standard_normal(d) if data.draw(st.booleans(),
                                              label="reference") else None
    x0 = 3.0 * rng.standard_normal(d)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    iterations = data.draw(st.integers(1, 25), label="iterations")
    tol = data.draw(st.sampled_from([0.0, 1e-3, 0.1]), label="tolerance")

    cfg = bs.SolverConfig(
        sweeping=rule, relaxation=relaxation, max_iterations=iterations,
        tolerance=tol, seed=seed, snapshot_stride=1,
        errors={} if a is None else {"a": a},
        reference=None if ref is None else bs.BlockVector(bd, ref))
    trace = bs.run_single_layer(family, cfg, bs.BlockVector(bd, x0))
    want, final = paper_reference.single_layer(
        T, dims, x0, lam, rule, seed, iterations, tol, a, ref)

    assert len(trace.records) == len(want)
    for got, rec in zip(trace.records, want):
        assert got.n == rec.n
        assert got.mask == rec.eps
        assert _close(got.residual, rec.residual)
        assert (got.distance_to_reference is None) == (rec.distance is None)
        if rec.distance is not None:
            assert _close(got.distance_to_reference, rec.distance)
        if rec.eps is None:
            assert got.snapshot is None and got.relaxation is None
        else:
            assert math.isclose(got.relaxation, lam(rec.n), rel_tol=TOL)
            assert _close(got.snapshot.flat, rec.x)
    stopped = bool(want) and want[-1].eps is None
    assert trace.termination == ("tolerance" if stopped
                                 else "max_iterations")
    assert _close(trace.final.flat, final)


# ---------------------------------------------------------------------------
# random block Douglas-Rachford and its primal-dual form
# ---------------------------------------------------------------------------


@st.composite
def _monotone(draw, k, gamma, rng):
    """A monotone operator on a block of dim ``k`` and its resolvent
    ``J_{gamma A}`` in plain numpy."""
    choice = draw(st.sampled_from(["l1", "sq_l2", "box", "linear"]),
                  label="operator")
    if choice == "l1":
        w = float(rng.uniform(0.1, 1.0))
        return (bs.Subdifferential(bs.L1Norm(k, w)),
                lambda x: np.sign(x) * np.maximum(np.abs(x) - w * gamma, 0.0))
    if choice == "sq_l2":
        c, w = rng.standard_normal(k), float(rng.uniform(0.1, 2.0))
        return (bs.Subdifferential(bs.SquaredDistance(c, w)),
                lambda x: (x + gamma * w * c) / (1.0 + gamma * w))
    if choice == "box":
        lo = -rng.uniform(0.1, 1.0, k)
        hi = lo + rng.uniform(0.1, 2.0, k)
        return (bs.BoxNormalCone(lo, hi),
                lambda x: np.minimum(np.maximum(x, lo), hi))
    M, c = _monotone_matrix(k, rng), rng.standard_normal(k)
    return (bs.LinearMonotone(M, c),
            lambda x: np.linalg.solve(np.eye(k) + gamma * M, x - gamma * c))


def _monotone_matrix(d, rng):
    """A PSD part plus a skew part: a monotone, generally not symmetric,
    linear map."""
    G, K = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    return rng.uniform(0.0, 1.0) * (G @ G.T) + rng.uniform(0.0, 1.0) * (K - K.T)


def _mu(data, rng):
    """A splitting relaxation schedule in ]0, 2[ and its values."""
    start = float(rng.uniform(0.1, 1.9))
    if data.draw(st.booleans(), label="ramp"):
        end, ramp = float(rng.uniform(0.1, 1.9)), int(rng.integers(1, 10))
        return (bs.Schedule(start, end, ramp),
                lambda n: start + (end - start) * (min(n, ramp) / ramp))
    return bs.Schedule(start), lambda n: start


def _run_args(data, rng):
    return dict(seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                iterations=data.draw(st.integers(1, 25), label="iterations"),
                tol=data.draw(st.sampled_from([0.0, 1e-3, 0.1]),
                              label="tolerance"))


def _assert_follows(trace, want, final, mu, tol):
    assert len(trace.records) == len(want)
    for got, rec in zip(trace.records, want):
        assert got.n == rec.n
        assert got.mask == rec.eps
        assert _close(got.residual, rec.residual, tol)
        assert (got.distance_to_reference is None) == (rec.distance is None)
        if rec.distance is not None:
            assert _close(got.distance_to_reference, rec.distance, tol)
        if rec.eps is None:
            assert got.snapshot is None and got.relaxation is None
        else:
            assert math.isclose(got.relaxation, mu(rec.n), rel_tol=TOL)
            assert _close(got.snapshot.flat, rec.x, tol)
    stopped = bool(want) and want[-1].eps is None
    assert trace.termination == ("tolerance" if stopped
                                 else "max_iterations")
    assert _close(trace.final.flat, final, tol)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_dr_follows_the_paper_recursion(data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6),
                     label="dims")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="problem seed"))
    d, bd = sum(dims), bs.BlockDims(dims)
    gamma = float(rng.uniform(0.2, 2.0))
    ops, JA = zip(*[data.draw(_monotone(k, gamma, rng)) for k in dims])
    if data.draw(st.sampled_from(["linear", "subspace"]),
                 label="coupled operator") == "linear":
        normal = np.eye(d) + gamma * _monotone_matrix(d, rng)

        def Q(v):
            return np.linalg.solve(normal, v)
    else:
        basis = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        P = np.linalg.qr(basis)[0]

        def Q(v):
            return P @ (P.T @ v)

    rule = data.draw(_rule(len(dims), rng))
    a, b = data.draw(_errors(rng)), data.draw(_errors(rng))
    relaxation, mu = _mu(data, rng)
    ref = rng.standard_normal(d) if data.draw(st.booleans(),
                                              label="reference") else None
    x0 = 3.0 * rng.standard_normal(d)
    run = _run_args(data, rng)

    cfg = bs.SolverConfig(
        sweeping=rule, dr_relaxation=relaxation,
        max_iterations=run["iterations"], tolerance=run["tol"],
        seed=run["seed"], snapshot_stride=1,
        errors={s: e for s, e in (("a", a), ("b", b)) if e is not None},
        reference=None if ref is None else bs.BlockVector(bd, ref))
    trace, sol = bs.run_dr(list(ops), lambda v: bs.BlockVector(bd, Q(v.flat)),
                           gamma, cfg, bs.BlockVector(bd, x0),
                           check_resolvent=False)

    def draws(slot, model):
        if model is None:
            return None
        return lambda n: paper_reference.errors([(slot, model, dims)], n,
                                                run["seed"])

    want, final = paper_reference.douglas_rachford(
        list(JA), Q, dims, x0, mu, rule, run["seed"], run["iterations"],
        run["tol"], draws("a", a), draws("b", b), ref)
    _assert_follows(trace, want, final, mu, TOL)
    q = Q(final)
    assert _close(sol.primal.flat, q)
    assert _close(sol.dual.flat, (final - q) / gamma)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_pd_dr_follows_the_paper_recursion(data):
    h_dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5),
                       label="primal dims")
    g_dims = data.draw(st.lists(st.integers(1, 3), min_size=1,
                                max_size=6 - len(h_dims)), label="image dims")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="problem seed"))
    h, g = sum(h_dims), sum(g_dims)
    gamma = float(rng.uniform(0.2, 2.0))
    terms = [data.draw(_monotone(k, gamma, rng)) for k in h_dims + g_dims]
    ops, JA = zip(*terms)
    scale = float(rng.uniform(0.2, 1.5))
    grid = [[scale * rng.standard_normal((gk, hi)) for hi in h_dims]
            for gk in g_dims]
    L = np.block(grid)
    problem = bs.assemble_pd_problem(list(ops[:len(h_dims)]),
                                     list(ops[len(h_dims):]), grid)
    rule = data.draw(_rule(len(h_dims) + len(g_dims), rng))
    models = {s: data.draw(_errors(rng)) for s in "abcd"}
    relaxation, mu = _mu(data, rng)
    ref = rng.standard_normal(h) if data.draw(st.booleans(),
                                              label="reference") else None
    x0 = 3.0 * rng.standard_normal(h)
    y0 = (3.0 * rng.standard_normal(g) if data.draw(st.booleans(),
                                                     label="y0") else None)
    run = _run_args(data, rng)

    cfg = bs.SolverConfig(
        sweeping=rule, dr_relaxation=relaxation,
        max_iterations=run["iterations"], tolerance=run["tol"],
        seed=run["seed"], snapshot_stride=1,
        errors={s: e for s, e in models.items() if e is not None},
        reference=None if ref is None else bs.BlockVector(
            bs.BlockDims(h_dims), ref))
    trace, sol = bs.run_pd_dr(
        problem, gamma, cfg, bs.BlockVector(bs.BlockDims(h_dims), x0),
        y0=None if y0 is None else bs.BlockVector(bs.BlockDims(g_dims), y0))

    want, final = paper_reference.primal_dual_douglas_rachford(
        list(JA), L, h_dims, g_dims, x0, L @ x0 if y0 is None else y0, mu,
        rule, run["seed"], run["iterations"], run["tol"], models, ref)
    _assert_follows(trace, want, final, mu, 1e-10)
    q = paper_reference.graph_projector(L)(final)
    assert _close(sol.primal.flat, q[:h], 1e-10)
    assert _close(sol.dual.flat, (q[h:] - final[h:]) / gamma, 1e-10)
