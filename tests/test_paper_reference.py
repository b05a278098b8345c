"""``run_single_layer`` against the paper's update, record by record.

``paper_reference.single_layer`` transcribes the relaxed random-sweeping
update in plain numpy and draws its masks and errors through the public
samplers.  Each drawn problem runs both ways at snapshot stride 1, and
every record's iterate, residual and distance to the reference must agree
within 1e-12 relative (absolute below 1), its mask and relaxation exactly
or within the same bound, as must the termination and the final point.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
import paper_reference

TOL = 1e-12


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.linalg.norm(got - want)
                <= TOL * max(float(np.linalg.norm(want)), 1.0))


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
