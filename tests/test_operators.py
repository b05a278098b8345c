import math

import numpy as np
import pytest

import blocksweep as bs
from blocksweep.operators import spectral_norm_psd

from conftest import prox_numeric_oracle, random_catalog_function


# ---------------------------------------------------------------------------
# proximal catalog
# ---------------------------------------------------------------------------


def test_prox_zero_is_identity():
    f = bs.Zero(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(bs.prox_eval(f, 5.0, x), x)


def test_prox_l1_matches_grid_oracle():
    f = bs.L1Norm(1)
    got = bs.prox_eval(f, 1.0, np.array([2.0]))
    want = prox_numeric_oracle(f, 1.0, np.array([2.0]))
    assert got == pytest.approx([1.0], abs=1e-9)
    assert got == pytest.approx(want, abs=1e-6)


def test_prox_box_clamp_gamma_independent():
    f = bs.BoxIndicator([0.0], [1.0])
    assert bs.prox_eval(f, 5.0, np.array([3.0])) == pytest.approx([1.0])
    assert bs.prox_eval(f, 0.01, np.array([3.0])) == pytest.approx([1.0])


@pytest.mark.parametrize("seed", range(6))
def test_prox_catalog_vs_numeric_minimization(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(1, 4))
    f = random_catalog_function(rng, dim)
    for _ in range(8):
        gamma = float(rng.uniform(0.3, 2.5))
        x = rng.standard_normal(dim) * 2.0
        got = bs.prox_eval(f, gamma, x)
        want = prox_numeric_oracle(f, gamma, x)
        assert np.linalg.norm(got - want) <= 1e-6 * (1 + np.linalg.norm(want))


def test_prox_gamma_must_be_positive():
    with pytest.raises(bs.ParameterError):
        bs.prox_eval(bs.L1Norm(1), 0.0, np.array([1.0]))


def test_moreau_decomposition_l1_ball_pair():
    rng = np.random.default_rng(3)
    for w in (1.0, 0.5, 2.0):
        f = bs.L1Norm(4, weight=w)
        fstar = f.conjugate()
        assert isinstance(fstar, bs.BoxIndicator)
        for _ in range(20):
            x = rng.standard_normal(4) * 3
            lhs = bs.prox_eval(f, 1.0, x) + bs.prox_eval(fstar, 1.0, x)
            assert np.linalg.norm(lhs - x) <= 1e-10


def test_box_conjugate_round_trip():
    f = bs.BoxIndicator([-0.5] * 3, [0.5] * 3)
    g = f.conjugate()
    assert isinstance(g, bs.L1Norm) and g.weight == 0.5
    with pytest.raises(bs.CapabilityError):
        bs.BoxIndicator([0.0], [1.0]).conjugate()


def test_prox_firmly_nonexpansive_sampled():
    rng = np.random.default_rng(17)
    for seed in range(5):
        f = random_catalog_function(np.random.default_rng(seed), 3)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            px, py = bs.prox_eval(f, 1.0, x), bs.prox_eval(f, 1.0, y)
            d = px - py
            slack = float(d @ d) - float((x - y) @ d)
            assert slack <= 1e-9


def test_quadratic_validation():
    with pytest.raises(bs.ParameterError):
        bs.Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(bs.ParameterError):
        bs.Quadratic(np.array([[-1.0]]), np.zeros(1))
    with pytest.raises(bs.ParameterError):
        bs.BallIndicator(np.zeros(2), 0.0)
    with pytest.raises(bs.ParameterError):
        bs.BoxIndicator([1.0], [0.0])


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------


def test_resolvent_linear_scalar():
    A = bs.LinearMonotone(np.array([[1.0]]))
    assert bs.resolvent(A, 1.0, np.array([4.0])) == pytest.approx([2.0])


def test_resolvent_reflected_l1():
    A = bs.Subdifferential(bs.L1Norm(1))
    out = bs.resolvent(A, 1.0, np.array([2.0]), reflected=True)
    assert out == pytest.approx([0.0])


def test_resolvent_normal_cone_halfline():
    A = bs.BoxNormalCone([0.0], [np.inf])
    assert bs.resolvent(A, 3.0, np.array([-3.0])) == pytest.approx([0.0])


def test_resolvent_identity_for_linear():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    M = M @ M.T + 0.2 * np.eye(4)
    A = bs.LinearMonotone(M)
    for gamma in (0.5, 1.0, 2.0):
        x = rng.standard_normal(4)
        j = bs.resolvent(A, gamma, x)
        assert np.linalg.norm((np.eye(4) + gamma * M) @ j - x) <= 1e-10


def test_linear_monotone_rejects_nonmonotone():
    with pytest.raises(bs.ParameterError):
        bs.LinearMonotone(np.array([[-0.5]]))


def test_blockwise_resolvent():
    ops = [bs.Subdifferential(bs.L1Norm(1)),
           bs.LinearMonotone(np.array([[1.0]]))]
    jb = bs.blockwise_resolvent(ops, 1.0)
    d = bs.BlockDims([1, 1])
    out = jb(bs.construct(d, [[2.0], [4.0]]))
    assert out.flat == pytest.approx([1.0, 2.0])


# ---------------------------------------------------------------------------
# coupling gradients and the cocoercivity constant
# ---------------------------------------------------------------------------


def test_forward_coupling_identity_shifted_quadratic():
    L = bs.LinearBlockOperator([[np.eye(2)]])
    g = [bs.SmoothTerm.squared_distance(np.array([1.0, -1.0]))]
    x = bs.construct(bs.BlockDims([2]), [[3.0, 3.0]])
    out = bs.forward_coupling_eval(L, g, x)
    assert out.flat == pytest.approx([2.0, 4.0])


def test_forward_coupling_sum_chain_rule():
    L = bs.LinearBlockOperator([[np.array([[1.0]]), np.array([[1.0]])]])
    g = [bs.SmoothTerm.squared_distance(np.array([0.0]))]
    x = bs.construct(bs.BlockDims([1, 1]), [[1.0], [2.0]])
    out = bs.forward_coupling_eval(L, g, x)
    assert out.flat == pytest.approx([3.0, 3.0])


def test_forward_coupling_matches_finite_differences():
    rng = np.random.default_rng(5)
    grid = [[rng.standard_normal((2, 2)), rng.standard_normal((2, 3))],
            [rng.standard_normal((1, 2)), rng.standard_normal((1, 3))]]
    L = bs.LinearBlockOperator(grid)
    Q = rng.standard_normal((2, 2))
    smooth = [bs.SmoothTerm.quadratic(Q @ Q.T + 0.1 * np.eye(2),
                                      rng.standard_normal(2)),
              bs.SmoothTerm.squared_distance(rng.standard_normal(1), 1.7)]

    def h(flat):
        y = L.stacked @ flat
        return (smooth[0].value(y[:2]) + smooth[1].value(y[2:]))

    x = rng.standard_normal(5)
    xv = bs.BlockVector(L.source_dims, x)
    got = bs.forward_coupling_eval(L, smooth, xv).flat
    step = 1e-5
    fd = np.empty(5)
    for j in range(5):
        e = np.zeros(5)
        e[j] = step
        fd[j] = (h(x + e) - h(x - e)) / (2 * step)
    assert np.linalg.norm(got - fd) <= 1e-6 * (1 + np.linalg.norm(fd))


def test_cocoercivity_bound_examples():
    Lid = bs.LinearBlockOperator([[np.array([[1.0]])]])
    assert bs.cocoercivity_bound(Lid, [1.0]) == pytest.approx(1.0)

    Lsum = bs.LinearBlockOperator([[np.array([[1.0]]), np.array([[1.0]])]])
    assert bs.cocoercivity_bound(Lsum, [1.0]) == pytest.approx(0.5)

    Ltwo = bs.LinearBlockOperator([[np.array([[1.0]])], [np.array([[1.0]])]])
    assert bs.cocoercivity_bound(Ltwo, [1.0, 3.0]) == pytest.approx(0.25)


def test_cocoercivity_bound_rejects_zero_row():
    L = bs.LinearBlockOperator([[np.array([[1.0]])], [np.array([[0.0]])]])
    with pytest.raises(bs.ParameterError):
        bs.cocoercivity_bound(L, [1.0, 1.0])


def test_coupling_forward_operator_is_cocoercive_sampled():
    rng = np.random.default_rng(21)
    grid = [[rng.standard_normal((2, 3)), rng.standard_normal((2, 2))]]
    L = bs.LinearBlockOperator(grid)
    smooth = [bs.SmoothTerm.squared_distance(rng.standard_normal(2), 1.3)]
    B = bs.coupling_forward_operator(L, smooth)
    for _ in range(200):
        x = bs.BlockVector(B.dims, rng.standard_normal(5))
        y = bs.BlockVector(B.dims, rng.standard_normal(5))
        d = B.apply(x).flat - B.apply(y).flat
        slack = B.theta * float(d @ d) - float((x.flat - y.flat) @ d)
        assert slack <= 1e-9


def test_spectral_norm_psd_matches_eigvalsh():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A = rng.standard_normal((6, 6))
        S = A @ A.T
        assert spectral_norm_psd(S) == pytest.approx(
            float(np.linalg.eigvalsh(S).max()), rel=1e-9)
    assert spectral_norm_psd(np.zeros((3, 3))) == 0.0


# ---------------------------------------------------------------------------
# graph subspace projector
# ---------------------------------------------------------------------------


def test_graph_projection_scalar_average():
    L = bs.LinearBlockOperator([[np.array([[1.0]])]])
    V = bs.GraphSubspace(L)
    t, lt = bs.graph_projection(
        V,
        bs.construct(bs.BlockDims([1]), [[2.0]]),
        bs.construct(bs.BlockDims([1]), [[0.0]]),
    )
    assert t.flat == pytest.approx([1.0])
    assert lt.flat == pytest.approx([1.0])


def test_graph_projection_fixes_graph_points():
    rng = np.random.default_rng(9)
    L = bs.LinearBlockOperator([[rng.standard_normal((2, 3))]])
    V = bs.GraphSubspace(L)
    x = bs.BlockVector(L.source_dims, rng.standard_normal(3))
    y = L.apply(x)
    t, lt = bs.graph_projection(V, x, y)
    assert np.linalg.norm(t.flat - x.flat) <= 1e-12
    assert np.linalg.norm(lt.flat - y.flat) <= 1e-12


def test_graph_projection_idempotent_and_self_adjoint():
    rng = np.random.default_rng(31)
    L = bs.LinearBlockOperator([[rng.standard_normal((3, 2))]])
    V = bs.GraphSubspace(L)
    h, g = L.source_dims, L.target_dims

    def project(xf, yf):
        t, lt = bs.graph_projection(V, bs.BlockVector(h, xf),
                                    bs.BlockVector(g, yf))
        return np.concatenate([t.flat, lt.flat])

    for _ in range(20):
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        pu = project(u[:2], u[2:])
        ppu = project(pu[:2], pu[2:])
        assert np.linalg.norm(ppu - pu) <= 1e-10
        pv = project(v[:2], v[2:])
        assert abs(float(pu @ v) - float(u @ pv)) <= 1e-9


def test_linear_block_operator_validation():
    with pytest.raises(bs.ShapeError):
        bs.LinearBlockOperator([[np.ones((2, 2)), np.ones((3, 2))]])
    L = bs.LinearBlockOperator([[np.ones((2, 2))]])
    with pytest.raises(bs.ShapeError):
        L.apply(bs.construct(bs.BlockDims([3])))


# ---------------------------------------------------------------------------
# operator families and regularity testing
# ---------------------------------------------------------------------------


def test_regularity_identity_nonexpansive():
    d = bs.BlockDims([2])
    T = bs.affine_family(d, np.eye(2))
    report = bs.regularity_test(T, "nonexpansive", sample_count=100)
    assert report.violations == 0


def test_regularity_prox_is_half_averaged():
    d = bs.BlockDims([1, 2])
    T = bs.prox_family([bs.L1Norm(1), bs.BallIndicator(np.zeros(2), 1.0)], 1.0)
    report = bs.regularity_test(T, "averaged", sample_count=1000)
    assert report.violations == 0


def test_regularity_doubling_violates():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[2.0]]), regularity="nonexpansive")
    report = bs.regularity_test(T, "nonexpansive", sample_count=100)
    assert report.violations > 0


def test_regularity_quasi_requires_fixed_point():
    d = bs.BlockDims([1])
    T = bs.affine_family(d, np.array([[0.5]]),
                         regularity="quasinonexpansive")
    with pytest.raises(bs.ParameterError):
        bs.regularity_test(T, "quasinonexpansive")
    z = bs.construct(d)
    T2 = bs.affine_family(d, np.array([[0.5]]),
                          regularity="quasinonexpansive", fixed_points=[z])
    report = bs.regularity_test(T2, "quasinonexpansive", sample_count=200)
    assert report.violations == 0


def test_family_validation():
    d = bs.BlockDims([1])
    with pytest.raises(bs.ParameterError):
        bs.BlockOperatorFamily(d, lambda n, x: x, "bogus")
    with pytest.raises(bs.ParameterError):
        bs.BlockOperatorFamily(d, lambda n, x: x, "averaged")


# ---------------------------------------------------------------------------
# values wrapped without a copy
# ---------------------------------------------------------------------------


def _fresh(out, *inputs):
    assert not out.flat.flags.writeable
    for v in inputs:
        assert not np.shares_memory(out.flat, v.flat)


def test_operator_values_are_fresh_read_only_arrays():
    rng = np.random.default_rng(11)
    d = bs.BlockDims([2, 1])
    x = bs.BlockVector(d, rng.standard_normal(3))
    L = bs.LinearBlockOperator([[rng.standard_normal((2, 2)),
                                 rng.standard_normal((2, 1))]])
    y = L.apply(x)
    _fresh(y, x)
    _fresh(L.adjoint(y), y)
    V = bs.GraphSubspace(L)
    t, lt = bs.graph_projection(V, x, y)
    _fresh(t, x, y)
    _fresh(lt, x, y)
    sweep = bs.operators.SeparableSweep(
        [bs.L1Norm(2, 0.3), bs.Quadratic(np.eye(1), [0.5])], "prox")
    _fresh(sweep.apply(x, 0.7), x)
    # the grouped zero kernel returns its input slice; the sweep copies it
    _fresh(bs.prox_family([bs.Zero(2), bs.Zero(1)], 1.0).evaluate(0, x), x)
    smooth = [bs.SmoothTerm.squared_distance(rng.standard_normal(2))]
    B = bs.coupling_forward_operator(L, smooth)
    families = [
        bs.prox_family([bs.L1Norm(2), bs.SquaredDistance([0.1])], 0.5),
        bs.resolvent_family([bs.BoxNormalCone([-1, -1], [1, 1]),
                             bs.LinearMonotone([[2.0]])], 0.5),
        bs.forward_step_family(B, 0.5 * B.theta),
        bs.affine_family(d, 0.5 * np.eye(3), [1.0, 2.0, 3.0]),
        bs.box_projection_family([-1, -1, -1], [1, 1, 1], d),
    ]
    for family in families:
        _fresh(family.evaluate(0, x), x)
    _fresh(B.apply(x), x)
    _fresh(bs.forward_coupling_eval(L, smooth, x), x)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_operator_values_raise_non_finite_error():
    d = bs.BlockDims([1, 1])
    huge = bs.construct(d, [[1e200], [1e200]])
    with pytest.raises(bs.NonFiniteError, match="must be finite"):
        bs.affine_family(d, 1e200 * np.eye(2)).evaluate(0, huge)
    L = bs.LinearBlockOperator([[np.array([[2.0]]), np.array([[3.0]])]])
    big = bs.construct(d, [[1e308], [1e308]])
    with pytest.raises(bs.NonFiniteError, match="must be finite"):
        L.apply(big)
    with pytest.raises(bs.NonFiniteError, match="must be finite"):
        bs.graph_projection(bs.GraphSubspace(L), big,
                            bs.construct(L.target_dims, [[1e308]]))
