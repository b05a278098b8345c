"""Shared builders: the fixed verification problem suite and numeric oracles.

The oracles here are intentionally independent of the package's closed
forms: proximal points are recomputed by direct numerical minimization and
solver targets come from deterministic full-sweep references or hand
solutions.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import optimize

import blocksweep as bs

# hypothesis's pytest plugin imports this module to show a failing example.
# Its libcst import raises a DeprecationWarning, which the suite's
# ``error::DeprecationWarning`` filter would turn into an INTERNALERROR that
# hides the example; imported once here, the plugin's import finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin then skips the module too
        pass


# ---------------------------------------------------------------------------
# independent proximal oracle (numeric minimization, no closed forms)
# ---------------------------------------------------------------------------


def _argmin_scalar(h, lo: float, hi: float) -> float:
    # coarse grid then bounded refinement; convex 1-d objectives only
    grid = np.linspace(lo, hi, 2001)
    values = [h(t) for t in grid]
    j = int(np.argmin(values))
    a = grid[max(0, j - 2)]
    b = grid[min(len(grid) - 1, j + 2)]
    res = optimize.minimize_scalar(h, bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-12})
    return float(res.x)


def prox_numeric_oracle(f, gamma: float, x: np.ndarray) -> np.ndarray:
    """Minimize f(y) + ||x-y||^2/(2 gamma) numerically."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(f, bs.Zero):
        return x.copy()
    if isinstance(f, bs.L1Norm):
        w = f.weight
        out = np.empty_like(x)
        for j, xj in enumerate(x):
            span = abs(xj) + w * gamma + 1.0
            out[j] = _argmin_scalar(
                lambda t: w * abs(t) + (t - xj) ** 2 / (2 * gamma),
                -span, span)
        return out
    if isinstance(f, bs.BoxIndicator):
        out = np.empty_like(x)
        for j, xj in enumerate(x):
            lo = f.lo[j] if np.isfinite(f.lo[j]) else xj - 10 * (1 + abs(xj))
            hi = f.hi[j] if np.isfinite(f.hi[j]) else xj + 10 * (1 + abs(xj))
            out[j] = _argmin_scalar(lambda t: (t - xj) ** 2 / (2 * gamma),
                                    lo, hi)
        return out
    if isinstance(f, bs.BallIndicator):
        res = optimize.minimize(
            lambda y: float((y - x) @ (y - x)) / (2 * gamma),
            x0=f.center.copy(),
            jac=lambda y: (y - x) / gamma,
            constraints=[{
                "type": "ineq",
                "fun": lambda y: f.radius ** 2 - float((y - f.center) @ (y - f.center)),
                "jac": lambda y: -2.0 * (y - f.center),
            }],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        return np.asarray(res.x, dtype=float)
    if isinstance(f, bs.SquaredDistance):
        w = f.weight

        def obj(y):
            d = y - f.center
            e = y - x
            return 0.5 * w * float(d @ d) + float(e @ e) / (2 * gamma)

        def jac(y):
            return w * (y - f.center) + (y - x) / gamma

        res = optimize.minimize(obj, x0=x.copy(), jac=jac, method="L-BFGS-B",
                                options={"ftol": 1e-16, "gtol": 1e-12})
        return np.asarray(res.x, dtype=float)
    if isinstance(f, bs.Quadratic):
        def obj(y):
            e = y - x
            return (0.5 * float(y @ f.Q @ y) + float(f.b @ y)
                    + float(e @ e) / (2 * gamma))

        def jac(y):
            return f.Q @ y + f.b + (y - x) / gamma

        res = optimize.minimize(obj, x0=x.copy(), jac=jac, method="L-BFGS-B",
                                options={"ftol": 1e-16, "gtol": 1e-12})
        return np.asarray(res.x, dtype=float)
    raise NotImplementedError(type(f).__name__)


def random_catalog_function(rng: np.random.Generator, dim: int):
    """A random proximable function from the catalog."""
    pick = rng.integers(5)
    if pick == 0:
        return bs.L1Norm(dim, weight=float(rng.uniform(0.1, 2.0)))
    if pick == 1:
        return bs.SquaredDistance(rng.standard_normal(dim),
                                  weight=float(rng.uniform(0.2, 2.0)))
    if pick == 2:
        lo = rng.standard_normal(dim)
        return bs.BoxIndicator(lo, lo + rng.uniform(0.1, 2.0, size=dim))
    if pick == 3:
        return bs.BallIndicator(rng.standard_normal(dim),
                                float(rng.uniform(0.5, 2.0)))
    m = rng.standard_normal((dim, dim))
    return bs.Quadratic(m @ m.T + 0.1 * np.eye(dim), rng.standard_normal(dim))


# ---------------------------------------------------------------------------
# the fixed verification suite
# ---------------------------------------------------------------------------


def dr_1d():
    """0 in sign(x) + (x - 2): unique solution x = 1."""
    dims = bs.BlockDims([1])
    A = (bs.Subdifferential(bs.L1Norm(1)),)
    coupling = bs.LinearMonotone(np.array([[1.0]]), np.array([-2.0]))
    gamma = 1.0

    def jb(v):
        return bs.BlockVector(dims, coupling.resolvent(v.flat, gamma))

    forward = bs.CocoerciveOperator(
        dims, lambda v: bs.BlockVector(dims, coupling.apply(v.flat)), 1.0)
    problem = bs.DrProblem(A, jb, gamma, dims, forward)
    return {"dims": dims, "A": A, "jb": jb, "gamma": gamma,
            "problem": problem, "solution": np.array([1.0])}


def lasso_1d():
    """min 0.5 (x-1)^2 + 0.5 |x|: unique solution x = 0.5."""
    fs = (bs.L1Norm(1, weight=0.5),)
    smooth = (bs.SmoothTerm.squared_distance(np.array([1.0])),)
    L = bs.LinearBlockOperator([[np.array([[1.0]])]])
    problem = bs.CoupledMinProblem(fs, smooth, L)
    return {"fs": fs, "smooth": smooth, "L": L, "problem": problem,
            "solution": np.array([0.5]), "theta": 1.0}


def box_quadratic_m4():
    """Box-constrained strongly convex quadratic over four blocks."""
    Q = np.array([
        [2.0, 0.5, 0.0, 0.1],
        [0.5, 1.5, 0.3, 0.0],
        [0.0, 0.3, 1.0, 0.2],
        [0.1, 0.0, 0.2, 0.8],
    ])
    b = np.array([2.0, -1.0, 1.5, 0.5])
    dims = bs.BlockDims([1, 1, 1, 1])
    A = tuple(bs.BoxNormalCone([0.0], [1.0]) for _ in range(4))
    theta = 1.0 / bs.operators.spectral_norm_psd(Q)
    B = bs.CocoerciveOperator(
        dims, lambda v: bs.BlockVector(dims, Q @ v.flat - b), theta)
    problem = bs.FbProblem(A, B, dims)
    return {"dims": dims, "A": A, "B": B, "Q": Q, "b": b, "theta": theta,
            "problem": problem}


def coupled_lasso_m2():
    """min 0.1|x1| + 0.3|x2| + 0.5 (x1 + x2 - 1)^2: solution (0.9, 0)."""
    fs = (bs.L1Norm(1, weight=0.1), bs.L1Norm(1, weight=0.3))
    smooth = (bs.SmoothTerm.squared_distance(np.array([1.0])),)
    L = bs.LinearBlockOperator([[np.array([[1.0]]), np.array([[1.0]])]])
    problem = bs.CoupledMinProblem(fs, smooth, L)
    return {"fs": fs, "smooth": smooth, "L": L, "problem": problem,
            "solution": np.array([0.9, 0.0]), "theta": 0.5}


def km_two_halfspaces():
    """Blockwise projection onto two halfspaces x1 <= 0 and x2 <= 0.

    From (2, 3) every masked relaxed run decreases each coordinate toward 0,
    so the limit is the corner (0, 0) regardless of the activation draws.
    """
    dims = bs.BlockDims([1, 1])
    family = bs.box_projection_family(
        np.array([-np.inf, -np.inf]), np.array([0.0, 0.0]), dims)
    x0 = bs.construct(dims, [[2.0], [3.0]])
    problem = bs.KmProblem(family, x0)
    return {"dims": dims, "family": family, "x0": x0, "problem": problem,
            "solution": np.array([0.0, 0.0])}


def alternating_projection_oracle(x0: np.ndarray, iterations: int = 200):
    """Alternate exact projections onto x1 <= 0 then x2 <= 0."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iterations):
        x[0] = min(x[0], 0.0)
        x[1] = min(x[1], 0.0)
    return x


def pd_1d():
    """Primal-dual form of the 1-d inclusion: f = |.|, g = 0.5 (.-2)^2."""
    L = bs.LinearBlockOperator([[np.array([[1.0]])]])
    problem = bs.assemble_pd_problem(
        [bs.L1Norm(1)], [bs.SquaredDistance(np.array([2.0]))], L)
    return {"problem": problem, "L": L, "solution": np.array([1.0]),
            "dual_solution": np.array([-1.0])}
