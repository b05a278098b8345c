"""Proximal maps, resolvents, linear block operators, and regularity checks.

The function catalog provides closed-form proximal operators; monotone
operators expose resolvents; linear block operators carry their adjoints and
the projector onto their graph subspace ``{(x, y) : Lx = y}``.  Operator
families bundle an iteration-indexed evaluator with a declared regularity
class that can be spot-checked by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .blockspace import BlockDims, BlockVector
from .errors import (
    CapabilityError,
    NumericError,
    ParameterError,
    ShapeError,
)

__all__ = [
    "ProxFunction",
    "L1Norm",
    "SquaredDistance",
    "BoxIndicator",
    "BallIndicator",
    "Quadratic",
    "Zero",
    "prox_eval",
    "MonotoneOperator",
    "Subdifferential",
    "LinearMonotone",
    "BoxNormalCone",
    "resolvent",
    "blockwise_resolvent",
    "SeparableSweep",
    "LinearBlockOperator",
    "GraphSubspace",
    "graph_projection",
    "SmoothTerm",
    "forward_coupling_eval",
    "cocoercivity_bound",
    "CocoerciveOperator",
    "coupling_forward_operator",
    "Schedule",
    "as_schedule",
    "BlockOperatorFamily",
    "prox_family",
    "resolvent_family",
    "forward_step_family",
    "affine_family",
    "constant_family",
    "box_projection_family",
    "regularity_test",
    "RegularityReport",
    "spectral_norm_psd",
]


def _vec(x, dim: int, what: str = "input") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.shape != (dim,):
        raise ShapeError(f"{what} has shape {arr.shape}, expected ({dim},)")
    return arr


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return gamma


# ---------------------------------------------------------------------------
# proximal function catalog
# ---------------------------------------------------------------------------


class ProxFunction:
    """A convex function with a closed-form proximal operator.

    ``prox(x, gamma)`` returns the unique minimizer of
    ``f(y) + ||x - y||^2 / (2*gamma)``.
    """

    kind: str = ""
    dim: int = 0

    def value(self, x) -> float:
        raise NotImplementedError

    def prox(self, x, gamma: float) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self) -> "ProxFunction":
        raise CapabilityError(f"no closed-form conjugate for kind {self.kind!r}")


@dataclass(frozen=True)
class L1Norm(ProxFunction):
    """``f(y) = weight * sum_j |y_j|``; prox is soft thresholding."""

    dim: int
    weight: float = 1.0
    kind: str = field(default="l1", init=False)

    def __post_init__(self):
        if self.weight < 0:
            raise ParameterError("l1 weight must be >= 0")

    def value(self, x) -> float:
        return self.weight * float(np.abs(_vec(x, self.dim)).sum())

    def prox(self, x, gamma: float) -> np.ndarray:
        x = _vec(x, self.dim)
        t = self.weight * _check_gamma(gamma)
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def conjugate(self) -> "BoxIndicator":
        # dual-norm ball: the sup-norm ball of radius `weight`
        w = self.weight
        return BoxIndicator(np.full(self.dim, -w), np.full(self.dim, w))


@dataclass(frozen=True)
class SquaredDistance(ProxFunction):
    """``f(y) = weight/2 * ||y - center||^2``."""

    center: np.ndarray
    weight: float = 1.0
    kind: str = field(default="sq_l2", init=False)

    def __init__(self, center, weight: float = 1.0):
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if weight <= 0:
            raise ParameterError("sq_l2 weight must be > 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "weight", float(weight))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def value(self, x) -> float:
        d = _vec(x, self.dim) - self.center
        return 0.5 * self.weight * float(d @ d)

    def prox(self, x, gamma: float) -> np.ndarray:
        x = _vec(x, self.dim)
        gw = _check_gamma(gamma) * self.weight
        return (x + gw * self.center) / (1.0 + gw)


@dataclass(frozen=True)
class BoxIndicator(ProxFunction):
    """Indicator of the box ``[lo, hi]``; prox is the clamp, for any gamma."""

    lo: np.ndarray
    hi: np.ndarray
    kind: str = field(default="indicator_box", init=False)

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape:
            raise ShapeError("box bounds must have equal shapes")
        if not np.all(lo <= hi):
            raise ParameterError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def value(self, x) -> float:
        x = _vec(x, self.dim)
        inside = np.all(x >= self.lo) and np.all(x <= self.hi)
        return 0.0 if inside else math.inf

    def prox(self, x, gamma: float) -> np.ndarray:
        _check_gamma(gamma)
        return np.clip(_vec(x, self.dim), self.lo, self.hi)

    def conjugate(self) -> ProxFunction:
        w = float(self.hi[0])
        if np.all(self.hi == w) and np.all(self.lo == -w) and w > 0:
            return L1Norm(self.dim, weight=w)
        raise CapabilityError("conjugate only available for symmetric boxes")


@dataclass(frozen=True)
class BallIndicator(ProxFunction):
    """Indicator of the Euclidean ball; prox is the radial projection."""

    center: np.ndarray
    radius: float
    kind: str = field(default="indicator_ball", init=False)

    def __init__(self, center, radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if radius <= 0:
            raise ParameterError("ball radius must be > 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def value(self, x) -> float:
        d = _vec(x, self.dim) - self.center
        return 0.0 if float(np.linalg.norm(d)) <= self.radius + 1e-12 else math.inf

    def prox(self, x, gamma: float) -> np.ndarray:
        _check_gamma(gamma)
        x = _vec(x, self.dim)
        d = x - self.center
        r = float(np.linalg.norm(d))
        if r <= self.radius:
            return x.copy()
        return self.center + (self.radius / r) * d


@dataclass(frozen=True)
class Quadratic(ProxFunction):
    """``f(y) = y'Qy/2 + b'y`` with symmetric positive semidefinite ``Q``."""

    Q: np.ndarray
    b: np.ndarray
    kind: str = field(default="quadratic", init=False)

    def __init__(self, Q, b):
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        if Q.shape[0] != Q.shape[1] or Q.shape[0] != b.shape[0]:
            raise ShapeError("Q must be square and match b")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ParameterError("Q must be symmetric")
        if np.linalg.eigvalsh(Q).min() < -1e-10:
            raise ParameterError("Q must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x) -> float:
        x = _vec(x, self.dim)
        return 0.5 * float(x @ self.Q @ x) + float(self.b @ x)

    def prox(self, x, gamma: float) -> np.ndarray:
        gamma = _check_gamma(gamma)
        x = _vec(x, self.dim)
        return np.linalg.solve(np.eye(self.dim) + gamma * self.Q, x - gamma * self.b)


@dataclass(frozen=True)
class Zero(ProxFunction):
    """The zero function; its prox is the identity."""

    dim: int
    kind: str = field(default="zero", init=False)

    def value(self, x) -> float:
        _vec(x, self.dim)
        return 0.0

    def prox(self, x, gamma: float) -> np.ndarray:
        _check_gamma(gamma)
        return _vec(x, self.dim).copy()


def prox_eval(f: ProxFunction, gamma: float, x) -> np.ndarray:
    """Closed-form proximal step ``argmin_y f(y) + ||x - y||^2/(2*gamma)``."""
    return f.prox(x, gamma)


# ---------------------------------------------------------------------------
# monotone operators and resolvents
# ---------------------------------------------------------------------------


class MonotoneOperator:
    """A maximally monotone operator exposed through its resolvent."""

    kind: str = ""
    dim: int = 0

    def resolvent(self, x, gamma: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Subdifferential(MonotoneOperator):
    """Subdifferential of a catalog function; resolvent is its prox."""

    fn: ProxFunction
    kind: str = field(default="subdifferential", init=False)

    @property
    def dim(self) -> int:
        return self.fn.dim

    def resolvent(self, x, gamma: float) -> np.ndarray:
        return self.fn.prox(x, gamma)


@dataclass(frozen=True)
class LinearMonotone(MonotoneOperator):
    """Affine operator ``x -> M x + offset`` with monotone linear part.

    Monotonicity of ``M`` (nonnegative symmetric part) is verified at
    construction by an eigenvalue test.
    """

    M: np.ndarray
    offset: np.ndarray
    kind: str = field(default="linear_monotone", init=False)

    def __init__(self, M, offset=None):
        M = np.atleast_2d(np.asarray(M, dtype=np.float64))
        if M.shape[0] != M.shape[1]:
            raise ShapeError("M must be square")
        if offset is None:
            offset = np.zeros(M.shape[0])
        offset = np.atleast_1d(np.asarray(offset, dtype=np.float64))
        if offset.shape != (M.shape[0],):
            raise ShapeError("offset must match M")
        sym = 0.5 * (M + M.T)
        if np.linalg.eigvalsh(sym).min() < -1e-10:
            raise ParameterError("M is not monotone (symmetric part has a "
                                 "negative eigenvalue)")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def apply(self, x) -> np.ndarray:
        return self.M @ _vec(x, self.dim) + self.offset

    def resolvent(self, x, gamma: float) -> np.ndarray:
        gamma = _check_gamma(gamma)
        x = _vec(x, self.dim)
        try:
            return np.linalg.solve(
                np.eye(self.dim) + gamma * self.M, x - gamma * self.offset
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded
            raise NumericError(f"resolvent system is singular: {exc}") from exc


@dataclass(frozen=True)
class BoxNormalCone(MonotoneOperator):
    """Normal cone of a box; resolvent clamps, independently of gamma."""

    box: BoxIndicator
    kind: str = field(default="normal_cone", init=False)

    def __init__(self, lo, hi):
        object.__setattr__(self, "box", BoxIndicator(lo, hi))

    @property
    def dim(self) -> int:
        return self.box.dim

    def resolvent(self, x, gamma: float) -> np.ndarray:
        return self.box.prox(x, gamma)


def resolvent(
    A: MonotoneOperator, gamma: float, x, reflected: bool = False
) -> np.ndarray:
    """Resolvent step; with ``reflected`` returns twice the step minus input."""
    x = _vec(x, A.dim)
    j = A.resolvent(x, gamma)
    if reflected:
        return 2.0 * j - x
    return j


def blockwise_resolvent(
    ops: Sequence[MonotoneOperator], gamma: float
) -> Callable[[BlockVector], BlockVector]:
    """Full-vector resolvent of a blockwise-separable monotone operator."""
    sweep = SeparableSweep(ops, "resolvent")
    return lambda x: sweep.apply(x, gamma)


# ---------------------------------------------------------------------------
# grouped full sweeps over separable terms
# ---------------------------------------------------------------------------


def _elementwise(term):
    """The catalog function behind ``term`` if its prox acts entrywise."""
    if type(term) is Subdifferential:
        term = term.fn
    elif type(term) is BoxNormalCone:
        term = term.box
    return term if type(term) in _KERNELS else None


class _Group:
    """The blocks of one elementwise kind, gathered once.

    ``idx`` selects their entries from the flat vector (a slice when they
    are contiguous); the per-block parameters are stacked entry by entry so
    one numpy expression reproduces every per-block call exactly.
    """

    def __init__(self, kind, members, offsets):
        self.kind = kind
        self.ids = np.array([i for i, _ in members])
        fns = [f for _, f in members]
        sizes = [f.dim for f in fns]
        idx = np.concatenate([np.arange(offsets[i], offsets[i + 1])
                              for i in self.ids])
        start, stop = int(idx[0]), int(idx[-1]) + 1
        self.idx = slice(start, stop) if stop - start == len(idx) else idx
        if kind is L1Norm or kind is SquaredDistance:
            self.w = np.repeat(np.array([f.weight for f in fns],
                                        dtype=np.float64), sizes)
        if kind is SquaredDistance:
            self.center = np.concatenate([f.center for f in fns])
        if kind is BoxIndicator:
            self.lo = np.concatenate([f.lo for f in fns])
            self.hi = np.concatenate([f.hi for f in fns])
            self.starts = np.cumsum([0] + sizes[:-1])
        if kind is L1Norm:
            # values sum each block, so blocks of one dim share a 2-D gather
            # whose row sums match the per-block 1-D sums bit for bit
            by_dim: dict[int, list] = {}
            for i, f in members:
                by_dim.setdefault(f.dim, []).append((i, f))
            self.rows = [
                (np.array([i for i, _ in same]),
                 np.array([np.arange(offsets[i], offsets[i + 1])
                           for i, _ in same]),
                 np.array([f.weight for _, f in same], dtype=np.float64))
                for same in by_dim.values()
            ]
        self.fns = fns

    def prox(self, xs: np.ndarray, gamma: float) -> np.ndarray:
        kind = self.kind
        if kind is L1Norm:
            return np.sign(xs) * np.maximum(np.abs(xs) - self.w * gamma, 0.0)
        if kind is SquaredDistance:
            gw = gamma * self.w
            return (xs + gw * self.center) / (1.0 + gw)
        if kind is BoxIndicator:
            return np.clip(xs, self.lo, self.hi)
        return xs  # Zero

    def values(self, flat: np.ndarray, out: np.ndarray, offsets) -> None:
        kind = self.kind
        if kind is L1Norm:
            for ids, rows, w in self.rows:
                out[ids] = w * np.abs(flat[rows]).sum(axis=1)
        elif kind is BoxIndicator:
            xs = flat[self.idx]
            inside = (xs >= self.lo) & (xs <= self.hi)
            out[self.ids] = np.where(
                np.logical_and.reduceat(inside, self.starts), 0.0, math.inf)
        elif kind is Zero:
            out[self.ids] = 0.0
        else:
            # sq_l2 values are BLAS dot products: keep the per-block call
            for i, f in zip(self.ids, self.fns):
                out[i] = f.value(flat[offsets[i]:offsets[i + 1]])


_KERNELS = (L1Norm, SquaredDistance, BoxIndicator, Zero)


class SeparableSweep:
    """Every block's prox or resolvent in one pass over a flat vector.

    ``terms[i]`` acts on block ``i`` through its ``method`` (``"prox"`` for
    catalog functions, ``"resolvent"`` for monotone operators).  Blocks whose
    term is an ``l1``, ``sq_l2``, box or ``zero`` function, also when wrapped
    in ``Subdifferential`` or ``BoxNormalCone``, are mapped by one numpy call
    per kind over index arrays built here, with results equal entry for
    entry to the per-block calls.  ``quadratic``, ball, ``LinearMonotone``
    and any other term keep their per-block call.  Each sweep makes one dims
    check and one gamma check.
    """

    def __init__(self, terms: Sequence, method: str):
        self.terms = tuple(terms)
        self.method = method
        self.dims = BlockDims([t.dim for t in self.terms])
        grouped: dict[type, list] = {}
        self._loose = []
        for i, term in enumerate(self.terms):
            fn = _elementwise(term)
            if fn is None:
                self._loose.append((i, term))
            else:
                grouped.setdefault(type(fn), []).append((i, fn))
        self._groups = [_Group(kind, members, self.dims.offsets)
                        for kind, members in grouped.items()]

    def _check(self, x: BlockVector) -> None:
        if x.dims != self.dims:
            raise ShapeError("vector dims do not match the operator blocks")

    def apply(self, x: BlockVector, gamma) -> BlockVector:
        """The blockwise map at ``x`` with parameter ``gamma``."""
        self._check(x)
        flat, off = x.flat, self.dims.offsets
        out = np.empty_like(flat)
        if self._groups:
            g = _check_gamma(gamma)
            for group in self._groups:
                out[group.idx] = group.prox(flat[group.idx], g)
        for i, term in self._loose:
            image = getattr(term, self.method)(flat[off[i]:off[i + 1]], gamma)
            arr = np.atleast_1d(np.asarray(image, dtype=np.float64))
            if arr.shape != (self.dims.dims[i],):
                raise ShapeError(f"block {i} has shape {arr.shape}, expected "
                                 f"({self.dims.dims[i]},)")
            out[off[i]:off[i + 1]] = arr
        return BlockVector._own(self.dims, out)

    def values(self, x: BlockVector) -> list[float]:
        """Per-block function values at ``x``, in block order."""
        self._check(x)
        flat, off = x.flat, self.dims.offsets
        out = np.empty(self.dims.m)
        for group in self._groups:
            group.values(flat, out, off)
        for i, term in self._loose:
            out[i] = term.value(flat[off[i]:off[i + 1]])
        return out.tolist()


# ---------------------------------------------------------------------------
# linear block operators, coupling gradients, graph projector
# ---------------------------------------------------------------------------


class LinearBlockOperator:
    """A ``p x m`` grid of dense matrices acting between block spaces.

    Entry ``(k, i)`` maps source block ``i`` to target block ``k``; the
    adjoint of an entry is its transpose.
    """

    def __init__(self, grid: Sequence[Sequence]):
        if len(grid) < 1 or len(grid[0]) < 1:
            raise ShapeError("grid must be at least 1 x 1")
        mats = [[np.atleast_2d(np.asarray(e, dtype=np.float64)) for e in row]
                for row in grid]
        p, m = len(mats), len(mats[0])
        if any(len(row) != m for row in mats):
            raise ShapeError("grid rows must have equal length")
        tdims = [mats[k][0].shape[0] for k in range(p)]
        sdims = [mats[0][i].shape[1] for i in range(m)]
        for k in range(p):
            for i in range(m):
                if mats[k][i].shape != (tdims[k], sdims[i]):
                    raise ShapeError(
                        f"grid entry ({k},{i}) has shape {mats[k][i].shape}, "
                        f"expected ({tdims[k]},{sdims[i]})"
                    )
        self.grid = tuple(tuple(row) for row in mats)
        self.source_dims = BlockDims(sdims)
        self.target_dims = BlockDims(tdims)
        self.stacked = np.block([[mats[k][i] for i in range(m)] for k in range(p)])

    @property
    def p(self) -> int:
        return self.target_dims.m

    @property
    def m(self) -> int:
        return self.source_dims.m

    def apply(self, x: BlockVector) -> BlockVector:
        if x.dims != self.source_dims:
            raise ShapeError("input dims do not match the operator source")
        return BlockVector._own(self.target_dims, self.stacked @ x.flat)

    def adjoint(self, y: BlockVector) -> BlockVector:
        if y.dims != self.target_dims:
            raise ShapeError("input dims do not match the operator target")
        return BlockVector._own(self.source_dims, self.stacked.T @ y.flat)

    def row_gram(self, k: int) -> np.ndarray:
        """``sum_i L_ki L_ki'`` for target block ``k`` (symmetric PSD)."""
        g = np.zeros((self.target_dims.dims[k],) * 2)
        for i in range(self.m):
            e = self.grid[k][i]
            g += e @ e.T
        return g


def spectral_norm_psd(mat: np.ndarray, iterations: int = 200,
                      tol: float = 1e-12) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    n = mat.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for attempt in range(2):
        for _ in range(iterations):
            w = mat @ v
            norm = float(np.linalg.norm(w))
            if norm == 0.0:
                break
            v = w / norm
            new_lam = float(v @ mat @ v)
            if lam > 0 and abs(new_lam - lam) <= tol * lam:
                lam = new_lam
                return lam
            lam = new_lam
        if lam > 0:
            return lam
        # a deterministic restart in case the start vector was orthogonal
        # to the leading eigenspace
        v = np.random.default_rng(0).standard_normal(n)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            break
        v = v / nv
    return lam


@dataclass(frozen=True)
class SmoothTerm:
    """A differentiable convex term with a Lipschitz gradient.

    ``hessian``/``linear`` are set by the quadratic constructors so that
    exact references can recognize quadratic structure.
    """

    dim: int
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    value: Callable[[np.ndarray], float] | None = None
    hessian: np.ndarray | None = None
    linear: np.ndarray | None = None

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ParameterError("Lipschitz constant must be > 0")

    @staticmethod
    def quadratic(Q, b) -> "SmoothTerm":
        f = Quadratic(Q, b)
        tau = spectral_norm_psd(f.Q)
        if tau == 0.0:
            tau = 1e-30  # the zero map is L-Lipschitz for every L
        return SmoothTerm(f.dim, lambda y: f.Q @ y + f.b, tau, f.value,
                          hessian=f.Q, linear=f.b)

    @staticmethod
    def squared_distance(center, weight: float = 1.0) -> "SmoothTerm":
        f = SquaredDistance(center, weight)
        term = SmoothTerm(
            f.dim, lambda y: f.weight * (y - f.center), f.weight, f.value,
            hessian=weight * np.eye(f.dim), linear=-weight * f.center,
        )
        # the function behind the term, read by _SmoothRows to group rows
        object.__setattr__(term, "_sq_l2", f)
        return term


class _SmoothRows:
    """The smooth terms of a coupling grid, grouped once.

    Rows made by ``SmoothTerm.squared_distance`` are gathered like the
    blocks of a ``_Group``: their gradients are one elementwise expression
    over the stacked image ``Lx`` with the weights and centers stacked
    entry by entry, equal to the per-row calls.  Their values join one
    expression only for rows of dim 1, where the per-row dot product is a
    single rounded square; a longer dot product is left to BLAS, whose
    summation order is its own.  Every other row keeps its per-row call,
    and values are returned in row order.
    """

    def __init__(self, L: LinearBlockOperator, grads: Sequence[SmoothTerm]):
        grads = tuple(grads)
        tdims = L.target_dims.dims
        if len(grads) != L.p:
            raise ShapeError(f"need {L.p} smooth terms, got {len(grads)}")
        for k, g in enumerate(grads):
            if g.dim != tdims[k]:
                raise ShapeError(f"smooth term {k} has dim {g.dim}, expected "
                                 f"{tdims[k]}")
        self.L, self.grads = L, grads
        off = self.off = L.target_dims.offsets
        sq = {k: g._sq_l2 for k, g in enumerate(grads) if hasattr(g, "_sq_l2")}
        self.loose = [k for k in range(L.p) if k not in sq]
        self.has_values = all(g.value is not None for g in grads)
        idx = np.array([j for k in sq for j in range(off[k], off[k + 1])],
                       dtype=np.intp)
        self.idx = idx
        if idx.size and idx[-1] + 1 - idx[0] == idx.size:
            self.idx = slice(int(idx[0]), int(idx[-1]) + 1)
        self.w = np.array([f.weight for f in sq.values() for _ in range(f.dim)])
        self.center = np.array([c for f in sq.values() for c in f.center])
        # the value rows of dim 1: entry, 0.5 * weight and center per row
        ones = [k for k, f in sq.items() if f.dim == 1]
        self.value_rows = ones
        self.value_at = np.array([off[k] for k in ones], dtype=np.intp)
        self.value_half_w = np.array([0.5 * sq[k].weight for k in ones])
        self.value_center = np.array([sq[k].center[0] for k in ones])
        self.value_loose = [k for k in range(L.p) if k not in ones]

    def apply(self, x: BlockVector) -> BlockVector:
        """The chain-rule gradient at ``x``."""
        if x.dims != self.L.source_dims:
            raise ShapeError("input dims do not match the operator source")
        return BlockVector._own(self.L.source_dims, self.gradient(x.flat))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The chain-rule gradient at flat ``x``, a new array."""
        L = self.L.stacked
        y = L @ x
        y.setflags(write=False)
        g = np.empty_like(y)
        g[self.idx] = self.w * (y[self.idx] - self.center)
        off = self.off
        for k in self.loose:
            sl = slice(off[k], off[k + 1])
            arr = np.atleast_1d(np.asarray(self.grads[k].gradient(y[sl]),
                                           dtype=np.float64))
            if arr.shape != (off[k + 1] - off[k],):
                raise ShapeError(f"block {k} has shape {arr.shape}, expected "
                                 f"({off[k + 1] - off[k]},)")
            g[sl] = arr
        return L.T @ g

    def values(self, y: np.ndarray) -> list:
        """Every row's value at the flat image ``y``, in row order."""
        out = [None] * len(self.grads)
        d = y[self.value_at] - self.value_center
        for k, v in zip(self.value_rows, (self.value_half_w * (d * d)).tolist()):
            out[k] = v
        off = self.off
        for k in self.value_loose:
            out[k] = self.grads[k].value(y[off[k]:off[k + 1]])
        return out


def forward_coupling_eval(
    L: LinearBlockOperator,
    grads: Sequence[SmoothTerm],
    x: BlockVector,
) -> BlockVector:
    """Gradient of ``x -> sum_k g_k(sum_i L_ki x_i)`` by the chain rule.

    Evaluates the target-block images, applies every smooth gradient there,
    and pulls back through the adjoint.
    """
    return _SmoothRows(L, grads).apply(x)


def cocoercivity_bound(L: LinearBlockOperator, taus: Sequence[float]) -> float:
    """Cocoercivity constant of the coupling gradient.

    Returns ``1 / sum_k tau_k * ||sum_i L_ki L_ki'||`` with spectral norms by
    power iteration.  Requires every target row of the grid to be nonzero.
    """
    if len(taus) != L.p:
        raise ShapeError(f"need {L.p} Lipschitz constants, got {len(taus)}")
    total = 0.0
    for k, tau in enumerate(taus):
        if tau <= 0:
            raise ParameterError("Lipschitz constants must be > 0")
        gram = L.row_gram(k)
        norm = spectral_norm_psd(gram)
        if norm <= 0.0:
            raise ParameterError(
                f"target row {k} of the coupling grid is zero; every row "
                "must have a nonzero operator"
            )
        total += tau * norm
    return 1.0 / total


@dataclass(frozen=True)
class CocoerciveOperator:
    """A single-valued cocoercive map on the product space."""

    dims: BlockDims
    apply: Callable[[BlockVector], BlockVector]
    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ParameterError("cocoercivity constant must be > 0")


def coupling_forward_operator(
    L: LinearBlockOperator, grads: Sequence[SmoothTerm]
) -> CocoerciveOperator:
    """Package the coupling gradient with its cocoercivity constant.

    The smooth rows are grouped once here, not on every evaluation.
    """
    rows = _SmoothRows(L, grads)
    theta = cocoercivity_bound(L, [g.lipschitz for g in grads])
    return CocoerciveOperator(L.source_dims, rows.apply, theta)


class GraphSubspace:
    """Projector onto ``{(x, y) : Lx = y}`` with cached factorizations.

    Both normal systems ``I + L'L`` and ``I + LL'`` are symmetric positive
    definite; they are factorized once and reused for every projection.
    """

    def __init__(self, operator: LinearBlockOperator):
        # scipy is imported here, not at module load: only graph-coupled
        # problems pay its import time
        from scipy.linalg import cho_factor, get_lapack_funcs

        self.operator = operator
        L = operator.stacked
        h, g = operator.source_dims.total, operator.target_dims.total
        try:
            self._h_factor = cho_factor(np.eye(h) + L.T @ L)
            self._g_factor = cho_factor(np.eye(g) + L @ L.T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded
            raise NumericError(f"graph subspace factorization failed: {exc}") from exc
        # looked up once: cho_solve looks it up and checks its inputs per call
        self._potrs, = get_lapack_funcs(("potrs",), (self._h_factor[0],))

    def _solve(self, factor, rhs: np.ndarray) -> np.ndarray:
        """``cho_solve(factor, rhs)`` without its per-call checks."""
        c, lower = factor
        x, info = self._potrs(c, rhs, lower=lower)
        if info != 0:  # pragma: no cover - only for an illegal argument
            raise NumericError(f"potrs failed with info {info}")
        return x

    @property
    def source_dims(self) -> BlockDims:
        return self.operator.source_dims

    @property
    def target_dims(self) -> BlockDims:
        return self.operator.target_dims


def graph_projection(
    V: GraphSubspace, x: BlockVector, y: BlockVector
) -> tuple[BlockVector, BlockVector]:
    """Orthogonal projection of ``(x, y)`` onto the graph subspace.

    Computes ``t = (I + L'L)^{-1}(x + L'y)`` and returns ``(t, Lt)``.  In
    debug mode the equivalent route through ``s = (I + LL')^{-1}(Lx - y)``,
    giving ``(x - L's, y + s)``, is asserted to agree.
    """
    op = V.operator
    if x.dims != op.source_dims or y.dims != op.target_dims:
        raise ShapeError("projection input dims do not match the subspace")
    L = op.stacked
    t = V._solve(V._h_factor, x.flat + L.T @ y.flat)
    lt = L @ t
    pair = (BlockVector._own(op.source_dims, t),
            BlockVector._own(op.target_dims, lt))
    if __debug__:
        s = V._solve(V._g_factor, L @ x.flat - y.flat)
        alt_t = x.flat - L.T @ s
        alt_lt = y.flat + s
        scale = 1.0 + float(np.linalg.norm(x.flat)) + float(np.linalg.norm(y.flat))
        gap = math.hypot(
            float(np.linalg.norm(t - alt_t)), float(np.linalg.norm(lt - alt_lt))
        )
        assert gap <= 1e-9 * scale, f"projector routes disagree by {gap:.3e}"
    return pair


# ---------------------------------------------------------------------------
# operator families and regularity testing
# ---------------------------------------------------------------------------

_REGULARITY_TAGS = ("quasinonexpansive", "nonexpansive", "averaged")


@dataclass(frozen=True)
class Schedule:
    """A constant value or a two-point linear ramp over the iterations.

    With ``end`` and ``ramp`` set, the value moves linearly from ``start`` at
    iteration 0 to ``end`` at iteration ``ramp`` and stays there.
    """

    start: float
    end: float | None = None
    ramp: int | None = None

    def __post_init__(self):
        if (self.end is None) != (self.ramp is None):
            raise ParameterError("a ramp schedule needs both end and ramp")
        if self.ramp is not None and self.ramp < 1:
            raise ParameterError("ramp length must be >= 1")

    def at(self, n: int) -> float:
        if self.end is None:
            return self.start
        t = min(n, self.ramp) / self.ramp
        return self.start + (self.end - self.start) * t

    def bounds(self) -> tuple[float, float]:
        if self.end is None:
            return (self.start, self.start)
        return (min(self.start, self.end), max(self.start, self.end))

    def scaled(self, factor: float) -> "Schedule":
        if self.end is None:
            return Schedule(self.start * factor)
        return Schedule(self.start * factor, self.end * factor, self.ramp)


def as_schedule(value) -> Schedule:
    if isinstance(value, Schedule):
        return value
    return Schedule(float(value))


@dataclass(frozen=True)
class BlockOperatorFamily:
    """An iteration-indexed self-map of the product space.

    ``evaluate(n, x)`` must return the image of the full vector ``x`` under
    the iteration-``n`` operator.  The regularity tag declares the class the
    family claims to belong to; for averaged families ``averaging`` gives the
    averaging constant, a float or a ``Schedule``, kept as a ``Schedule``.
    """

    dims: BlockDims
    evaluate: Callable[[int, BlockVector], BlockVector]
    regularity: str
    averaging: Schedule | None = None
    fixed_points: tuple[BlockVector, ...] = ()

    def __post_init__(self):
        if self.regularity not in _REGULARITY_TAGS:
            raise ParameterError(
                f"regularity must be one of {_REGULARITY_TAGS}, "
                f"got {self.regularity!r}"
            )
        if self.regularity == "averaged" and self.averaging is None:
            raise ParameterError("averaged families need an averaging constant")
        if self.averaging is not None:
            object.__setattr__(self, "averaging", as_schedule(self.averaging))

    def alpha_at(self, n: int) -> float:
        if self.averaging is None:
            raise ParameterError("family has no averaging constant")
        return self.averaging.at(n)


def prox_family(
    fs: Sequence[ProxFunction],
    gamma,
    fixed_points: Sequence[BlockVector] = (),
) -> BlockOperatorFamily:
    """Blockwise proximal map; firmly nonexpansive, so 1/2-averaged.

    ``evaluate`` is one grouped pass over the full vector: one numpy call
    per elementwise kind (``l1``, ``sq_l2``, box, ``zero``) and one ``prox``
    call per other block; see ``SeparableSweep``.
    """
    sweep = SeparableSweep(fs, "prox")
    gamma = as_schedule(gamma)

    def evaluate(n: int, x: BlockVector) -> BlockVector:
        return sweep.apply(x, gamma.at(n))

    return BlockOperatorFamily(sweep.dims, evaluate, "averaged", 0.5,
                               tuple(fixed_points))


def resolvent_family(
    ops: Sequence[MonotoneOperator] | SeparableSweep,
    gamma,
) -> BlockOperatorFamily:
    """Blockwise resolvent map; firmly nonexpansive, so 1/2-averaged.

    ``evaluate`` is one grouped pass over the full vector: subdifferentials
    of ``l1``, ``sq_l2``, box and ``zero`` terms and box normal cones are
    mapped by one numpy call per kind, every other operator by its own
    ``resolvent`` call; see ``SeparableSweep``.  ``ops`` may also be a
    resolvent ``SeparableSweep`` built once over the operators; it is then
    used as is, so repeated runs do not rebuild its index arrays.
    """
    sweep = (ops if isinstance(ops, SeparableSweep)
             else SeparableSweep(ops, "resolvent"))
    gamma = as_schedule(gamma)

    def evaluate(n: int, x: BlockVector) -> BlockVector:
        return sweep.apply(x, gamma.at(n))

    return BlockOperatorFamily(sweep.dims, evaluate, "averaged", 0.5)


def forward_step_family(B: CocoerciveOperator | None, gamma,
                        dims: BlockDims | None = None) -> BlockOperatorFamily:
    """Gradient-style step ``x - gamma_n * B x``.

    The step with ``gamma_n < 2*theta`` is averaged with constant
    ``gamma_n / (2*theta)``.  With ``B`` absent this is the identity.
    """
    if B is None:
        if dims is None:
            raise ParameterError("need dims when the forward operator is absent")
        return BlockOperatorFamily(
            dims, lambda n, x: x, "averaged", 1e-9
        )

    gamma = as_schedule(gamma)

    def evaluate(n: int, x: BlockVector) -> BlockVector:
        return BlockVector._own(B.dims,
                                x.flat - gamma.at(n) * B.apply(x).flat)

    return BlockOperatorFamily(B.dims, evaluate, "averaged",
                               gamma.scaled(1.0 / (2.0 * B.theta)))


def affine_family(
    dims: BlockDims,
    matrix,
    offset=None,
    regularity: str = "nonexpansive",
    averaging: Schedule | float | None = None,
    fixed_points: Sequence[BlockVector] = (),
) -> BlockOperatorFamily:
    """Affine map ``x -> S x + c`` with a caller-declared regularity tag."""
    S = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if S.shape != (dims.total, dims.total):
        raise ShapeError(f"matrix must be {dims.total} x {dims.total}")
    c = np.zeros(dims.total) if offset is None else np.atleast_1d(
        np.asarray(offset, dtype=np.float64)
    )
    if c.shape != (dims.total,):
        raise ShapeError("offset must match the total dimension")

    def evaluate(n: int, x: BlockVector) -> BlockVector:
        return BlockVector._own(dims, S @ x.flat + c)

    return BlockOperatorFamily(dims, evaluate, regularity, averaging,
                               tuple(fixed_points))


def constant_family(z: BlockVector) -> BlockOperatorFamily:
    """Constant map; quasinonexpansive with unique fixed point ``z``."""
    return BlockOperatorFamily(z.dims, lambda n, x: z, "quasinonexpansive",
                               fixed_points=(z,))


def box_projection_family(lo, hi, dims: BlockDims) -> BlockOperatorFamily:
    """Blockwise projection onto a box, split along the given blocks."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape != (dims.total,) or hi.shape != (dims.total,):
        raise ShapeError("box bounds must match the total dimension")
    boxes = [BoxIndicator(lo[dims.slice(i)], hi[dims.slice(i)])
             for i in range(dims.m)]
    return prox_family(boxes, 1.0)


class RegularityReport(NamedTuple):
    violations: int
    worst_slack: float
    samples: int


def regularity_test(
    T: BlockOperatorFamily,
    claim: str,
    sample_count: int = 200,
    rng_seed: int = 0,
    tolerance: float = 1e-9,
    iteration: int = 0,
) -> RegularityReport:
    """Sample the defining inequality of a regularity class.

    Slacks are the left side minus the right side of the squared inequality,
    so nonpositive slack means the sample satisfies the claim.  Claims are
    only falsifiable by search; zero violations is evidence, not proof.
    """
    if claim not in _REGULARITY_TAGS:
        raise ParameterError(f"unknown regularity claim {claim!r}")
    rng = np.random.default_rng(rng_seed)
    d = T.dims.total
    worst = -math.inf
    violations = 0

    def draw() -> BlockVector:
        return BlockVector(T.dims, rng.standard_normal(d))

    if claim == "quasinonexpansive":
        if not T.fixed_points:
            raise ParameterError(
                "quasinonexpansive claims need at least one known fixed point"
            )
        for _ in range(sample_count):
            x = draw()
            z = T.fixed_points[int(rng.integers(len(T.fixed_points)))]
            tx = T.evaluate(iteration, x)
            slack = (
                float(np.linalg.norm(tx.flat - z.flat)) ** 2
                - float(np.linalg.norm(x.flat - z.flat)) ** 2
            )
            worst = max(worst, slack)
            if slack > tolerance:
                violations += 1
        return RegularityReport(violations, worst, sample_count)

    alpha = T.alpha_at(iteration) if claim == "averaged" else None
    for _ in range(sample_count):
        x, y = draw(), draw()
        tx = T.evaluate(iteration, x)
        ty = T.evaluate(iteration, y)
        lhs = float(np.linalg.norm(tx.flat - ty.flat)) ** 2
        rhs = float(np.linalg.norm(x.flat - y.flat)) ** 2
        if claim == "averaged":
            res = (x.flat - tx.flat) - (y.flat - ty.flat)
            rhs -= (1.0 - alpha) / alpha * float(np.linalg.norm(res)) ** 2
        slack = lhs - rhs
        worst = max(worst, slack)
        if slack > tolerance:
            violations += 1
    return RegularityReport(violations, worst, sample_count)
