"""Proximal maps, resolvents, linear block operators, and regularity checks.

The function catalog provides closed-form proximal operators; monotone
operators expose resolvents; linear block operators carry their adjoints and
the projector onto their graph subspace ``{(x, y) : Lx = y}``.  Operator
families bundle an iteration-indexed evaluator with a declared regularity
class that can be spot-checked by sampling.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .blockspace import (
    BlockDims,
    BlockVector,
    _check_terms,
    _finite,
    _vec,
)
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


def _check_gamma(gamma: float) -> float:
    """``gamma`` as a float, checked > 0 (so a NaN is rejected too)."""
    gamma = float(gamma)
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return gamma


def _finite_param(a: np.ndarray, name: str) -> None:
    """Reject a parameter array with an infinite or NaN entry."""
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} must be finite")


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
        if not self.weight >= 0:
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
        _finite_param(center, "sq_l2 center")
        if not weight > 0:
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
        _finite_param(center, "ball center")
        if not radius > 0:
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
        _finite_param(Q, "quadratic Q")
        _finite_param(b, "quadratic b")
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
        _finite_param(M, "linear monotone M")
        _finite_param(offset, "linear monotone offset")
        sym = 0.5 * M + 0.5 * M.T  # 0.5 * (M + M.T) overflows near the max
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

    ``idx`` selects their entries from the flat vector and ``ids`` their
    blocks (slices when they are contiguous); the per-block parameters are
    stacked entry by entry so one numpy expression reproduces every
    per-block call exactly.
    """

    def __init__(self, kind, members, offsets):
        self.kind = kind
        ids = [i for i, _ in members]
        self.ids = _as_slice(np.array(ids))
        fns = [f for _, f in members]
        sizes = [f.dim for f in fns]
        self.idx = _as_slice(np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in ids]))
        if kind is L1Norm or kind is SquaredDistance:
            self.w = np.repeat(np.array([f.weight for f in fns],
                                        dtype=np.float64), sizes)
        if kind is SquaredDistance:
            self.center = np.concatenate([f.center for f in fns])
            # a value of dim 1 is one rounded square, so those blocks share
            # one expression; a longer one is a BLAS dot product, per block
            ones = [(i, f) for i, f in members if f.dim == 1]
            self.one_ids = np.array([i for i, _ in ones], dtype=np.intp)
            self.one_at = np.array(offsets, dtype=np.intp)[self.one_ids]
            self.one_half_w = np.array([0.5 * f.weight for _, f in ones])
            self.one_center = np.array([f.center[0] for _, f in ones])
            self.longer = [(i, f) for i, f in members if f.dim > 1]
        if kind is BoxIndicator:
            self.lo = np.concatenate([f.lo for f in fns])
            self.hi = np.concatenate([f.hi for f in fns])
            self.starts = np.cumsum([0] + sizes[:-1])
        if kind is L1Norm:
            # values sum each block, so blocks of one dim share a 2-D array
            # whose sums match the per-block 1-D sums bit for bit: below 8
            # entries a 1-D sum adds left to right, and so does a reduce
            # over the first axis of a C-ordered (dim, blocks) array, which
            # is much faster than one short row reduce per block; from 8
            # entries the 1-D sum is pairwise, which the row reduce of a
            # C-ordered (blocks, dim) array repeats.  ``take`` gathers the
            # entries block by block (a slice when the blocks are adjacent)
            by_dim: dict[int, list] = {}
            for i, f in members:
                by_dim.setdefault(f.dim, []).append((i, f))
            self.rows = [
                (_as_slice(np.array([i for i, _ in same])),
                 _as_slice(np.concatenate([np.arange(offsets[i], offsets[i + 1])
                                           for i, _ in same])),
                 (len(same), d), 0 if d < 8 else 1,
                 np.array([f.weight for _, f in same], dtype=np.float64))
                for d, same in by_dim.items()
            ]

    def prox(self, xs: np.ndarray, gamma: float) -> np.ndarray:
        """The map at the group's entries ``xs`` (``zero`` returns ``xs``)."""
        kind = self.kind
        if kind is L1Norm:
            # sign(x) * max(|x| - w gamma, 0), with one array for the steps
            out = np.abs(xs)
            out -= self.w * gamma
            np.maximum(out, 0.0, out=out)
            out *= np.sign(xs)
            return out
        if kind is SquaredDistance:
            gw = gamma * self.w
            return (xs + gw * self.center) / (1.0 + gw)
        if kind is BoxIndicator:
            return np.clip(xs, self.lo, self.hi)
        return xs  # Zero

    def values(self, flat: np.ndarray, out: np.ndarray, offsets) -> None:
        kind = self.kind
        if kind is L1Norm:
            for ids, take, shape, axis, w in self.rows:
                xs = flat[take].reshape(shape)
                if axis == 0:
                    xs = xs.T
                out[ids] = w * np.add.reduce(np.abs(xs, order="C"), axis=axis)
        elif kind is BoxIndicator:
            xs = flat[self.idx]
            inside = (xs >= self.lo) & (xs <= self.hi)
            out[self.ids] = np.where(
                np.logical_and.reduceat(inside, self.starts), 0.0, math.inf)
        elif kind is Zero:
            out[self.ids] = 0.0
        else:  # sq_l2
            d = flat[self.one_at] - self.one_center
            out[self.one_ids] = self.one_half_w * (d * d)
            for i, f in self.longer:
                out[i] = f.value(flat[offsets[i]:offsets[i + 1]])


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """Increasing indices ``idx``, as a slice when they are consecutive."""
    if idx.size and idx[-1] + 1 - idx[0] == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


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
    check and one gamma check.  ``_apply_flat`` and ``_values_flat`` are the
    array cores of ``apply`` and ``values``: they check neither dims nor
    finiteness and return new arrays.
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
        return BlockVector._own(self.dims, self._apply_flat(x.flat, gamma))

    def values(self, x: BlockVector) -> list[float]:
        """Per-block function values at ``x``, in block order."""
        self._check(x)
        return self._values_flat(x.flat).tolist()

    def _apply_flat(self, flat: np.ndarray, gamma) -> np.ndarray:
        off = self.dims.offsets
        out = np.empty_like(flat)
        if self._groups:
            g = _check_gamma(gamma)
            for group in self._groups:
                out[group.idx] = group.prox(flat[group.idx], g)
        for i, term in self._loose:
            image = getattr(term, self.method)(flat[off[i]:off[i + 1]], gamma)
            out[off[i]:off[i + 1]] = _vec(image, self.dims.dims[i], "block", i)
        return out

    def _values_flat(self, flat: np.ndarray) -> np.ndarray:
        off = self.dims.offsets
        out = np.empty(self.dims.m)
        for group in self._groups:
            group.values(flat, out, off)
        for i, term in self._loose:
            out[i] = term.value(flat[off[i]:off[i + 1]])
        return out


def _sweep_map(sweep) -> Callable[[np.ndarray, float], np.ndarray]:
    """``sweep``'s map on flat arrays, ``(flat, gamma) -> new array``.

    An object that only has the public ``dims`` and ``apply`` of a sweep is
    called through ``apply``.  The value is not checked finite.
    """
    core = getattr(sweep, "_apply_flat", None)
    if core is not None:
        return core
    dims = sweep.dims
    return lambda x, gamma: _data(sweep.apply(BlockVector._own(dims, x),
                                              gamma), dims.total)


def _sweep_values(sweep) -> Callable[[np.ndarray], np.ndarray]:
    """``sweep``'s per-block values at a flat array, as an array."""
    core = getattr(sweep, "_values_flat", None)
    if core is not None:
        return core
    dims = sweep.dims
    return lambda x: np.array(sweep.values(BlockVector._own(dims, x)),
                              dtype=np.float64)


def _data(v: BlockVector, total: int) -> np.ndarray:
    """The flat data of an operator's value, checked against the iterate."""
    if v.flat.shape != (total,):
        raise ShapeError(f"operator value has {v.flat.shape[0]} entries, "
                         f"expected {total}")
    return v.flat


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
        self.source_dims = BlockDims(sdims)
        self.target_dims = BlockDims(tdims)
        self.stacked = np.block([[mats[k][i] for i in range(m)] for k in range(p)])
        _finite_param(self.stacked, "grid entries")

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
        rows = self.stacked[self.target_dims.slice(k)]
        return rows @ rows.T


def spectral_norm_psd(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, by one ``eigvalsh``.

    Only the lower triangle of ``mat`` is read.
    """
    return float(np.linalg.eigvalsh(mat)[-1])


@dataclass(frozen=True)
class SmoothTerm:
    """A differentiable convex term with a Lipschitz gradient.

    ``fn`` is the catalog function the term differentiates: the
    ``Quadratic`` or ``SquaredDistance`` its constructor below built, and
    ``None`` for a term built from its gradient alone.  Coupling grids group
    their ``sq_l2`` rows by it, and exact references read quadratic
    structure from it.
    """

    dim: int
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    value: Callable[[np.ndarray], float] | None = None
    fn: ProxFunction | None = None

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise ParameterError("Lipschitz constant must be > 0")

    @staticmethod
    def quadratic(Q, b) -> "SmoothTerm":
        f = Quadratic(Q, b)
        tau = spectral_norm_psd(f.Q)
        if tau == 0.0:
            tau = 1e-30  # the zero map is L-Lipschitz for every L
        return SmoothTerm(f.dim, lambda y: f.Q @ y + f.b, tau, f.value, f)

    @staticmethod
    def squared_distance(center, weight: float = 1.0) -> "SmoothTerm":
        f = SquaredDistance(center, weight)
        return SmoothTerm(f.dim, lambda y: f.weight * (y - f.center),
                          f.weight, f.value, f)


class _SmoothRows:
    """The smooth terms of a coupling grid, grouped once.

    Rows whose ``fn`` is a ``SquaredDistance`` are one ``_Group`` of those
    functions: their gradients are one elementwise expression over the
    stacked image ``Lx`` with the weights and centers stacked entry by
    entry, equal to the per-row calls, and their values are the group's.  Every other row keeps its per-row call, and values
    are returned in row order.
    """

    def __init__(self, L: LinearBlockOperator, grads: Sequence[SmoothTerm]):
        grads = tuple(grads)
        _check_terms(tuple(g.dim for g in grads), L.target_dims,
                     "smooth term")
        self.L, self.grads = L, grads
        off = self.off = L.target_dims.offsets
        sq = [(k, g.fn) for k, g in enumerate(grads)
              if type(g.fn) is SquaredDistance]
        self.group = _Group(SquaredDistance, sq, off) if sq else None
        self.loose = [k for k, g in enumerate(grads)
                      if type(g.fn) is not SquaredDistance]
        self.has_values = all(g.value is not None for g in grads)

    def apply(self, x: BlockVector) -> BlockVector:
        """The chain-rule gradient at ``x``."""
        if x.dims != self.L.source_dims:
            raise ShapeError("input dims do not match the operator source")
        return BlockVector._own(self.L.source_dims, self.gradient(x.flat))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The chain-rule gradient at flat ``x``, a new array."""
        L = self.L.stacked
        y = L @ x
        g = np.empty_like(y)
        group, off = self.group, self.off
        if group is not None:
            g[group.idx] = group.w * (y[group.idx] - group.center)
        for k in self.loose:
            sl = slice(off[k], off[k + 1])
            g[sl] = _vec(self.grads[k].gradient(y[sl]), off[k + 1] - off[k],
                         "block", k)
        return L.T @ g

    def values(self, y: np.ndarray) -> list:
        """Every row's value at the flat image ``y``, in row order."""
        out = np.empty(len(self.grads))
        off = self.off
        if self.group is not None:
            self.group.values(y, out, off)
        for k in self.loose:
            out[k] = self.grads[k].value(y[off[k]:off[k + 1]])
        return out.tolist()


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

    Returns ``1 / sum_k tau_k * ||sum_i L_ki L_ki'||``, each spectral norm
    from one symmetric eigensolve.  Requires every target row of the grid to
    be nonzero.  Only a sum that overflows is summed again with the
    ``tau_k`` scaled by their largest, so no positive constant reads 0; a
    sum so small that its reciprocal is not finite is rejected.
    """
    if len(taus) != L.p:
        raise ShapeError(f"need {L.p} Lipschitz constants, got {len(taus)}")
    if not all(tau > 0 for tau in taus):
        raise ParameterError("Lipschitz constants must be > 0")
    norms = [spectral_norm_psd(gram) for gram in _row_grams(L)]
    for top in (1.0, max(taus)):
        total = 0.0
        for tau, norm in zip(taus, norms):
            total += tau / top * norm
        if not math.isinf(total):
            break
    theta = 1.0 / total / top if total else math.inf
    if math.isinf(theta):
        raise ParameterError(
            f"cocoercivity constant must be finite, got 1 / {total!r}")
    return theta


def _row_grams(L: LinearBlockOperator) -> list[np.ndarray]:
    """``sum_i L_ki L_ki'`` for each image row ``k``, checked nonzero.

    A row whose gram overflows is rejected here too, and so is a grid whose
    squared entries overflow, so ``I + L'L`` is finite.
    """
    with np.errstate(over="ignore"):
        grams = [L.row_gram(k) for k in range(L.p)]
        traces = [float(np.trace(gram)) for gram in grams]
    for k, trace in enumerate(traces):
        if trace <= 0.0:  # PSD: zero exactly when its trace is
            raise ParameterError(
                f"image row {k} of the coupling grid is zero; every row "
                "must carry a nonzero operator")
        if not math.isfinite(trace):
            raise ParameterError(
                f"image row {k} of the coupling grid overflows: the sum of "
                "its squared entries is not finite")
    if math.isinf(sum(traces)):
        raise ParameterError("the coupling grid overflows: the sum of its "
                             "squared entries is not finite")
    return grams


@dataclass(frozen=True)
class CocoerciveOperator:
    """A single-valued cocoercive map on the product space.

    ``_flat`` is its map on flat arrays, ``x -> new array``, which
    ``forward_step_family`` calls.  An operator built here calls ``apply``
    through a ``BlockVector`` wrap; ``coupling_forward_operator`` replaces
    that by the gradient's own core.
    """

    dims: BlockDims
    apply: Callable[[BlockVector], BlockVector]
    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ParameterError("cocoercivity constant must be > 0")

    def _flat(self, x: np.ndarray) -> np.ndarray:
        return _data(self.apply(BlockVector._own(self.dims, x)),
                     self.dims.total)


def coupling_forward_operator(
    L: LinearBlockOperator, grads: Sequence[SmoothTerm]
) -> CocoerciveOperator:
    """Package the coupling gradient with its cocoercivity constant.

    The smooth rows are grouped once here, not on every evaluation.
    """
    return _coupling_operator(_SmoothRows(L, grads))


def _coupling_operator(rows: _SmoothRows) -> CocoerciveOperator:
    """``coupling_forward_operator`` of already grouped rows."""
    theta = cocoercivity_bound(rows.L, [g.lipschitz for g in rows.grads])
    B = CocoerciveOperator(rows.L.source_dims, rows.apply, theta)
    # not checked: the forward step, its one caller, checks x - gamma_n B(x),
    # which is not finite whenever B(x) is not
    object.__setattr__(B, "_flat", rows.gradient)
    return B


@functools.cache
def _lapack():
    """``dpotrf`` and ``dpotrs``, the LAPACK calls of ``cho_factor`` and
    ``cho_solve``, from scipy's compiled wrapper alone, loaded once: importing
    the ``scipy.linalg`` package costs far more than the factor itself."""
    name = "scipy.linalg._flapack"
    lapack = sys.modules.get(name)
    if lapack is None:  # a missing file raises ImportError naming its path
        root = find_spec("scipy").submodule_search_locations[0]
        path = f"{root}/linalg/_flapack{EXTENSION_SUFFIXES[0]}"
        spec = spec_from_loader(name, ExtensionFileLoader(name, path))
        lapack = module_from_spec(spec)
        spec.loader.exec_module(lapack)
        if sys.modules.get(name) is lapack:  # a later scipy.linalg binds its own
            del sys.modules[name]
    return lapack.dpotrf, lapack.dpotrs


class GraphSubspace:
    """Projector onto ``{(x, y) : Lx = y}`` with one cached factorization.

    ``I + L'L`` is factorized once here, and each projection is one solve
    with it; a grid for which it overflows raises ``ParameterError``.
    """

    def __init__(self, operator: LinearBlockOperator):
        self.operator = operator
        L = operator.stacked
        with np.errstate(over="ignore"):
            normal = np.eye(operator.source_dims.total) + L.T @ L
        if not np.isfinite(normal).all():
            raise ParameterError("the coupling grid overflows: the sum of its "
                                 "squared entries is not finite")
        potrf, self._potrs = _lapack()
        # cho_factor(normal)'s call: the upper factor, the lower triangle kept
        self._factor, info = potrf(normal, lower=False, overwrite_a=False,
                                   clean=False)
        if info != 0:  # pragma: no cover - I + L'L is positive definite
            raise NumericError(f"graph subspace factorization failed: {info}")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """``cho_solve((self._factor, False), rhs)`` without its checks."""
        x, info = self._potrs(self._factor, rhs, lower=False)
        if info != 0:  # pragma: no cover - only for an illegal argument
            raise NumericError(f"potrs failed with info {info}")
        return x


def graph_projection(
    V: GraphSubspace, x: BlockVector, y: BlockVector
) -> tuple[BlockVector, BlockVector]:
    """Orthogonal projection of ``(x, y)`` onto the graph subspace.

    Computes ``t = (I + L'L)^{-1}(x + L'y)`` with one solve and returns
    ``(t, Lt)``, read-only views of one new array.  The route through
    ``s = (I + LL')^{-1}(Lx - y)``, giving ``(x - L's, y + s)``, is checked
    by the tests, on every iterate of random ``pd_dr`` runs.
    """
    op = V.operator
    if x.dims != op.source_dims or y.dims != op.target_dims:
        raise ShapeError("projection input dims do not match the subspace")
    ty = _graph_projection_flat(V, x.flat, y.flat)
    h = op.source_dims.total
    return (BlockVector._own(op.source_dims, ty[:h]),
            BlockVector._own(op.target_dims, ty[h:]))


def _graph_projection_flat(
    V: GraphSubspace, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """``graph_projection`` on flat arrays: one new array ``[t; Lt]``.

    ``t`` comes from the one solve, ``Lt`` is written into the tail, and one
    scan raises ``NonFiniteError`` when either is not finite.
    """
    L = V.operator.stacked
    h = x.shape[0]
    ty = np.empty(h + y.shape[0])
    ty[:h] = V._solve(x + L.T @ y)
    np.matmul(L, ty[:h], out=ty[h:])
    return _finite(ty)


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
        ends = (self.start,) if self.end is None else (self.start, self.end)
        if not all(map(math.isfinite, ends)):
            raise ParameterError("schedule start and end must be finite, "
                                 f"got {self.start} and {self.end}")

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

    ``_flat(n, x)`` is the same map on flat float64 arrays, which the
    drivers, the references and ``regularity_test`` call: it returns the
    image as an array checked finite that no one writes to, and does not
    write to ``x``.  A family built here calls ``evaluate`` on a
    ``BlockVector`` wrap of ``x``.  Every package family comes from
    ``_family`` and has an array core instead; its ``evaluate`` checks the
    blocks of ``x`` and wraps the value of the same map.
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

    def _flat(self, n: int, x: np.ndarray) -> np.ndarray:
        return _data(self.evaluate(n, BlockVector._own(self.dims, x)),
                     self.dims.total)

    def alpha_at(self, n: int) -> float:
        if self.averaging is None:
            raise ParameterError("family has no averaging constant")
        return self.averaging.at(n)


def _family(dims: BlockDims, image, regularity: str, averaging=None,
            fixed_points=()) -> BlockOperatorFamily:
    """The family of ``image(n, flat) -> array``, the one route of every
    package family.  Its ``evaluate`` checks the blocks of ``x`` and wraps
    the image as a ``BlockVector``, which checks it once; its array core
    checks it with ``_finite``."""
    for k, z in enumerate(fixed_points):
        if z.dims != dims:
            raise ShapeError(f"fixed point {k} is not on the operator blocks")
    def evaluate(n: int, x: BlockVector) -> BlockVector:
        if x.dims != dims:
            raise ShapeError("vector dims do not match the operator blocks")
        return BlockVector._own(dims, image(n, x.flat))

    family = BlockOperatorFamily(dims, evaluate, regularity, averaging,
                                 tuple(fixed_points))
    object.__setattr__(family, "_flat", lambda n, x: _finite(image(n, x)))
    return family


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
    return _sweep_family(sweep, gamma, fixed_points)


def _sweep_family(sweep, gamma, fixed_points=()) -> BlockOperatorFamily:
    """The 1/2-averaged family ``x -> sweep(x, gamma_n)``."""
    gamma, apply = as_schedule(gamma), _sweep_map(sweep)
    _check_gamma(gamma.bounds()[0])  # a ramp's values lie between its ends
    return _family(sweep.dims, lambda n, x: apply(x, gamma.at(n)),
                   "averaged", 0.5, fixed_points)


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
    return _sweep_family(sweep, gamma)


def forward_step_family(B: CocoerciveOperator | None, gamma,
                        dims: BlockDims | None = None) -> BlockOperatorFamily:
    """Gradient-style step ``x - gamma_n * B x``.

    The step with ``gamma_n < 2*theta`` is averaged with constant
    ``gamma_n / (2*theta)``.  With ``B`` absent this is the identity.
    """
    if B is None:
        if dims is None:
            raise ParameterError("need dims when the forward operator is absent")
        return _family(dims, lambda n, x: x, "averaged", 1e-9)

    gamma, grad = as_schedule(gamma), B._flat
    # one division per end: 1 / (2 theta) overflows for a tiny theta
    two_theta = 2.0 * B.theta
    averaging = Schedule(gamma.start / two_theta,
                         None if gamma.end is None else gamma.end / two_theta,
                         gamma.ramp)
    return _family(B.dims, lambda n, x: x - gamma.at(n) * grad(x), "averaged",
                   averaging)


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
    _finite_param(S, "affine matrix")
    _finite_param(c, "affine offset")

    return _family(dims, lambda n, x: S @ x + c, regularity, averaging,
                   fixed_points)


def constant_family(z: BlockVector) -> BlockOperatorFamily:
    """Constant map; quasinonexpansive with unique fixed point ``z``."""
    return _family(z.dims, lambda n, x: z.flat, "quasinonexpansive",
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


def _fixed_gap(T: BlockOperatorFamily, z: BlockVector) -> float:
    """``||T_0 z - z||`` by one quiet evaluation of ``T``'s array core."""
    with np.errstate(all="ignore"):
        return float(np.linalg.norm(T._flat(0, z.flat) - z.flat))


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

    One loop samples all three inequalities at pairs ``(x, y)``: ``y`` is
    drawn after ``x``, or for a quasinonexpansive claim is a declared fixed
    point, trusted as ``T y = y`` (only a config's are checked).  Slacks are
    the left side minus the right side of the squared inequality on
    ``T._flat``, so nonpositive slack means the sample satisfies the claim.
    Claims are only falsifiable by search; zero violations is evidence.
    """
    if claim not in _REGULARITY_TAGS:
        raise ParameterError(f"unknown regularity claim {claim!r}")
    fixed = T.fixed_points if claim == "quasinonexpansive" else None
    if fixed is not None and not fixed:
        raise ParameterError(
            "quasinonexpansive claims need at least one known fixed point"
        )
    rng = np.random.default_rng(rng_seed)
    d = T.dims.total
    worst = -math.inf
    violations = 0

    evaluate = T._flat
    alpha = T.alpha_at(iteration) if claim == "averaged" else None
    for _ in range(sample_count):
        x = rng.standard_normal(d)
        y = (rng.standard_normal(d) if fixed is None
             else fixed[int(rng.integers(len(fixed)))].flat)
        tx = evaluate(iteration, x)
        ty = evaluate(iteration, y) if fixed is None else y
        lhs = float(np.linalg.norm(tx - ty)) ** 2
        rhs = float(np.linalg.norm(x - y)) ** 2
        if claim == "averaged":
            res = (x - tx) - (y - ty)
            rhs -= (1.0 - alpha) / alpha * float(np.linalg.norm(res)) ** 2
        slack = lhs - rhs
        worst = max(worst, slack)
        if slack > tolerance:
            violations += 1
    return RegularityReport(violations, worst, sample_count)
