"""Product-space linear algebra for block-structured vectors.

A point lives in a direct sum of ``m`` real coordinate blocks with declared
dimensions.  Vectors are stored as one flat float64 array with per-block
views, are immutable after construction, and every operation here is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

__all__ = [
    "BlockDims",
    "BlockVector",
    "ActivationMask",
    "WeightedNormSpec",
    "construct",
    "combine",
    "reduce",
    "masked_update",
    "distance",
    "ReduceResult",
]


@dataclass(frozen=True)
class BlockDims:
    """Dimensions of the coordinate blocks of the product space.

    The flat layout (block start offsets and the total dimension) is
    computed once at construction, so ``slice(i)`` and ``total`` cost O(1).
    Equality and hashing look at ``dims`` only.
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise ShapeError("need at least one block")
        if any(d < 1 for d in dims):
            raise ShapeError(f"every block dimension must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_offsets", (0, *itertools.accumulate(dims)))

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return self._offsets[-1]

    @property
    def offsets(self) -> tuple[int, ...]:
        """Start offset of each block in the flat layout (plus the end)."""
        return self._offsets

    def slice(self, i: int) -> slice:
        off = self.offsets
        return slice(off[i], off[i + 1])

    def concat(self, other: "BlockDims") -> "BlockDims":
        return BlockDims(self.dims + other.dims)


class BlockVector:
    """An immutable element of the product space.

    Stored flat; ``block(i)`` returns a read-only view of block ``i``.  The
    constructor copies its input; the operations of this package wrap the
    arrays they compute through ``_own`` instead, which makes the same
    checks without the copy.
    """

    __slots__ = ("dims", "flat")

    def __init__(self, dims: BlockDims, flat: np.ndarray):
        _settle(self, dims, np.array(flat, dtype=np.float64))

    @classmethod
    def _own(cls, dims: BlockDims, flat: np.ndarray) -> "BlockVector":
        """Wrap a freshly computed float64 array, taking ownership of it.

        The array is not copied but marked read-only, so no other reference
        to it may write to it afterwards.  Shape and finiteness are checked
        as in the constructor.
        """
        vec = object.__new__(cls)
        _settle(vec, dims, flat)
        return vec

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BlockVector is immutable")

    def block(self, i: int) -> np.ndarray:
        return self.flat[self.dims.slice(i)]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.block(i) for i in range(self.dims.m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockVector):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.flat, other.flat)

    __hash__ = None  # mutable-looking container semantics

    def __repr__(self) -> str:
        inner = ", ".join(np.array2string(b, separator=",") for b in self.blocks)
        return f"BlockVector({inner})"


_all = np.logical_and.reduce


def _finite(flat: np.ndarray) -> np.ndarray:
    """``flat`` itself once every entry is checked finite.

    Raises ``NonFiniteError`` otherwise.  The scan calls the ufunc reduction
    directly: ``ndarray.all`` goes through numpy's Python-level wrapper.
    """
    if not _all(np.isfinite(flat)):
        raise NonFiniteError("block entries must be finite")
    return flat


def _settle(vec: BlockVector, dims: BlockDims, flat: np.ndarray) -> None:
    """Check ``flat`` and make it the read-only data of ``vec``."""
    if flat.shape != (dims.total,):
        raise ShapeError(
            f"flat data has shape {flat.shape}, expected ({dims.total},)"
        )
    _finite(flat).setflags(write=False)
    object.__setattr__(vec, "dims", dims)
    object.__setattr__(vec, "flat", flat)


@dataclass(frozen=True)
class ActivationMask:
    """Nonzero 0/1 activation pattern: which blocks update this iteration.

    ``active``, the indices of the set bits, is computed once here.
    Equality and hashing look at ``bits`` only.  The public constructor
    converts and checks every bit, an O(m) pass in Python.
    """

    bits: tuple[int, ...]
    active: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, bits: Sequence[int]):
        bits = tuple(map(int, bits))
        if not set(bits) <= {0, 1}:
            raise ShapeError(f"mask bits must be 0 or 1, got {bits}")
        if 1 not in bits:
            raise ShapeError("mask must activate at least one block")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "active",
                           tuple(itertools.compress(range(len(bits)), bits)))

    @classmethod
    def _unchecked(cls, bits: tuple[int, ...],
                   active: tuple[int, ...]) -> "ActivationMask":
        """A mask whose pattern is valid by construction.

        ``bits`` must be a tuple of Python ints 0/1 with at least one 1 and
        ``active`` its sorted set indices; neither is converted or checked.
        The samplers and the exact law build their masks here.
        """
        mask = object.__new__(cls)
        object.__setattr__(mask, "bits", bits)
        object.__setattr__(mask, "active", active)
        return mask

    @property
    def m(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class WeightedNormSpec:
    """Per-block activation probabilities defining the weighted norm.

    The squared weighted norm of ``x`` is ``sum_i ||x_i||^2 / weights[i]``,
    which upper-bounds the plain squared norm because weights lie in (0, 1].
    """

    weights: tuple[float, ...]

    def __init__(self, weights: Sequence[float]):
        weights = tuple(float(w) for w in weights)
        if any(not (0.0 < w <= 1.0) for w in weights):
            raise ShapeError(f"weights must lie in (0, 1], got {weights}")
        object.__setattr__(self, "weights", weights)


class ReduceResult(NamedTuple):
    inner: float
    norm_sq_x: float
    weighted_norm_sq_x: float | None


def _vec(x, dim: int, what: str = "input",
         index: int | None = None) -> np.ndarray:
    """``x`` as a float64 ``(dim,)`` array; a ``ShapeError`` names ``what``."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.shape != (dim,):
        if index is not None:  # formatted only on failure
            what = f"{what} {index}"
        raise ShapeError(f"{what} has shape {arr.shape}, expected ({dim},)")
    return arr


def _check_terms(term_dims: tuple[int, ...], dims: BlockDims, noun: str,
                 plural: str | None = None) -> None:
    """One term per block of ``dims``; ``term_dims`` are the terms' dims."""
    if term_dims == dims.dims:
        return
    if len(term_dims) != dims.m:
        raise ShapeError(f"need {dims.m} {plural or noun + 's'}, got "
                         f"{len(term_dims)}")
    i = next(i for i, d in enumerate(dims.dims) if term_dims[i] != d)
    raise ShapeError(f"{noun} {i} has dim {term_dims[i]}, expected "
                     f"{dims.dims[i]}")


def construct(dims: BlockDims, init: Sequence[Sequence[float]] | None = None) -> BlockVector:
    """Build a block vector from per-block data, or the zero vector."""
    if init is None:
        return BlockVector._own(dims, np.zeros(dims.total))
    if len(init) != dims.m:
        raise ShapeError(f"expected {dims.m} blocks of data, got {len(init)}")
    return BlockVector._own(dims, np.concatenate(
        [_vec(data, d, "block", i)
         for i, (data, d) in enumerate(zip(init, dims.dims))]))


def _check_same_dims(x: BlockVector, y: BlockVector) -> None:
    if x.dims != y.dims:
        raise ShapeError(f"block dims differ: {x.dims.dims} vs {y.dims.dims}")


def combine(a: float, x: BlockVector, b: float, y: BlockVector) -> BlockVector:
    """Blockwise linear combination ``a*x + b*y``."""
    _check_same_dims(x, y)
    return BlockVector._own(x.dims, a * x.flat + b * y.flat)


def reduce(
    x: BlockVector,
    y: BlockVector,
    weights: WeightedNormSpec | None = None,
) -> ReduceResult:
    """Inner product, squared norm of ``x``, and its weighted squared norm.

    ``inner = sum_i <x_i, y_i>`` and ``norm_sq_x = ||x||^2``.  When weights
    are given, ``weighted_norm_sq_x = sum_i ||x_i||^2 / weights[i]``.
    """
    _check_same_dims(x, y)
    inner = float(x.flat @ y.flat)
    norm_sq = float(x.flat @ x.flat)
    weighted = None
    if weights is not None:
        if len(weights.weights) != x.dims.m:
            raise ShapeError(
                f"got {len(weights.weights)} weights for {x.dims.m} blocks"
            )
        weighted = 0.0
        for i, w in enumerate(weights.weights):
            bi = x.block(i)
            weighted += float(bi @ bi) / w
    return ReduceResult(inner, norm_sq, weighted)


def masked_update(
    x: BlockVector,
    mask: ActivationMask,
    relax: float,
    target: BlockVector,
) -> BlockVector:
    """Relaxed update of the active blocks toward ``target``.

    Active block ``i`` becomes ``x_i + relax*(target_i - x_i)``; inactive
    blocks are bit-identical copies of ``x_i``.  With ``relax == 1`` active
    blocks are exact copies of the target.
    """
    _check_same_dims(x, target)
    if mask.m != x.dims.m:
        raise ShapeError(f"mask has {mask.m} bits for {x.dims.m} blocks")
    return BlockVector._own(x.dims, _masked_flat(x.flat, mask.active, relax,
                                                 target.flat, x.dims.offsets))


def _masked_flat(x: np.ndarray, active, relax: float, target: np.ndarray,
                 offsets) -> np.ndarray:
    """``masked_update`` on flat arrays, unchecked; returns a new array."""
    out = x.copy()
    for i in active:
        sl = slice(offsets[i], offsets[i + 1])
        if relax == 1.0:
            out[sl] = target[sl]
        else:
            out[sl] = x[sl] + relax * (target[sl] - x[sl])
    return out


def distance(x: BlockVector, y: BlockVector) -> float:
    """Euclidean distance ``||x - y||`` on the product space.

    Finite whenever ``x - y`` is: see ``_norm``.
    """
    _check_same_dims(x, y)
    return _norm(x.flat - y.flat)


def _norm(v: np.ndarray) -> float:
    """``||v||`` for a finite ``v``, without overflow in the squares.

    ``math.sqrt(v.dot(v))`` (so its bits) when that is finite; only when it
    is ``inf`` the sum of squares is recomputed on ``v / max|v|``.  The dot
    products are ``np.vdot``: the same BLAS call as ``ndarray.dot``, which
    does not turn an overflow into a ``RuntimeWarning``.
    """
    r = math.sqrt(np.vdot(v, v))
    if r == math.inf:
        s = float(np.abs(v).max())
        if s < math.inf:
            u = v / s
            r = s * math.sqrt(np.vdot(u, u))
    return r
