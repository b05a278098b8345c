"""Random activation of coordinate blocks and summable stochastic errors.

Masks are drawn from a fixed law on the nonzero 0/1 patterns with strictly
positive per-block activation probabilities.  All randomness is keyed only by
``(seed, iteration, stream)``, never by the iterate, so the draws at
different iterations are identically distributed and independent of the
iterate history by construction.  Error models produce vectors whose root
mean squared norms form a convergent geometric series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .blockspace import ActivationMask, BlockDims, BlockVector
from .errors import CapacityError, InvalidRuleError

__all__ = [
    "SweepingRule",
    "single_block",
    "independent_bernoulli",
    "fixed_subset_size",
    "MaskLaw",
    "sample_mask",
    "mask_law",
    "ErrorModel",
    "sample_error",
    "error_norm_series",
]

_MASK_STREAM = 0x6D61736B  # "mask"
_ERROR_STREAM = 0x65727273  # "errs"

_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class SweepingRule:
    """A probability law on the nonzero activation patterns of ``m`` blocks.

    Schemes:

    * ``single_block``: exactly one block, block ``i`` with probability
      proportional to ``weights[i]``.
    * ``independent_bernoulli``: bit ``i`` is Bernoulli(``probabilities[i]``),
      the all-zero pattern is rejected and redrawn.
    * ``fixed_subset_size``: a uniformly random subset of ``size`` blocks.

    Every block must end up with a strictly positive activation probability.
    """

    scheme: str
    m: int
    weights: tuple[float, ...] | None = None        # single_block
    probabilities: tuple[float, ...] | None = None  # independent_bernoulli
    size: int | None = None                         # fixed_subset_size

    def __post_init__(self):
        if self.m < 1:
            raise InvalidRuleError("rule needs at least one block")
        if self.scheme == "single_block":
            w = self.weights
            if w is None or len(w) != self.m:
                raise InvalidRuleError("single_block needs one weight per block")
            if any(wi <= 0 for wi in w):
                raise InvalidRuleError(
                    "single_block weights must be > 0 so that every marginal "
                    "activation probability is > 0"
                )
            # normalised once: every mask draw and the mask law read it;
            # the CDF is the one Generator.choice(m, p=p) builds per call
            w = np.asarray(w)
            p = w / w.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            p.setflags(write=False)
            cdf.setflags(write=False)
            object.__setattr__(self, "_block_p", p)
            object.__setattr__(self, "_block_cdf", cdf)
        elif self.scheme == "independent_bernoulli":
            q = self.probabilities
            if q is None or len(q) != self.m:
                raise InvalidRuleError(
                    "independent_bernoulli needs one probability per block"
                )
            if any(not (0.0 < qi <= 1.0) for qi in q):
                raise InvalidRuleError(
                    "independent_bernoulli probabilities must lie in (0, 1]; "
                    "a zero entry would give that block a zero marginal"
                )
            q = np.array(q, dtype=np.float64)
            q.setflags(write=False)
            object.__setattr__(self, "_bernoulli_q", q)
        elif self.scheme == "fixed_subset_size":
            s = self.size
            if s is None or not (1 <= s <= self.m):
                raise InvalidRuleError(
                    f"fixed_subset_size needs 1 <= size <= m, got {s}"
                )
        else:
            raise InvalidRuleError(f"unknown sweeping scheme {self.scheme!r}")


def single_block(m: int, weights: Sequence[float] | None = None) -> SweepingRule:
    w = tuple(float(v) for v in (weights if weights is not None else [1.0] * m))
    return SweepingRule("single_block", m, weights=w)


def independent_bernoulli(probabilities: Sequence[float]) -> SweepingRule:
    q = tuple(float(v) for v in probabilities)
    return SweepingRule("independent_bernoulli", len(q), probabilities=q)


def fixed_subset_size(m: int, size: int) -> SweepingRule:
    return SweepingRule("fixed_subset_size", m, size=int(size))


def _rng(seed: int, iteration: int, stream: int) -> np.random.Generator:
    key = [int(seed) & 0xFFFFFFFF, int(iteration), stream]
    if 0 <= key[1] <= 0xFFFFFFFF and 0 <= stream <= 0xFFFFFFFF:
        # SeedSequence makes one uint32 word of each entry below 2**32, so
        # a uint32 array of them seeds the same state without converting
        # entry by entry
        key = np.array(key, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(key))


def sample_mask(rule: SweepingRule, iteration: int, seed: int) -> ActivationMask:
    """Draw the activation mask for one iteration.

    Deterministic given ``(rule, iteration, seed)`` and independent of
    anything else; the law is the same for every iteration.
    """
    rng = _rng(seed, iteration, _MASK_STREAM)
    m = rule.m
    if rule.scheme == "single_block":
        # the draw of rng.choice(m, p=rule._block_p), without its per-call
        # validation and cumulative sum
        i = int(rule._block_cdf.searchsorted(rng.random(), side="right"))
        return ActivationMask._unchecked((0,) * i + (1,) + (0,) * (m - i - 1),
                                         (i,))
    if rule.scheme == "independent_bernoulli":
        while True:
            bits = tuple((rng.random(m) < rule._bernoulli_q).view(np.uint8)
                         .tolist())
            if 1 in bits:
                return ActivationMask._unchecked(
                    bits, tuple(itertools.compress(range(m), bits)))
    # fixed_subset_size
    active = tuple(sorted(rng.choice(m, size=rule.size, replace=False).tolist()))
    bits = [0] * m
    for i in active:
        bits[i] = 1
    return ActivationMask._unchecked(tuple(bits), active)


@dataclass(frozen=True, eq=False)
class MaskLaw:
    """The exact law of a sweeping rule over its K nonzero patterns.

    ``bits`` is the read-only K-by-m 0/1 array of the patterns and
    ``probabilities`` their K probabilities, in the same order; the masks of
    ``support`` are built from them on first read only.
    """

    bits: np.ndarray
    probabilities: np.ndarray
    marginals: tuple[float, ...]

    @cached_property
    def support(self) -> tuple[tuple[ActivationMask, float], ...]:
        blocks = range(self.bits.shape[1])
        return tuple(
            (ActivationMask._unchecked(
                tuple(row), tuple(itertools.compress(blocks, row))), p)
            for row, p in zip(self.bits.tolist(), self.probabilities.tolist())
        )


def mask_law(rule: SweepingRule) -> MaskLaw:
    """Exact law of the rule: support probabilities and block marginals.

    Enumerates the nonzero patterns, so this is gated at ``m <= 20``.
    Bernoulli probabilities are renormalized by the rejection of the all-zero
    pattern, and patterns of probability zero are left out.  The law is
    built and kept as one K-by-m bit array: the Bernoulli probabilities are
    m column products, and each marginal sums its column in support order,
    so both equal a pattern-by-pattern loop bit for bit.  A marginal that
    rounds above 1 is clamped to 1.
    """
    m = rule.m
    if m > _ENUMERATION_LIMIT:
        raise CapacityError(
            f"mask law enumeration supports m <= {_ENUMERATION_LIMIT}, got {m}"
        )
    if rule.scheme == "single_block":
        bits = np.eye(m, dtype=np.uint8)
        probs = rule._block_p
    elif rule.scheme == "independent_bernoulli":
        q = rule.probabilities
        keep = 1.0 - math.prod(1.0 - qi for qi in q)
        # the nonzero patterns in itertools.product((0, 1), repeat=m) order
        codes = np.arange(1, 1 << m)
        bits = np.empty((codes.size, m), dtype=np.uint8)
        prod = np.ones(codes.size)
        for i, qi in enumerate(q):
            bits[:, i] = (codes >> (m - 1 - i)) & 1
            # left to right, as math.prod multiplies
            prod *= np.where(bits[:, i], qi, 1.0 - qi)
        nonzero = prod > 0.0
        bits = bits[nonzero]
        probs = prod[nonzero] / keep
    else:  # fixed_subset_size
        subsets = np.array(list(itertools.combinations(range(m), rule.size)))
        bits = np.zeros((len(subsets), m), dtype=np.uint8)
        np.put_along_axis(bits, subsets, 1, axis=1)
        probs = np.full(len(subsets), 1.0 / len(subsets))
    bits.setflags(write=False)
    probs.setflags(write=False)
    # a running total down each column: np.sum would add pairwise
    marginals = tuple(
        min(float(np.add.accumulate(np.where(col, probs, 0.0))[-1]), 1.0)
        for col in bits.T
    )
    return MaskLaw(bits, probs, marginals)


@dataclass(frozen=True)
class ErrorModel:
    """Additive perturbation with geometrically decaying magnitude.

    * ``none``: always the zero vector.
    * ``deterministic_decay``: a fixed unit direction scaled by
      ``scale * decay**n``.
    * ``gaussian_decay``: i.i.d. normal entries with standard deviation
      ``scale * decay**n``.

    ``decay`` must satisfy ``0 <= decay < 1`` so the root mean squared norms
    are summable over the iterations.
    """

    kind: str = "none"
    scale: float = 0.0
    decay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "deterministic_decay", "gaussian_decay"):
            raise InvalidRuleError(f"unknown error model kind {self.kind!r}")
        if self.kind != "none":
            if self.scale < 0:
                raise InvalidRuleError("error scale must be >= 0")
            if not (0.0 <= self.decay < 1.0):
                raise InvalidRuleError(
                    "error decay must lie in [0, 1); otherwise the root mean "
                    "squared norms are not summable"
                )


def sample_error(
    model: ErrorModel,
    dims: BlockDims,
    iteration: int,
    seed: int,
    stream: int = 0,
) -> BlockVector:
    """Draw the error vector for one iteration of one error slot.

    Deterministic given ``(model, dims, iteration, seed, stream)``.  Distinct
    slots use distinct streams so their draws are independent.
    """
    return BlockVector._own(dims, _error_flat(model, dims.total, iteration,
                                              seed, stream))


def _error_flat(model: ErrorModel, d: int, iteration: int, seed: int,
                stream: int) -> np.ndarray:
    """The flat data of ``sample_error``, a new array of length ``d``."""
    if model.kind == "none":
        return np.zeros(d)
    if model.kind == "deterministic_decay":
        direction = np.full(d, 1.0 / math.sqrt(d))
        return (model.scale * model.decay**iteration) * direction
    rng = _rng(seed, iteration, _ERROR_STREAM + stream)
    sigma = model.scale * model.decay**iteration
    return sigma * rng.standard_normal(d)


def error_norm_series(model: ErrorModel, dims: BlockDims) -> float:
    """Closed form of ``sum_n sqrt(E ||e_n||^2)`` for the model."""
    if model.kind == "none" or model.scale == 0.0:
        return 0.0
    per_step = model.scale
    if model.kind == "gaussian_decay":
        per_step *= math.sqrt(dims.total)
    return per_step / (1.0 - model.decay)
