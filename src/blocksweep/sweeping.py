"""Random activation of coordinate blocks and summable stochastic errors.

Masks are drawn from a fixed law on the nonzero 0/1 patterns with strictly
positive per-block activation probabilities.  All randomness is keyed only by
``(seed, iteration, stream)``, never by the iterate, so the draws at
different iterations are identically distributed and independent of the
iterate history by construction.  The public samplers seed one generator
per draw; the drivers use private twins that seed the generators of many
iterations in one vectorised pass and make the same draws.  Error models
produce vectors whose root mean squared norms form a convergent geometric
series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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

# the Bernoulli sampler redraws an all-zero pattern until it has used this
# many uniforms (at least one draw), then samples the nonzero law directly
_BERNOULLI_UNIFORMS = 1 << 16


@dataclass(frozen=True)
class SweepingRule:
    """A probability law on the nonzero activation patterns of ``m`` blocks.

    Schemes:

    * ``single_block``: exactly one block, block ``i`` with probability
      proportional to ``weights[i]``.
    * ``independent_bernoulli``: bit ``i`` is Bernoulli(``probabilities[i]``),
      the all-zero pattern is rejected and redrawn (after ``2**16`` uniforms
      the nonzero law is sampled directly, so a draw takes bounded time).
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
            # normalised once: every mask draw and the mask law read it;
            # the CDF is the one Generator.choice(m, p=p) builds per call.
            # An inf weight or sum leaves some p_i nan or 0, so p is checked.
            w = np.asarray(w)
            with np.errstate(all="ignore"):
                p = w / w.sum()
            if not ((w > 0).all() and (p > 0).all()):
                raise InvalidRuleError(
                    "single_block weights and their sum must be finite and "
                    "> 0 so that every marginal activation probability is > 0")
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


_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
# SeedSequence's hash constants and PCG64's multiplier, as numpy defines
# them (numpy/random/bit_generator.pyx, numpy/random/src/pcg64)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# chunks start at this iteration and span at most this many
_CHUNK_FROM, _CHUNK_MAX = 16, 4096


def _rng(seed: int, iteration: int, stream: int) -> np.random.Generator:
    key = [int(seed) & _M32, int(iteration), stream]
    if 0 <= key[1] <= _M32 and 0 <= stream <= _M32:
        # SeedSequence makes one uint32 word of each entry below 2**32, so
        # a uint32 array of them seeds the same state without converting
        # entry by entry
        key = np.array(key, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(key))


def _seed_words(seed: int, ns: np.ndarray, stream: int) -> np.ndarray:
    """``SeedSequence([seed, n, stream]).generate_state(4, uint64)`` per n.

    ``seed`` and ``stream`` are below 2**32 and ``ns`` is a uint32 array, so
    every key is three uint32 words, hashed into a pool of four.  The
    hashing runs on uint32 arrays, whose products wrap silently as the C
    code's do.  Returns a ``(len(ns), 4)`` uint64 array.
    """
    u32 = np.uint32
    const = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ u32(const)
        const = const * _MULT_A & _M32
        v = v * u32(const)
        return v ^ (v >> u32(16))

    pool = [hashmix(w) for w in (np.full(ns.size, seed, dtype=u32), ns,
                                 np.full(ns.size, stream, dtype=u32),
                                 np.zeros(ns.size, dtype=u32))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h = hashmix(pool[src])
                r = u32(_MIX_MULT_L) * pool[dst] - u32(_MIX_MULT_R) * h
                pool[dst] = r ^ (r >> u32(16))
    const = _INIT_B
    words = np.empty((ns.size, 8), dtype=u32)
    for k in range(8):
        v = pool[k % 4] ^ u32(const)
        const = const * _MULT_B & _M32
        v = v * u32(const)
        words[:, k] = v ^ (v >> u32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _Generators:
    """The generators of one ``(seed, stream)``, seeded in chunks.

    ``gens(n)`` is a generator in the state ``_rng(seed, n, stream)`` starts
    in, so it makes the same draws.  From iteration 16 on, the states of a
    chunk of ``min(n, 4096, end - n)`` iterations starting at ``n`` are
    hashed in one vectorised pass, and each call sets one of them on a
    reused ``PCG64``; the returned generator is valid until the next call.
    Below 16 and above ``2**32 - 1`` each call seeds its own generator, as
    ``_rng`` does.  ``end`` is one past the last iteration a run can reach,
    so chunks double with the run and a tolerance stop wastes at most as
    many states as it used.
    """

    def __init__(self, seed: int, stream: int, end: int):
        self._seed, self._stream, self._end = int(seed) & _M32, stream, end
        self._n0, self._words = 0, []
        self._bitgen = self._gen = None

    def __call__(self, n: int) -> np.random.Generator:
        if not (_CHUNK_FROM <= n <= _M32):
            return _rng(self._seed, n, self._stream)
        k = n - self._n0
        if not (0 <= k < len(self._words)):
            self._chunk(n)
            k = 0
        # PCG64's set-seq seeding: state 0, inc = 2 seq + 1, step, add the
        # initial state, step
        v0, v1, v2, v3 = self._words[k]
        inc = ((v2 << 65) | (v3 << 1) | 1) & _M128
        state = ((((v0 << 64) | v1) + inc) * _PCG64_MULT + inc) & _M128
        self._bitgen.state = {"bit_generator": "PCG64",
                              "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        return self._gen

    def _chunk(self, n: int) -> None:
        # keys past 2**32 - 1 wrap here but are never read
        size = max(1, min(n, _CHUNK_MAX, self._end - n))
        ns = np.arange(n, n + size, dtype=np.uint64).astype(np.uint32)
        self._n0 = n
        self._words = _seed_words(self._seed, ns, self._stream).tolist()
        if self._bitgen is None:
            self._bitgen = np.random.PCG64(0)
            self._gen = np.random.Generator(self._bitgen)


def sample_mask(rule: SweepingRule, iteration: int, seed: int) -> ActivationMask:
    """Draw the activation mask for one iteration.

    Deterministic given ``(rule, iteration, seed)`` and independent of
    anything else; the law is the same for every iteration.
    """
    return _draw_mask(rule, _rng(seed, iteration, _MASK_STREAM))


def _mask_draws(rule: SweepingRule, seed: int,
                end: int) -> Callable[[int], ActivationMask]:
    """``sample_mask(rule, n, seed)`` for ``n < end``, seeded in chunks."""
    gens = _Generators(seed, _MASK_STREAM, end)
    return lambda n: _draw_mask(rule, gens(n))


def _draw_mask(rule: SweepingRule, rng: np.random.Generator) -> ActivationMask:
    m = rule.m
    if rule.scheme == "single_block":
        # the draw of rng.choice(m, p=rule._block_p), without its per-call
        # validation and cumulative sum
        i = int(rule._block_cdf.searchsorted(rng.random(), side="right"))
        bits = [0] * m
        bits[i] = 1
        return ActivationMask._unchecked(tuple(bits), (i,))
    if rule.scheme == "independent_bernoulli":
        bits = _bernoulli_bits(rule._bernoulli_q, rng)
        return ActivationMask._unchecked(
            bits, tuple(itertools.compress(range(m), bits)))
    # fixed_subset_size
    active = tuple(sorted(rng.choice(m, size=rule.size, replace=False).tolist()))
    bits = [0] * m
    for i in active:
        bits[i] = 1
    return ActivationMask._unchecked(tuple(bits), active)


def _bernoulli_bits(q: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """A nonzero pattern of independent Bernoulli(q) bits, by rejection.

    Redraws ``rng.random(m)`` until a pattern is nonzero.  Rows of a
    ``rng.random((rows, m))`` call are the same uniforms, so after the
    first draw the redraws are batched.  Once ``_BERNOULLI_UNIFORMS``
    uniforms are used up, the rest is ``_nonzero_bits``, which samples the
    same conditional law directly and so bounds the time.
    """
    m = q.size
    left, rows = max(1, _BERNOULLI_UNIFORMS // m), 1
    while left:
        rows = min(rows, left)
        hit = (rng.random((rows, m)) < q).view(np.uint8)
        first = int(hit.argmax())
        if hit.flat[first]:
            return tuple(hit[first // m].tolist())
        left -= rows
        rows *= 16
    return _nonzero_bits(q, rng)


def _nonzero_bits(q: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """Independent Bernoulli(q) bits conditioned on not all being zero.

    The first set bit is ``i`` with probability
    ``q_i prod_{j<i} (1 - q_j) / (1 - prod_j (1 - q_j))``; the bits after it
    are independent of that event, so they are drawn as they are.
    """
    m = q.size
    cdf = np.cumsum(q * np.concatenate(([1.0], np.cumprod(1.0 - q[:-1]))))
    i = min(int(cdf.searchsorted(rng.random() * cdf[-1], side="right")), m - 1)
    rest = (rng.random(m - i - 1) < q[i + 1:]).view(np.uint8).tolist()
    return (0,) * i + (1,) + tuple(rest)


@dataclass(frozen=True, eq=False)
class MaskLaw:
    """The exact law of a sweeping rule over its K nonzero patterns.

    ``bits`` is the read-only K-by-m 0/1 array of the patterns and
    ``probabilities`` their K probabilities, in the same order; the masks of
    ``support`` are built from them on first read only.  ``bits`` is the
    transposed view of a C-contiguous m-by-K array, so ``bits.T[i]``, the
    patterns' bits of block ``i``, is one contiguous row.
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
    pattern, and patterns of probability zero are left out.  The law depends
    only on the frozen rule's fields, so it is built on the first call and
    kept on the rule; later calls return the same read-only law.  It is
    built block-major, as one m-by-K bit array (about 21 MB at m=20): the
    Bernoulli probabilities are m row products, and each marginal sums its
    row in support order, so both equal a pattern-by-pattern loop bit for
    bit.  A marginal that rounds above 1 is clamped to 1.
    """
    law = getattr(rule, "_law", None)
    if law is None:
        law = _build_law(rule)
        object.__setattr__(rule, "_law", law)
    return law


def _build_law(rule: SweepingRule) -> MaskLaw:
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
        bits = np.empty((m, codes.size), dtype=np.uint8)
        prod = np.ones(codes.size)
        for i, qi in enumerate(q):
            bits[i] = (codes >> (m - 1 - i)) & 1
            # left to right, as math.prod multiplies
            prod *= np.where(bits[i], qi, 1.0 - qi)
        nonzero = prod > 0.0
        if not nonzero.all():
            bits, prod = bits[:, nonzero], prod[nonzero]
        probs = prod / keep
    else:  # fixed_subset_size
        subsets = np.array(list(itertools.combinations(range(m), rule.size)))
        bits = np.zeros((m, len(subsets)), dtype=np.uint8)
        np.put_along_axis(bits, subsets.T, 1, axis=0)
        probs = np.full(len(subsets), 1.0 / len(subsets))
    bits.setflags(write=False)
    probs.setflags(write=False)
    # a running total along each row: np.sum would add pairwise
    marginals = tuple(
        min(float(np.add.accumulate(np.where(row, probs, 0.0))[-1]), 1.0)
        for row in bits
    )
    return MaskLaw(bits.T, probs, marginals)


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
            if not 0.0 <= self.scale < math.inf:
                raise InvalidRuleError("error scale must be finite and >= 0")
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
    return BlockVector._own(dims, _error_flat(
        model, dims.total, iteration,
        lambda n: _rng(seed, n, _ERROR_STREAM + stream)))


def _error_draws(model: ErrorModel, d: int, seed: int, stream: int,
                 end: int) -> Callable[[int], np.ndarray]:
    """The flat data of ``sample_error`` for ``n < end``, seeded in chunks."""
    gens = _Generators(seed, _ERROR_STREAM + stream, end)
    return lambda n: _error_flat(model, d, n, gens)


def _error_flat(model: ErrorModel, d: int, iteration: int,
                gens: Callable[[int], np.random.Generator]) -> np.ndarray:
    """The flat data of one error draw, a new array of length ``d``.

    ``gens(iteration)`` gives the generator of a ``gaussian_decay`` draw.
    """
    if model.kind == "none":
        return np.zeros(d)
    if model.kind == "deterministic_decay":
        direction = np.full(d, 1.0 / math.sqrt(d))
        return (model.scale * model.decay**iteration) * direction
    sigma = model.scale * model.decay**iteration
    return sigma * gens(iteration).standard_normal(d)


def error_norm_series(model: ErrorModel, dims: BlockDims) -> float:
    """Closed form of ``sum_n sqrt(E ||e_n||^2)`` for the model."""
    if model.kind == "none" or model.scale == 0.0:
        return 0.0
    per_step = model.scale
    if model.kind == "gaussian_decay":
        per_step *= math.sqrt(dims.total)
    return per_step / (1.0 - model.decay)
