"""Rules with one home: the regularity sampler and the enumeration limit.

``regularity_test`` samples all three regularity classes in one loop; it
must report exactly what a loop per class reports, with the same draws.
``expected_fejer_check`` enumerates whatever ``mask_law`` enumerates
(m <= 20), and its expansion must equal the per-pattern loop there too.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocksweep as bs
from blocksweep.operators import RegularityReport


def _regularity_by_class(T, claim, sample_count, rng_seed, tolerance,
                         iteration):
    """A quasinonexpansive loop and a pair loop, each drawing its own way."""
    rng = np.random.default_rng(rng_seed)
    d = T.dims.total
    worst = -math.inf
    violations = 0

    def draw():
        return bs.BlockVector(T.dims, rng.standard_normal(d))

    if claim == "quasinonexpansive":
        if not T.fixed_points:
            raise bs.ParameterError(
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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_sampling_loop_reports_what_a_loop_per_class_reports(data):
    dims = bs.BlockDims(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                           max_size=4), label="dims"))
    d = dims.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # spectral norms on both sides of 1: some families are not nonexpansive
    S = rng.standard_normal((d, d))
    S *= data.draw(st.floats(0.1, 2.0), label="norm") / np.linalg.norm(S, 2)
    # known fixed points that need not be fixed: T is never evaluated there
    fixed = tuple(bs.BlockVector(dims, rng.standard_normal(d))
                  for _ in range(data.draw(st.integers(0, 3),
                                           label="fixed points")))
    alpha = data.draw(st.one_of(
        st.floats(0.05, 1.0),
        st.builds(bs.Schedule, st.floats(0.05, 1.0), st.floats(0.05, 1.0),
                  st.integers(1, 5))), label="alpha")
    T = bs.affine_family(dims, S, rng.standard_normal(d), "averaged", alpha,
                         fixed)
    claim = data.draw(st.sampled_from(["quasinonexpansive", "nonexpansive",
                                       "averaged"]), label="claim")
    args = (claim, data.draw(st.integers(0, 40), label="samples"),
            data.draw(st.integers(0, 2**32 - 1), label="seed"),
            data.draw(st.sampled_from([0.0, 1e-9, 1.0]), label="tolerance"),
            data.draw(st.integers(0, 8), label="iteration"))
    try:
        want = _regularity_by_class(T, *args)
    except bs.ParameterError as exc:
        with pytest.raises(bs.ParameterError) as got:
            bs.regularity_test(T, *args)
        assert str(got.value) == str(exc)
        return
    assert repr(bs.regularity_test(T, *args)) == repr(want)


def _bernoulli_support(q):
    """The Bernoulli law pattern by pattern, zero pattern rejected."""
    keep = 1.0 - math.prod(1.0 - qi for qi in q)
    support = []
    for bits in itertools.product((0, 1), repeat=len(q)):
        p = math.prod(qi if b else 1.0 - qi for qi, b in zip(q, bits))
        if any(bits) and p > 0.0:
            support.append((bits, p / keep))
    return support


def _trace_of(xs, relax):
    m = xs[0].dims.m
    records = tuple(bs.TraceRecord(n, 0.0, (1,) * m, relax, None, None, None,
                                   x) for n, x in enumerate(xs))
    return bs.IterateTrace(records, xs[-1], "max_iterations")


def test_expected_fejer_check_enumerates_twelve_blocks_like_the_loop():
    m = 12
    rng = np.random.default_rng(12)
    dims = bs.BlockDims([1, 2] * (m // 2))
    d = dims.total
    T = bs.affine_family(dims, rng.standard_normal((d, d)) / d,
                         rng.standard_normal(d))
    q = list(rng.uniform(0.05, 0.95, m))
    rule = bs.independent_bernoulli(q)
    xs = [bs.BlockVector(dims, rng.standard_normal(d)) for _ in range(2)]
    z = bs.BlockVector(dims, rng.standard_normal(d))
    relax = 0.7

    slacks = bs.expected_fejer_check(T, _trace_of(xs, relax), z, rule)

    support = _bernoulli_support(q)
    assert len(support) == 2**m - 1
    weights = bs.WeightedNormSpec(bs.mask_law(rule).marginals)
    expected = []
    for n, x in enumerate(xs):
        tx = T.evaluate(n, x)
        total = 0.0
        for bits, p in support:
            cand = bs.masked_update(x, bs.ActivationMask(bits), relax, tx)
            diff = bs.combine(1.0, cand, -1.0, z)
            total += p * bs.reduce(diff, diff, weights).weighted_norm_sq_x
        base = bs.combine(1.0, x, -1.0, z)
        expected.append(total - bs.reduce(base, base, weights)
                        .weighted_norm_sq_x)
    assert slacks == expected


def test_expected_fejer_check_past_the_enumeration_limit_is_a_capacity_error():
    m = 21
    dims = bs.BlockDims([1] * m)
    evaluated = []

    def evaluate(n, x):
        evaluated.append(n)
        return x

    T = bs.BlockOperatorFamily(dims, evaluate, "nonexpansive")
    x = bs.construct(dims)
    rule = bs.independent_bernoulli([0.5] * m)
    with pytest.raises(bs.CapacityError) as raised:
        bs.expected_fejer_check(T, _trace_of([x], 1.0), x, rule)
    assert str(raised.value) == "mask law enumeration supports m <= 20, got 21"
    assert evaluated == []
