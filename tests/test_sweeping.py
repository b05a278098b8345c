import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksweep import (
    ActivationMask,
    BlockDims,
    CapacityError,
    ErrorModel,
    InvalidRuleError,
    error_norm_series,
    fixed_subset_size,
    independent_bernoulli,
    mask_law,
    sample_error,
    sample_mask,
    single_block,
    sweeping,
)
from blocksweep.cli import execute_run, parse_config


def test_single_block_m1_always_active():
    rule = single_block(1)
    for n in range(20):
        assert sample_mask(rule, n, seed=n).bits == (1,)


def test_fixed_subset_full_size_always_all_ones():
    rule = fixed_subset_size(4, 4)
    for n in range(10):
        assert sample_mask(rule, n, seed=0).bits == (1, 1, 1, 1)


def test_sampling_reproducible():
    rule = independent_bernoulli([0.4, 0.7, 0.2])
    a = [sample_mask(rule, n, seed=42).bits for n in range(50)]
    b = [sample_mask(rule, n, seed=42).bits for n in range(50)]
    assert a == b
    c = [sample_mask(rule, n, seed=43).bits for n in range(50)]
    assert a != c


def test_single_block_uniform_empirical_marginals():
    rule = single_block(3)
    counts = np.zeros(3)
    draws = 30000
    for n in range(draws):
        counts += np.array(sample_mask(rule, n, seed=11).bits)
    freq = counts / draws
    assert np.all(freq >= 0.323) and np.all(freq <= 0.343)


def test_mask_law_single_block_symmetric():
    law = mask_law(single_block(2, [1.0, 1.0]))
    probs = {m.bits: p for m, p in law.support}
    assert probs == {(1, 0): 0.5, (0, 1): 0.5}
    assert law.marginals == (0.5, 0.5)


def test_mask_law_bernoulli_half():
    law = mask_law(independent_bernoulli([0.5, 0.5]))
    probs = {m.bits: p for m, p in law.support}
    assert set(probs) == {(1, 0), (0, 1), (1, 1)}
    for p in probs.values():
        assert abs(p - 1 / 3) < 1e-15
    assert all(abs(p - 2 / 3) < 1e-15 for p in law.marginals)


def test_mask_law_fixed_subset_singleton():
    law = mask_law(fixed_subset_size(3, 1))
    assert all(abs(p - 1 / 3) < 1e-15 for p in law.marginals)
    assert len(law.support) == 3


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mask_law_sums_to_one_with_positive_marginals(data):
    m = data.draw(st.integers(min_value=1, max_value=6))
    scheme = data.draw(st.sampled_from(["single_block",
                                        "independent_bernoulli",
                                        "fixed_subset_size"]))
    if scheme == "single_block":
        w = data.draw(st.lists(st.floats(min_value=0.05, max_value=3.0),
                               min_size=m, max_size=m))
        rule = single_block(m, w)
    elif scheme == "independent_bernoulli":
        q = data.draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                               min_size=m, max_size=m))
        rule = independent_bernoulli(q)
    else:
        s = data.draw(st.integers(min_value=1, max_value=m))
        rule = fixed_subset_size(m, s)
    law = mask_law(rule)
    assert abs(sum(p for _, p in law.support) - 1.0) <= 1e-12
    assert all(p > 0 for p in law.marginals)


def test_empirical_frequencies_match_law():
    rule = independent_bernoulli([0.6, 0.3])
    law = mask_law(rule)
    draws = 20000
    counts = {m.bits: 0 for m, _ in law.support}
    for n in range(draws):
        counts[sample_mask(rule, n, seed=5).bits] += 1
    for m, p in law.support:
        band = 4 * math.sqrt(p * (1 - p) / draws)
        assert abs(counts[m.bits] / draws - p) <= band


def test_mask_law_capacity_guard():
    with pytest.raises(CapacityError):
        mask_law(independent_bernoulli([0.5] * 21))


def test_invalid_rules():
    with pytest.raises(InvalidRuleError):
        independent_bernoulli([0.0, 0.0])
    with pytest.raises(InvalidRuleError):
        independent_bernoulli([0.5, 0.0])  # zero marginal for block 2
    with pytest.raises(InvalidRuleError):
        single_block(2, [1.0, 0.0])
    with pytest.raises(InvalidRuleError):
        fixed_subset_size(3, 0)
    with pytest.raises(InvalidRuleError):
        fixed_subset_size(3, 4)


def test_error_model_none_is_zero():
    dims = BlockDims([2, 1])
    e = sample_error(ErrorModel("none"), dims, 3, seed=9)
    assert not e.flat.any()


def test_deterministic_decay_norms():
    dims = BlockDims([2, 2])
    model = ErrorModel("deterministic_decay", scale=0.1, decay=0.5)
    norms = [float(np.linalg.norm(sample_error(model, dims, n, 0).flat))
             for n in range(3)]
    assert norms == pytest.approx([0.1, 0.05, 0.025], abs=1e-15)
    assert error_norm_series(model, dims) == pytest.approx(0.2, abs=1e-15)


def test_gaussian_decay_second_moment():
    dims = BlockDims([3])
    model = ErrorModel("gaussian_decay", scale=1.0, decay=0.5)
    for n in (0, 1):
        sq = [float(sample_error(model, dims, n, seed).flat @
                    sample_error(model, dims, n, seed).flat)
              for seed in range(10000)]
        expected = dims.total * model.decay ** (2 * n)
        assert abs(np.mean(sq) - expected) <= 0.05 * expected


def test_error_summability_matches_closed_form():
    dims = BlockDims([2])
    for model in (ErrorModel("deterministic_decay", 0.3, 0.7),
                  ErrorModel("gaussian_decay", 0.3, 0.7)):
        if model.kind == "deterministic_decay":
            partial = sum(
                float(np.linalg.norm(sample_error(model, dims, n, 0).flat))
                for n in range(200))
        else:
            # root mean squared norm has the exact closed form per step
            partial = sum(model.scale * model.decay ** n
                          * math.sqrt(dims.total) for n in range(200))
        assert abs(partial - error_norm_series(model, dims)) <= 1e-12


def test_error_model_validation():
    with pytest.raises(InvalidRuleError):
        ErrorModel("gaussian_decay", scale=1.0, decay=1.0)
    with pytest.raises(InvalidRuleError):
        ErrorModel("deterministic_decay", scale=-1.0, decay=0.5)
    with pytest.raises(InvalidRuleError):
        ErrorModel("typo")


def test_error_reproducible_and_stream_separated():
    dims = BlockDims([4])
    model = ErrorModel("gaussian_decay", 1.0, 0.9)
    a = sample_error(model, dims, 7, seed=1, stream=1)
    b = sample_error(model, dims, 7, seed=1, stream=1)
    c = sample_error(model, dims, 7, seed=1, stream=2)
    assert a == b
    assert a != c


def test_single_block_draws_use_the_normalised_weights():
    w = [0.5, 2.0, 1.0, 3.5, 0.25]
    rule = single_block(5, w)
    p = np.asarray(w) / np.sum(w)
    assert np.array_equal(rule._block_p, p)
    assert not rule._block_p.flags.writeable
    for n in range(50):
        rng = np.random.default_rng(
            np.random.SeedSequence([11, n, 0x6D61736B]))
        i = int(rng.choice(5, p=p))
        assert sample_mask(rule, n, 11).active == (i,)
    assert tuple(q for _, q in mask_law(rule).support) == tuple(map(float, p))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 1000), weight_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 10**6))
def test_single_block_draws_equal_generator_choice(m, weight_seed, seed, n):
    # positive weights over six orders of magnitude
    w = 10.0 ** np.random.default_rng(weight_seed).uniform(-3.0, 3.0, m)
    rule = single_block(m, w)
    p = np.asarray(rule.weights) / np.sum(rule.weights)
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, 0x6D61736B]))
    i = int(rng.choice(m, p=p))
    mask = sample_mask(rule, n, seed)
    assert mask.active == (i,)
    assert mask.bits == tuple(int(j == i) for j in range(m))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 1000),
       scheme=st.sampled_from(["single_block", "independent_bernoulli",
                               "fixed_subset_size"]),
       rule_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       n=st.integers(0, 10**6))
def test_sampled_masks_equal_checked_masks(m, scheme, rule_seed, seed, n):
    rng = np.random.default_rng(rule_seed)
    if scheme == "single_block":
        rule = single_block(m, 10.0 ** rng.uniform(-3.0, 3.0, m))
    elif scheme == "independent_bernoulli":
        rule = independent_bernoulli(rng.uniform(1e-3, 1.0, m))
    else:
        rule = fixed_subset_size(m, int(rng.integers(1, m + 1)))
    mask = sample_mask(rule, n, seed)
    # the same draw, built through the checking constructor
    draw = np.random.default_rng(np.random.SeedSequence([seed, n, 0x6D61736B]))
    if scheme == "single_block":
        i = int(draw.choice(m, p=np.asarray(rule.weights)
                            / np.sum(rule.weights)))
        bits = [int(j == i) for j in range(m)]
    elif scheme == "independent_bernoulli":
        q = np.asarray(rule.probabilities)
        while True:
            hit = draw.random(m) < q
            if hit.any():
                break
        bits = hit.astype(int)
    else:
        bits = [0] * m
        for i in draw.choice(m, size=rule.size, replace=False):
            bits[int(i)] = 1
    checked = ActivationMask(bits)
    assert mask == checked and hash(mask) == hash(checked)
    assert repr(mask) == repr(checked)
    assert mask.bits == checked.bits and mask.active == checked.active
    assert all(type(b) is int for b in mask.bits)
    assert type(mask.bits) is tuple and type(mask.active) is tuple


WORD = st.integers(0, 2**32 - 1)
WIDE = st.integers(2**32, 2**80)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**80, 2**80), n=st.one_of(WORD, WIDE),
       stream=st.one_of(WORD, WIDE))
def test_draw_generators_are_seeded_from_the_key_list(seed, n, stream):
    want = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, n, stream]))
    got = sweeping._rng(seed, n, stream)
    assert got.bit_generator.state == want.bit_generator.state


# ---------------------------------------------------------------------------
# chunk-seeded draws, as the drivers make them
# ---------------------------------------------------------------------------

M32 = 2**32 - 1
STREAMS = st.one_of(st.sampled_from([sweeping._MASK_STREAM,
                                     sweeping._ERROR_STREAM + 1,
                                     sweeping._ERROR_STREAM + 4]), WORD)
# starts below 16, at the chunk doublings, at random, and next to 2**32 - 1
STARTS = st.one_of(st.sampled_from([0, 10, 15, 16, 31, 32, 63, 4095, 4096,
                                    M32 - 150, M32 - 1, M32]),
                   st.integers(0, M32))


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.just(M32), st.integers(-2**40, 2**40)),
       stream=STREAMS, start=STARTS, count=st.integers(100, 160),
       slack=st.integers(0, 5000))
# the first chunks of a run, and a run that reaches n = 2**32 - 1 and past
@example(seed=M32, stream=sweeping._MASK_STREAM, start=0, count=160, slack=0)
@example(seed=M32, stream=M32, start=M32 - 120, count=125, slack=9)
def test_chunk_seeded_generators_equal_per_call_seeding(seed, stream, start,
                                                        count, slack):
    # at least 10**4 keys over the examples; the run ends ``slack`` past
    # the last key read, so chunks are also cut short by the run's end
    gens = sweeping._Generators(seed, stream, start + count + slack)
    for n in range(start, start + count):
        key = [seed & M32, n, stream]
        want = np.random.PCG64(np.random.SeedSequence(key)).state
        assert gens(n).bit_generator.state == want, key


def test_chunk_seeded_generators_allow_any_order():
    gens = sweeping._Generators(7, sweeping._MASK_STREAM, 10**6)
    for n in [40, 17, 10**5, 39, 16, 10**6 - 1, 3, 10**6 + 5]:
        want = np.random.PCG64(
            np.random.SeedSequence([7, n, sweeping._MASK_STREAM])).state
        assert gens(n).bit_generator.state == want


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40),
       scheme=st.sampled_from(["single_block", "independent_bernoulli",
                               "fixed_subset_size"]),
       rule_seed=st.integers(0, M32), seed=st.one_of(st.just(M32), WORD),
       start=st.sampled_from([0, 14, 30, 100, 4090, M32 - 40]))
def test_chunk_seeded_masks_equal_sample_mask(m, scheme, rule_seed, seed,
                                              start):
    rng = np.random.default_rng(rule_seed)
    if scheme == "single_block":
        rule = single_block(m, 10.0 ** rng.uniform(-3.0, 3.0, m))
    elif scheme == "independent_bernoulli":
        rule = independent_bernoulli(rng.uniform(1e-3, 1.0, m))
    else:
        rule = fixed_subset_size(m, int(rng.integers(1, m + 1)))
    end = start + 80
    draws = sweeping._mask_draws(rule, seed, end)
    for n in range(start, end):
        assert draws(n) == sample_mask(rule, n, seed)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 30), seed=st.one_of(st.just(M32), WORD),
       slot=st.integers(1, 4), start=st.sampled_from([0, 14, 30, 100]))
def test_chunk_seeded_errors_equal_sample_error(d, seed, slot, start):
    dims = BlockDims([d])
    end = start + 60
    for model in (ErrorModel("gaussian_decay", 0.5, 0.9),
                  ErrorModel("deterministic_decay", 0.5, 0.9),
                  ErrorModel("none")):
        draws = sweeping._error_draws(model, d, seed, slot, end)
        for n in range(start, end):
            want = sample_error(model, dims, n, seed, stream=slot).flat
            assert np.array_equal(draws(n), want)


# ---------------------------------------------------------------------------
# Bernoulli masks: bounded time, same law
# ---------------------------------------------------------------------------


def test_batched_bernoulli_redraws_equal_the_plain_rejection_loop():
    # about 300 all-zero draws before a hit, so the redraws come in batches
    rule = independent_bernoulli([1e-3, 2e-3])
    for n in range(40):
        draw = np.random.default_rng(
            np.random.SeedSequence([5, n, sweeping._MASK_STREAM]))
        while True:
            hit = draw.random(2) < np.asarray(rule.probabilities)
            if hit.any():
                break
        assert sample_mask(rule, n, 5).bits == tuple(hit.astype(int).tolist())


def test_tiny_bernoulli_probability_runs_in_bounded_time(tmp_path):
    rc = parse_config(
        "problem: {kind: km, dims: [1], operator: {type: affine, "
        "matrix: [[0.5]]}}\n"
        "solver: {relaxation: 0.5, max_iterations: 10, tolerance: 0.0}\n"
        "sweeping: {scheme: independent_bernoulli, probabilities: [1.0e-7]}\n"
        "seeds: [0]\n")
    started = time.perf_counter()
    assert execute_run(rc, str(tmp_path)) == 2  # budget exhausted
    assert time.perf_counter() - started < 1.0
    rows = (tmp_path / "trace_seed0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["1"] * 10


def _binomial_ok(count, trials, p, z=5.0):
    return abs(count - trials * p) <= z * math.sqrt(trials * p * (1.0 - p))


def test_bernoulli_with_tiny_probabilities_has_the_conditional_marginals():
    # all-zero patterns are almost certain, so these masks come from the
    # direct draw of the nonzero law; its marginals are q_i / (1 - prod(1-q))
    q = [2e-9, 1e-9, 5e-10]
    rule = independent_bernoulli(q)
    trials = 1500
    counts = np.zeros(3)
    for n in range(trials):
        counts += sample_mask(rule, n, seed=3).bits
    keep = -math.expm1(sum(math.log1p(-qi) for qi in q))
    for count, qi in zip(counts, q):
        assert _binomial_ok(count, trials, qi / keep)


def test_direct_nonzero_draw_has_the_exact_pattern_law():
    q = np.array([0.3, 0.5, 0.2])
    law = mask_law(independent_bernoulli(q))
    rng = np.random.default_rng(2024)
    trials = 20000
    counts = {}
    for _ in range(trials):
        bits = sweeping._nonzero_bits(q, rng)
        counts[bits] = counts.get(bits, 0) + 1
    assert set(counts) <= {mask.bits for mask, _ in law.support}
    for mask, p in law.support:
        assert _binomial_ok(counts.get(mask.bits, 0), trials, p)
