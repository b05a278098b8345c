import math

import numpy as np
import pytest
from hypothesis import given, settings
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
