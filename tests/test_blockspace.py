import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksweep import (
    ActivationMask,
    BlockDims,
    BlockVector,
    NonFiniteError,
    ShapeError,
    WeightedNormSpec,
    combine,
    construct,
    distance,
    masked_update,
    reduce,
)


def test_construct_zero_fill():
    x = construct(BlockDims([2, 3]))
    assert x.blocks[0].tolist() == [0.0, 0.0]
    assert x.blocks[1].tolist() == [0.0, 0.0, 0.0]


def test_construct_identity_of_input():
    x = construct(BlockDims([1]), [[5.0]])
    assert x.blocks[0].tolist() == [5.0]
    y = construct(BlockDims([2, 1]), [[1.0, 2.0], [3.0]])
    assert y.blocks[0].tolist() == [1.0, 2.0]
    assert y.blocks[1].tolist() == [3.0]


def test_construct_shape_errors():
    with pytest.raises(ShapeError):
        construct(BlockDims([2]), [[1.0, 2.0, 3.0]])
    with pytest.raises(ShapeError):
        construct(BlockDims([2, 2]), [[1.0, 2.0]])
    with pytest.raises(ShapeError):
        BlockDims([])
    with pytest.raises(ShapeError):
        BlockDims([2, 0])
    with pytest.raises(ShapeError):
        construct(BlockDims([1]), [[np.nan]])


def test_vectors_are_immutable():
    x = construct(BlockDims([2]), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        x.flat[0] = 7.0
    with pytest.raises(AttributeError):
        x.flat = np.zeros(2)


def test_combine_examples():
    d = BlockDims([1, 1])
    x = construct(d, [[1.0], [2.0]])
    y = construct(d, [[3.0], [4.0]])
    assert combine(1.0, x, 0.0, y) == x
    assert combine(1.0, x, 1.0, y) == construct(d, [[4.0], [6.0]])
    d1 = BlockDims([1])
    mid = combine(0.5, construct(d1, [[2.0]]), 0.5, construct(d1, [[4.0]]))
    assert mid == construct(d1, [[3.0]])


def test_combine_dims_mismatch():
    with pytest.raises(ShapeError):
        combine(1.0, construct(BlockDims([1])), 1.0, construct(BlockDims([2])))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=6),
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30))
def test_combine_exact_on_integers(values, a, b):
    d = BlockDims([len(values)])
    x = construct(d, [[float(v) for v in values]])
    y = construct(d, [[float(v + 1) for v in values]])
    out = combine(float(a), x, float(b), y)
    expected = [float(a * v + b * (v + 1)) for v in values]
    assert out.blocks[0].tolist() == expected


def test_reduce_345():
    d = BlockDims([1, 1])
    x = construct(d, [[3.0], [4.0]])
    r = reduce(x, x)
    assert r.inner == 25.0
    assert r.norm_sq_x == 25.0
    assert r.weighted_norm_sq_x is None


def test_reduce_weighted():
    d = BlockDims([1, 1])
    x = construct(d, [[3.0], [4.0]])
    r = reduce(x, x, WeightedNormSpec([0.5, 0.5]))
    assert r.weighted_norm_sq_x == 2 * 9 + 2 * 16


def test_reduce_orthogonal():
    d = BlockDims([1, 1])
    x = construct(d, [[1.0], [0.0]])
    y = construct(d, [[0.0], [1.0]])
    assert reduce(x, y).inner == 0.0


def test_weighted_norm_spec_validation():
    with pytest.raises(ShapeError):
        WeightedNormSpec([0.0, 0.5])
    with pytest.raises(ShapeError):
        WeightedNormSpec([1.5])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=8),
       st.data())
def test_norm_equivalence(values, data):
    m = data.draw(st.integers(min_value=1, max_value=len(values)))
    # split values into m nonempty blocks
    sizes = [len(values) // m] * m
    for i in range(len(values) - sum(sizes)):
        sizes[i] += 1
    if any(s == 0 for s in sizes):
        sizes = [1] * (len(values) - m + 1) + [1] * (m - 1)
        sizes = sizes[:m]
        sizes[0] = len(values) - (m - 1)
    d = BlockDims(sizes)
    x = BlockVector(d, np.array(values))
    weights = data.draw(st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=m, max_size=m))
    r = reduce(x, x, WeightedNormSpec(weights))
    upper = r.norm_sq_x / min(weights)
    tol = 1e-12 * (1.0 + upper)  # scale-relative float slack
    assert r.norm_sq_x <= r.weighted_norm_sq_x + tol
    assert r.weighted_norm_sq_x <= upper + tol


def test_masked_update_full_replacement_exact():
    d = BlockDims([2, 1])
    x = construct(d, [[0.1, 0.2], [0.3]])
    t = construct(d, [[0.7, 0.8], [0.9]])
    out = masked_update(x, ActivationMask([1, 1]), 1.0, t)
    assert out == t  # bit-exact


def test_masked_update_half_step_single_block():
    d = BlockDims([1, 1])
    x = construct(d, [[2.0], [2.0]])
    t = construct(d, [[0.0], [0.0]])
    out = masked_update(x, ActivationMask([1, 0]), 0.5, t)
    assert out == construct(d, [[1.0], [2.0]])
    out2 = masked_update(x, ActivationMask([0, 1]), 0.5, t)
    assert out2 == construct(d, [[2.0], [1.0]])


def test_masked_update_zero_relaxation_is_identity():
    d = BlockDims([2])
    x = construct(d, [[1.5, -2.5]])
    t = construct(d, [[9.0, 9.0]])
    assert masked_update(x, ActivationMask([1]), 0.0, t) == x


def test_masked_update_inactive_blocks_bit_identical():
    rng = np.random.default_rng(7)
    d = BlockDims([3, 2, 4])
    x = BlockVector(d, rng.standard_normal(9))
    t = BlockVector(d, rng.standard_normal(9))
    out = masked_update(x, ActivationMask([0, 1, 0]), 0.3, t)
    assert np.array_equal(out.block(0), x.block(0))
    assert np.array_equal(out.block(2), x.block(2))
    assert not np.array_equal(out.block(1), x.block(1))


def test_activation_mask_validation():
    with pytest.raises(ShapeError):
        ActivationMask([0, 0])
    with pytest.raises(ShapeError):
        ActivationMask([0, 2])
    m = ActivationMask([1, 0, 1])
    assert m.active == (0, 2)
    assert m.as_string() == "101"


def test_distance():
    d = BlockDims([2])
    x = construct(d, [[0.0, 0.0]])
    y = construct(d, [[3.0, 4.0]])
    assert distance(x, y) == 5.0


def test_layout_is_cached_and_equality_uses_dims_only():
    import pickle

    d = BlockDims([3, 1, 2])
    assert d.offsets == (0, 3, 4, 6) and d.total == 6
    assert d.offsets is d.offsets
    assert d.slice(2) == slice(4, 6)
    twin = BlockDims((3, 1, 2))
    assert twin == d and hash(twin) == hash(d)
    assert repr(d) == "BlockDims(dims=(3, 1, 2))"
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back.offsets == d.offsets


def test_activation_mask_checks_and_active_indices():
    for bad in ((2,), (0, 0), (-1, 1)):
        with pytest.raises(ShapeError):
            ActivationMask(bad)
    from_ints = ActivationMask(np.array([0, 1, 1], dtype=np.int64))
    from_bools = ActivationMask(np.array([False, True, True]))
    assert from_ints.bits == from_bools.bits == (0, 1, 1)
    assert all(type(b) is int for b in from_bools.bits)
    assert ActivationMask([True, False]).bits == (1, 0)
    assert from_ints == ActivationMask((0, 1, 1))
    assert hash(from_ints) == hash(ActivationMask((0, 1, 1)))
    assert repr(from_ints) == "ActivationMask(bits=(0, 1, 1))"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=1000)
       .filter(lambda bits: 1 in bits))
def test_activation_mask_active_equals_enumerate(bits):
    mask = ActivationMask(bits)
    assert mask.bits == tuple(bits)
    assert mask.active == tuple(i for i, b in enumerate(mask.bits) if b)


FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def vectors_and_mask(draw):
    dims = BlockDims(draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=8)))
    x, target = (BlockVector(dims, np.array(draw(st.lists(
        FINITE, min_size=dims.total, max_size=dims.total))))
        for _ in range(2))
    bits = draw(st.lists(st.integers(0, 1), min_size=dims.m,
                         max_size=dims.m).filter(lambda b: 1 in b))
    return x, target, ActivationMask(bits)


@settings(max_examples=150, deadline=None)
@given(vectors_and_mask(), st.sampled_from([1.0, 0.5, 0.3, 1.7]))
def test_masked_update_leaves_every_inactive_block_bit_identical(case, relax):
    x, target, mask = case
    out = masked_update(x, mask, relax, target)
    for i in range(x.dims.m):
        if i in mask.active:
            expected = (target.block(i) if relax == 1.0 else
                        x.block(i) + relax * (target.block(i) - x.block(i)))
            assert np.array_equal(out.block(i), expected)
        else:
            assert out.block(i).tobytes() == x.block(i).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-1e150, max_value=1e150,
                          allow_nan=False), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
def test_distance_is_bitwise_the_numpy_norm(values, seed):
    d = BlockDims([len(values)])
    x = construct(d, [values])
    y = BlockVector(d, np.random.default_rng(seed).standard_normal(d.total))
    got = distance(x, y)
    assert type(got) is float
    assert got == float(np.linalg.norm(x.flat - y.flat))


def test_combine_and_masked_update_own_fresh_read_only_arrays():
    d = BlockDims([2, 1])
    x = construct(d, [[1.0, 2.0], [3.0]])
    y = construct(d, [[4.0, 5.0], [6.0]])
    mask = ActivationMask((1, 0))
    for out in (combine(2.0, x, -1.0, y), masked_update(x, mask, 1.0, y),
                masked_update(x, mask, 0.5, y)):
        assert not out.flat.flags.writeable
        assert not np.shares_memory(out.flat, x.flat)
        assert not np.shares_memory(out.flat, y.flat)
    # the public constructor still copies its input
    data = np.array([1.0, 2.0, 3.0])
    v = BlockVector(d, data)
    assert data.flags.writeable and not np.shares_memory(v.flat, data)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_results_raise_non_finite_error():
    assert issubclass(NonFiniteError, ShapeError)
    d = BlockDims([1, 1])
    x = construct(d, [[1e308], [0.0]])
    with pytest.raises(NonFiniteError, match="must be finite"):
        combine(10.0, x, 1.0, x)
    with pytest.raises(NonFiniteError, match="must be finite"):
        masked_update(x, ActivationMask((1, 0)), 2.0,
                      construct(d, [[-1e308], [0.0]]))
    with pytest.raises(NonFiniteError, match="must be finite"):
        BlockVector(d, [np.nan, 0.0])
