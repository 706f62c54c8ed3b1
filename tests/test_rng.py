import numpy as np
import pytest
from hypothesis import given, strategies as st

from wallfollow.rng import (
    LANES,
    Xoshiro256StarStar,
    XoshiroLanes,
    derive_seed,
    splitmix64,
    splitmix64_stream,
)

# First outputs of the reference splitmix64 sequence for seed 0.
SPLITMIX_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_splitmix64_reference_vectors():
    assert tuple(splitmix64_stream(0, 4)) == SPLITMIX_SEED0
    assert splitmix64(0) == SPLITMIX_SEED0[0]


def test_derive_seed_is_deterministic_and_spreads():
    seeds = [derive_seed(42, i) for i in range(100)]
    assert seeds == [derive_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def test_scalar_generator_determinism():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_below_stays_in_bounds(seed, bound):
    gen = Xoshiro256StarStar(seed)
    assert all(0 <= gen.below(bound) < bound for _ in range(20))


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).below(0)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_shuffle_is_a_permutation(seed):
    items = list(range(57))
    Xoshiro256StarStar(seed).shuffle(items)
    assert sorted(items) == list(range(57))


def test_sample_indices_distinct():
    gen = Xoshiro256StarStar(11)
    picks = gen.sample_indices(24, 5)
    assert len(picks) == 5
    assert len(set(picks)) == 5
    assert all(0 <= p < 24 for p in picks)


def test_lanes_match_scalar_generators():
    # lane l of the bank must replay a scalar generator seeded with the same
    # splitmix64 quadruple
    lanes = XoshiroLanes(12345)
    words = splitmix64_stream(12345, 4 * LANES)
    blocks = lanes.u64(5 * LANES).reshape(5, LANES)
    for lane in range(LANES):
        scalar = Xoshiro256StarStar.__new__(Xoshiro256StarStar)
        scalar._s = words[4 * lane: 4 * lane + 4]
        expected = [scalar.next_u64() for _ in range(5)]
        assert [int(block[lane]) for block in blocks] == expected


def test_lanes_doubles_shape_and_range():
    lanes = XoshiroLanes(5)
    out = lanes.doubles((3, 7))
    assert out.shape == (3, 7)
    assert ((out >= 0) & (out < 1)).all()


def test_lanes_default_width_is_frozen():
    # a one-value draw reads step 0 of lane 0 and discards the rest of the
    # step, so the next draw is step 1 of lane 0, 512 values further on
    assert LANES == 512
    a, b = XoshiroLanes(0), XoshiroLanes(0)
    pair = np.concatenate([a.u64(1), a.u64(1)])
    assert np.array_equal(pair, b.u64(513)[[0, 512]])


def test_lanes_permutation():
    perm = XoshiroLanes(9).permutation(1000)
    assert sorted(perm.tolist()) == list(range(1000))


def test_lanes_determinism_across_chunking():
    # consuming LANES then LANES equals consuming 2 * LANES when block-aligned
    a = XoshiroLanes(77)
    b = XoshiroLanes(77)
    first = np.concatenate([a.u64(LANES), a.u64(LANES)])
    assert np.array_equal(first, b.u64(2 * LANES))


def _reference_lane_u64(state: np.ndarray, count: int) -> np.ndarray:
    """The original lane stepping: whole-row temporaries and ``np.stack``."""
    blocks = []
    for _ in range(-(-count // state.shape[1])):
        s0, s1, s2, s3 = state
        r = s1 * np.uint64(5)
        blocks.append(((r << np.uint64(7)) | (r >> np.uint64(57))) * np.uint64(9))
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
        state[:] = np.stack([s0, s1, s2, s3])
    out = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.uint64)
    return out[:count]


@pytest.mark.parametrize("seed", [0, 2024])
def test_lanes_mixed_size_calls_equal_reference_stepping(seed):
    # sizes of a 576-wide dropout mask, partial steps and a ragged tail; each
    # call discards the unread rest of its last step
    lanes = XoshiroLanes(seed)
    state = XoshiroLanes(seed)._s.copy()
    for count in (18432, 512, 256, 128, 4910, 1, 0, 513):
        assert np.array_equal(lanes.u64(count), _reference_lane_u64(state, count)), count
    assert np.array_equal(lanes._s, state)
