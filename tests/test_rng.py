import numpy as np
import pytest
from hypothesis import given, strategies as st

from wallfollow import tree_models as tm
from wallfollow.dataset import shuffle_split
from wallfollow.rng import (
    GOLDEN,
    LANES,
    MASK64,
    LaneReader,
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


class _ReferenceXoshiro:
    """The xoshiro256** step written out word by word, seeded as the package's generators."""

    def __init__(self, seed: int):
        self._s = splitmix64_stream(seed, 4)

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & MASK64

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (self._rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result


def test_splitmix64_reference_vectors():
    assert tuple(splitmix64_stream(0, 4)) == SPLITMIX_SEED0
    assert splitmix64(0) == SPLITMIX_SEED0[0]


def _unmix(z: int) -> int:
    """The inverse of ``splitmix64``: each of its steps undone, last first."""
    def unshift(y, k):  # inverts y = x ^ (x >> k)
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return (unshift(z, 30) - GOLDEN) & MASK64


def test_splitmix64_is_a_bijection_so_no_state_is_all_zero():
    # A generator's state words are splitmix64 outputs at distinct inputs (seed + i * GOLDEN,
    # GOLDEN odd).  The mix has an inverse, so at most one word is zero and no state can be
    # xoshiro's forbidden all-zero one.
    words = splitmix64_stream(7, 10_000)
    assert [_unmix(w) for w in words] == [(7 + i * GOLDEN) & MASK64 for i in range(10_000)]
    assert [splitmix64(_unmix(w)) for w in words] == words
    root = _unmix(0)
    assert root == 0x61C8864680B583EB and splitmix64(root) == 0
    # the seeds whose state holds that one zero word draw as any other
    scalar = Xoshiro256StarStar(root)
    assert scalar._s[0] == 0 and all(scalar._s[1:])
    assert len({scalar.below(1 << 64) for _ in range(8)}) == 8
    lanes = XoshiroLanes((root - 5 * GOLDEN) & MASK64)
    assert lanes._s[1, 1] == 0 and np.count_nonzero(lanes._s) == 4 * LANES - 1
    assert len(set(lanes.u64(8 * LANES).reshape(8, LANES)[:, 1].tolist())) == 8


def test_derive_seed_is_deterministic_and_spreads():
    seeds = [derive_seed(42, i) for i in range(100)]
    assert seeds == [derive_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**64 for s in seeds)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64])
def test_a_numpy_integer_seed_draws_as_the_equal_int(synth_d4, kind):
    # np.int64 used to raise OverflowError and np.uint64 an overflow warning
    seed = kind(3)
    assert derive_seed(seed, 5) == derive_seed(3, 5)
    assert derive_seed(3, kind(5)) == derive_seed(3, 5)
    assert splitmix64_stream(seed, 4) == splitmix64_stream(3, 4)
    scalar, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(3)
    assert [scalar.below(1 << 64) for _ in range(4)] == [reference.below(1 << 64)
                                                         for _ in range(4)]
    assert np.array_equal(XoshiroLanes(seed).u64(2 * LANES), XoshiroLanes(3).u64(2 * LANES))
    assert np.array_equal(shuffle_split(synth_d4, seed).test_indices,
                          shuffle_split(synth_d4, 3).test_indices)
    params = tm.TreeParams(max_depth=3, min_samples_split=2)
    forests = [tm.fit_random_forest(synth_d4.features, synth_d4.labels, 2, params, s)
               for s in (seed, 3)]
    assert np.array_equal(*(tm.predict_forest(f, synth_d4.features) for f in forests))


def test_a_float_seed_is_refused():
    for draw in (lambda: derive_seed(1.5, 0), lambda: Xoshiro256StarStar(3.0),
                 lambda: XoshiroLanes(2.5)):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an "
                                            "integer$"):
            draw()


def test_scalar_generator_determinism():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    assert [a.below(1 << 64) for _ in range(20)] == [b.below(1 << 64) for _ in range(20)]


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


def _reference_below(gen, n):
    """One unbiased draw in [0, n): ``gen.next_u64`` outputs at or above the largest
    multiple of ``n`` under 2**64 are rejected, and an accepted ``u`` gives ``u % n``."""
    limit = 2**64 - 2**64 % n
    while True:
        u = gen.next_u64()
        if u < limit:
            return u % n


@pytest.mark.parametrize("bounds", [
    [4910] * 500,  # a bootstrap's draws
    list(range(57, 1, -1)),  # a shuffle's
    [2**63 + 1] * 64,  # about half of these draws are rejected and redrawn
    [1, 2**64, 3, 3, 2**64 - 1, 7],
], ids=["bootstrap", "shuffle", "rejection", "mixed"])
def test_below_each_equals_repeated_below(bounds):
    # both checked against a rejection sampler written here over the reference step
    for seed in range(4):
        ref = _ReferenceXoshiro(seed)
        bulk, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        expected = [_reference_below(ref, n) for n in bounds]
        assert bulk.below_each(bounds) == expected
        assert [single.below(n) for n in bounds] == expected
        assert bulk._s == ref._s == single._s
    if bounds[0] == 2**63 + 1:
        stepped = _ReferenceXoshiro(3)
        for _ in bounds:
            stepped.next_u64()
        assert stepped._s != ref._s


def test_below_each_keeps_the_draws_before_a_bad_bound():
    ref, bulk = _ReferenceXoshiro(5), Xoshiro256StarStar(5)
    _reference_below(ref, 3)
    with pytest.raises(ValueError, match="bound must be positive"):
        bulk.below_each([3, 0, 4])
    assert bulk._s == ref._s


def test_sample_indices_distinct():
    gen = Xoshiro256StarStar(11)
    picks = gen.sample_indices(24, 5)
    assert len(picks) == 5
    assert len(set(picks)) == 5
    assert all(0 <= p < 24 for p in picks)


@pytest.mark.parametrize("n, k", [(24, 5), (4, 2), (5, 5), (7, 0), (1, 1)])
def test_sample_indices_equals_per_draw_partial_fisher_yates(n, k):
    for seed in range(4):
        ref, gen = _ReferenceXoshiro(seed), Xoshiro256StarStar(seed)
        pool = list(range(n))
        for i in range(k):
            j = i + _reference_below(ref, n - i)
            pool[i], pool[j] = pool[j], pool[i]
        assert gen.sample_indices(n, k) == pool[:k]
        assert gen._s == ref._s


def test_lanes_match_scalar_generators():
    # lane l of the bank must replay the reference step seeded with splitmix64 outputs
    # 4*l .. 4*l+3 of the bank's stream, which start at seed + 4*l * GOLDEN
    lanes = XoshiroLanes(12345)
    blocks = lanes.u64(5 * LANES).reshape(5, LANES)
    for lane in range(LANES):
        scalar = _ReferenceXoshiro((12345 + 4 * lane * GOLDEN) & MASK64)
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


def _blocks(seed: int, steps: int):
    """The lanes' doubles in blocks of ``steps`` whole steps, each yielded in one buffer
    that the next block overwrites."""
    lanes = XoshiroLanes(seed)
    buffer = np.empty(steps * LANES)
    while True:
        buffer[:] = lanes.doubles(buffer.size)
        yield buffer


# (a permutation?, shape): a permutation of n, or doubles of a shape up to 5 steps long
_REQUESTS = st.lists(st.tuples(st.booleans(), st.integers(0, 5 * LANES)), max_size=5)


@given(st.integers(0, 2**64 - 1), st.integers(1, 4), _REQUESTS, _REQUESTS)
def test_the_lane_reader_equals_the_lanes_call_by_call(seed, steps, before, after):
    lanes, reader = XoshiroLanes(seed), LaneReader(_blocks(seed, steps))
    taken = 0  # steps read

    def request(permutation, shape):
        nonlocal taken
        if permutation:
            got, want = reader.permutation(shape), lanes.permutation(shape)
        else:
            got, want = reader.doubles(shape), lanes.doubles(shape)
        assert got.shape == want.shape and np.array_equal(got, want)
        taken += -(-want.size // LANES)

    for permutation, n in before:
        request(permutation, n)
    request(False, (0, 3))  # empty: reads no step
    request(False, ())  # one value: one step
    request(True, (steps - taken % steps) * LANES + 1)  # the rest of a block and one step more
    request(False, (2, (steps + 2) * LANES // 2))  # longer than a block
    for permutation, n in after:
        request(permutation, n)


def test_the_lane_reader_refuses_a_block_of_part_steps():
    reader = LaneReader(iter([np.zeros(LANES + 1)]))
    with pytest.raises(ValueError, match=f"^a block of {LANES + 1} doubles is not whole "
                                         f"steps of {LANES} lanes$"):
        reader.doubles(1)
