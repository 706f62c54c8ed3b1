"""Deterministic pseudo-random numbers for every stochastic step in the package.

All randomness flows through one documented pipeline so that runs are
bit-reproducible across platforms:

* ``splitmix64`` -- 64-bit mixing function, used to expand master seeds into
  per-component seeds and to initialise generator state.
* ``Xoshiro256StarStar`` -- scalar xoshiro256** generator, used for shuffles,
  bootstrap draws and other index-level randomness.
* ``XoshiroLanes`` -- a fixed-width bank of xoshiro256** generators stepped in
  lockstep with numpy, used where bulk draws are needed (weight init, dropout
  masks, per-epoch shuffle keys).  Outputs are ordered step-major: the first
  ``LANES`` values are step 0 of lanes 0..LANES-1, and so on.

Derived seeds use ``derive_seed(base, index) = splitmix64(base ^ index)``.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Lane count is part of the output stream definition; changing it changes
# every bulk draw, so it is frozen here.
LANES = 512

_5, _7, _9, _19, _57 = (np.uint64(k) for k in (5, 7, 9, 19, 57))
_SHIFTS = np.array([[17], [45]], dtype=np.uint64)


def splitmix64(x: int) -> int:
    """One splitmix64 step: mix ``x + GOLDEN`` down to a 64-bit output."""
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of the splitmix64 sequence started at ``seed``.

    Output ``i`` is ``splitmix64(seed + i * GOLDEN)``.
    """
    return [splitmix64((seed + i * GOLDEN) & MASK64) for i in range(count)]


def derive_seed(base: int, index: int) -> int:
    """Child seed for sub-stream ``index`` of ``base`` (e.g. CV iterations)."""
    return splitmix64((base ^ index) & MASK64)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """Scalar xoshiro256** generator seeded via splitmix64 expansion."""

    def __init__(self, seed: int):
        s = splitmix64_stream(seed, 4)
        if not any(s):  # all-zero state is the one forbidden configuration
            s[0] = GOLDEN
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle (descending index convention)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


class XoshiroLanes:
    """Bank of ``LANES`` xoshiro256** generators stepped together with numpy.

    Lane ``l`` is seeded from splitmix64 outputs ``4*l .. 4*l+3`` of the
    stream started at ``seed``, so the whole bank is a pure function of the
    seed.  Bulk draws read the lanes step-major and truncate to the amount
    requested; the unread remainder of the final step is discarded.
    """

    def __init__(self, seed: int):
        words = splitmix64_stream(seed, 4 * LANES)
        state = np.array(words, dtype=np.uint64).reshape(LANES, 4).T.copy()
        dead = ~state.any(axis=0)
        if dead.any():
            state[0, dead] = np.uint64(GOLDEN)
        self._s = state  # shape (4, LANES), stepped in place
        self._w = np.empty((2, LANES), dtype=np.uint64)  # per-step scratch

    def u64(self, count: int) -> np.ndarray:
        """The next ``count`` raw outputs, step-major across the lanes.

        The unread rest of the last step is discarded.
        """
        blocks = -(-count // LANES)
        out = np.empty((blocks, LANES), dtype=np.uint64)
        st, w = self._s, self._w
        s1, s3 = st[1], st[3]
        s01, s23, s10, s13 = st[:2], st[2:], st[1::-1], st[1::2]
        for b in range(blocks):
            # one xoshiro256** step of every lane, in place on row views; the
            # scrambler reads only s1, so keep s1 and scramble all rows below
            out[b] = s1
            s23 ^= s01  # s2 ^= s0; s3 ^= s1
            np.left_shift(s13, _SHIFTS, w)  # w = (s1 << 17, s3 << 45)
            s10 ^= s23  # s1 ^= s2; s0 ^= s3
            s3 >>= _19
            # s2 ^= old s1 << 17; s3 = rotl(s3, 45), whose two halves share
            # no bit, so xor joins them as or would
            s23 ^= w
        # rotl(s1 * 5, 7) * 9, wrapping modulo 2**64
        out *= _5
        high = out >> _57
        out <<= _7
        out |= high
        out *= _9
        return out.reshape(-1)[:count]

    def doubles(self, shape) -> np.ndarray:
        """Uniform doubles in [0, 1), row-major over ``shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        count = math.prod(shape)
        u = self.u64(count)
        return ((u >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return low + (high - low) * self.doubles(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        keys = self.doubles(n)
        return np.argsort(keys, kind="stable")
