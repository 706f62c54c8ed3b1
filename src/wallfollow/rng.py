"""Deterministic pseudo-random numbers for every stochastic step in the package.

All randomness flows through one documented pipeline of integer arithmetic,
which no BLAS kernel or SIMD dispatch touches:

* ``splitmix64`` -- 64-bit mixing function, used to expand master seeds into
  per-component seeds and to initialise generator state.  The mix is a
  bijection, so a generator's state words, its outputs at distinct inputs,
  hold at most one zero: no state is xoshiro's forbidden all-zero one.
* ``Xoshiro256StarStar`` -- scalar xoshiro256** generator, used for shuffles,
  bootstrap draws and other index-level randomness.  Every bounded draw
  (``below``, ``sample_indices``, ``shuffle``) steps through ``below_each``.
* ``XoshiroLanes`` -- a fixed-width bank of xoshiro256** generators stepped in
  lockstep with numpy, used where bulk draws are needed (weight init, dropout
  masks, per-epoch shuffle keys).  Outputs are ordered step-major: the first
  ``LANES`` values are step 0 of lanes 0..LANES-1, and so on.
* ``LaneReader`` -- the same ``doubles`` and ``permutation`` read from blocks of
  the lanes' doubles made elsewhere (a training run's made-ahead draws).

Derived seeds use ``derive_seed(base, index) = splitmix64(base ^ index)``.

The package's results are bit-identical across ``--jobs`` and repeat runs on
one host's OpenBLAS kernel and numpy SIMD dispatch.  The float models' ``@``,
``solve``, ``exp`` and ``log`` can change bits on another kernel or SIMD target.
"""

from __future__ import annotations

import math
import operator

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

    Output ``i`` is ``splitmix64(seed + i * GOLDEN)``.  ``seed`` is any Python or numpy integer.
    """
    seed = operator.index(seed)  # a numpy integer would overflow, or warn, in the arithmetic
    return [splitmix64((seed + i * GOLDEN) & MASK64) for i in range(count)]


def derive_seed(base: int, index: int) -> int:
    """Child seed for sub-stream ``index`` of ``base`` (e.g. CV iterations)."""
    return splitmix64((operator.index(base) ^ operator.index(index)) & MASK64)


class Xoshiro256StarStar:
    """Scalar xoshiro256** generator seeded via splitmix64 expansion."""

    def __init__(self, seed: int):
        self._s = splitmix64_stream(seed, 4)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n): one ``below_each`` draw."""
        return self.below_each((n,))[0]

    def below_each(self, bounds) -> list[int]:
        """Unbiased integers in [0, n), one per ``n`` of ``bounds``, by rejection sampling.

        The state lives in locals for the whole loop, and each bound's rejection
        limit is computed once per run of equal bounds.
        """
        s0, s1, s2, s3 = self._s
        mask = MASK64
        out = []
        append = out.append
        n, limit = None, 0
        try:
            for bound in bounds:
                if bound != n:
                    if bound <= 0:
                        raise ValueError("bound must be positive")
                    n, limit = bound, (1 << 64) - ((1 << 64) % bound)
                while True:
                    x = (s1 * 5) & mask
                    u = ((((x << 7) | (x >> 57)) & mask) * 9) & mask
                    t = (s1 << 17) & mask
                    s2 ^= s0
                    s3 ^= s1
                    s1 ^= s2
                    s0 ^= s3
                    s2 ^= t
                    s3 = ((s3 << 45) | (s3 >> 19)) & mask
                    if u < limit:
                        append(u % n)
                        break
        finally:
            self._s = [s0, s1, s2, s3]
        return out

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle (descending index convention), drawn by ``below_each``."""
        top = len(items) - 1
        for i, j in zip(range(top, 0, -1), self.below_each(range(top + 1, 1, -1))):
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates drawn by ``below_each``."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i, r in enumerate(self.below_each(range(n, n - k, -1))):
            pool[i], pool[i + r] = pool[i + r], pool[i]
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
        self._s = np.array(words, dtype=np.uint64).reshape(LANES, 4).T.copy()  # (4, LANES)
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


class LaneReader:
    """``XoshiroLanes``'s ``doubles`` and ``permutation``, read from ``blocks``: an
    iterator of float64 arrays that hold the lanes' doubles in order, each a whole
    number of steps and each valid only until the next is read.

    A request takes whole steps and drops the unread rest of the last, as the lanes
    do, so it gets the values that the same call on the lanes would.
    """

    def __init__(self, blocks):
        self._blocks = blocks
        self._left = np.empty(0)  # the unread steps of the current block

    def doubles(self, shape) -> np.ndarray:
        """Uniform doubles in [0, 1), row-major over ``shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        count = math.prod(shape)
        out = np.empty(-(-count // LANES) * LANES)
        filled = 0
        while filled < out.size:
            if not self._left.size:
                self._left = next(self._blocks)
                if self._left.size % LANES:
                    raise ValueError(f"a block of {self._left.size} doubles is not whole "
                                     f"steps of {LANES} lanes")
            part = self._left[:out.size - filled]
            out[filled:filled + part.size] = part
            filled += part.size
            self._left = self._left[part.size:]
        return out[:count].reshape(shape)

    # the lanes' own: a stable sort of n keys
    permutation = XoshiroLanes.permutation
