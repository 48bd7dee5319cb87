"""Deterministic 64-bit PRNG (SplitMix64) and sampling helpers.

Every stochastic step in the pipeline (train/test shuffling, bootstrap
resampling, per-node feature sampling) draws from this generator, so a run
is reproducible from a single 64-bit seed independent of platform or
library versions.

The i-th output of SplitMix64(seed) is `_mix(seed + (i + 1) * GOLDEN)`, so
`outputs` computes a block of outputs of many seeds at once in numpy uint64
arithmetic, which wraps modulo 2^64 as the scalar code masks. `draws_below`
reduces such a block as `below` would, and flags every seed with an output
in `below`'s rejection zone (probability under n / 2^64 per draw), where the
scalar generator would have drawn again.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 generator (Steele, Lea and Flood, 2014)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @classmethod
    def after(cls, seed: int, count: int) -> "SplitMix64":
        """SplitMix64(seed) after `count` outputs have been drawn from it."""
        return cls(seed + count * _GOLDEN)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = 1 << 64
        threshold = span - span % n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def bootstrap_indices(self, n: int) -> list[int]:
        """n indices drawn with replacement from range(n)."""
        return [self.below(n) for _ in range(n)]


def spawn_seed(seed: int, index: int) -> int:
    """Child seed for stream `index`.

    Equals the (index+1)-th raw output of SplitMix64(seed), computed in
    closed form so parallel consumers can derive disjoint streams without
    sequencing through the parent.
    """
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


def outputs(seeds, start, count: int) -> np.ndarray:
    """(len(seeds), count) uint64: outputs start .. start + count - 1 of each
    SplitMix64(seed), output i being what its (i + 1)-th `next_u64` returns.

    `start` is one count for every seed or one per seed.
    """
    steps = np.asarray(start, dtype=np.uint64).reshape(-1, 1) + np.arange(
        1, count + 1, dtype=np.uint64
    )
    z = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + steps * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def draws_below(seeds, start, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised `below`: (values, ok) for outputs start .. start + len(bounds) - 1.

    values[s, i] is output start + i of SplitMix64(seeds[s]) modulo bounds[i],
    as an int64, so every bound lies below 2^63. ok[s] is False when one of
    that seed's outputs lies in the rejection zone of its bound, where
    `below` would draw again, so that its values are not what `below` returns.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    u = outputs(seeds, start, len(bounds))
    # below accepts u < 2^64 - 2^64 % bound, i.e. u <= _MASK64 - 2^64 % bound
    mask = np.uint64(_MASK64)
    last = mask - (mask % bounds + np.uint64(1)) % bounds
    return (u % bounds).astype(np.int64), (u <= last).all(axis=1)
