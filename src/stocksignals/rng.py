"""Deterministic 64-bit PRNG (SplitMix64) and sampling helpers.

Every stochastic step in the pipeline (train/test shuffling, bootstrap
resampling, per-node feature sampling) draws from SplitMix64 (Steele, Lea
and Flood, 2014), so a run is reproducible from a single 64-bit seed
independent of platform or library versions.

Output i of the generator seeded with s is `mix(s + (i + 1) * GOLDEN)`, so
`outputs` computes a block of outputs of many seeds at once in numpy uint64
arithmetic, which wraps modulo 2^64. `draws_below` reduces such a block to
uniform integers below given bounds by rejection sampling, drawing again
where an output lies in a bound's rejection zone, and reports how many
outputs each seed used, so a caller can go on from where each stream stands.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def outputs(seeds, start, count: int) -> np.ndarray:
    """(len(seeds), count) uint64: outputs start .. start + count - 1 of the
    generator of each seed, output 0 being the first it draws.

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
    """(values, used): draw i of each seed, from output start on, uniform in [0, bounds[i]).

    A draw takes the next output u of its seed and returns u % bound, unless
    u >= 2^64 - 2^64 % bound, where it takes the next output instead, so that
    every value is equally likely. values is (len(seeds), len(bounds)) int64,
    so every bound lies in [1, 2^63); used[s] counts the outputs that seed s
    took, one per draw plus one per rejected output.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    start = np.broadcast_to(np.asarray(start, dtype=np.int64), seeds.shape)
    bounds = np.asarray(bounds, dtype=np.uint64)
    u = outputs(seeds, start, len(bounds))
    # accept u < 2^64 - 2^64 % bound, i.e. u <= _MASK64 - 2^64 % bound
    mask = np.uint64(_MASK64)
    rejected = u > mask - (mask % bounds + np.uint64(1)) % bounds
    values = (u % bounds).astype(np.int64)
    used = np.full(len(seeds), len(bounds), dtype=np.int64)
    for s in np.flatnonzero(rejected.any(axis=1)).tolist():
        i = int(rejected[s].argmax())  # the first rejected output; draw i goes on past it
        rest, more = draws_below(seeds[s : s + 1], start[s] + i + 1, bounds[i:])
        values[s, i:] = rest[0]
        used[s] = i + 1 + more[0]
    return values, used


def sample_indices(seeds, start, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(picked, used): k distinct indices from range(n) for each seed, by a
    partial Fisher-Yates shuffle whose step i swaps position i with position
    i + a draw below n - i; used is as in `draws_below`."""
    offsets, used = draws_below(seeds, start, n - np.arange(k))
    pool = np.tile(np.arange(n), (len(offsets), 1))
    each = np.arange(len(offsets))
    for i in range(k):
        j = i + offsets[:, i]
        pool[each, i], pool[each, j] = pool[each, j], pool[each, i]
    return pool[:, :k], used
