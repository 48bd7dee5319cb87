"""The vectorised SplitMix64 against the scalar generator, and the forced
fallback to the scalar generator when a draw lands in `below`'s rejection zone."""

import numpy as np
from conftest import assert_same_tree, fit_one
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_fit_random_forest

from stocksignals.classifiers import ClassifierSpec
from stocksignals.classifiers.forest import _TreeStreams
from stocksignals.rng import _GOLDEN, SplitMix64, _mix, draws_below, outputs, spawn_seed

MASK = 2**64 - 1
REJECTED = MASK  # 2^64 - 1 lies in below(n)'s rejection zone unless n is a power of two
seeds = st.integers(min_value=0, max_value=MASK)


def _unshift(z, shift):
    """Inverse of z ^ (z >> shift) on 64-bit values."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def unmix(z):
    """The input of _mix that gives z."""
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK
    return _unshift(z, 30)


def seed_with_output(i, value):
    """A seed whose output i (0-based) is `value`."""
    return (unmix(value) - (i + 1) * _GOLDEN) & MASK


def spec_seed_for_first_tree(tree_seed):
    """A ClassifierSpec seed whose first tree draws from SplitMix64(tree_seed)."""
    return (unmix(tree_seed) - _GOLDEN) & MASK


def advanced(seed, count):
    rng = SplitMix64(seed)
    for _ in range(count):
        rng.next_u64()
    return rng


@settings(max_examples=200, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=4), st.integers(0, 40), st.integers(0, 12))
def test_outputs_are_the_scalar_stream(seed_list, start, count):
    block = outputs(seed_list, start, count)
    assert block.shape == (len(seed_list), count) and block.dtype == np.uint64
    for seed, row in zip(seed_list, block.tolist()):
        rng = advanced(seed, start)
        assert row == [rng.next_u64() for _ in range(count)]
        assert SplitMix64.after(seed, start).next_u64() == _mix((seed + (start + 1) * _GOLDEN) & MASK)


# bounds a little above 2^62 reject about a third of all outputs, so both outcomes occur
bounds = st.integers(1, 50) | st.integers(2**62 + 1, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=4), st.integers(0, 20), st.lists(bounds, max_size=6))
def test_draws_below_is_below_or_flags_a_rejection(seed_list, start, bound_list):
    values, ok = draws_below(seed_list, [start] * len(seed_list), bound_list)
    for seed, row, accepted in zip(seed_list, values.tolist(), ok.tolist()):
        raw = outputs([seed], start, len(bound_list))[0].tolist()
        in_zone = [u >= 2**64 - 2**64 % b for u, b in zip(raw, bound_list)]
        assert accepted == (not any(in_zone))
        if accepted:
            rng = advanced(seed, start)
            assert row == [rng.below(b) for b in bound_list]


@settings(max_examples=100, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=3), st.integers(1, 30), st.data())
def test_tree_streams_draw_like_bootstrap_and_sample_indices(seed_list, n, data):
    d = data.draw(st.integers(min_value=2, max_value=9), label="d")
    mtry = data.draw(st.integers(min_value=1, max_value=d), label="mtry")
    streams = _TreeStreams(seed_list, np.zeros((n, 1), dtype=np.int64), d, mtry, True)
    scalar = [SplitMix64(seed) for seed in seed_list]
    for root, rng in zip(streams.roots(), scalar):
        assert root.tolist() == rng.bootstrap_indices(n)
    for _ in range(3):
        trees = np.array(sorted(data.draw(st.sets(st.integers(0, len(seed_list) - 1), min_size=1))))
        picked = streams(trees)
        assert picked.tolist() == [sorted(scalar[t].sample_indices(d, mtry)) for t in trees.tolist()]


def test_unmix_inverts_mix():
    for z in (0, 1, MASK, 0x0123456789ABCDEF, spawn_seed(7, 3)):
        assert _mix(unmix(z)) == z
        assert SplitMix64.after(seed_with_output(4, z), 4).next_u64() == z


def test_rejected_bootstrap_draw_falls_back_to_the_scalar_generator():
    n = 12
    tree_seed = seed_with_output(5, REJECTED)  # the sixth bootstrap draw is rejected
    values, ok = draws_below([tree_seed], 0, [n] * n)
    assert not ok[0]
    spec = ClassifierSpec(kind="random_forest", n_trees=2, seed=spec_seed_for_first_tree(tree_seed))
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
    forest = fit_one(spec, X, y)
    trees, tree_seeds = reference_fit_random_forest(X, y, spec)
    assert forest.tree_seeds == tree_seeds and tree_seeds[0] == tree_seed
    for mine, reference in zip(forest.trees, trees, strict=True):
        assert_same_tree(mine, reference)


def test_rejected_feature_draw_falls_back_to_the_scalar_generator():
    # no bootstrap: output 0 is the root's first feature draw, below(3)
    tree_seed = seed_with_output(0, REJECTED)
    assert not draws_below([tree_seed], 0, [3])[1][0]
    spec = ClassifierSpec(
        kind="random_forest", n_trees=3, mtry=2, bootstrap=False,
        seed=spec_seed_for_first_tree(tree_seed),
    )
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(30, 3)), np.arange(30) % 3
    forest = fit_one(spec, X, y)
    trees, _ = reference_fit_random_forest(X, y, spec)
    assert forest.trees[0].left[0] == 1  # the root was searched
    for mine, reference in zip(forest.trees, trees, strict=True):
        assert_same_tree(mine, reference)
