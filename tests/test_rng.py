"""The vectorised SplitMix64 draws against the scalar generator in the oracles,
including draws that land in `below`'s rejection zone and are drawn again."""

import numpy as np
from conftest import assert_same_tree, fit_one
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import GOLDEN, MASK64, SplitMix64, mix64, reference_fit_random_forest

from stocksignals.classifiers.base import ClassifierSpec
from stocksignals.classifiers.forest import _TreeStreams
from stocksignals.rng import draws_below, outputs
from stocksignals.transform import SplitConfig, shuffle_split

REJECTED = MASK64  # 2^64 - 1 lies in below(n)'s rejection zone unless n is a power of two
seeds = st.integers(min_value=0, max_value=MASK64)


def _unshift(z, shift):
    """Inverse of z ^ (z >> shift) on 64-bit values."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def unmix(z):
    """The input of mix64 that gives z."""
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK64
    return _unshift(z, 30)


def seed_with_output(i, value):
    """A seed whose output i (0-based) is `value`."""
    return (unmix(value) - (i + 1) * GOLDEN) & MASK64


class Counting(SplitMix64):
    """The scalar generator, counting the outputs drawn from it."""

    def __init__(self, seed, start=0):
        super().__init__(seed + start * GOLDEN)  # the state after `start` outputs
        self.drawn = 0

    def next_u64(self):
        self.drawn += 1
        return super().next_u64()


@settings(max_examples=200, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=4), st.integers(0, 40), st.integers(0, 12))
def test_outputs_are_the_scalar_stream(seed_list, start, count):
    block = outputs(seed_list, start, count)
    assert block.shape == (len(seed_list), count) and block.dtype == np.uint64
    for seed, row in zip(seed_list, block.tolist()):
        rng = Counting(seed, start)
        assert row == [rng.next_u64() for _ in range(count)]


# bounds a little above 2^62 reject about a third of all outputs, so many rows redraw
bounds = st.integers(1, 50) | st.integers(2**62 + 1, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(seeds, st.integers(0, 20)), min_size=1, max_size=4),
    st.lists(bounds, max_size=6),
)
def test_draws_below_is_successive_below_calls(streams, bound_list):
    seed_list, starts = zip(*streams)
    values, used = draws_below(list(seed_list), list(starts), bound_list)
    assert values.shape == (len(seed_list), len(bound_list)) and values.dtype == np.int64
    for seed, start, row, took in zip(seed_list, starts, values.tolist(), used.tolist()):
        rng = Counting(seed, start)
        assert row == [rng.below(b) for b in bound_list]
        assert took == rng.drawn


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(-(2**70), 2**70), st.none() | st.integers(1, 29))
@example(n=40, seed=-3, rejecting=None)
@example(n=40, seed=2**64 + 42, rejecting=None)
@example(n=40, seed=0, rejecting=7)
def test_shuffle_split_is_the_scalar_shuffle(n, seed, rejecting):
    if rejecting is not None and 2 * rejecting + 1 <= n:
        # draw n - b is below(b), and the odd bound b rejects 2^64 - 1
        bound = 2 * rejecting + 1
        seed = seed_with_output(n - bound, REJECTED)
        assert draws_below([seed], 0, np.arange(n, 1, -1))[1].tolist() == [n]
    train, test = shuffle_split(range(n), SplitConfig(train_fraction=0.7, seed=seed))
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    assert (train, test) == (order[: int(n * 0.7)], order[int(n * 0.7) :])


def test_unmix_inverts_mix():
    for z in (0, 1, MASK64, 0x0123456789ABCDEF, mix64(7 + 4 * GOLDEN)):
        assert mix64(unmix(z)) == z
        rng = Counting(seed_with_output(4, z), 4)
        assert rng.next_u64() == z


def test_rejected_bootstrap_draw_is_drawn_again():
    n = 12
    tree_seed = seed_with_output(5, REJECTED)  # the sixth bootstrap draw is rejected
    assert draws_below([tree_seed], 0, [n] * n)[1].tolist() == [n + 1]
    spec = ClassifierSpec(kind="random_forest", n_trees=2, seed=seed_with_output(0, tree_seed))
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
    forest = fit_one(spec, X, y)
    trees, tree_seeds = reference_fit_random_forest(X, y, spec)
    assert forest.tree_seeds == tree_seeds and tree_seeds[0] == tree_seed
    for mine, reference in zip(forest.trees, trees, strict=True):
        assert_same_tree(mine, reference)


def test_rejected_feature_draw_is_drawn_again():
    # no bootstrap: output 0 is the root's first feature draw, below(3)
    tree_seed = seed_with_output(0, REJECTED)
    assert draws_below([tree_seed], 0, [3])[1].tolist() == [2]
    spec = ClassifierSpec(
        kind="random_forest", n_trees=3, mtry=2, bootstrap=False,
        seed=seed_with_output(0, tree_seed),
    )
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(30, 3)), np.arange(30) % 3
    forest = fit_one(spec, X, y)
    trees, _ = reference_fit_random_forest(X, y, spec)
    assert forest.trees[0].left[0] == 1  # the root was searched
    for mine, reference in zip(forest.trees, trees, strict=True):
        assert_same_tree(mine, reference)
