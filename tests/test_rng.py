import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dropcast.errors import InvalidArgumentError
from dropcast.rng import SeededRng, check_seed, check_seeds, integer_block, scramble, subsets


def test_same_seed_same_stream():
    a = SeededRng(123).uint64(64)
    b = SeededRng(123).uint64(64)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(1).uint64(64)
    b = SeededRng(2).uint64(64)
    assert not np.array_equal(a, b)


def test_counter_advances_across_calls():
    rng = SeededRng(5)
    first = rng.uint64(10)
    second = rng.uint64(10)
    combined = SeededRng(5).uint64(20)
    assert np.array_equal(np.concatenate([first, second]), combined)


def _splitmix64_reference(seed: int, n: int) -> list[int]:
    # Scalar SplitMix64, straight from the published algorithm, in pure
    # Python integer arithmetic; the starting state is the seed run
    # once through the same mixer (the documented seeding convention).
    mask = (1 << 64) - 1

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    state = mix(seed & mask)
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        out.append(mix(state))
    return out


def test_matches_scalar_splitmix64_reference():
    for seed in (0, 1, 42, 1234567, 2**63, 2**64 - 1):
        expected = _splitmix64_reference(seed, 50)
        got = SeededRng(seed).uint64(50).tolist()
        assert got == expected


def test_child_streams_differ_from_parent_and_each_other():
    parent = SeededRng(7)
    a = parent.child().uint64(32)
    b = parent.child().uint64(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, SeededRng(7).uint64(32))


def test_uniforms_in_unit_interval():
    u = SeededRng(9).uniforms(10_000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.02


def test_integers_cover_range_without_overflow():
    draws = SeededRng(11).integers(20_000, 7)
    assert draws.min() == 0
    assert draws.max() == 6
    counts = np.bincount(draws, minlength=7)
    assert (counts > 2000).all()


def test_permutation_is_a_permutation():
    perm = SeededRng(3).permutation(500)
    assert sorted(perm.tolist()) == list(range(500))


@pytest.mark.parametrize("n", [0, 1, 2, 321, 3176, 100_000])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_permutation_is_the_stable_argsort_of_the_stream(n, seed):
    keys = SeededRng(seed).uint64(n)
    assert np.unique(keys).size == n
    expected = np.argsort(keys, kind="stable")
    perm = SeededRng(seed).permutation(n)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, expected)


def test_subset_distinct_and_sorted():
    sub = subsets(scramble([8]), [0], 30, 6)[0]
    assert len(set(sub.tolist())) == 6
    assert sub.tolist() == sorted(sub.tolist())
    assert all(0 <= v < 30 for v in sub)


def drawn_after(seed: int, counter: int) -> SeededRng:
    """The stream of ``seed`` once it has drawn ``counter`` values."""
    stream = SeededRng(seed)
    stream.uint64(counter)
    return stream


@st.composite
def subset_calls(draw):
    """(stream seeds, calls): each call draws (n, k) at some (stream, counter)
    entries, which may list a stream or an address several times."""
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    call = st.tuples(
        st.lists(st.tuples(st.integers(0, len(seeds) - 1), st.integers(0, 500))),
        st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    )
    return seeds, draw(st.lists(call, max_size=8))


@settings(max_examples=200, deadline=None)
@given(subset_calls())
def test_subsets_rows_equal_each_streams_next_permutation(problem):
    seeds, calls = problem
    keys = scramble(seeds)
    for entries, (n, k) in calls:
        drawn = [i for i, _ in entries]
        counters = [counter for _, counter in entries]
        block = subsets(keys[drawn], np.array(counters, dtype=np.int64), n, k)
        assert block.shape == (len(entries), k)
        for row, (i, counter) in zip(block, entries):
            assert np.array_equal(row, np.sort(drawn_after(seeds[i], counter).permutation(n)[:k]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 300), st.integers(0, 3))
@example(seed=0, n_trees=40, n=300, drawn=0)
@example(seed=2**64 - 1, n_trees=40, n=300, drawn=1)
def test_integer_block_rows_equal_each_streams_bootstrap(seed, n_trees, n, drawn):
    # The forest's bootstrap: tree i's stream is seeded with seed ^ i.
    block = integer_block(scramble([seed ^ i for i in range(n_trees)]), [drawn] * n_trees, n, n)
    assert block.shape == (n_trees, n) and block.dtype == np.int64
    for i, row in enumerate(block):
        assert np.array_equal(row, drawn_after(seed ^ i, drawn).integers(n, n))


def test_integers_are_the_floor_of_scaled_uniforms():
    for seed, bound in ((0, 1), (7, 10), (2**64 - 1, 4424), (42, 2**40 + 1)):
        expected = np.floor(SeededRng(seed).uniforms(500) * bound).astype(np.int64)
        assert np.array_equal(SeededRng(seed).integers(500, bound), expected)
        assert np.array_equal(integer_block(scramble([seed]), [0], 500, bound)[0], expected)


def test_a_bad_bound_is_refused_before_any_draw():
    streams = [SeededRng(1), SeededRng(2)]
    for draw in (lambda: integer_block(scramble([1, 2]), [0, 0], 5, 0),
                 lambda: streams[0].integers(5, -1)):
        with pytest.raises(ValueError, match="bound must be positive"):
            draw()
    assert [s.uint64(1).tolist() for s in streams] == [SeededRng(s).uint64(1).tolist()
                                                        for s in (1, 2)]


@pytest.mark.parametrize("seed, message", [
    (-1, "non-negative"),
    (1 << 64, "below 2**64"),
    (42 + (1 << 64), "below 2**64"),
    (1.5, "an integer"),
])
def test_check_seed_rejects_seeds_outside_the_stream_range(seed, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        check_seed(seed)


def test_check_seed_accepts_the_range_ends():
    for seed in (0, (1 << 64) - 1, np.uint64(7)):
        check_seed(seed)


@pytest.mark.parametrize("seeds, message", [
    ((), "at least one seed"),
    ((42, 43, 42), "repeated seed"),
    ((42, -1), "non-negative"),
])
def test_check_seeds_rejects_empty_repeated_and_bad_lists(seeds, message):
    with pytest.raises(InvalidArgumentError, match=message):
        check_seeds(seeds)


def test_a_subset_larger_than_its_population_is_refused():
    with pytest.raises(ValueError, match=r"^subset size exceeds population$"):
        subsets(scramble([1]), [0], 3, 4)
