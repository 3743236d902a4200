import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropcast.models.knn as knn_mod
from dropcast.errors import InvalidArgumentError
from dropcast.models import HyperParams, ModelKind, score, train_model
from dropcast.models.knn import knn_scores, train_knn

from conftest import make_binary
from oracles import brute_force_knn_scores


def test_k1_query_equal_to_training_point():
    x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = np.array([1, 0, 1])
    model = train_knn(x, y, k=1)
    assert knn_scores(model, np.array([[5.0, 5.0]]))[0] == 0.0
    assert knn_scores(model, np.array([[0.0, 0.0]]))[0] == 1.0


def test_k3_two_of_three_positive():
    x = np.array([[0.0], [0.1], [0.2], [9.0]])
    y = np.array([1, 1, 0, 0])
    model = train_knn(x, y, k=3)
    assert knn_scores(model, np.array([[0.05]]))[0] == pytest.approx(2.0 / 3.0)


def test_scores_quantized_to_k_levels():
    rng = np.random.default_rng(40)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60)
    model = train_knn(x, y, k=20)
    out = knn_scores(model, rng.normal(size=(30, 4)))
    grid = np.round(out * 20)
    assert np.array_equal(out * 20, grid)


def test_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(25, 200))
        p = int(rng.integers(2, 6))
        # integer-coded features make exact distance ties common
        x = rng.integers(0, 4, size=(n, p)).astype(float)
        y = rng.integers(0, 2, size=n).astype(float)
        k = int(rng.integers(1, 21))
        queries = rng.integers(0, 4, size=(15, p)).astype(float)
        model = train_knn(x, y, k=k)
        assert np.array_equal(
            knn_scores(model, queries), brute_force_knn_scores(x, y, queries, k)
        )


def test_tie_at_kth_position_prefers_lower_index():
    # Query at the origin; four training points all at distance 1.
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    model = train_knn(x, y, k=2)
    # rows 0 and 1 win the tie -> both positive
    assert knn_scores(model, np.array([[0.0, 0.0]]))[0] == 1.0


def test_insufficient_rows():
    with pytest.raises(InvalidArgumentError, match=r"^k-NN with k=6 needs at least 6 training rows, got 5$"):
        train_knn(np.ones((5, 2)), np.ones(5), k=6)


def test_chunking_matches_single_block():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50).astype(float)
    queries = rng.normal(size=(40, 3))
    model = train_knn(x, y, k=5)
    import dropcast.models.knn as knn_mod

    full = knn_scores(model, queries)
    original = knn_mod._CHUNK_ELEMENTS
    try:
        knn_mod._CHUNK_ELEMENTS = 3 * 50  # force tiny chunks
        chunked = knn_scores(model, queries)
    finally:
        knn_mod._CHUNK_ELEMENTS = original
    assert np.array_equal(full, chunked)


def test_empty_query_list():
    ds = make_binary(np.arange(40, dtype=float).reshape(20, 2), [0, 1] * 10)
    model = train_model(ModelKind.KNN, ds, HyperParams(knn_k=5))
    assert score(model, np.zeros((0, 2))).tolist() == []
    assert score(model, []).tolist() == []


def test_width_mismatch():
    ds = make_binary(np.arange(40, dtype=float).reshape(20, 2), [0, 1] * 10)
    model = train_model(ModelKind.KNN, ds, HyperParams(knn_k=5))
    with pytest.raises(InvalidArgumentError, match="^model fitted on 2 features, rows have 4$"):
        score(model, np.zeros((3, 4)))


def _permuted_rows(rng, n, p):
    """Rows that permute one vector. Their distances to the origin are
    equal in exact arithmetic but round differently: the near-ties a
    Gram-form distance without an error band can misorder."""
    v = rng.normal(size=p)
    return np.array([rng.permutation(v) for _ in range(n)])


def _standardized_normal(rng, n, p):
    raw = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p) + rng.normal(size=p)
    return (raw - raw.mean(axis=0)) / raw.std(axis=0)


@pytest.mark.parametrize("p", [9, 17, 34, 40])
def test_continuous_features_match_oracle_across_blocks(p, monkeypatch):
    rng = np.random.default_rng(43 + p)
    data = _standardized_normal(rng, 190, p)
    x, queries = data[:150], data[150:]
    y = rng.integers(0, 2, size=150).astype(float)
    model = train_knn(x, y, k=20)
    expected = brute_force_knn_scores(x, y, queries, 20)
    assert np.array_equal(knn_scores(model, queries), expected)
    monkeypatch.setattr(knn_mod, "_CHUNK_ELEMENTS", 150 * 7)  # six blocks of <= 7 queries
    assert np.array_equal(knn_scores(model, queries), expected)


def test_near_ties_between_permuted_rows_match_oracle():
    rng = np.random.default_rng(44)
    for _ in range(12):
        p = int(rng.integers(9, 41))
        x = _permuted_rows(rng, 150, p)
        y = rng.integers(0, 2, size=150).astype(float)
        queries = np.vstack([np.zeros(p), rng.normal(size=(3, p)) * 1e-9])
        k = int(rng.integers(1, 21))
        model = train_knn(x, y, k=k)
        assert np.array_equal(
            knn_scores(model, queries), brute_force_knn_scores(x, y, queries, k)
        )


def test_ties_at_kth_distance_match_oracle():
    rng = np.random.default_rng(45)
    x = rng.integers(0, 3, size=(300, 12)).astype(float)
    y = rng.integers(0, 2, size=300).astype(float)
    queries = rng.integers(0, 3, size=(40, 12)).astype(float)
    k = 20
    dist = ((queries[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    kth = np.sort(dist, axis=1)[:, k - 1]
    # more than k rows within the k-th distance: the tie-break decides
    assert ((dist <= kth[:, None]).sum(axis=1) > k).any()
    model = train_knn(x, y, k=k)
    assert np.array_equal(knn_scores(model, queries), brute_force_knn_scores(x, y, queries, k))


@pytest.mark.parametrize("scale", [1e-160, 1e140, 1e160])
def test_extreme_magnitudes_match_oracle(scale):
    # 1e-160 underflows the squared differences, 1e160 overflows them to
    # inf (every norm too large for the band: plain brute force)
    rng = np.random.default_rng(46)
    x = rng.normal(size=(40, 6)) * scale
    y = rng.integers(0, 2, size=40).astype(float)
    queries = rng.normal(size=(9, 6)) * scale
    model = train_knn(x, y, k=7)
    with np.errstate(over="ignore", under="ignore"):
        expected = brute_force_knn_scores(x, y, queries, 7)
        assert np.array_equal(knn_scores(model, queries), expected)


@st.composite
def knn_problems(draw):
    """(x, y, queries, k, queries per block): integer codes with ties,
    standardized normals, or permuted rows with near-ties at the origin."""
    n = draw(st.integers(1, 80))
    p = draw(st.integers(0, 40))
    n_query = draw(st.integers(0, 30))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["codes", "normal", "permuted"]))
    if style == "codes":
        codes = draw(st.integers(1, 5))
        x = g.integers(0, codes, size=(n, p)).astype(float)
        queries = g.integers(0, codes, size=(n_query, p)).astype(float)
    elif style == "normal":
        x = g.normal(size=(n, p))
        queries = g.normal(size=(n_query, p))
    else:
        x = _permuted_rows(g, n, p)
        queries = g.normal(size=(n_query, p)) * 1e-9
    y = g.integers(0, 2, size=n).astype(float)
    return x, y, queries, draw(st.integers(1, n)), draw(st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(knn_problems())
def test_property_equals_brute_force_oracle(problem):
    x, y, queries, k, block_rows = problem
    model = train_knn(x, y, k=k)
    original = knn_mod._CHUNK_ELEMENTS
    try:
        knn_mod._CHUNK_ELEMENTS = block_rows * x.shape[0]
        got = knn_scores(model, queries)
    finally:
        knn_mod._CHUNK_ELEMENTS = original
    assert np.array_equal(got, brute_force_knn_scores(x, y, queries, k))


def test_scoring_peak_memory_is_bounded_by_the_block():
    # The bench fixture's k-NN shape: 794 queries against 3176 training rows.
    g = np.random.default_rng(4)
    model = train_knn(g.normal(size=(3176, 34)), g.integers(0, 2, size=3176), k=20)
    queries = g.normal(size=(794, 34))
    tracemalloc.start()
    try:
        knn_scores(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 4.1 float64s per (query, training row) pair of one block:
    # 2.1 MB at 2**16 pairs, 8.6 MB at 2**18.
    assert peak <= 5 * 8 * knn_mod._CHUNK_ELEMENTS
    assert knn_mod._CHUNK_ELEMENTS <= 1 << 16
