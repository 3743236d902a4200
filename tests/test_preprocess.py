import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dropcast.eda import correlation_matrix
from dropcast.errors import InvalidArgumentError
from dropcast.ingest import FeatureGroup
from dropcast.models import HyperParams, ModelKind, train_model
from dropcast.models.serialize import model_to_text
from dropcast.preprocess import (
    apply_standardizer,
    exclude_group,
    BLOCK_VALUES,
    fit_standardizer,
    split,
)

from conftest import make_binary
from oracles import model_from_text, reference_fit_standardizer, standardize_dataset


class TestSplit:
    def test_twenty_percent_of_3630(self):
        indices = split(3630, 0.2, seed=42)
        assert len(indices.test_rows) == 726
        assert len(indices.train_rows) == 2904

    def test_deterministic(self):
        a = split(10, 0.2, seed=7)
        b = split(10, 0.2, seed=7)
        assert a.test_rows.tolist() == b.test_rows.tolist()
        assert a.train_rows.tolist() == b.train_rows.tolist()

    def test_two_rows_half(self):
        indices = split(2, 0.5, seed=0)
        assert len(indices.test_rows) == 1
        assert len(indices.train_rows) == 1
        assert set(indices.test_rows) | set(indices.train_rows) == {0, 1}

    def test_partition_property(self):
        for seed in range(5):
            indices = split(101, 0.3, seed=seed)
            both = set(indices.test_rows.tolist()) & set(indices.train_rows.tolist())
            assert both == set()
            assert len(indices.test_rows) + len(indices.train_rows) == 101
            assert len(indices.test_rows) == 30  # round(0.3 * 101) = round(30.3)

    def test_rounding_half_up(self):
        assert len(split(10, 0.25, seed=1).test_rows) == 3  # round(2.5) -> 3

    def test_different_seeds_different_splits(self):
        assert split(100, 0.2, seed=1).test_rows.tolist() != split(100, 0.2, seed=2).test_rows.tolist()

    def test_bad_fraction(self):
        with pytest.raises(InvalidArgumentError, match=re.escape("test_fraction must be in (0, 1), got 0.0")):
            split(10, 0.0, seed=1)
        with pytest.raises(InvalidArgumentError, match=re.escape("test_fraction must be in (0, 1), got 1.0")):
            split(10, 1.0, seed=1)

    def test_fraction_rounding_to_an_empty_set(self):
        with pytest.raises(InvalidArgumentError, match="0.0001 of 3970 rows leaves an empty test set"):
            split(3970, 0.0001, seed=1)
        with pytest.raises(InvalidArgumentError, match="0.96 of 10 rows leaves an empty training set"):
            split(10, 0.96, seed=1)
        assert len(split(10, 0.05, seed=1).test_rows) == 1  # round(0.5) -> 1


class TestStandardizer:
    def test_constant_column_flagged(self):
        matrix = np.full((4, 1), 5.0)
        std = fit_standardizer(matrix)
        assert std.mean[0] == 5.0
        assert std.constant[0]
        assert std.std[0] == 1.0
        assert apply_standardizer(std, matrix)[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_hand_arithmetic(self):
        # column values {0, 2}: mean 1, population stddev 1
        matrix = np.array([[0.0], [2.0]])
        std = fit_standardizer(matrix)
        assert std.mean[0] == 1.0
        assert std.std[0] == 1.0

    def test_population_convention(self):
        # {0, 1, 2}: population variance 2/3 (sample variance would be 1)
        matrix = np.array([[0.0], [1.0], [2.0]])
        std = fit_standardizer(matrix)
        assert std.std[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_train_rows_standardize_to_zero_mean(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(50, 4)) * 3 + 1
        train = np.arange(0, 30)
        std = fit_standardizer(matrix[train])
        transformed = apply_standardizer(std, matrix)
        assert np.abs(transformed[train].mean(axis=0)).max() < 1e-9

    def test_no_leakage_from_test_rows(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(20, 3))
        train = np.arange(10)
        std_a = fit_standardizer(matrix[train])
        tampered = matrix.copy()
        tampered[10:] += 1000.0
        std_b = fit_standardizer(tampered[train])
        assert np.array_equal(std_a.mean, std_b.mean)
        assert np.array_equal(std_a.std, std_b.std)

    def test_value_at_mean_maps_to_zero_and_one_sigma_to_one(self):
        matrix = np.array([[1.0], [3.0]])  # mean 2, std 1
        std = fit_standardizer(matrix)
        out = apply_standardizer(std, np.array([[2.0], [3.0]]))
        assert out[0, 0] == 0.0
        assert out[1, 0] == 1.0

    def test_standardize_standardized_is_noop(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(40, 3))
        first = fit_standardizer(matrix)
        once = apply_standardizer(first, matrix)
        second = fit_standardizer(once)
        twice = apply_standardizer(second, once)
        assert np.allclose(once, twice, atol=1e-12)

    # A column of |c| near the float max overflows its sum; the all-equal
    # test still flags it.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(allow_nan=False, allow_infinity=False), n_rows=st.integers(1, 4000))
    @example(c=10.8, n_rows=3176)  # the float mean is 10.799999999999638
    def test_constant_column_of_any_value_is_flagged(self, c, n_rows):
        matrix = np.column_stack([np.full(n_rows, c), np.arange(n_rows) % 10.0])
        std = fit_standardizer(matrix)
        assert std.constant[0]
        assert std.std[0] == 1.0
        assert (apply_standardizer(std, matrix)[:, 0] == 0.0).all()
        r = correlation_matrix(make_binary(matrix, np.arange(n_rows) % 2))
        assert (r.values[0] == 0.0).all() and (r.values[:, 0] == 0.0).all()

    def test_fit_does_not_depend_on_memory_layout(self):
        # numpy would sum these F-ordered columns pairwise, to other bits.
        matrix = np.random.default_rng(3).normal(size=(3000, 5)) * 1e3 + 7
        c_fit = fit_standardizer(matrix)
        f_fit = fit_standardizer(np.asfortranarray(matrix))
        assert c_fit.mean.tobytes() == f_fit.mean.tobytes()
        assert c_fit.std.tobytes() == f_fit.std.tobytes()

    def test_ordinary_columns_keep_the_plain_formula_bits(self):
        matrix = np.random.default_rng(5).normal(size=(3000, 5)) * 1e3 + 7
        fit = fit_standardizer(matrix)
        mean = matrix.mean(axis=0)
        assert fit.mean.tobytes() == mean.tobytes()
        assert fit.std.tobytes() == np.sqrt(((matrix - mean) ** 2).mean(axis=0)).tobytes()
        assert apply_standardizer(fit, matrix).tobytes() == ((matrix - mean) / fit.std).tobytes()

    def test_apply_holds_one_matrix(self):
        matrix = np.random.default_rng(6).normal(size=(20000, 34))
        fit = fit_standardizer(matrix)
        tracemalloc.start()
        try:
            apply_standardizer(fit, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * matrix.nbytes

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(column=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=40))
    @example(column=[1e200, -1e200, 3e199])  # squared deviations overflow
    @example(column=[1.7e308, 1.7e308, 0.0])  # the sum overflows
    @example(column=[-1.7e308, 1.7e308])  # the mean is 0, deviations overflow
    @example(column=[1e154, -1e154, 0.0])  # the squares stay finite
    def test_finite_column_fits_or_is_one_error(self, column):
        matrix = np.column_stack([column, np.arange(len(column)) % 3.0])
        train = make_binary(matrix, np.arange(len(column)) % 2)
        try:
            model = train_model(ModelKind.LINEAR_SVM, train, HyperParams(svm_epochs=3))
        except InvalidArgumentError as exc:
            assert str(exc) == (
                "cannot standardize column 0: its mean or standard deviation is not finite"
            )
            return
        std = model.standardizer.std
        assert np.isfinite(std).all() and (std > 0).all()
        restored = model_from_text(model_to_text(model))
        assert restored.standardizer.std.tobytes() == std.tobytes()
        assert restored.standardizer.mean.tobytes() == model.standardizer.mean.tobytes()

    def test_width_mismatch(self):
        std = fit_standardizer(np.ones((3, 2)))
        with pytest.raises(InvalidArgumentError, match="^standardizer fitted on 2 columns, matrix has 5$"):
            apply_standardizer(std, np.ones((3, 5)))


class TestExcludeGroup:
    def _dataset(self):
        groups = (
            FeatureGroup.DEMOGRAPHIC,
            FeatureGroup.ACADEMIC,
            FeatureGroup.MACROECONOMIC,
            FeatureGroup.ACADEMIC,
            FeatureGroup.SOCIOECONOMIC,
        )
        x = np.arange(15, dtype=float).reshape(3, 5)
        return make_binary(x, [1, 0, 1], groups=groups)

    def test_exclusion_removes_only_tagged_columns(self):
        ds = self._dataset()
        out = exclude_group(ds, FeatureGroup.ACADEMIC)
        assert out.column_names == ("f0", "f2", "f4")
        assert out.n_columns == 3
        assert np.array_equal(out.feature_matrix, ds.feature_matrix[:, [0, 2, 4]])
        assert np.array_equal(out.labels, ds.labels)

    def test_groups_partition_columns(self):
        ds = self._dataset()
        surviving = []
        for group in (FeatureGroup.DEMOGRAPHIC, FeatureGroup.ACADEMIC,
                      FeatureGroup.MACROECONOMIC, FeatureGroup.SOCIOECONOMIC):
            out = exclude_group(ds, group)
            surviving.append(set(out.column_names))
        assert set.intersection(*surviving) == set()

    def test_unknown_group(self):
        ds = make_binary(np.ones((2, 2)), [0, 1], groups=(FeatureGroup.ACADEMIC,) * 2)
        with pytest.raises(InvalidArgumentError, match="^no columns tagged 'macroeconomic' in dataset$"):
            exclude_group(ds, FeatureGroup.MACROECONOMIC)

    def test_commutes_with_row_subsetting(self):
        ds = self._dataset()
        out = exclude_group(ds, FeatureGroup.ACADEMIC)
        subset_then_exclude = exclude_group(
            make_binary(ds.feature_matrix[:2], ds.labels[:2], groups=ds.column_groups),
            FeatureGroup.ACADEMIC,
        )
        assert np.array_equal(out.feature_matrix[:2], subset_then_exclude.feature_matrix)


def test_standardize_dataset_wraps_matrix():
    ds = make_binary(np.array([[0.0], [2.0]]), [0, 1])
    std = fit_standardizer(ds.feature_matrix)
    out = standardize_dataset(ds, std)
    assert out.feature_matrix[:, 0].tolist() == [-1.0, 1.0]
    assert out.column_names == ds.column_names


def test_a_one_row_table_is_not_split():
    with pytest.raises(InvalidArgumentError, match=r"^need at least 2 rows to split, got 1$"):
        split(1, 0.2, 42)


def test_a_standardizer_is_not_fitted_on_zero_rows():
    with pytest.raises(InvalidArgumentError,
                       match=r"^cannot fit standardizer on zero training rows$"):
        fit_standardizer(np.zeros((0, 3)))


def _table(n_rows: int, n_columns: int, seed: int = 11) -> np.ndarray:
    """Columns of mixed scale, so the order of the sums shows in the bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_rows, n_columns)) * 1e3 + rng.normal(size=(n_rows, n_columns)) * 1e-3


def _zero_variance(n_rows: int) -> np.ndarray:
    """Two values whose deviations square to 0: not all equal, std 0."""
    return np.where(np.arange(n_rows) % 2 == 0, 1e-200, 2e-200)


_BLOCK_34 = BLOCK_VALUES // 34  # rows per block of a 34-column table


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("rows", [
    pytest.param(_table(1, 5), id="one-row"),
    *(pytest.param(_table(n, 34), id=f"34-columns-{n}-rows")
      for n in (_BLOCK_34 - 1, _BLOCK_34, _BLOCK_34 + 1, 3 * _BLOCK_34 + 7)),
    *(pytest.param(_table(n, 1), id=f"1-column-{n}-rows")
      for n in (1, 5000, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1, 3 * BLOCK_VALUES + 17)),
    pytest.param(np.column_stack([np.full(3176, 10.8), _table(3176, 2)]), id="3176-copies-of-10.8"),
    pytest.param(np.column_stack([_table(_BLOCK_34 + 5, 3), np.full(_BLOCK_34 + 5, -4.5),
                                  _zero_variance(_BLOCK_34 + 5)]), id="all-equal-and-zero-variance"),
    pytest.param(_zero_variance(BLOCK_VALUES + 3)[:, None], id="zero-variance-one-column"),
    pytest.param(np.asfortranarray(_table(2 * _BLOCK_34 + 3, 34)), id="F-ordered"),
    pytest.param(_table(2 * _BLOCK_34 + 9, 68)[::2, ::2], id="strided"),
    pytest.param(np.column_stack([_table(_BLOCK_34 + 2, 2),
                                  np.where(np.arange(_BLOCK_34 + 2) % 2, 1e200, -1e200)]),
                 id="squared-deviations-overflow"),
    pytest.param(np.column_stack([_table(_BLOCK_34 + 2, 2), np.full(_BLOCK_34 + 2, 1.7e308)]),
                 id="all-equal-column-whose-sum-overflows"),
    pytest.param(np.zeros((0, 3)), id="zero-rows"),
])
def test_blocked_fit_is_bit_identical_to_the_whole_matrix_fit(rows):
    try:
        expected = reference_fit_standardizer(rows)
    except InvalidArgumentError as exc:
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(exc))}$"):
            fit_standardizer(rows)
        return
    fit = fit_standardizer(rows)
    for name in ("mean", "std", "constant"):
        got, want = getattr(fit, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_the_fit_holds_no_full_size_temporary():
    matrix = _table(40000, 34)
    tracemalloc.start()
    try:
        fit_standardizer(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 0.05x: one row block and its running sum; 1.00x with the
    # whole-matrix squared deviations.
    assert peak < 0.1 * matrix.nbytes
