import tracemalloc

import numpy as np
import pytest

from dropcast.eda import (
    class_distribution,
    correlation_matrix,
    gender_distribution,
    rate_by_category,
)
from dropcast.errors import InvalidArgumentError
from dropcast.ingest import LABELS, Dataset, FeatureGroup, Outcome
from dropcast.preprocess import BLOCK_VALUES

from conftest import make_binary, requires_dataset
from oracles import reference_correlation


def _dataset(outcomes):
    n = len(outcomes)
    matrix = np.arange(n * 2, dtype=float).reshape(n, 2)
    return Dataset(
        feature_matrix=matrix,
        column_names=("A", "B"),
        column_groups=(FeatureGroup.ACADEMIC, FeatureGroup.DEMOGRAPHIC),
        labels=np.array([LABELS[outcome] for outcome in outcomes], dtype=np.int64),
    )


class TestClassDistribution:
    def test_counts(self):
        ds = _dataset([Outcome.DROPOUT, Outcome.GRADUATE, Outcome.GRADUATE, Outcome.ENROLLED])
        counts = class_distribution(ds)
        assert counts == {Outcome.DROPOUT: 1, Outcome.GRADUATE: 2, Outcome.ENROLLED: 1}

    def test_keys_in_outcome_order(self):
        counts = class_distribution(_dataset([Outcome.ENROLLED, Outcome.GRADUATE]))
        assert list(counts) == [Outcome.DROPOUT, Outcome.GRADUATE, Outcome.ENROLLED]

    def test_single_graduate(self):
        counts = class_distribution(_dataset([Outcome.GRADUATE]))
        assert counts == {Outcome.DROPOUT: 0, Outcome.GRADUATE: 1, Outcome.ENROLLED: 0}

    def test_sums_to_row_count_and_permutation_invariant(self):
        outcomes = [Outcome.DROPOUT] * 3 + [Outcome.GRADUATE] * 5 + [Outcome.ENROLLED] * 2
        forward = class_distribution(_dataset(outcomes))
        backward = class_distribution(_dataset(list(reversed(outcomes))))
        assert forward == backward
        assert sum(forward.values()) == 10


class TestRateByCategory:
    def test_rates_per_code(self):
        x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
        y = np.array([1, 1, 0, 0, 0])
        rows = rate_by_category(make_binary(x, y), "f0")
        assert rows[0][:3] == (0.0, 3, pytest.approx(2.0 / 3.0))
        assert rows[1][:3] == (1.0, 2, 0.0)
        # complementary rates
        for _, _, dropout_rate, graduate_rate in rows:
            assert dropout_rate + graduate_rate == pytest.approx(1.0, abs=1e-12)

    def test_counts_partition_rows(self):
        rng = np.random.default_rng(50)
        x = rng.integers(0, 5, size=(77, 2)).astype(float)
        y = rng.integers(0, 2, size=77)
        rows = rate_by_category(make_binary(x, y), "f1")
        assert sum(n for _, n, _, _ in rows) == 77

    def test_rows_sorted_by_code(self):
        x = np.array([[3.0], [1.0], [2.0], [1.0]])
        rows = rate_by_category(make_binary(x, [0, 1, 0, 1]), "f0")
        codes = [code for code, *_ in rows]
        assert codes == sorted(codes)

    def test_unknown_feature(self):
        with pytest.raises(InvalidArgumentError, match="^no feature named 'nope'$"):
            rate_by_category(make_binary(np.ones((2, 1)), [0, 1]), "nope")


class TestGenderDistribution:
    def test_four_cells(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        ds = make_binary(x, y, names=("Gender",))
        counts = gender_distribution(ds)
        assert counts == {(0.0, 0): 1, (0.0, 1): 1, (1.0, 0): 1, (1.0, 1): 1}

    def test_totals_match(self):
        rng = np.random.default_rng(51)
        x = rng.integers(0, 2, size=(60, 1)).astype(float)
        y = rng.integers(0, 2, size=60)
        counts = gender_distribution(make_binary(x, y, names=("Gender",)))
        assert sum(counts.values()) == 60

    def test_codes_with_only_one_label(self):
        # The highest code has no dropout rows, so its dropout count
        # exists only through the per-code count's full length.
        x = np.array([[0.0], [0.0], [1.0], [1.0], [1.0]])
        ds = make_binary(x, [1, 1, 0, 0, 0], names=("Gender",))
        assert rate_by_category(ds, "Gender") == ((0.0, 2, 1.0, 0.0), (1.0, 3, 0.0, 1.0))
        assert gender_distribution(ds) == {(0.0, 0): 0, (0.0, 1): 2, (1.0, 0): 3, (1.0, 1): 0}

    def test_requires_gender_column(self):
        with pytest.raises(InvalidArgumentError, match="^no feature named 'Gender'$"):
            gender_distribution(make_binary(np.ones((2, 1)), [0, 1], names=("Other",)))


class TestCorrelationMatrix:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(30, 3))
        matrix = correlation_matrix(make_binary(x, rng.integers(0, 2, 30)))
        assert np.allclose(np.diag(matrix.values), 1.0)

    def test_negation_gives_minus_one(self):
        rng = np.random.default_rng(53)
        col = rng.normal(size=40)
        x = np.column_stack([col, -col])
        matrix = correlation_matrix(make_binary(x, rng.integers(0, 2, 40)))
        assert matrix.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_zeroed_and_flagged(self):
        rng = np.random.default_rng(54)
        x = np.column_stack([rng.normal(size=25), np.full(25, 3.0)])
        matrix = correlation_matrix(make_binary(x, rng.integers(0, 2, 25)))
        assert np.diag(matrix.values).tolist() == [1.0, 0.0]
        assert matrix.values[1].tolist() == [0.0, 0.0]
        assert matrix.values[0, 1] == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(55)
        x = rng.integers(0, 6, size=(50, 5)).astype(float)
        matrix = correlation_matrix(make_binary(x, rng.integers(0, 2, 50)))
        assert np.array_equal(matrix.values, matrix.values.T)
        assert (np.abs(matrix.values) <= 1.0).all()

    def test_positive_affine_transform_invariance(self):
        rng = np.random.default_rng(56)
        x = rng.normal(size=(45, 3))
        base = correlation_matrix(make_binary(x, rng.integers(0, 2, 45)))
        scaled = x.copy()
        scaled[:, 1] = 4.0 * scaled[:, 1] + 10.0
        other = correlation_matrix(make_binary(scaled, rng.integers(0, 2, 45)))
        assert np.allclose(base.values, other.values, atol=1e-9)

    @pytest.mark.parametrize("n_rows, n_columns, seed", [
        (40, 3, 57), (500, 9, 58),
        *((BLOCK_VALUES // 34 + d, 34, 59 + d) for d in (-1, 0, 1)),  # at a block boundary
        (3 * BLOCK_VALUES + 5, 1, 62), (5 * BLOCK_VALUES // 12 + 3, 12, 63),
    ])
    def test_equals_the_whole_matrix_product_and_is_exactly_symmetric(self, n_rows, n_columns,
                                                                     seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 7, size=(n_rows, n_columns)) * rng.normal(size=n_columns) + 3.0
        x[:, 0] = x[:, -1] * -2.0 + rng.normal(size=n_rows)  # a strong correlation
        values = correlation_matrix(make_binary(x, rng.integers(0, 2, n_rows))).values
        assert np.array_equal(values, values.T)
        assert np.abs(values - reference_correlation(x)).max() <= 1e-12

    def test_holds_no_standardized_copy_of_the_table(self):
        rng = np.random.default_rng(64)
        binary = make_binary(rng.normal(size=(40000, 34)), rng.integers(0, 2, 40000))
        tracemalloc.start()
        try:
            correlation_matrix(binary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 0.05x: one standardized row block and the Gram matrix;
        # 1.00x with the whole table standardized at once.
        assert peak < 0.1 * binary.feature_matrix.nbytes

    @requires_dataset
    def test_nationality_tracks_international_on_records_file(self, real_binary):
        matrix = correlation_matrix(real_binary)
        nationality = next(
            name for name in matrix.column_names if name in ("Nationality", "Nacionality")
        )
        i = matrix.column_names.index(nationality)
        j = matrix.column_names.index("International")
        assert abs(matrix.values[i, j]) > 0.3
