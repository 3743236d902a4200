import pickle

import pytest

from dropcast.errors import (
    CellParseError,
    DropcastError,
    FileFormatError,
    InvalidArgumentError,
    MissingColumnError,
    MissingValueError,
)


@pytest.mark.parametrize("error", [
    DropcastError("a run failed"),
    InvalidArgumentError("k-NN with k=9 needs at least 9 training rows, got 4"),
    FileFormatError("m.tsv:3: expected 'column<TAB>group', got 'x'"),
    MissingColumnError("Course"),
    CellParseError(3, "Course", "x"),
    MissingValueError(7, "Debtor"),
], ids=lambda error: type(error).__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_error_class_survives_pickling(error, protocol):
    copy = pickle.loads(pickle.dumps(error, protocol=protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
