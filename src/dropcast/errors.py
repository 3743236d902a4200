"""Exception hierarchy shared across the package.

Every error raised on bad input or a broken contract derives from
``DropcastError`` so callers (and the CLI) can catch one type.
"""


class DropcastError(Exception):
    pass


# --- ingestion ---

class ManifestParseError(DropcastError):
    pass


class DuplicateColumnError(DropcastError):
    pass


class MissingColumnError(DropcastError):
    def __init__(self, column: str):
        super().__init__(f"required column not found in header: {column!r}")
        self.column = column


class CellParseError(DropcastError):
    def __init__(self, row: int, column: str, text: str):
        super().__init__(f"cannot parse cell at data row {row}, column {column!r}: {text!r}")
        self.row = row
        self.column = column


class MissingValueError(DropcastError):
    def __init__(self, row: int, column: str):
        super().__init__(f"missing value at data row {row}, column {column!r}")
        self.row = row
        self.column = column


class EmptyResultError(DropcastError):
    pass


class FileFormatError(DropcastError):
    """An input file that is not UTF-8 text or that the csv reader cannot split."""


# --- preprocessing ---

class InvalidFractionError(DropcastError):
    pass


class ColumnMismatchError(DropcastError):
    pass


class UnknownGroupError(DropcastError):
    pass


# --- models ---

class SingleClassError(DropcastError):
    pass


class InsufficientRowsError(DropcastError):
    pass


class WidthMismatchError(DropcastError):
    pass


# --- metrics ---

class LengthMismatchError(DropcastError):
    pass


class KindMismatchError(DropcastError):
    pass


class NoSplitError(DropcastError):
    pass


# --- eda ---

class UnknownFeatureError(DropcastError):
    pass


# --- cli / fixtures ---

class InvalidArgumentError(DropcastError):
    pass
