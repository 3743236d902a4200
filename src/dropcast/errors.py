"""Exception hierarchy shared across the package.

Every error raised on bad input or a broken contract derives from
``DropcastError`` so callers (and the CLI) can catch one type; its
message is one line. Catch ``FileFormatError`` for a manifest or records
file that cannot be read (not UTF-8, malformed, a column named twice),
``MissingColumnError`` (``.column``) for a header without a required
column, ``CellParseError`` or ``MissingValueError`` (``.row``,
``.column``) for a bad or empty data cell, and ``InvalidArgumentError``
for an argument or a dataset an operation cannot take. Every class
pickles to an equal error, so a cell worker's error reaches its parent.
"""

import copyreg


class DropcastError(Exception):
    def __reduce__(self):
        # Rebuilt from the message and the attributes without calling
        # ``__init__``, whose arguments differ from ``args`` in subclasses.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidArgumentError(DropcastError):
    pass


class FileFormatError(DropcastError):
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
