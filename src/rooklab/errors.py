"""Exception types shared across the package."""

__all__ = [
    "BadCellError",
    "BadCharacterError",
    "DuplicateCellError",
    "EmptyInputError",
    "IntervalNotInPolyominoError",
    "NotApplicableError",
    "NotConnectedError",
    "RankOutOfRangeError",
    "RookLabError",
    "UnknownCheckError",
]


class RookLabError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInputError(RookLabError):
    """The input describes no cells at all."""


class BadCharacterError(RookLabError):
    """An ASCII grid contains a character other than '#', '.' or a newline.

    Carries 1-based ``line`` and ``column`` attributes.
    """

    def __init__(self, line: int, column: int, char: str):
        self.line = line
        self.column = column
        self.char = char
        super().__init__(f"bad character {char!r} at line {line}, column {column}")


class BadCellError(RookLabError):
    """A coordinate-list entry is not a pair of integers."""


class DuplicateCellError(RookLabError):
    """A coordinate list names the same cell twice."""


class NotConnectedError(RookLabError):
    """The cell set is not edge-connected.

    ``witness`` is a pair of cells lying in different components.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"cells {witness[0]} and {witness[1]} are not edge-connected")


class IntervalNotInPolyominoError(RookLabError):
    """An interval argument is not a maximal interval of the polyomino."""


class RankOutOfRangeError(RookLabError):
    """Requested rank is outside 1..configured maximum, or the maximum
    configured in the environment is not an integer."""


class NotApplicableError(RookLabError):
    """The shape is outside what the operation is stated for; the message
    names the precondition that fails:

    - rank >= 2 (partitions, the purity theorem, brush recognition and the
      single-cell intervals; the monomino is a documented trivial case);
    - simple and thin (brush recognition and the regularity formula);
    - a pure complex (the regularity formula);
    - a pure brush (the regularity/matching comparison).
    """


class UnknownCheckError(RookLabError):
    """A census check name is not in the registry."""
