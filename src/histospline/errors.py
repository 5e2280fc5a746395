"""Exception types shared across the package."""

__all__ = [
    "HistosplineError",
    "DataError",
    "NumericError",
    "OutOfSupportError",
    "DisjointSupportsError",
]


class HistosplineError(Exception):
    """Base class for every error raised by this package."""


class DataError(HistosplineError, ValueError):
    """Invalid, degenerate, or unparseable input data."""


class NumericError(HistosplineError, ArithmeticError):
    """A numerical procedure failed (e.g. a singular linear system)."""


class OutOfSupportError(DataError):
    """Evaluation requested outside a model's support interval."""


class DisjointSupportsError(DataError):
    """Two densities share no overlapping support."""
