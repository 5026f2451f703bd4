"""Exception hierarchy shared across the package."""

from __future__ import annotations


class IptreeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(IptreeError, ValueError):
    """An argument violates an operation's contract (shape, domain, range)."""


class ResourceLimitError(IptreeError, RuntimeError):
    """A computation would exceed a configured size cap.

    The message always names the offending count so callers can decide
    whether to raise the cap or reformulate the problem.
    """


class SchemaError(IptreeError, ValueError):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending element, e.g. ``model.by_state.H[0]``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ExprError(IptreeError, ValueError):
    """A gamble expression failed to parse or refers to unknown names.

    Carries the 1-based ``line`` and ``column`` of the offending token; the
    text starts with ``source``, the flag or JSON path the expression was
    read from, when one is given.
    """

    def __init__(self, message: str, line: int, column: int, source: str | None = None):
        where = f"line {line}, column {column}: {message}"
        super().__init__(where if source is None else f"{source}: {where}")
        self.message = message
        self.line = line
        self.column = column


class MonotonicityError(InvalidInputError):
    """A declared monotone sequence of gambles is not actually monotone.

    ``witness`` is a human-readable description of a path prefix on which
    the ordering fails.
    """

    def __init__(self, message: str, witness: str):
        super().__init__(f"{message} (witness: {witness})")
        self.witness = witness
