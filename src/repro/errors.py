"""Exception hierarchy for the engine.

All engine errors derive from :class:`ReproError` so callers can catch one
base class; the leaf classes mirror the classic DBMS error families.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration value (engine, JITS or server knobs)."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class CatalogError(ReproError):
    """Unknown table/column, duplicate definition, or schema mismatch."""


class BindingError(ReproError):
    """A query references a column or table that cannot be resolved."""


class StorageError(ReproError):
    """Invalid physical operation on a table (bad row shape, bad type...)."""


class InvalidValueError(StorageError, TypeError):
    """A value a column cannot hold: the wrong type for it (hence also a
    ``TypeError``, what ``DataType.validate`` raises), an INT past 64
    bits, or text with a lone surrogate, which UTF-8 and so the wire
    cannot carry. Writes check every value before storing any.
    ``column`` names the column when one is known (a string literal
    outside a column has none)."""

    def __init__(self, reason: str, column: Optional[str] = None):
        super().__init__(
            reason if column is None else f"column {column!r}: {reason}"
        )
        self.reason = reason
        self.column = column

    def on_column(self, column: str) -> "InvalidValueError":
        """This error, naming ``column`` unless it names one already."""
        if self.column is not None:
            return self
        return InvalidValueError(self.reason, column)


class PlanningError(ReproError):
    """The optimizer could not produce a plan for the query."""


class ExecutionError(ReproError):
    """A plan failed while executing."""


class StatisticsError(ReproError):
    """Invalid statistics operation (bad histogram, bad constraint...)."""


class StatementCancelledError(ReproError):
    """The statement was cancelled while executing (cooperative cancel).

    Raised at the next morsel/checkpoint boundary after the statement's
    :class:`~repro.cancel.CancelToken` is set. The session that ran the
    statement stays usable: lock scopes unwind through context managers
    and the UDI shard flushes in the statement's ``finally``.
    """
