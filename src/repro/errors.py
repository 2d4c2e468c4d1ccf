"""Exception hierarchy for the repro (Wake reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A DataFrame or edf schema is invalid or two schemas are incompatible."""


class ColumnNotFoundError(SchemaError):
    """A referenced column does not exist in the frame."""

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        super().__init__(
            f"column {name!r} not found; available columns: {list(available)}"
        )
        self.name = name
        self.available = available


class StorageError(ReproError):
    """A partitioned table or catalog is missing, corrupt, or inconsistent.

    Raise one of the two subclasses where the failure mode is known:
    :class:`TransientStorageError` for conditions that may clear on a
    retry, :class:`PermanentStorageError` for ones that never will.
    ``path`` / ``partition`` / ``table`` carry the failing partition's
    context when available (set by the storage layer's raise sites).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        partition: int | None = None,
        table: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.partition = partition
        self.table = table


class TransientStorageError(StorageError):
    """A partition read failed in a way a retry may fix: the file is
    missing, locked, truncated, or fails to decompress — all expected
    states for a partition that is still being written or moved."""


class PermanentStorageError(StorageError):
    """A partition or catalog is structurally broken (corrupt schema,
    unknown format, inconsistent metadata); retrying cannot help."""


def is_transient(exc: BaseException) -> bool:
    """True when retrying the failed operation has a chance to succeed."""
    return isinstance(exc, TransientStorageError)


class QueryError(ReproError):
    """A query graph is malformed (bad op arguments, cycles, arity errors)."""


class PlanValidationError(QueryError):
    """Static plan validation rejected a plan before execution.

    Raised by an operator's own ``_derive_info`` — in the API call that
    built the malformed node (``filter``, ``join``, ``agg``...), or from
    the unbound walk in :mod:`repro.analysis.schema_check` over a graph
    built by hand; both add the ``node`` id — and by the optimizer's
    rewrite-soundness check.
    Carries enough structure for the snapshot server to return a
    machine-readable error reply: the validation ``code``, the offending
    graph ``node`` id and ``operator`` name, and the ``column`` involved
    (when one is).

    Codes: ``undefined-column``, ``type-mismatch``, ``non-numeric-agg``,
    ``duplicate-output``, ``delivery-misuse``, ``unsound-rewrite``.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        node: int | None = None,
        operator: str | None = None,
        column: str | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.node = node
        self.operator = operator
        self.column = column

    def pin(self, node: int) -> None:
        """Name the plan ``node`` that failed, unless one is named."""
        if self.node is None:
            self.node = node
            self.args = (f"node {node}: {self}",)

    def to_dict(self) -> dict:
        """JSON-safe detail payload for wire replies."""
        return {
            "code": self.code,
            "node": self.node,
            "operator": self.operator,
            "column": self.column,
            "message": str(self),
        }


class ExecutionError(ReproError):
    """A runtime failure inside the execution engine."""


class InferenceError(ReproError):
    """Aggregate inference could not produce an estimate (bad growth state)."""


class ServiceError(ReproError):
    """The multi-query service rejected a request or the connection to a
    snapshot server failed."""
