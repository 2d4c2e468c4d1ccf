"""Schema model for the columnar DataFrame substrate.

The paper's edf model (§2.3, §3.1) distinguishes *constant* attributes (whose
values never change as more data is processed) from *mutable* attributes
(e.g., running aggregates that are refined over time).  The substrate-level
:class:`Field` carries that distinction so that operators can classify
themselves as order-preserving (Case 1) versus recomputing (Case 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ColumnNotFoundError, SchemaError


class DType(enum.Enum):
    """Logical column types supported by the substrate.

    ``DATE`` is stored physically as int64 days since 1970-01-01 so that
    comparisons and arithmetic stay in fast numpy integer kernels.
    """

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"
    DATE = "date"

    @property
    def is_numeric(self) -> bool:
        return self in (DType.INT64, DType.FLOAT64, DType.DATE)


def dtype_of(values: np.ndarray) -> DType:
    """Infer the logical :class:`DType` of a numpy array."""
    kind = values.dtype.kind
    if kind in ("i", "u"):
        return DType.INT64
    if kind == "f":
        return DType.FLOAT64
    if kind == "b":
        return DType.BOOL
    if kind in ("U", "S", "O"):
        return DType.STRING
    raise SchemaError(f"unsupported numpy dtype {values.dtype!r}")


def numpy_dtype(dtype: DType) -> np.dtype:
    """Return the canonical physical numpy dtype for a logical type."""
    if dtype in (DType.INT64, DType.DATE):
        return np.dtype(np.int64)
    if dtype == DType.FLOAT64:
        return np.dtype(np.float64)
    if dtype == DType.BOOL:
        return np.dtype(np.bool_)
    if dtype == DType.STRING:
        return np.dtype("U1")  # minimal width; numpy widens on assignment
    raise SchemaError(f"unknown dtype {dtype!r}")


class AttributeKind(enum.Enum):
    """Paper §2.3: constant attributes never change; mutable ones may."""

    CONSTANT = "constant"
    MUTABLE = "mutable"


@dataclass(frozen=True)
class Field:
    """A named, typed column with its edf attribute kind."""

    name: str
    dtype: DType
    kind: AttributeKind = AttributeKind.CONSTANT

    def as_mutable(self) -> "Field":
        return replace(self, kind=AttributeKind.MUTABLE)

    def as_constant(self) -> "Field":
        return replace(self, kind=AttributeKind.CONSTANT)

    def renamed(self, name: str) -> "Field":
        return replace(self, name=name)


class Schema:
    """An ordered, unique-named collection of :class:`Field` objects."""

    def __init__(self, fields: Iterable[Field]) -> None:
        self._fields = tuple(fields)
        names = [f.name for f in self._fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names in schema: {dupes}")
        self._index = {f.name: i for i, f in enumerate(self._fields)}

    # -- basic accessors ---------------------------------------------------
    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        try:
            return self._fields[self._index[name]]
        except KeyError:
            raise ColumnNotFoundError(name, self.names) from None

    def dtype(self, name: str) -> DType:
        return self.field(name).dtype

    def kind(self, name: str) -> AttributeKind:
        return self.field(name).kind

    @property
    def mutable_names(self) -> tuple[str, ...]:
        return tuple(
            f.name for f in self._fields if f.kind == AttributeKind.MUTABLE
        )

    # -- transformations ---------------------------------------------------
    def select(self, names: Iterable[str]) -> "Schema":
        return Schema(self.field(n) for n in names)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        return Schema(
            f.renamed(mapping.get(f.name, f.name)) for f in self._fields
        )

    def with_field(self, field: Field) -> "Schema":
        """Append ``field``, or replace the existing field of the same name."""
        if field.name in self._index:
            return Schema(
                field if f.name == field.name else f for f in self._fields
            )
        return Schema((*self._fields, field))

    def drop(self, names: Iterable[str]) -> "Schema":
        gone = set(names)
        missing = gone - set(self.names)
        if missing:
            raise ColumnNotFoundError(sorted(missing)[0], self.names)
        return Schema(f for f in self._fields if f.name not in gone)

    # -- comparisons ---------------------------------------------------------
    def same_layout(self, other: "Schema") -> bool:
        """True when names and dtypes match (attribute kinds may differ)."""
        return self.names == other.names and all(
            a.dtype == b.dtype for a, b in zip(self._fields, other._fields)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{f.name}: {f.dtype.value}"
            + ("*" if f.kind == AttributeKind.MUTABLE else "")
            for f in self._fields
        )
        return f"Schema({cols})"
