"""A small columnar DataFrame built on numpy arrays.

The paper's Wake engine is built on Arrow record batches; this class is the
equivalent substrate for the Python reproduction.  It is deliberately
column-oriented and immutable-by-convention: every operation returns a new
frame (columns may share underlying numpy buffers — callers must not write
into arrays returned by :meth:`column`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ColumnNotFoundError, SchemaError
from repro.dataframe.schema import (
    AttributeKind,
    DType,
    Field,
    Schema,
    dtype_of,
    numpy_dtype,
)


def _as_column(values: object) -> np.ndarray:
    """Coerce an input column to a contiguous 1-D numpy array."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind == "O":
        # Normalize python-object string columns to numpy unicode so that
        # np.char kernels and np.unique comparisons behave uniformly.
        arr = arr.astype(str)
    return arr


class DataFrame:
    """An ordered collection of equal-length named numpy columns."""

    def __init__(
        self,
        data: Mapping[str, object],
        schema: Schema | None = None,
    ) -> None:
        columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in data.items():
            arr = _as_column(values)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise SchemaError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            columns[name] = arr
        self._columns = columns
        self._n_rows = length or 0
        if schema is None:
            schema = Schema(
                Field(name, dtype_of(arr)) for name, arr in columns.items()
            )
        else:
            if tuple(schema.names) != tuple(columns):
                raise SchemaError(
                    f"schema names {schema.names} do not match data columns "
                    f"{tuple(columns)}"
                )
        self._schema = schema

    # -- constructors --------------------------------------------------------
    @classmethod
    def empty(cls, schema: Schema) -> "DataFrame":
        """An empty frame with the given schema (used for edf bootstraps)."""
        data = {
            f.name: np.empty(0, dtype=numpy_dtype(f.dtype)) for f in schema
        }
        return cls(data, schema=schema)

    @classmethod
    def from_rows(
        cls, names: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> "DataFrame":
        """Build a frame from row tuples (convenience for tests/examples)."""
        materialized = list(rows)
        if not materialized:
            raise SchemaError("from_rows requires at least one row; use empty()")
        transposed = list(zip(*materialized))
        return cls({n: np.asarray(v) for n, v in zip(names, transposed)})

    # -- basic accessors -------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._schema.names

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.column_names) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    # -- projections -----------------------------------------------------------
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Project to the given columns, in the given order."""
        return DataFrame(
            {n: self.column(n) for n in names},
            schema=self._schema.select(names),
        )

    def drop(self, names: Sequence[str]) -> "DataFrame":
        schema = self._schema.drop(names)
        return DataFrame(
            {n: self._columns[n] for n in schema.names}, schema=schema
        )

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        missing = set(mapping) - set(self.column_names)
        if missing:
            raise ColumnNotFoundError(sorted(missing)[0], self.column_names)
        schema = self._schema.rename(dict(mapping))
        return DataFrame(
            {
                mapping.get(name, name): arr
                for name, arr in self._columns.items()
            },
            schema=schema,
        )

    def with_column(
        self,
        name: str,
        values: object,
        kind: AttributeKind = AttributeKind.CONSTANT,
    ) -> "DataFrame":
        """Append (or replace) a column."""
        arr = _as_column(values)
        if self._columns and len(arr) != self._n_rows:
            raise SchemaError(
                f"new column {name!r} has length {len(arr)}, "
                f"expected {self._n_rows}"
            )
        data = dict(self._columns)
        data[name] = arr
        field = Field(name, dtype_of(arr), kind)
        if name in self._schema:
            # Preserve DATE logical type when replacing with int64 values.
            old = self._schema.field(name)
            if old.dtype == DType.DATE and dtype_of(arr) == DType.INT64:
                field = Field(name, DType.DATE, kind)
        return DataFrame(data, schema=self._schema.with_field(field))

    # -- row selection -----------------------------------------------------------
    def take(self, indices: np.ndarray) -> "DataFrame":
        """Gather rows by integer indices (preserves schema)."""
        idx = np.asarray(indices)
        return DataFrame(
            {n: arr[idx] for n, arr in self._columns.items()},
            schema=self._schema,
        )

    def mask(self, keep: np.ndarray) -> "DataFrame":
        """Filter rows by a boolean mask (preserves schema)."""
        m = np.asarray(keep, dtype=bool)
        if len(m) != self._n_rows:
            raise SchemaError(
                f"mask length {len(m)} does not match row count {self._n_rows}"
            )
        return DataFrame(
            {n: arr[m] for n, arr in self._columns.items()},
            schema=self._schema,
        )

    def slice(self, start: int, stop: int) -> "DataFrame":
        return DataFrame(
            {n: arr[start:stop] for n, arr in self._columns.items()},
            schema=self._schema,
        )

    def head(self, n: int) -> "DataFrame":
        return self.slice(0, max(0, n))

    # -- combination ------------------------------------------------------------
    @staticmethod
    def concat(frames: Sequence["DataFrame"]) -> "DataFrame":
        """Vertically append frames with identical column layouts."""
        frames = [f for f in frames]
        if not frames:
            raise SchemaError("concat requires at least one frame")
        first = frames[0]
        for other in frames[1:]:
            if not first.schema.same_layout(other.schema):
                raise SchemaError(
                    f"cannot concat frames with different layouts: "
                    f"{first.schema!r} vs {other.schema!r}"
                )
        if len(frames) == 1:
            return first
        data = {
            name: np.concatenate([f.column(name) for f in frames])
            for name in first.column_names
        }
        return DataFrame(data, schema=first.schema)

    # -- aggregation ------------------------------------------------------------
    def aggregate(
        self,
        spec: Mapping[str, "str | Sequence[str]"],
        by: Sequence[str] = (),
    ) -> "DataFrame":
        """Eager pandas-style aggregation over this frame.

        ``spec`` maps column → aggregate name or list of names (synonyms
        ``std``/``mean``/``nunique`` accepted); output aliases follow the
        ``<agg>_<column>`` convention.  With ``by`` this is an exact
        one-shot group-by; without, a single global row.  This is the
        materialized counterpart of the streaming ``EdfFrame.agg`` — the
        two agree on the final snapshot for every mergeable aggregate.
        """
        # Local import: groupby imports DataFrame at module load.
        from repro.dataframe.groupby import (  # lint: allow(local-import)
            AggSpec,
            global_aggregate,
            group_aggregate,
        )

        specs = []
        for column, fns in spec.items():
            names = [fns] if isinstance(fns, str) else list(fns)
            if not names:
                raise SchemaError(
                    f"aggregate entry {column!r} names no aggregates"
                )
            specs.extend(
                AggSpec(fn, column, f"{fn}_{column}") for fn in names
            )
        if by:
            return group_aggregate(self, list(by), specs)
        return global_aggregate(self, specs)

    # -- conversion / inspection --------------------------------------------------
    def to_pydict(self) -> dict[str, list]:
        return {n: arr.tolist() for n, arr in self._columns.items()}

    def to_records(self) -> list[tuple]:
        """Rows as python tuples (test convenience; O(n) python objects)."""
        if not self._columns:
            return []
        cols = [arr.tolist() for arr in self._columns.values()]
        return list(zip(*cols))

    def row(self, i: int) -> dict[str, object]:
        return {n: arr[i].item() if hasattr(arr[i], "item") else arr[i]
                for n, arr in self._columns.items()}

    def iter_rows(self) -> Iterator[tuple]:
        # Cold-path convenience (catalog writers, tests).
        return iter(self.to_records())  # lint: allow(row-loop)

    def nbytes(self) -> int:
        """Total bytes across column buffers (peak-memory accounting)."""
        return sum(arr.nbytes for arr in self._columns.values())

    # -- comparisons -----------------------------------------------------------
    def equals(self, other: "DataFrame", rtol: float = 1e-9,
               atol: float = 1e-12) -> bool:
        """Exact equality for int/string/bool columns, allclose for floats."""
        if not self._schema.same_layout(other.schema):
            return False
        if self._n_rows != other.n_rows:
            return False
        for name in self.column_names:
            a, b = self.column(name), other.column(name)
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                same = np.allclose(
                    a.astype(np.float64), b.astype(np.float64),
                    rtol=rtol, atol=atol, equal_nan=True,
                )
            else:
                same = bool(np.array_equal(a, b))
            if not same:
                return False
        return True

    def __repr__(self) -> str:
        preview_rows = min(self._n_rows, 8)
        header = ", ".join(
            f"{f.name}:{f.dtype.value}" for f in self._schema
        )
        lines = [f"DataFrame[{self._n_rows} rows]({header})"]
        for i in range(preview_rows):
            lines.append("  " + ", ".join(
                str(self._columns[n][i]) for n in self.column_names
            ))
        if self._n_rows > preview_rows:
            lines.append(f"  ... {self._n_rows - preview_rows} more rows")
        return "\n".join(lines)
