"""A small expression language over DataFrame columns.

Filters and derived columns across the library are expressed as
:class:`Expr` trees — e.g. ``(col("sum_qty") > 300) & col("name").contains
("east")``.  Besides evaluation, expressions report which columns they
reference (:meth:`Expr.columns`), which the edf filter/map operators use to
classify themselves: a predicate touching only *constant* attributes is an
order-preserving Case-1 operation, while one touching a *mutable* attribute
forces recomputation (paper §2.3).
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable

import numpy as np

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.dataframe import dates as _dates


class Expr:
    """Base expression node. Subclasses implement ``evaluate`` and
    ``columns``."""

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        raise NotImplementedError

    # -- operator sugar -----------------------------------------------------
    def _bin(self, other: object, op: Callable, symbol: str) -> "Expr":
        return BinaryExpr(self, _wrap(other), op, symbol)

    def __add__(self, other: object) -> "Expr":
        return self._bin(other, operator.add, "+")

    def __radd__(self, other: object) -> "Expr":
        return _wrap(other)._bin(self, operator.add, "+")

    def __sub__(self, other: object) -> "Expr":
        return self._bin(other, operator.sub, "-")

    def __rsub__(self, other: object) -> "Expr":
        return _wrap(other)._bin(self, operator.sub, "-")

    def __mul__(self, other: object) -> "Expr":
        return self._bin(other, operator.mul, "*")

    def __rmul__(self, other: object) -> "Expr":
        return _wrap(other)._bin(self, operator.mul, "*")

    def __truediv__(self, other: object) -> "Expr":
        return self._bin(other, operator.truediv, "/")

    def __rtruediv__(self, other: object) -> "Expr":
        return _wrap(other)._bin(self, operator.truediv, "/")

    def __gt__(self, other: object) -> "Expr":
        return self._bin(other, operator.gt, ">")

    def __ge__(self, other: object) -> "Expr":
        return self._bin(other, operator.ge, ">=")

    def __lt__(self, other: object) -> "Expr":
        return self._bin(other, operator.lt, "<")

    def __le__(self, other: object) -> "Expr":
        return self._bin(other, operator.le, "<=")

    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return self._bin(other, operator.eq, "==")

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return self._bin(other, operator.ne, "!=")

    def __and__(self, other: object) -> "Expr":
        return BinaryExpr(self, _wrap(other), np.logical_and, "&")

    def __or__(self, other: object) -> "Expr":
        return BinaryExpr(self, _wrap(other), np.logical_or, "|")

    def __invert__(self) -> "Expr":
        return UnaryExpr(self, np.logical_not, "~")

    def __neg__(self) -> "Expr":
        return UnaryExpr(self, operator.neg, "-")

    def __hash__(self) -> int:  # __eq__ is overloaded for expression building
        return id(self)

    # -- string / membership helpers ------------------------------------------
    def startswith(self, prefix: str) -> "Expr":
        return StringExpr(self, "startswith", prefix)

    def endswith(self, suffix: str) -> "Expr":
        return StringExpr(self, "endswith", suffix)

    def contains(self, needle: str) -> "Expr":
        return StringExpr(self, "contains", needle)

    def isin(self, values: Iterable[object]) -> "Expr":
        return IsInExpr(self, tuple(values))

    def between(self, low: object, high: object) -> "Expr":
        """Inclusive-low, exclusive-high range check (TPC-H idiom)."""
        return (self >= low) & (self < high)

    def year(self) -> "Expr":
        """Calendar year of a DATE (days-since-epoch) column."""
        return YearExpr(self)

    def substr(self, start: int, length: int) -> "Expr":
        """SQL SUBSTRING: 1-based ``start``, ``length`` characters."""
        return SubstrExpr(self, start, length)

    def abs(self) -> "Expr":
        return UnaryExpr(self, np.abs, "abs")


def _wrap(value: object) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


class Column(Expr):
    """Reference to a named column."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return frame.column(self.name)

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expr):
    """A scalar constant."""

    def __init__(self, value: object) -> None:
        self.value = value

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return self.value  # numpy broadcasting handles scalars

    def columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class BinaryExpr(Expr):
    def __init__(self, left: Expr, right: Expr, op: Callable,
                 symbol: str) -> None:
        self.left, self.right, self.op, self.symbol = left, right, op, symbol

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return self.op(self.left.evaluate(frame), self.right.evaluate(frame))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class UnaryExpr(Expr):
    def __init__(self, inner: Expr, op: Callable, symbol: str) -> None:
        self.inner, self.op, self.symbol = inner, op, symbol

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return self.op(self.inner.evaluate(frame))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.symbol}({self.inner!r})"


class StringExpr(Expr):
    """Vectorized string predicates over unicode columns."""

    def __init__(self, inner: Expr, kind: str, needle: str) -> None:
        if kind not in ("startswith", "endswith", "contains"):
            raise QueryError(f"unknown string predicate {kind!r}")
        self.inner, self.kind, self.needle = inner, kind, needle

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        values = np.asarray(self.inner.evaluate(frame), dtype=str)
        if self.kind == "startswith":
            return np.char.startswith(values, self.needle)
        if self.kind == "endswith":
            return np.char.endswith(values, self.needle)
        return np.char.find(values, self.needle) >= 0

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.{self.kind}({self.needle!r})"


class IsInExpr(Expr):
    """Membership test against a fixed set of scalars."""

    def __init__(self, inner: Expr, values: tuple) -> None:
        self.inner, self.values = inner, values

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        col = self.inner.evaluate(frame)
        return np.isin(col, np.asarray(self.values))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.isin({list(self.values)!r})"


class YearExpr(Expr):
    """Calendar-year extraction from days-since-epoch integers."""

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return _dates.years_of(np.asarray(self.inner.evaluate(frame)))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"year({self.inner!r})"


class SubstrExpr(Expr):
    """SQL-style substring over a string column (1-based start)."""

    def __init__(self, inner: Expr, start: int, length: int) -> None:
        if start < 1 or length < 0:
            raise QueryError(
                f"substr requires start >= 1 and length >= 0, got "
                f"({start}, {length})"
            )
        self.inner, self.start, self.length = inner, start, length

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        values = np.asarray(self.inner.evaluate(frame), dtype=str)
        if len(values) == 0:
            return np.empty(0, dtype="U1")
        begin = self.start - 1
        end = begin + self.length
        # Python slicing keeps the result's tight string width.
        sliced = [
            v[begin:end] for v in values.tolist()  # lint: allow(row-loop)
        ]
        return np.array(sliced)

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.substr({self.start}, {self.length})"


class CaseExpr(Expr):
    """``CASE WHEN cond THEN a ELSE b END`` (used by e.g. TPC-H Q8, Q12, Q14)."""

    def __init__(self, cond: Expr, then: object, otherwise: object) -> None:
        self.cond = cond
        self.then = _wrap(then)
        self.otherwise = _wrap(otherwise)

    def evaluate(self, frame: DataFrame) -> np.ndarray:
        return np.where(
            self.cond.evaluate(frame),
            self.then.evaluate(frame),
            self.otherwise.evaluate(frame),
        )

    def columns(self) -> frozenset[str]:
        return (
            self.cond.columns() | self.then.columns()
            | self.otherwise.columns()
        )

    def __repr__(self) -> str:
        return f"when({self.cond!r}, {self.then!r}, {self.otherwise!r})"


# -- factory helpers -----------------------------------------------------------

def col(name: str) -> Column:
    """Reference a column by name."""
    return Column(name)


def lit(value: object) -> Literal:
    """Wrap a scalar constant."""
    return Literal(value)


def when(cond: Expr, then: object, otherwise: object) -> CaseExpr:
    """Two-armed conditional expression."""
    return CaseExpr(cond, then, otherwise)
