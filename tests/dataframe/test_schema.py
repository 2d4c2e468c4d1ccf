"""Unit tests for the schema model (fields, dtypes, attribute kinds)."""

import numpy as np
import pytest

from repro.dataframe.schema import (
    AttributeKind,
    DType,
    Field,
    Schema,
    dtype_of,
    numpy_dtype,
)
from repro.errors import ColumnNotFoundError, SchemaError


def make_schema():
    return Schema(
        [
            Field("k", DType.INT64),
            Field("name", DType.STRING),
            Field("total", DType.FLOAT64, AttributeKind.MUTABLE),
        ]
    )


class TestDType:
    def test_numeric_flags(self):
        assert DType.INT64.is_numeric
        assert DType.FLOAT64.is_numeric
        assert DType.DATE.is_numeric
        assert not DType.STRING.is_numeric
        assert not DType.BOOL.is_numeric

    @pytest.mark.parametrize(
        "arr,expected",
        [
            (np.array([1, 2]), DType.INT64),
            (np.array([1.5]), DType.FLOAT64),
            (np.array([True]), DType.BOOL),
            (np.array(["a"]), DType.STRING),
            (np.array([1], dtype=np.uint32), DType.INT64),
        ],
    )
    def test_dtype_of(self, arr, expected):
        assert dtype_of(arr) == expected

    def test_dtype_of_rejects_complex(self):
        with pytest.raises(SchemaError):
            dtype_of(np.array([1j]))

    def test_numpy_dtype_roundtrip(self):
        assert numpy_dtype(DType.INT64) == np.int64
        assert numpy_dtype(DType.DATE) == np.int64
        assert numpy_dtype(DType.FLOAT64) == np.float64
        assert numpy_dtype(DType.BOOL) == np.bool_


class TestField:
    def test_kind_transitions(self):
        f = Field("x", DType.FLOAT64)
        assert f.kind == AttributeKind.CONSTANT
        m = f.as_mutable()
        assert m.kind == AttributeKind.MUTABLE
        assert m.as_constant().kind == AttributeKind.CONSTANT
        assert f.kind == AttributeKind.CONSTANT  # original untouched

    def test_renamed(self):
        f = Field("x", DType.INT64).renamed("y")
        assert f.name == "y"
        assert f.dtype == DType.INT64


class TestSchema:
    def test_basic_accessors(self):
        s = make_schema()
        assert len(s) == 3
        assert s.names == ("k", "name", "total")
        assert s.field("total").kind == AttributeKind.MUTABLE
        assert s.dtype("name") == DType.STRING
        assert "k" in s
        assert "missing" not in s

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Field("a", DType.INT64), Field("a", DType.FLOAT64)])

    def test_missing_field_raises(self):
        with pytest.raises(ColumnNotFoundError):
            make_schema().field("nope")

    def test_mutable_names(self):
        s = make_schema()
        assert s.mutable_names == ("total",)

    def test_select_preserves_order(self):
        s = make_schema().select(["total", "k"])
        assert s.names == ("total", "k")

    def test_rename(self):
        s = make_schema().rename({"k": "key"})
        assert s.names == ("key", "name", "total")
        assert s.field("key").dtype == DType.INT64

    def test_with_field_appends_and_replaces(self):
        s = make_schema().with_field(Field("extra", DType.BOOL))
        assert s.names[-1] == "extra"
        replaced = s.with_field(Field("k", DType.STRING))
        assert replaced.dtype("k") == DType.STRING
        assert len(replaced) == 4

    def test_drop(self):
        s = make_schema().drop(["name"])
        assert s.names == ("k", "total")
        with pytest.raises(ColumnNotFoundError):
            make_schema().drop(["nope"])

    def test_same_layout_ignores_kind(self):
        a = make_schema()
        b = Schema(
            f.as_mutable() if f.name in ("k", "name") else f
            for f in make_schema().fields
        )
        assert a.same_layout(b)
        assert a != b
        assert a == make_schema()

    def test_repr_marks_mutable(self):
        assert "total: float64*" in repr(make_schema())
