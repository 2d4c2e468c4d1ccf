"""Unit + property tests for group-by kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.properties import Delivery, Progress, StreamInfo
from repro.core.state import GroupedAggregateState
from repro.dataframe import AggSpec, DataFrame, groupby
from repro.dataframe.groupby import (
    Grouper,
    factorize,
    global_aggregate,
    group_aggregate,
    group_codes,
    group_count,
    group_max,
    group_min,
    group_nunique,
    group_sum,
    group_var_components,
)
from repro.dataframe.schema import AttributeKind, DType, Field, Schema
from repro.engine.message import Message
from repro.engine.ops import DistinctOperator
from repro.errors import QueryError, SchemaError


@pytest.fixture
def sales():
    return DataFrame(
        {
            "state": np.array(["IL", "IL", "MI", "IL", "MI", "CA"]),
            "city": np.array(["c1", "c1", "d1", "c2", "d1", "e1"]),
            "amount": np.array([10.0, 20.0, 5.0, 7.0, 3.0, 100.0]),
            "qty": np.array([1, 2, 3, 4, 5, 6]),
        }
    )


class TestAggSpec:
    def test_validates_function(self):
        with pytest.raises(QueryError, match="unknown aggregate"):
            AggSpec("mode", "x", "m")

    def test_count_allows_no_column(self):
        spec = AggSpec("count", None, "n")
        assert spec.column is None

    def test_non_count_requires_column(self):
        with pytest.raises(QueryError, match="requires a column"):
            AggSpec("sum", None, "s")


class TestFactorize:
    def test_roundtrip(self):
        codes, uniques = factorize(np.array(["b", "a", "b", "c"]))
        assert uniques.tolist() == ["a", "b", "c"]
        assert (uniques[codes] == np.array(["b", "a", "b", "c"])).all()

    def test_ints(self):
        codes, uniques = factorize(np.array([5, 5, 1]))
        assert uniques.tolist() == [1, 5]
        assert codes.tolist() == [1, 1, 0]


class TestGroupCodes:
    def test_single_key(self, sales):
        codes, keys, n = group_codes(sales, ["state"])
        assert n == 3
        assert sorted(keys.column("state").tolist()) == ["CA", "IL", "MI"]
        # every row's code maps back to its own key value
        for row, code in enumerate(codes):
            assert keys.column("state")[code] == sales.column("state")[row]

    def test_multi_key(self, sales):
        codes, keys, n = group_codes(sales, ["state", "city"])
        assert n == 4
        pairs = set(zip(keys.column("state").tolist(),
                        keys.column("city").tolist()))
        assert pairs == {("IL", "c1"), ("IL", "c2"), ("MI", "d1"),
                         ("CA", "e1")}
        assert len(codes) == sales.n_rows

    def test_empty_frame(self):
        empty = DataFrame({"k": np.array([], dtype=np.int64)})
        codes, keys, n = group_codes(empty, ["k"])
        assert n == 0
        assert len(codes) == 0
        assert keys.n_rows == 0

    def test_requires_keys(self, sales):
        with pytest.raises(QueryError):
            group_codes(sales, [])

    def test_wide_key_product_does_not_wrap(self):
        """7 columns x 3,000 uniques: the mixed-radix code would pass
        2**63.  Groups stay distinct and the key frame key-sorted."""
        rng = np.random.default_rng(5)
        rows = np.stack(
            [rng.permutation(3_000) * 7 + column for column in range(7)],
            axis=1,
        ).astype(np.int64)
        rows = rows[rng.permutation(np.r_[np.arange(3_000),
                                          rng.integers(0, 3_000, 900)])]
        names = [f"c{column}" for column in range(7)]
        frame = DataFrame({name: rows[:, j].copy()
                           for j, name in enumerate(names)})
        codes, keys, n = group_codes(frame, names)
        assert n == len(np.unique(rows, axis=0)) == 3_000
        key_rows = np.stack([keys.column(name) for name in names], axis=1)
        assert (np.lexsort(key_rows.T[::-1]) == np.arange(n)).all()
        assert (key_rows[codes] == rows).all()


class TestKernels:
    def test_group_sum_skips_nan(self):
        codes = np.array([0, 0, 1])
        vals = np.array([1.0, np.nan, 2.0])
        assert group_sum(codes, 2, vals).tolist() == [1.0, 2.0]

    def test_group_count_with_valid_mask(self):
        codes = np.array([0, 0, 1])
        valid = np.array([True, False, True])
        assert group_count(codes, 2, valid).tolist() == [1, 1]

    def test_group_min_max(self):
        codes = np.array([1, 0, 1, 0])
        vals = np.array([5.0, 2.0, 3.0, 8.0])
        assert group_min(codes, 2, vals).tolist() == [2.0, 3.0]
        assert group_max(codes, 2, vals).tolist() == [8.0, 5.0]

    def test_group_min_missing_group_is_nan(self):
        codes = np.array([0])
        out = group_min(codes, 2, np.array([1.0]))
        assert out[0] == 1.0
        assert np.isnan(out[1])

    def test_group_nunique(self):
        codes = np.array([0, 0, 0, 1, 1])
        vals = np.array([7, 7, 8, 9, 9])
        assert group_nunique(codes, 2, vals).tolist() == [2, 1]

    def test_group_nunique_empty(self):
        assert group_nunique(
            np.empty(0, dtype=np.int64), 3, np.empty(0)
        ).tolist() == [0, 0, 0]

    def test_var_components_match_numpy(self):
        codes = np.array([0, 0, 0, 1, 1])
        vals = np.array([1.0, 2.0, 4.0, 10.0, 20.0])
        count, total, m2 = group_var_components(codes, 2, vals)
        assert count.tolist() == [3.0, 2.0]
        assert total.tolist() == [7.0, 30.0]
        np.testing.assert_allclose(
            m2[0], np.var(vals[:3]) * 3, rtol=1e-12
        )
        np.testing.assert_allclose(
            m2[1], np.var(vals[3:]) * 2, rtol=1e-12
        )


class TestGroupAggregate:
    def test_basic_sums(self, sales):
        out = group_aggregate(
            sales, ["state"], [AggSpec("sum", "amount", "total")]
        )
        d = dict(zip(out.column("state").tolist(),
                     out.column("total").tolist()))
        assert d == {"IL": 37.0, "MI": 8.0, "CA": 100.0}

    def test_aggregates_marked_mutable(self, sales):
        out = group_aggregate(
            sales, ["state"], [AggSpec("sum", "amount", "total")]
        )
        assert out.schema.kind("total") == AttributeKind.MUTABLE
        assert out.schema.kind("state") == AttributeKind.CONSTANT

    def test_multiple_aggs(self, sales):
        out = group_aggregate(
            sales,
            ["state"],
            [
                AggSpec("count", None, "n"),
                AggSpec("avg", "amount", "mean_amt"),
                AggSpec("min", "qty", "min_q"),
                AggSpec("max", "qty", "max_q"),
                AggSpec("count_distinct", "city", "cities"),
            ],
        )
        row = {
            s: (n, m, mn, mx, c)
            for s, n, m, mn, mx, c in zip(
                out.column("state").tolist(),
                out.column("n").tolist(),
                out.column("mean_amt").tolist(),
                out.column("min_q").tolist(),
                out.column("max_q").tolist(),
                out.column("cities").tolist(),
            )
        }
        assert row["IL"] == (3, 37.0 / 3, 1.0, 4.0, 2)
        assert row["MI"] == (2, 4.0, 3.0, 5.0, 1)
        assert row["CA"] == (1, 100.0, 6.0, 6.0, 1)

    def test_var_and_stddev(self, sales):
        out = group_aggregate(
            sales,
            ["state"],
            [AggSpec("var", "amount", "v"), AggSpec("stddev", "amount", "s")],
        )
        d = dict(zip(out.column("state").tolist(), out.column("v").tolist()))
        np.testing.assert_allclose(
            d["MI"], np.var([5.0, 3.0], ddof=1), rtol=1e-12
        )
        s = dict(zip(out.column("state").tolist(), out.column("s").tolist()))
        np.testing.assert_allclose(s["MI"], np.sqrt(d["MI"]), rtol=1e-12)
        # single-row group: sample variance undefined -> NaN
        assert np.isnan(d["CA"])

    def test_requires_specs(self, sales):
        with pytest.raises(QueryError):
            group_aggregate(sales, ["state"], [])

    def test_duplicate_aliases_rejected(self, sales):
        with pytest.raises(SchemaError, match="duplicate"):
            group_aggregate(
                sales,
                ["state"],
                [AggSpec("sum", "amount", "x"), AggSpec("count", None, "x")],
            )

    def test_count_skips_nan_column(self):
        f = DataFrame(
            {"k": np.array([1, 1, 2]), "v": np.array([1.0, np.nan, 2.0])}
        )
        out = group_aggregate(f, ["k"], [AggSpec("count", "v", "n")])
        assert out.column("n").tolist() == [1, 1]


class TestGlobalAggregate:
    def test_single_row(self, sales):
        out = global_aggregate(
            sales,
            [AggSpec("sum", "amount", "total"), AggSpec("count", None, "n")],
        )
        assert out.n_rows == 1
        assert out.column("total")[0] == pytest.approx(145.0)
        assert out.column("n")[0] == 6

    def test_empty_frame(self):
        f = DataFrame({"v": np.array([], dtype=np.float64)})
        out = global_aggregate(
            f, [AggSpec("sum", "v", "s"), AggSpec("count", None, "n")]
        )
        assert out.column("s")[0] == 0.0
        assert out.column("n")[0] == 0


# ---------------------------------------------------------------------------
# Property tests: the mergeability law op(d1 ∪ d2) == op(d1) ⊎ op(d2)
# (paper §4.3) for the bincount-based kernels.
# ---------------------------------------------------------------------------

group_values = st.lists(
    st.tuples(st.integers(0, 5), st.floats(-100, 100)), min_size=1,
    max_size=60,
)


@given(group_values, group_values)
@settings(max_examples=60, deadline=None)
def test_sum_is_mergeable(part_a, part_b):
    def frame(rows):
        ks, vs = zip(*rows)
        return DataFrame({"k": np.array(ks), "v": np.array(vs)})

    both = group_aggregate(
        DataFrame.concat([frame(part_a), frame(part_b)]),
        ["k"],
        [AggSpec("sum", "v", "s"), AggSpec("count", None, "n")],
    )
    merged: dict[int, tuple[float, int]] = {}
    for rows in (part_a, part_b):
        agg = group_aggregate(
            frame(rows), ["k"], [AggSpec("sum", "v", "s"),
                                 AggSpec("count", None, "n")]
        )
        for k, s, n in zip(agg.column("k").tolist(), agg.column("s").tolist(),
                           agg.column("n").tolist()):
            prev = merged.get(k, (0.0, 0))
            merged[k] = (prev[0] + s, prev[1] + n)
    for k, s, n in zip(both.column("k").tolist(), both.column("s").tolist(),
                       both.column("n").tolist()):
        assert merged[k][1] == n
        assert merged[k][0] == pytest.approx(s, rel=1e-9, abs=1e-7)


@given(group_values)
@settings(max_examples=60, deadline=None)
def test_group_sum_matches_python(rows):
    ks, vs = zip(*rows)
    f = DataFrame({"k": np.array(ks), "v": np.array(vs)})
    out = group_aggregate(f, ["k"], [AggSpec("sum", "v", "s")])
    expected: dict[int, float] = {}
    for k, v in rows:
        expected[k] = expected.get(k, 0.0) + v
    got = dict(zip(out.column("k").tolist(), out.column("s").tolist()))
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k], rel=1e-9, abs=1e-7)


# ---------------------------------------------------------------------------
# Grouper slot table: a memo of the sorted-table path, never a second
# slot authority.  Every case runs twice — with the table, and with its
# bound patched to 0, which keeps every partial on the sorted path.
# ---------------------------------------------------------------------------

@st.composite
def tabled_partials(draw):
    """(key names, partials, table bound): 1-3 int / bool / date key
    columns over a stream of partials that grows its key range mid-stream,
    mixes in all-new ascending and key-sorted (REPLACE-like) partials and
    empty ones, plus an int value column ``v``."""
    kinds = draw(st.lists(st.sampled_from(["int", "bool", "date"]),
                          min_size=1, max_size=3))
    names = [f"k{i}" for i in range(len(kinds))]
    schema = Schema(
        [Field(name, {"int": DType.INT64, "bool": DType.BOOL,
                      "date": DType.DATE}[kind])
         for name, kind in zip(names, kinds)] + [Field("v", DType.INT64)]
    )
    parts, offset = [], -5
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, 24))
        shape = draw(st.sampled_from(["random", "ascending", "sorted"]))
        span = draw(st.sampled_from([1, 3, 40, 5_000, 2**40]))
        data = {}
        for name, kind in zip(names, kinds):
            if kind == "bool":
                values = np.array(draw(st.lists(
                    st.booleans(), min_size=n, max_size=n)), dtype=bool)
            elif shape == "ascending":
                values = np.arange(offset, offset + n, dtype=np.int64)
            else:
                values = np.array(draw(st.lists(
                    st.integers(-span, span), min_size=n, max_size=n)),
                    dtype=np.int64)
            data[name] = values + 8_000 if kind == "date" else values
        data["v"] = np.arange(offset, offset + n, dtype=np.int64) * 7 % 5
        offset += n
        frame = DataFrame(data, schema=schema)
        if shape == "sorted":
            frame = frame.take(np.lexsort(
                [frame.column(name) for name in reversed(names)]))
        parts.append(frame)
    bound = draw(st.sampled_from([1, 1 << 6, 1 << 12, 1 << 20]))
    return names, parts, bound


def _with_table_bound(bound, run):
    with mock.patch.object(groupby, "SLOT_TABLE_SIZE", bound):
        return run()


def _assert_bytes_equal(got, expected):
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _encode_stream(keys, parts):
    grouper = Grouper(keys)
    return grouper, [grouper.encode(part) for part in parts]


@given(tabled_partials())
@settings(max_examples=200, deadline=None)
def test_property_slot_table_matches_sorted_path(case):
    keys, parts, bound = case
    tabled, got = _with_table_bound(
        bound, lambda: _encode_stream(keys, parts))
    plain, expected = _with_table_bound(
        0, lambda: _encode_stream(keys, parts))
    assert tabled.n_groups == plain.n_groups
    for ours, theirs in zip(got, expected):
        _assert_bytes_equal(ours, theirs)
    if plain.n_groups:
        for key in keys:
            _assert_bytes_equal(tabled.key_frame().column(key),
                                plain.key_frame().column(key))
        _assert_bytes_equal(tabled.sort_perm(), plain.sort_perm())


STATE_SPECS = (
    AggSpec("sum", "v", "s"),
    AggSpec("count_distinct", "v", "d"),
    AggSpec("quantile", "v", "q", param=0.3),
)


def _state_reads(keys, parts, replace):
    state = GroupedAggregateState(keys, STATE_SPECS, quantile_mode="sketch",
                                  sketch_size=3)
    reads = []
    for part in parts:
        if replace:
            state.consume_snapshot(part)
        else:
            state.consume_delta(part)
        if state.n_groups:
            frame = state.state_frame()
            reads += [frame.column(name) for name in frame.column_names]
            reads.append(state.distinct_counts(STATE_SPECS[1]))
            reads.append(state.sample_quantiles(STATE_SPECS[2]))
    return reads


def _distinct_outputs(keys, parts):
    operator = DistinctOperator("d", subset=keys)
    operator.bind((StreamInfo(schema=parts[0].schema,
                              delivery=Delivery.DELTA),))
    out = []
    for i, part in enumerate(parts):
        progress = Progress(done={"t": i + 1}, total={"t": len(parts)})
        for message in operator.on_message(
                0, Message(frame=part, progress=progress,
                           kind=Delivery.DELTA)):
            out += [message.frame.column(name)
                    for name in message.frame.column_names]
    return out


@given(tabled_partials())
@settings(max_examples=80, deadline=None)
def test_property_slot_table_leaves_operator_outputs_unchanged(case):
    """count-distinct finals, sketch-mode quantiles (whose reservoir
    RNG draws follow slot order) and the rows DistinctOperator forwards
    are byte-identical with and without the table."""
    keys, parts, bound = case
    for run in (lambda: _state_reads(keys, parts, replace=False),
                lambda: _state_reads(keys, parts, replace=True),
                lambda: _distinct_outputs(keys, parts)):
        got, expected = _with_table_bound(bound, run), _with_table_bound(
            0, run)
        assert len(got) == len(expected)
        for ours, theirs in zip(got, expected):
            _assert_bytes_equal(ours, theirs)


def _grid(values_per_key, n_keys):
    mesh = np.meshgrid(*[np.arange(values_per_key)] * n_keys, indexing="ij")
    return DataFrame({f"c{j}": axis.ravel().astype(np.int64)
                      for j, axis in enumerate(mesh)})


def test_seen_keys_skip_the_sorted_path():
    grouper = Grouper(("c0", "c1", "c2"))
    grouper.encode(_grid(4, 3))
    rows = []
    assign = Grouper._assign
    with mock.patch.object(
        Grouper, "_assign",
        lambda self, frame: rows.append(frame.n_rows) or assign(self, frame),
    ):
        shuffled = _grid(4, 3).take(np.random.default_rng(0).permutation(64))
        slots = grouper.encode(shuffled)
        assert rows == []
        # Misses alone go down the sorted path.
        grouper.encode(DataFrame({"c0": np.array([0, 9, 1]),
                                  "c1": np.array([0, 0, 1]),
                                  "c2": np.array([0, 0, 1])}))
        assert rows == [1]
    assert grouper.n_groups == 65
    key_rows = grouper.key_frame()
    for key in grouper.keys:
        assert (key_rows.column(key)[slots] == shuffled.column(key)).all()


def test_ascending_new_keys_never_build_a_table():
    """An all-new ascending stream (a distinct on an ordered key) is
    ruled out by the seen key range: no probe, no table."""
    grouper = Grouper(("k",))
    for start in range(0, 4_000, 500):
        grouper.encode(DataFrame({"k": np.arange(start, start + 500)}))
    assert grouper.n_groups == 4_000
    assert grouper._table is None


def test_table_is_dropped_past_its_bound():
    grouper = Grouper(("k",))
    with mock.patch.object(groupby, "SLOT_TABLE_SIZE", 1 << 6):
        grouper.encode(DataFrame({"k": np.arange(40)}))
        grouper.encode(DataFrame({"k": np.arange(20)}))
        assert grouper._table is not None
        grouper.encode(DataFrame({"k": np.arange(30, 90)}))
        grouper.encode(DataFrame({"k": np.arange(0, 90, 3)}))
        assert grouper._table is None and grouper._ranges is None
    assert grouper.n_groups == 90


def test_string_keys_are_never_tabled():
    grouper = Grouper(("s",))
    for _ in range(2):
        grouper.encode(DataFrame({"s": np.array(["a", "b", "a"])}))
    assert grouper._ranges is None and grouper.n_groups == 2
