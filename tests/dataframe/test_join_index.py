"""Property tests: the incremental JoinIndex probe path must produce the
same output as the one-shot hash_join kernel for every ``how`` mode —
including duplicate keys, multi-column keys, string keys, and empty
probe/build sides — and must stay equivalent when the probe side is
streamed through the prebuilt index partition by partition."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, JoinIndex, groupby, hash_join
from repro.dataframe.join import JOIN_METHODS
from repro.dataframe.schema import DType, Field, Schema
from repro.errors import QueryError, SchemaError


def assert_same_rows(got: DataFrame, expected: DataFrame) -> None:
    """Row-set equality (order-insensitive; join outputs are unordered)."""
    assert tuple(got.column_names) == tuple(expected.column_names)
    assert got.n_rows == expected.n_rows
    assert sorted(map(repr, got.to_records())) == sorted(
        map(repr, expected.to_records())
    )


def left_frame():
    return DataFrame(
        {
            "k": np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], dtype=np.int64),
            "lv": np.arange(10, dtype=np.float64),
        }
    )


def right_frame():
    return DataFrame(
        {
            "k": np.array([1, 1, 2, 3, 7, 5], dtype=np.int64),
            "rv": np.array([10.0, 11.0, 12.0, 13.0, 14.0, 15.0]),
            "tag": np.array(["a", "b", "c", "d", "e", "f"]),
        }
    )


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_probe_matches_hash_join_duplicate_keys(how):
    left, right = left_frame(), right_frame()
    index = JoinIndex(right, ["k"])
    got = index.probe(left, ["k"], how=how)
    expected = hash_join(left, right, ["k"], ["k"], how=how)
    assert_same_rows(got, expected)


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_probe_matches_hash_join_multi_column(how):
    rng = np.random.default_rng(3)
    left = DataFrame(
        {
            "a": rng.integers(0, 4, size=40).astype(np.int64),
            "b": np.array([f"s{i % 3}" for i in range(40)]),
            "lv": np.arange(40, dtype=np.float64),
        }
    )
    right = DataFrame(
        {
            "a": rng.integers(0, 4, size=15).astype(np.int64),
            "b": np.array([f"s{i % 4}" for i in range(15)]),
            "rv": np.arange(15, dtype=np.float64),
        }
    )
    index = JoinIndex(right, ["a", "b"])
    got = index.probe(left, ["a", "b"], how=how)
    expected = hash_join(left, right, ["a", "b"], ["a", "b"], how=how)
    assert_same_rows(got, expected)


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_probe_matches_hash_join_string_keys(how):
    left = DataFrame(
        {
            "name": np.array(["x", "yy", "zzz", "x", "missing", "yy"]),
            "lv": np.arange(6, dtype=np.int64),
        }
    )
    right = DataFrame(
        {
            "name": np.array(["yy", "x", "x", "w"]),
            "rv": np.arange(4, dtype=np.int64),
        }
    )
    index = JoinIndex(right, ["name"])
    got = index.probe(left, ["name"], how=how)
    expected = hash_join(left, right, ["name"], ["name"], how=how)
    assert_same_rows(got, expected)


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_empty_probe_side(how):
    right = right_frame()
    empty = left_frame().head(0)
    index = JoinIndex(right, ["k"])
    got = index.probe(empty, ["k"], how=how)
    expected = hash_join(empty, right, ["k"], ["k"], how=how)
    assert got.n_rows == 0
    assert tuple(got.column_names) == tuple(expected.column_names)


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_empty_build_side(how):
    left = left_frame()
    empty = right_frame().head(0)
    index = JoinIndex(empty, ["k"])
    got = index.probe(left, ["k"], how=how)
    expected = hash_join(left, empty, ["k"], ["k"], how=how)
    assert_same_rows(got, expected)


def test_mixed_numeric_key_dtypes():
    """int probe keys against a float build dictionary (and vice versa)."""
    left = DataFrame(
        {"k": np.array([1, 2, 3], dtype=np.int64),
         "lv": np.arange(3, dtype=np.float64)}
    )
    right = DataFrame(
        {"k": np.array([2.0, 3.0, 9.5]), "rv": np.arange(3.0)}
    )
    got = JoinIndex(right, ["k"]).probe_inner(left, ["k"])
    expected = hash_join(left, right, ["k"], ["k"])
    assert_same_rows(got, expected)
    got_rev = JoinIndex(left, ["k"]).probe_inner(right, ["k"])
    expected_rev = hash_join(right, left, ["k"], ["k"])
    assert_same_rows(got_rev, expected_rev)


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_nan_keys_match_hash_join(how):
    """hash_join's shared factorization collapses NaNs into one key
    (np.unique equal_nan); the index probe must agree."""
    left = DataFrame(
        {"k": np.array([1.0, np.nan, 2.0, np.nan]),
         "lv": np.arange(4, dtype=np.float64)}
    )
    right = DataFrame(
        {"k": np.array([np.nan, 1.0, 3.0]), "rv": np.arange(3.0)}
    )
    index = JoinIndex(right, ["k"])
    got = index.probe(left, ["k"], how=how)
    expected = hash_join(left, right, ["k"], ["k"], how=how)
    assert_same_rows(got, expected)


def test_incompatible_key_dtypes_raise():
    left = DataFrame({"k": np.array(["a", "b"]), "lv": np.arange(2)})
    right = DataFrame({"k": np.array([1, 2], dtype=np.int64),
                       "rv": np.arange(2)})
    index = JoinIndex(right, ["k"])
    with pytest.raises(SchemaError):
        index.probe_inner(left, ["k"])


def test_requires_key_columns():
    with pytest.raises(QueryError):
        JoinIndex(right_frame(), [])
    index = JoinIndex(right_frame(), ["k"])
    with pytest.raises(QueryError):
        index.probe_inner(left_frame(), ["k", "lv"])
    with pytest.raises(QueryError):
        index.probe(left_frame(), ["k"], how="outer")


def test_match_counts_against_reference():
    left, right = left_frame(), right_frame()
    index = JoinIndex(right, ["k"])
    counts = index.match_counts(left, ["k"])
    build_keys = right.column("k").tolist()
    expected = [build_keys.count(k) for k in left.column("k").tolist()]
    assert counts.tolist() == expected


def test_streamed_probe_partitions_equal_one_shot():
    """Probing partition-by-partition through one prebuilt index must
    concatenate to the one-shot join — the streaming-operator contract."""
    rng = np.random.default_rng(11)
    left = DataFrame(
        {
            "k": rng.integers(0, 20, size=200).astype(np.int64),
            "lv": np.arange(200, dtype=np.float64),
        }
    )
    right = DataFrame(
        {
            "k": rng.integers(0, 25, size=60).astype(np.int64),
            "rv": np.arange(60, dtype=np.float64),
        }
    )
    index = JoinIndex(right, ["k"])
    for how in ("inner", "left", "semi", "anti"):
        parts = [
            index.probe(left.slice(i, i + 25), ["k"], how=how)
            for i in range(0, 200, 25)
        ]
        got = DataFrame.concat(parts)
        expected = hash_join(left, right, ["k"], ["k"], how=how)
        assert_same_rows(got, expected)


join_rows = st.lists(
    st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
    min_size=0, max_size=50,
)


@given(join_rows, join_rows)
@settings(max_examples=60, deadline=None)
def test_property_probe_equivalence(left_keys, right_keys):
    """Random multi-column integer keys, every how mode."""
    left = DataFrame(
        {
            "a": np.array([a for a, _ in left_keys] or [], dtype=np.int64),
            "b": np.array([b for _, b in left_keys] or [], dtype=np.int64),
            "lv": np.arange(len(left_keys), dtype=np.float64),
        }
    )
    right = DataFrame(
        {
            "a": np.array([a for a, _ in right_keys] or [],
                          dtype=np.int64),
            "b": np.array([b for _, b in right_keys] or [],
                          dtype=np.int64),
            "rv": np.arange(len(right_keys), dtype=np.float64),
        }
    )
    index = JoinIndex(right, ["a", "b"])
    for how in JOIN_METHODS:
        got = index.probe(left, ["a", "b"], how=how)
        expected = hash_join(left, right, ["a", "b"], ["a", "b"], how=how)
        assert_same_rows(got, expected)


# ---------------------------------------------------------------------------
# Integer build keys go through a direct-address rank table; with its bound
# patched to 0 the same index takes the dictionary-search path.  Both must
# find the same (probe_row, build_row) pairs, and the same bytes as
# hash_join, for every how mode.
# ---------------------------------------------------------------------------

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


def _searched_index(build, on):
    with mock.patch.object(groupby, "SLOT_TABLE_SIZE", 0):
        return JoinIndex(build, on)


def assert_same_bytes(got: DataFrame, expected: DataFrame) -> None:
    assert tuple(got.column_names) == tuple(expected.column_names)
    for name in got.column_names:
        ours, theirs = got.column(name), expected.column(name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name


def assert_paths_agree(probe, build, on, tabled=True):
    """The table path, the search path and hash_join agree on every
    probe result; ``tabled`` says which path the default index takes."""
    index = JoinIndex(build, on)
    searched = _searched_index(build, on)
    assert searched._table is None
    assert (index._table is not None) == tabled
    li, ri = index.probe_indices(probe, on)
    sli, sri = searched.probe_indices(probe, on)
    np.testing.assert_array_equal(li, sli)
    np.testing.assert_array_equal(ri, sri)
    np.testing.assert_array_equal(index.match_counts(probe, on),
                                  searched.match_counts(probe, on))
    for how in JOIN_METHODS:
        got = index.probe(probe, on, how=how)
        assert_same_bytes(got, searched.probe(probe, on, how=how))
        assert_same_bytes(got, hash_join(probe, build, on, on, how=how))


#: Key values the tabled cases draw from: small ranges (dense layouts,
#: duplicates), negatives, and the int64 extremes (outside any layout).
table_keys = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
)


@st.composite
def tabled_join(draw):
    """(probe, build, key names, whether the build is tabled): 1-3 int /
    bool / date key columns, value columns on both sides."""
    kinds = draw(st.lists(st.sampled_from(["int", "bool", "date"]),
                          min_size=1, max_size=3))
    on = [f"k{i}" for i in range(len(kinds))]
    dtypes = {"int": DType.INT64, "bool": DType.BOOL, "date": DType.DATE}

    def side(value_name, extremes):
        n = draw(st.integers(0, 30))
        data = {}
        for name, kind in zip(on, kinds):
            if kind == "bool":
                data[name] = np.array(draw(st.lists(
                    st.booleans(), min_size=n, max_size=n)), dtype=bool)
                continue
            keys = table_keys if extremes else st.integers(-6, 6)
            values = np.array(draw(st.lists(keys, min_size=n, max_size=n)),
                              dtype=np.int64)
            data[name] = values + 8_000 if kind == "date" else values
        data[value_name] = np.arange(n, dtype=np.int64)
        schema = Schema([Field(name, dtypes[kind])
                         for name, kind in zip(on, kinds)]
                        + [Field(value_name, DType.INT64)])
        return DataFrame(data, schema=schema)

    # Extreme build keys widen the layout past the bound; the probe may
    # hold them either way.
    build = side("rv", draw(st.booleans()))
    probe = side("lv", True)
    tabled = build.n_rows > 0 and groupby.SlotTable.fits([
        (int(build.column(k).max()) - int(build.column(k).min()))
        .bit_length() for k in on
    ])
    return probe, build, on, tabled


@given(tabled_join())
@settings(max_examples=200, deadline=None)
def test_property_table_path_matches_search_path(case):
    probe, build, on, tabled = case
    assert_paths_agree(probe, build, on, tabled)


def test_table_path_is_taken_for_dense_int_keys():
    left, right = left_frame(), right_frame()
    index = JoinIndex(right, ["k"])
    assert index._table is not None
    with mock.patch.object(JoinIndex, "_probe_codes",
                           side_effect=AssertionError("searched")):
        for how in JOIN_METHODS:
            assert_same_rows(index.probe(left, ["k"], how=how),
                             hash_join(left, right, ["k"], ["k"], how=how))


def test_probe_keys_past_the_layout_do_not_alias():
    """Build keys at the top of int64, probe keys at the bottom:
    subtracting the layout's low end wraps to small offsets, which must
    still miss."""
    build = DataFrame({"k": np.array([INT64_MAX - 9, INT64_MAX - 3,
                                      INT64_MAX - 3, INT64_MAX])})
    probe = DataFrame({"k": np.array(
        [INT64_MIN + i for i in range(16)]
        + [INT64_MAX - 3, -1, 0, 1], dtype=np.int64)})
    assert_paths_agree(probe, build, ["k"])
    assert JoinIndex(build, ["k"]).match_counts(probe, ["k"]).tolist() == (
        [0] * 16 + [2, 0, 0, 0])


def test_multi_key_layouts_within_and_past_the_bound():
    rng = np.random.default_rng(5)

    def frames(span):
        build = DataFrame({
            "a": rng.integers(0, span, 300).astype(np.int64),
            "b": rng.integers(-span, 0, 300).astype(np.int64),
            "rv": np.arange(300, dtype=np.int64),
        })
        probe = DataFrame({
            "a": np.concatenate([build.column("a")[:200],
                                 rng.integers(-span, 2 * span, 200)]),
            "b": np.concatenate([build.column("b")[:200],
                                 rng.integers(-2 * span, span, 200)]),
            "lv": np.arange(400, dtype=np.int64),
        })
        return probe, build

    assert_paths_agree(*frames(1 << 9), ["a", "b"], tabled=True)
    assert_paths_agree(*frames(1 << 12), ["a", "b"], tabled=False)


@pytest.mark.parametrize("flip", [False, True])
def test_int_and_float_keys_take_the_search_path(flip):
    ints = DataFrame({"k": np.array([1, 2, 3, 3, -4], dtype=np.int64),
                      "iv": np.arange(5, dtype=np.int64)})
    floats = DataFrame({"k": np.array([2.0, 3.0, 9.5, np.nan, -4.0]),
                        "fv": np.arange(5.0)})
    probe, build = (floats, ints) if flip else (ints, floats)
    index = JoinIndex(build, ["k"])
    assert (index._table is not None) == flip
    if flip:
        index._table.lookup = mock.Mock(side_effect=AssertionError("table"))
    for how in JOIN_METHODS:
        assert_same_bytes(index.probe(probe, ["k"], how=how),
                          hash_join(probe, build, ["k"], ["k"], how=how))


@pytest.mark.parametrize("how", JOIN_METHODS)
def test_nan_keys_bytes_match_hash_join(how):
    left = DataFrame({"k": np.array([1.0, np.nan, 2.0, np.nan]),
                      "lv": np.arange(4, dtype=np.float64)})
    right = DataFrame({"k": np.array([np.nan, 1.0, 3.0, np.nan]),
                       "rv": np.arange(4.0)})
    assert_same_bytes(JoinIndex(right, ["k"]).probe(left, ["k"], how=how),
                      hash_join(left, right, ["k"], ["k"], how=how))


def test_empty_sides_on_the_table_path():
    left, right = left_frame(), right_frame()
    assert_paths_agree(left.head(0), right, ["k"])
    assert_paths_agree(left, right.head(0), ["k"], tabled=False)


def test_wide_multi_key_codes_do_not_wrap_int64():
    """Seven key columns of 600 distinct values each: the probe tuple's
    mixed-radix code is 2**64, which wraps to build row 0's code."""
    on = [f"k{j}" for j in range(7)]
    build = DataFrame({key: np.arange(600, dtype=np.int64) for key in on})
    probe = DataFrame({key: np.array([value], dtype=np.int64) for key, value
                       in zip(on, (395, 226, 388, 133, 504, 186, 16))})
    assert JoinIndex(build, on).probe_inner(probe, on).n_rows == 0
    assert _searched_index(build, on).probe_inner(probe, on).n_rows == 0
    assert hash_join(probe, build, on, on).n_rows == 0
    # Tuples that are in the build still match.
    hits = build.slice(7, 10)
    assert_paths_agree(hits, build, on, tabled=False)
    assert hash_join(hits, build, on, on).n_rows == 3
