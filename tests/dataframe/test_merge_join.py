"""Property tests: the ``merge_join`` kernel (binary search into the
right side, no shared factorization) and the progressive
``MergeJoinOperator`` built on it produce exactly the bytes the one-shot
``hash_join`` does — sorted and clustered-but-unsorted inputs, duplicate
keys on both sides or unique right keys, int / date / float keys and int-vs-float keys, empty
sides, NaN keys, and rows held back across several watermarks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.properties import Delivery, Progress, StreamInfo
from repro.dataframe import DataFrame, hash_join, merge_join
from repro.dataframe.schema import DType, Field, Schema
from repro.engine.message import Message
from repro.engine.ops import MergeJoinOperator
from repro.errors import QueryError, SchemaError

#: (left key dtype, right key dtype) pairs the kernel must agree on.
KEY_KINDS = {
    "int": (DType.INT64, DType.INT64),
    "date": (DType.DATE, DType.DATE),
    "float": (DType.FLOAT64, DType.FLOAT64),
    "int_vs_float": (DType.INT64, DType.FLOAT64),
    "float_vs_int": (DType.FLOAT64, DType.INT64),
}


def assert_same_bytes(got: DataFrame, expected: DataFrame) -> None:
    assert tuple(got.column_names) == tuple(expected.column_names)
    for name in expected.column_names:
        a, b = got.column(name), expected.column(name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def key_values(draw, dtype: DType, n: int, nan: bool) -> np.ndarray:
    if dtype is DType.FLOAT64:
        pool = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.5, 4.0]
        if nan:
            pool.append(float("nan"))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                                      max_size=n)), dtype=np.float64)
    return np.array(draw(st.lists(st.integers(-1, 4), min_size=n,
                                  max_size=n)), dtype=np.int64)


def side(keys: np.ndarray, dtype: DType, key: str, payload: str):
    n = len(keys)
    return DataFrame(
        {key: keys, payload: np.arange(n, dtype=np.int64) * 10 + 1},
        schema=Schema([Field(key, dtype), Field(payload, DType.INT64)]),
    )


@st.composite
def kernel_case(draw):
    l_dtype, r_dtype = KEY_KINDS[draw(st.sampled_from(sorted(KEY_KINDS)))]
    nan = draw(st.booleans())
    frames = []
    for dtype, key, payload in ((l_dtype, "k", "lv"),
                                (r_dtype, "k2", "rv")):
        keys = key_values(draw, dtype, draw(st.integers(0, 25)), nan)
        order = draw(st.sampled_from(["as drawn", "sorted", "unique"]))
        if order == "sorted":
            keys = np.sort(keys)
        elif order == "unique":  # sorted, one NaN at most
            keys = np.unique(keys)
        frames.append(side(keys, dtype, key, payload))
    return frames


@given(kernel_case())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_hash_join(case):
    left, right = case
    assert_same_bytes(
        merge_join(left, right, ["k"], ["k2"]),
        hash_join(left, right, ["k"], ["k2"], how="inner"),
    )


@pytest.mark.parametrize("l_keys, r_keys", [
    ([np.nan, 1.0, np.nan], [np.nan]),       # a lone NaN is "unique"
    ([1.0, np.nan], [1.0, np.nan]),          # NaN sorted last
    ([0.0, -0.0], [-0.0, 0.0]),              # signed zeros are equal
    ([1, 2], []),
    ([], [1.0, 2.0]),
])
def test_kernel_edge_keys(l_keys, r_keys):
    left = DataFrame({"k": np.array(l_keys, dtype=np.float64),
                      "lv": np.arange(len(l_keys))})
    right = DataFrame({"k2": np.array(r_keys, dtype=np.float64),
                       "rv": np.arange(len(r_keys))})
    assert_same_bytes(merge_join(left, right, ["k"], ["k2"]),
                      hash_join(left, right, ["k"], ["k2"]))


def test_kernel_takes_one_key_pair():
    frame = side(np.arange(3), DType.INT64, "k", "v")
    with pytest.raises(QueryError, match="single key pair"):
        merge_join(frame, frame, ["k", "v"], ["k", "v"])


def test_kernel_rejects_incompatible_key_dtypes():
    ints = side(np.arange(3), DType.INT64, "k", "v")
    strings = DataFrame({"k": np.array(["a", "b", "c"])})
    with pytest.raises(SchemaError):
        merge_join(ints, strings, ["k"], ["k"])


# -- the operator --------------------------------------------------------------


def clustered_parts(draw, dtype: DType, key: str, payload: str,
                    shuffle: bool) -> list[DataFrame]:
    """Ascending runs of keys cut at run boundaries into partitions (no
    key straddles two), optionally shuffled within each partition."""
    runs = sorted(set(draw(st.lists(st.integers(0, 12), max_size=10))))
    counts = [draw(st.integers(1, 3)) for _ in runs]
    keys = np.repeat(np.array(runs, dtype=np.int64), counts)
    if dtype is DType.FLOAT64:
        keys = keys.astype(np.float64) / 2
    ids = np.arange(len(keys), dtype=np.int64)
    cuts = sorted(set(draw(st.lists(st.integers(1, len(runs) - 1),
                                    max_size=4)))) if len(runs) > 1 else []
    ends = np.cumsum(counts)
    edges = [0, *(int(ends[c - 1]) for c in cuts), len(keys)]
    parts = []
    for start, stop in zip(edges, edges[1:]):
        order = np.arange(start, stop)
        if shuffle:
            order = np.array(draw(st.permutations(list(order))),
                             dtype=np.int64)
        parts.append(DataFrame(
            {key: keys[order], payload: ids[order]},
            schema=Schema([Field(key, dtype),
                           Field(payload, DType.INT64)]),
        ))
    return parts


@st.composite
def operator_case(draw):
    l_dtype, r_dtype = KEY_KINDS[draw(st.sampled_from(sorted(KEY_KINDS)))]
    shuffle = draw(st.booleans())
    left = clustered_parts(draw, l_dtype, "k", "lid", shuffle)
    right = clustered_parts(draw, r_dtype, "k2", "rid", shuffle)
    schedule = draw(st.permutations([0] * len(left) + [1] * len(right)))
    return left, right, list(schedule), shuffle


def drive(left, right, schedule):
    """Feed the parts in ``schedule`` order (port per message), then
    both EOFs; every emitted frame in order."""
    op = MergeJoinOperator("mj", "k", "k2")
    op.bind([
        StreamInfo(left[0].schema, clustering_key=("k",)),
        StreamInfo(right[0].schema, clustering_key=("k2",)),
    ])
    queues = [list(left), list(right)]
    out = []
    for step, port in enumerate(schedule):
        frame = queues[port].pop(0)
        progress = Progress({"s": step + 1}, {"s": len(schedule) + 1})
        out.extend(op.on_message(port, Message(frame, progress,
                                               Delivery.DELTA)))
    out.extend(op.on_eof(0))
    out.extend(op.on_eof(1))
    return [message.frame for message in out]


def canonical(frame: DataFrame) -> DataFrame:
    return frame.take(np.lexsort((frame.column("rid"),
                                  frame.column("lid"))))


@given(operator_case())
@settings(max_examples=200, deadline=None)
def test_operator_matches_hash_join(case):
    left, right, schedule, shuffle = case
    released = drive(left, right, schedule)
    assert released, "EOF always flushes"
    expected = hash_join(DataFrame.concat(left), DataFrame.concat(right),
                         ["k"], ["k2"])
    got = DataFrame.concat(released)
    if shuffle:
        # A partition's ready rows leave in buffer order and the rest
        # later, so only the row set is fixed.
        got, expected = canonical(got), canonical(expected)
    assert_same_bytes(got, expected)


def test_rows_held_back_across_watermarks():
    """The right side lags: its one big partition holds keys the left
    watermark passes only three partitions later, and each release
    joins exactly the rows both sides have completed."""
    left = [side(np.array([k, k], dtype=np.int64), DType.INT64, "k", "lid")
            for k in range(4)]
    right = [side(np.array([0, 1, 2, 3, 5], dtype=np.int64), DType.INT64,
                  "k2", "rid")]
    released = drive(left, right, [1, 0, 0, 0, 0])
    assert [frame.n_rows for frame in released] == [2, 2, 2, 2, 0]
    assert_same_bytes(
        DataFrame.concat(released),
        hash_join(DataFrame.concat(left), right[0], ["k"], ["k2"]),
    )


def test_nan_keys_never_pass_a_watermark():
    """A NaN key compares below no watermark, so its rows stay buffered
    and never join, while the rest of their partition does."""
    left = [side(np.array([1.0, np.nan, 2.0]), DType.FLOAT64, "k", "lid")]
    right = [side(np.array([1.0, 2.0, np.nan]), DType.FLOAT64, "k2",
                  "rid")]
    got = DataFrame.concat(drive(left, right, [0, 1]))
    assert got.column("k").tolist() == [1.0, 2.0]
    assert got.column("lid").tolist() == [1, 21]
    assert got.column("rid").tolist() == [1, 11]


def test_empty_sides_flush_an_empty_join():
    empty = side(np.empty(0, dtype=np.int64), DType.INT64, "k", "lid")
    right = [side(np.arange(3), DType.INT64, "k2", "rid")]
    released = drive([empty], right, [0, 1])
    assert [frame.n_rows for frame in released] == [0]
    assert released[0].column_names == ("k", "lid", "rid")
