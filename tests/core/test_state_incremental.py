"""The slot-based incremental merge must be indistinguishable from a
from-scratch recompute: streaming any partitioning of a frame through
``GroupedAggregateState.consume_delta`` yields the same ``state_frame()``
(and distinct counts / quantiles) as one-shot ``group_aggregate`` over
the whole input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import AggSpec, DataFrame, group_aggregate
from repro.dataframe.groupby import Grouper, group_codes
from repro.core.growth import GrowthModel
from repro.core.inference import AggregateInference
from repro.core.mergeable import CARDINALITY_COLUMN
from repro.core.state import GroupedAggregateState
from repro.errors import QueryError


def stream(state: GroupedAggregateState, frame: DataFrame,
           n_parts: int) -> None:
    bounds = np.linspace(0, frame.n_rows, n_parts + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        state.consume_delta(frame.slice(int(lo), int(hi)))


class TestGrouper:
    def test_slots_are_stable_across_partials(self):
        g = Grouper(("k",))
        f1 = DataFrame({"k": np.array(["b", "a", "b"])})
        f2 = DataFrame({"k": np.array(["c", "a"])})
        c1 = g.encode(f1)
        c2 = g.encode(f2)
        # "a" keeps the slot it got in the first partial.
        by_key = dict(zip(f1.column("k").tolist(), c1.tolist()))
        assert c2.tolist() == [g.n_groups - 1, by_key["a"]]
        assert g.n_groups == 3
        assert g.key_frame().column("k").tolist() == ["a", "b", "c"]

    def test_matches_one_shot_group_codes_groupings(self):
        rng = np.random.default_rng(5)
        frame = DataFrame(
            {
                "a": rng.integers(0, 5, size=100).astype(np.int64),
                "b": np.array([f"s{i % 4}" for i in range(100)]),
            }
        )
        g = Grouper(("a", "b"))
        codes = np.concatenate(
            [g.encode(frame.slice(i, i + 20)) for i in range(0, 100, 20)]
        )
        one_shot, _keys, n = group_codes(frame, ["a", "b"])
        assert g.n_groups == n
        # Same partition structure: rows share a slot iff they share a
        # one-shot group code.
        pairs = set(zip(codes.tolist(), one_shot.tolist()))
        assert len(pairs) == n
        assert len({p[0] for p in pairs}) == n

    def test_empty_frame_is_noop(self):
        g = Grouper(("k",))
        out = g.encode(DataFrame({"k": np.array([], dtype=np.int64)}))
        assert out.tolist() == []
        assert g.n_groups == 0
        with pytest.raises(QueryError):
            g.key_frame()

    def test_requires_keys(self):
        with pytest.raises(QueryError):
            Grouper(())


def make_frame(n=200, seed=9):
    rng = np.random.default_rng(seed)
    return DataFrame(
        {
            "k": rng.integers(0, 12, size=n).astype(np.int64),
            "s": np.array([f"g{i % 3}" for i in range(n)]),
            "v": rng.normal(10.0, 5.0, size=n),
            "c": rng.integers(0, 6, size=n).astype(np.int64),
        }
    )


ALL_SPECS = (
    AggSpec("sum", "v", "sum_v"),
    AggSpec("count", None, "n"),
    AggSpec("avg", "v", "avg_v"),
    AggSpec("min", "v", "lo"),
    AggSpec("max", "v", "hi"),
    AggSpec("var", "v", "s2"),
    AggSpec("count_distinct", "c", "d"),
    AggSpec("median", "v", "med"),
)


@pytest.mark.parametrize("n_parts", [1, 3, 8, 17])
def test_slot_merge_equals_recompute(n_parts):
    frame = make_frame()
    state = GroupedAggregateState(by=("k", "s"), specs=ALL_SPECS)
    stream(state, frame, n_parts)
    got = state.state_frame()
    expected = group_aggregate(frame, ["k", "s"], list(ALL_SPECS))

    # state_frame rows are key-sorted; group_aggregate's np.unique order
    # is the same lexicographic order, so rows align positionally.
    assert got.column("k").tolist() == expected.column("k").tolist()
    assert got.column("s").tolist() == expected.column("s").tolist()

    np.testing.assert_allclose(
        got.column("__sum_v__sum"), expected.column("sum_v"), rtol=1e-9
    )
    np.testing.assert_allclose(
        got.column("__n__count"), expected.column("n")
    )
    np.testing.assert_allclose(
        got.column("__avg_v__sum") / got.column("__avg_v__count"),
        expected.column("avg_v"), rtol=1e-9,
    )
    np.testing.assert_allclose(
        got.column("__lo__min"), expected.column("lo")
    )
    np.testing.assert_allclose(
        got.column("__hi__max"), expected.column("hi")
    )
    count = got.column("__s2__count")
    with np.errstate(invalid="ignore", divide="ignore"):
        m2 = (got.column("__s2__sumsq")
              - got.column("__s2__sum") ** 2 / count)
        var = m2 / (count - 1)  # NaN for singleton groups, like the kernel
    np.testing.assert_allclose(
        var, expected.column("s2"), rtol=1e-6, atol=1e-8
    )
    np.testing.assert_allclose(
        state.distinct_counts(ALL_SPECS[6]), expected.column("d")
    )
    np.testing.assert_allclose(
        state.sample_quantiles(ALL_SPECS[7]), expected.column("med"),
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        got.column(CARDINALITY_COLUMN),
        np.asarray(expected.column("n"), dtype=np.float64),
    )


def test_nan_values_behave_like_recompute():
    """Genuine NaN measure values: sums skip them, min/max propagate
    exactly as the one-shot kernels do."""
    frame = DataFrame(
        {
            "k": np.array([0, 0, 1, 1, 2], dtype=np.int64),
            "v": np.array([1.0, np.nan, 2.0, 3.0, np.nan]),
        }
    )
    specs = (AggSpec("sum", "v", "s"), AggSpec("min", "v", "lo"))
    state = GroupedAggregateState(by=("k",), specs=specs)
    stream(state, frame, 3)
    got = state.state_frame()
    expected = group_aggregate(frame, ["k"], list(specs))
    np.testing.assert_allclose(got.column("__s__sum"),
                               expected.column("s"))
    np.testing.assert_allclose(got.column("__lo__min"),
                               expected.column("lo"), equal_nan=True)


def test_nan_group_keys_merge_into_one_slot():
    """NaN group keys across partials collapse into a single group (the
    np.unique equal_nan behavior of the one-shot path), for both the
    vectorized single-key path and the tuple-dict multi-key path — and
    count_distinct's pair re-encode must not allocate beyond the state
    arrays."""
    frame = DataFrame(
        {
            "k": np.array([1.0, np.nan, np.nan, 1.0]),
            "g": np.array(["x", "y", "y", "x"]),
            "v": np.array([1.0, 2.0, 3.0, 4.0]),
            "c": np.array([7, 8, 8, 9], dtype=np.int64),
        }
    )
    specs = (AggSpec("sum", "v", "s"),
             AggSpec("count_distinct", "c", "d"))
    for by in (("k",), ("k", "g")):
        state = GroupedAggregateState(by=by, specs=specs)
        stream(state, frame, 4)  # one NaN key per partial
        got = state.state_frame()
        expected = group_aggregate(frame, list(by), list(specs))
        assert got.n_rows == expected.n_rows == 2
        np.testing.assert_allclose(got.column("__s__sum"),
                                   expected.column("s"))
        np.testing.assert_allclose(state.distinct_counts(specs[1]),
                                   expected.column("d"))


def test_global_aggregate_slots():
    frame = make_frame(n=50)
    specs = (AggSpec("sum", "v", "s"), AggSpec("count", None, "n"))
    state = GroupedAggregateState(by=(), specs=specs)
    stream(state, frame, 5)
    got = state.state_frame()
    assert got.n_rows == 1
    assert got.column("__s__sum")[0] == pytest.approx(
        float(np.sum(frame.column("v")))
    )
    assert got.column("__n__count")[0] == frame.n_rows


def test_version_reset_clears_slots():
    frame = make_frame(n=60)
    state = GroupedAggregateState(
        by=("k",), specs=(AggSpec("sum", "v", "s"),)
    )
    stream(state, frame, 4)
    n_before = state.n_groups
    assert n_before > 0
    state.consume_snapshot(frame.slice(0, 10))
    expected = group_aggregate(frame.slice(0, 10), ["k"],
                               [AggSpec("sum", "v", "s")])
    got = state.state_frame()
    assert got.n_rows == expected.n_rows
    np.testing.assert_allclose(got.column("__s__sum"),
                               expected.column("s"))
    assert state.version == 2


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.floats(-100, 100),
                  st.integers(0, 4)),
        min_size=1, max_size=60,
    ),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_property_slot_merge_equals_recompute(data, n_parts):
    ks, vs, cs = zip(*data)
    frame = DataFrame(
        {"k": np.array(ks, dtype=np.int64), "v": np.array(vs),
         "c": np.array(cs, dtype=np.int64)}
    )
    specs = (
        AggSpec("sum", "v", "s"),
        AggSpec("min", "v", "lo"),
        AggSpec("max", "v", "hi"),
        AggSpec("count_distinct", "c", "d"),
    )
    state = GroupedAggregateState(by=("k",), specs=specs)
    stream(state, frame, n_parts)
    got = state.state_frame()
    expected = group_aggregate(frame, ["k"], list(specs))
    assert got.column("k").tolist() == expected.column("k").tolist()
    np.testing.assert_allclose(got.column("__s__sum"),
                               expected.column("s"),
                               rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(got.column("__lo__min"),
                               expected.column("lo"))
    np.testing.assert_allclose(got.column("__hi__max"),
                               expected.column("hi"))
    np.testing.assert_allclose(state.distinct_counts(specs[3]),
                               expected.column("d"))


# ---------------------------------------------------------------------------
# Differential Grouper: any key width / dtype mix, any cut points
# ---------------------------------------------------------------------------

_KEY_COLUMNS = {
    "int": st.integers(-3, 3).map(np.int64),
    "float": st.sampled_from([0.0, -0.0, 1.5, -2.25, 7.0, np.nan]),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "a", "b", "ab", "abcdefgh", "é", "a" * 17]),
}


@st.composite
def keyed_frames(draw):
    """(frame, key names, cut points): 1-4 key columns of mixed dtypes
    plus a value column ``v`` — SNIPPETS.md snippet 1's single- vs
    multi-column matrix with NaN in the key."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_COLUMNS)),
                          min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    data = {}
    for i, kind in enumerate(kinds):
        values = draw(st.lists(_KEY_COLUMNS[kind], min_size=n, max_size=n))
        data[f"k{i}"] = np.array(values)
    data["v"] = np.array(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return DataFrame(data), [f"k{i}" for i in range(len(kinds))], cuts


def _pieces(frame, cuts):
    bounds = [0, *cuts, frame.n_rows]
    return [frame.slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _same_key(a, b):
    return a == b or (a != a and b != b)


@given(keyed_frames())
@settings(max_examples=150, deadline=None)
def test_property_grouper_matches_one_shot_codes(case):
    frame, keys, cuts = case
    grouper = Grouper(keys)
    slots = []
    for piece in _pieces(frame, cuts):
        before = grouper.n_groups
        held = grouper.key_frame() if before else None
        slots.append(grouper.encode(piece))
        if held is not None:
            # Slots never move: the key frame only extends.
            now = grouper.key_frame().slice(0, before)
            for key in keys:
                assert now.column(key).tobytes() == held.column(
                    key).astype(now.column(key).dtype).tobytes()
    slots = np.concatenate(slots)
    one_shot, _key_rows, n_groups = group_codes(frame, keys)
    # Rows share a slot iff they share a one-shot code (so duplicates
    # inside one partial and across partials land on one slot).
    assert grouper.n_groups == n_groups
    pairs = set(zip(slots.tolist(), one_shot.tolist()))
    assert len(pairs) == n_groups
    # key_frame() row i is slot i's key.
    key_rows = grouper.key_frame()
    assert key_rows.n_rows == n_groups
    for key in keys:
        held = key_rows.column(key)[slots].tolist()
        for got, expected in zip(held, frame.column(key).tolist()):
            assert _same_key(got, expected)
    # sort_perm() is the lexsort of the key frame.
    expected_perm = np.lexsort(
        [key_rows.column(k) for k in reversed(keys)]
    )
    assert grouper.sort_perm().tolist() == expected_perm.tolist()


@given(keyed_frames())
@settings(max_examples=100, deadline=None)
def test_property_count_distinct_pairs_match_recompute(case):
    frame, keys, cuts = case
    spec = AggSpec("count_distinct", "v", "d")
    for by in (tuple(keys), ()):
        state = GroupedAggregateState(by=by, specs=(spec,))
        for piece in _pieces(frame, cuts):
            state.consume_delta(piece)
        if by:
            expected = group_aggregate(frame, list(by), [spec]).column("d")
        else:
            expected = [len(set(frame.column("v").tolist()))]
        assert state.distinct_counts(spec).tolist() == list(expected)


# ---------------------------------------------------------------------------
# REPLACE refresh: identity survives versions, readers see one version
# ---------------------------------------------------------------------------

REFRESH_SPECS = (
    AggSpec("sum", "v", "s"),
    AggSpec("min", "v", "lo"),
    AggSpec("max", "v", "hi"),
    AggSpec("first", "v", "f"),
    AggSpec("last", "v", "l"),
    AggSpec("count_distinct", "c", "d"),
    AggSpec("median", "v", "m"),
)


def _snapshot(keys_a, keys_b, values, nan_at=()):
    v = np.asarray(values, dtype=np.float64)
    v[list(nan_at)] = np.nan
    return DataFrame({
        "a": np.asarray(keys_a, dtype=np.int64),
        "b": np.asarray(keys_b),
        "v": v,
        "c": (np.arange(len(v)) % 3).astype(np.int64),
    })


def _refresh_sequence():
    base = _snapshot([1, 1, 2, 3], ["x", "y", "x", "x"], [1, 2, 3, 4])
    return [
        base,
        # grow: new groups and more rows per group
        _snapshot([1, 1, 2, 3, 0, 4, 1], ["x", "y", "x", "x", "z", "x", "x"],
                  [1, 2, 3, 4, 5, 6, 7]),
        # identical keys, different values (the memo path), NaN values
        _snapshot([1, 1, 2, 3, 0, 4, 1], ["x", "y", "x", "x", "z", "x", "x"],
                  [9, 8, 7, 6, 5, 4, 3], nan_at=(2, 6)),
        # identical again, byte for byte
        _snapshot([1, 1, 2, 3, 0, 4, 1], ["x", "y", "x", "x", "z", "x", "x"],
                  [9, 8, 7, 6, 5, 4, 3], nan_at=(2, 6)),
        # reorder rows
        _snapshot([4, 0, 3, 2, 1, 1, 1], ["x", "z", "x", "x", "y", "x", "x"],
                  [1, 2, 3, 4, 5, 6, 7]),
        # shrink to a subset of the groups
        _snapshot([3, 1], ["x", "y"], [10, 20]),
        # empty
        base.slice(0, 0),
        # come back with old and never-seen keys, wider strings
        _snapshot([1, 7, 3], ["y", "wide-key", "x"], [1, 2, 3]),
        base,
    ]


def _assert_reads_equal(got, fresh):
    assert got.n_groups == fresh.n_groups
    assert got.rows_consumed == fresh.rows_consumed
    if fresh.n_groups == 0:
        with pytest.raises(QueryError):
            got.state_frame()
        return
    frames = [(got.state_frame(), fresh.state_frame())]
    for t in (0.5, 1.0):
        frames.append(tuple(
            AggregateInference(GrowthModel(prior_w=0.0)).infer(state, t)
            for state in (got, fresh)
        ))
    for ours, theirs in frames:
        assert ours.column_names == theirs.column_names
        for name in theirs.column_names:
            assert ours.column(name).dtype == theirs.column(name).dtype
            assert (ours.column(name).tobytes()
                    == theirs.column(name).tobytes()), name


@pytest.mark.parametrize("by", [("a", "b"), ("a",), ("b",), ()])
def test_replace_refresh_reads_like_a_fresh_state(by):
    state = GroupedAggregateState(by=by, specs=REFRESH_SPECS)
    for version, snapshot in enumerate(_refresh_sequence(), start=2):
        state.consume_snapshot(snapshot)
        assert state.version == version
        fresh = GroupedAggregateState(by=by, specs=REFRESH_SPECS)
        fresh.consume_snapshot(snapshot)
        _assert_reads_equal(state, fresh)


def test_replace_refresh_after_deltas_forgets_them():
    state = GroupedAggregateState(by=("a", "b"), specs=REFRESH_SPECS)
    for snapshot in _refresh_sequence()[:3]:
        state.consume_delta(snapshot)
    snapshot = _refresh_sequence()[5]
    state.consume_snapshot(snapshot)
    fresh = GroupedAggregateState(by=("a", "b"), specs=REFRESH_SPECS)
    fresh.consume_snapshot(snapshot)
    _assert_reads_equal(state, fresh)


def test_unchanged_keys_reuse_previous_codes(monkeypatch):
    state = GroupedAggregateState(
        by=("a", "b"), specs=(AggSpec("sum", "v", "s"),)
    )
    calls = []
    encode = Grouper.encode
    monkeypatch.setattr(
        Grouper, "encode",
        lambda self, frame: calls.append(frame.n_rows) or encode(self, frame),
    )
    sequence = _refresh_sequence()
    state.consume_snapshot(sequence[1])
    state.consume_snapshot(sequence[2])  # same keys, other values
    state.consume_snapshot(sequence[3])
    assert calls == [sequence[1].n_rows]
    state.consume_snapshot(sequence[4])  # reordered: must re-encode
    assert calls == [sequence[1].n_rows, sequence[4].n_rows]


def test_growth_keeps_views_over_doubling_buffers():
    """New groups extend the accumulators inside a capacity-doubling
    buffer: reallocations are logarithmic in the number of groups."""
    state = GroupedAggregateState(
        by=("k",), specs=(AggSpec("sum", "v", "s"),
                          AggSpec("count_distinct", "v", "d"))
    )
    allocations = set()
    for start in range(0, 4096, 16):
        keys = np.arange(start, start + 16, dtype=np.int64)
        state.consume_delta(DataFrame({"k": keys, "v": keys * 1.0}))
        allocations.add(id(state._buffers[CARDINALITY_COLUMN]))
    assert state.n_groups == 4096
    assert len(allocations) <= 13
    frame = state.state_frame()
    assert frame.column("__s__sum").tolist() == list(map(float, range(4096)))
    assert state.distinct_counts(state.specs[1]).tolist() == [1.0] * 4096
