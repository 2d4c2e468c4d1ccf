"""Unit + property tests for intrinsic state maintenance (paper §4.2).

Includes a faithful replay of the paper's worked example: counting
students by home state across two partitions, checking both the intrinsic
merge (α) and — in test_inference — the scaled extrinsic estimates (β).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import AggSpec, DataFrame, group_aggregate
from repro.core.mergeable import CARDINALITY_COLUMN
from repro.core.state import GroupedAggregateState, SYNTHETIC_KEY
from repro.errors import QueryError


def students_partition_1():
    return DataFrame(
        {
            "id": np.array([1, 2, 3]),
            "state": np.array(["IL", "IL", "MI"]),
        }
    )


def students_partition_2():
    return DataFrame(
        {
            "id": np.array([4, 5]),
            "state": np.array(["IL", "MI"]),
        }
    )


class TestPaperStudentExample:
    """§4.2: α2 after one partition is [(IL,2),(MI,1)]; after merging the
    second partition it becomes [(IL,3),(MI,2)]."""

    def make_state(self):
        return GroupedAggregateState(
            by=("state",), specs=(AggSpec("count", None, "n"),)
        )

    def test_first_partition(self):
        state = self.make_state()
        state.consume_delta(students_partition_1())
        frame = state.state_frame()
        counts = dict(zip(frame.column("state").tolist(),
                          frame.column("__n__count").tolist()))
        assert counts == {"IL": 2.0, "MI": 1.0}
        assert state.rows_consumed == 3
        assert state.n_groups == 2

    def test_incremental_merge(self):
        state = self.make_state()
        state.consume_delta(students_partition_1())
        state.consume_delta(students_partition_2())
        frame = state.state_frame()
        counts = dict(zip(frame.column("state").tolist(),
                          frame.column("__n__count").tolist()))
        assert counts == {"IL": 3.0, "MI": 2.0}
        assert state.rows_consumed == 5
        assert state.version == 1  # incremental: same version throughout

    def test_cardinality_column(self):
        state = self.make_state()
        state.consume_delta(students_partition_1())
        state.consume_delta(students_partition_2())
        frame = state.state_frame()
        cards = dict(zip(frame.column("state").tolist(),
                         frame.column(CARDINALITY_COLUMN).tolist()))
        assert cards == {"IL": 3.0, "MI": 2.0}
        assert state.mean_cardinality == pytest.approx(2.5)


class TestVersioning:
    def test_begin_version_resets(self):
        state = GroupedAggregateState(
            by=("state",), specs=(AggSpec("count", None, "n"),)
        )
        state.consume_delta(students_partition_1())
        state.begin_version()
        assert state.version == 2
        assert state.rows_consumed == 0
        with pytest.raises(QueryError):
            state.state_frame()

    def test_consume_snapshot_is_reset_plus_delta(self):
        state = GroupedAggregateState(
            by=("state",), specs=(AggSpec("count", None, "n"),)
        )
        state.consume_delta(students_partition_1())
        state.consume_snapshot(students_partition_2())
        frame = state.state_frame()
        counts = dict(zip(frame.column("state").tolist(),
                          frame.column("__n__count").tolist()))
        assert counts == {"IL": 1.0, "MI": 1.0}  # snapshot only


class TestAggregateKinds:
    def frame(self):
        return DataFrame(
            {
                "g": np.array(["a", "a", "b", "b", "b"]),
                "v": np.array([1.0, 3.0, 10.0, 20.0, 60.0]),
            }
        )

    def test_min_max_merge(self):
        state = GroupedAggregateState(
            by=("g",),
            specs=(AggSpec("min", "v", "lo"), AggSpec("max", "v", "hi")),
        )
        state.consume_delta(self.frame().slice(0, 3))
        state.consume_delta(self.frame().slice(3, 5))
        frame = state.state_frame()
        by_g = {
            g: (lo, hi)
            for g, lo, hi in zip(
                frame.column("g").tolist(),
                frame.column("__lo__min").tolist(),
                frame.column("__hi__max").tolist(),
            )
        }
        assert by_g["a"] == (1.0, 3.0)
        assert by_g["b"] == (10.0, 60.0)

    def test_var_state_merges_to_exact(self):
        state = GroupedAggregateState(
            by=("g",), specs=(AggSpec("var", "v", "s2"),)
        )
        state.consume_delta(self.frame().slice(0, 2))
        state.consume_delta(self.frame().slice(2, 5))
        frame = state.state_frame()
        count = frame.column("__s2__count")
        total = frame.column("__s2__sum")
        sumsq = frame.column("__s2__sumsq")
        idx = frame.column("g").tolist().index("b")
        m2 = sumsq[idx] - total[idx] ** 2 / count[idx]
        expected = np.var([10.0, 20.0, 60.0], ddof=1)
        assert m2 / (count[idx] - 1) == pytest.approx(expected)

    def test_distinct_pairs_exact_sets(self):
        f = DataFrame(
            {
                "g": np.array(["a", "a", "a", "b"]),
                "v": np.array([1, 1, 2, 9]),
            }
        )
        state = GroupedAggregateState(
            by=("g",), specs=(AggSpec("count_distinct", "v", "d"),)
        )
        state.consume_delta(f.slice(0, 2))
        state.consume_delta(f.slice(2, 4))
        spec = state.specs[0]
        counts = state.distinct_counts(spec)
        frame = state.state_frame()
        by_g = dict(zip(frame.column("g").tolist(), counts.tolist()))
        assert by_g == {"a": 2.0, "b": 1.0}

    def test_distinct_counts_empty(self):
        state = GroupedAggregateState(
            by=("g",), specs=(AggSpec("count_distinct", "v", "d"),)
        )
        f = DataFrame({"g": np.array(["a"]), "v": np.array([1])})
        state.consume_delta(f)
        # artificially clear the pairs to exercise the defensive path
        state._pairs = {}
        assert state.distinct_counts(state.specs[0]).tolist() == [0.0]


class TestGlobalAggregates:
    def test_synthetic_key_injected(self):
        state = GroupedAggregateState(
            by=(), specs=(AggSpec("sum", "v", "s"),)
        )
        f = DataFrame({"v": np.array([1.0, 2.0, 3.0])})
        state.consume_delta(f)
        frame = state.state_frame()
        assert SYNTHETIC_KEY in frame.column_names
        assert frame.n_rows == 1
        assert frame.column("__s__sum")[0] == pytest.approx(6.0)
        assert state.output_keys() == ()

    def test_empty_partial_ignored(self):
        state = GroupedAggregateState(
            by=(), specs=(AggSpec("sum", "v", "s"),)
        )
        state.consume_delta(DataFrame({"v": np.array([], dtype=float)}))
        assert state.n_groups == 0

    def test_requires_specs(self):
        with pytest.raises(QueryError):
            GroupedAggregateState(by=("g",), specs=())


# ---------------------------------------------------------------------------
# Property: incremental merge across any partitioning equals one-shot
# aggregation (the Table 2 mergeability law, end-to-end).
# ---------------------------------------------------------------------------

rows = st.lists(
    st.tuples(st.integers(0, 4), st.floats(-50, 50), st.integers(0, 3)),
    min_size=1,
    max_size=80,
)


@given(rows, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_merge_invariance_under_partitioning(data, n_parts):
    ks, vs, cs = zip(*data)
    full = DataFrame(
        {"k": np.array(ks), "v": np.array(vs), "c": np.array(cs)}
    )
    specs = (
        AggSpec("sum", "v", "s"),
        AggSpec("count", None, "n"),
        AggSpec("min", "v", "lo"),
        AggSpec("max", "v", "hi"),
        AggSpec("count_distinct", "c", "d"),
    )
    state = GroupedAggregateState(by=("k",), specs=specs)
    bounds = np.linspace(0, full.n_rows, n_parts + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        state.consume_delta(full.slice(int(lo), int(hi)))
    got = state.state_frame()
    expected = group_aggregate(full, ["k"], list(specs))

    got_by_key = {
        k: (s, n, lo, hi)
        for k, s, n, lo, hi in zip(
            got.column("k").tolist(),
            got.column("__s__sum").tolist(),
            got.column("__n__count").tolist(),
            got.column("__lo__min").tolist(),
            got.column("__hi__max").tolist(),
        )
    }
    distinct = dict(
        zip(got.column("k").tolist(),
            state.distinct_counts(specs[4]).tolist())
    )
    for k, s, n, lo, hi, d in zip(
        expected.column("k").tolist(),
        expected.column("s").tolist(),
        expected.column("n").tolist(),
        expected.column("lo").tolist(),
        expected.column("hi").tolist(),
        expected.column("d").tolist(),
    ):
        gs, gn, glo, ghi = got_by_key[k]
        assert gs == pytest.approx(s, rel=1e-9, abs=1e-6)
        assert gn == n
        assert glo == pytest.approx(lo)
        assert ghi == pytest.approx(hi)
        assert distinct[k] == d
