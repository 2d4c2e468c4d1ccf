"""Unit tests for progress and stream-info properties (paper §4.1)."""

import pytest

from repro.core.properties import Delivery, Progress, StreamInfo
from repro.dataframe import DType, Field, Schema
from repro.errors import ExecutionError


class TestProgress:
    def test_start_and_advance(self):
        p = Progress.start("lineitem", 100)
        assert p.fraction == 0.0
        p = p.advanced("lineitem", 25)
        assert p.fraction == pytest.approx(0.25)
        assert not p.is_complete

    def test_completion(self):
        p = Progress.start("t", 10).advanced("t", 10)
        assert p.fraction == 1.0
        assert p.is_complete

    def test_done_cannot_exceed_total(self):
        with pytest.raises(ExecutionError, match="exceeds total"):
            Progress(done={"t": 11}, total={"t": 10})

    def test_done_requires_total(self):
        with pytest.raises(ExecutionError, match="no total"):
            Progress(done={"t": 1}, total={})

    def test_fraction_is_min_of_incomplete_sources(self):
        p = Progress(
            done={"build": 50, "probe": 10},
            total={"build": 50, "probe": 100},
        )
        # build side complete -> probe drives t
        assert p.fraction == pytest.approx(0.10)

    def test_fraction_all_complete(self):
        p = Progress(done={"a": 5, "b": 3}, total={"a": 5, "b": 3})
        assert p.fraction == 1.0

    def test_fraction_empty(self):
        assert Progress().fraction == 1.0

    def test_merged_takes_max_done(self):
        a = Progress(done={"t": 30}, total={"t": 100})
        b = Progress(done={"t": 50}, total={"t": 100})
        merged = a.merged(b)
        assert merged.done["t"] == 50

    def test_merged_unions_sources(self):
        a = Progress(done={"x": 1}, total={"x": 10})
        b = Progress(done={"y": 2}, total={"y": 20})
        merged = a.merged(b)
        assert set(merged.total) == {"x", "y"}
        assert merged.fraction == pytest.approx(0.1)

    def test_merged_conflicting_totals(self):
        a = Progress(done={"t": 1}, total={"t": 10})
        b = Progress(done={"t": 1}, total={"t": 20})
        with pytest.raises(ExecutionError, match="conflicting totals"):
            a.merged(b)

    def test_immutability(self):
        p = Progress.start("t", 10)
        with pytest.raises(TypeError):
            p.done["t"] = 5  # type: ignore[index]

    def test_repr(self):
        p = Progress.start("t", 10).advanced("t", 5)
        assert "t=0.500" in repr(p)


class TestStreamInfo:
    def schema(self):
        return Schema([Field("okey", DType.INT64),
                       Field("qty", DType.FLOAT64)])

    def test_clustered_on_subset(self):
        info = StreamInfo(self.schema(), clustering_key=("okey",))
        assert info.clustered_on(("okey",))
        assert info.clustered_on(("okey", "qty"))
        assert not info.clustered_on(("qty",))

    def test_unclustered_never_matches(self):
        info = StreamInfo(self.schema())
        assert not info.clustered_on(("okey",))

    def test_default_delivery(self):
        info = StreamInfo(self.schema())
        assert info.delivery == Delivery.DELTA
