"""A cascade of aggregates refreshes every level on every message.  The
state keeps group identity across those refreshes (slots, key frame,
sort order, and — for unchanged keys — the previous snapshot's codes);
none of that may show in the output: the full snapshot sequence must be
byte-identical to a run that rebuilds every level's state from nothing
on every REPLACE message."""

import pytest

from repro import WakeContext
from repro.bench.workloads import build_deep_query, generate_deep_dataset
from repro.core.state import GroupedAggregateState


def rebuild_on_snapshot(self, frame):
    """The pre-persistent refresh: forget everything, re-encode all."""
    version = self.version
    self.__init__(
        self.by, self.specs,
        track_moments=self.track_moments,
        quantile_mode=self.quantile_mode, sketch_size=self.sketch_size,
    )
    self.version = version + 1
    self.consume_delta(frame)


@pytest.fixture(scope="module")
def deep_dataset(tmp_path_factory):
    return generate_deep_dataset(
        tmp_path_factory.mktemp("deep_refresh"), n_rows=6_000,
        n_partitions=12, seed=11,
    )


def snapshot_bytes(dataset, depth):
    ctx = WakeContext(dataset.catalog)
    edf = ctx.run(build_deep_query(ctx, depth))
    return [
        (
            snap.sequence,
            tuple(snap.frame.column_names),
            tuple(
                (str(snap.frame.column(name).dtype),
                 snap.frame.column(name).tobytes())
                for name in snap.frame.column_names
            ),
        )
        for snap in edf.snapshots
    ]


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_deep_chain_sequence_equals_full_rebuild(
    deep_dataset, depth, monkeypatch
):
    kept = snapshot_bytes(deep_dataset, depth)
    monkeypatch.setattr(
        GroupedAggregateState, "consume_snapshot", rebuild_on_snapshot
    )
    rebuilt = snapshot_bytes(deep_dataset, depth)
    assert len(kept) == len(rebuilt) > 1
    assert kept == rebuilt
