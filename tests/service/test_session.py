"""SnapshotBuffer / Subscription / QuerySession unit tests."""

import threading

import pytest

from repro import F, WakeContext
from repro.core.edf import EvolvingDataFrame
from repro.errors import QueryError
from repro.service import (
    QuerySession,
    SessionState,
    SnapshotBuffer,
    Subscription,
)


def _snapshots(ctx_catalog, n=None):
    ctx = WakeContext(ctx_catalog)
    plan = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])
    edf = ctx.run(plan)
    snaps = list(edf.snapshots)
    return snaps if n is None else snaps[:n]


def _edf(snaps):
    edf = EvolvingDataFrame("test")
    for snapshot in snaps:
        edf.append(snapshot)
    return edf


class TestSnapshotBuffer:
    def test_append_then_read_in_order(self, catalog):
        """Snapshots appended to the edf are read in order once
        published."""
        snaps = _snapshots(catalog)
        buffer = SnapshotBuffer(_edf(snaps))
        assert buffer.publish() == len(snaps)
        assert buffer.publish() == 0  # idempotent
        sub = Subscription(buffer)
        got = [sub.next(timeout=0.1) for _ in snaps]
        assert all(a is b for a, b in zip(got, snaps))

    def test_unpublished_snapshots_are_invisible(self, catalog):
        """Readers see published indices only, never what the edf
        gained mid-step."""
        snaps = _snapshots(catalog, 2)
        edf = _edf(snaps[:1])
        buffer = SnapshotBuffer(edf)
        buffer.publish()
        edf.append(snaps[1])
        assert len(buffer) == 1
        assert buffer.retained() == [snaps[0]]
        assert buffer.latest() is snaps[0]
        sub = Subscription(buffer, start=1)
        assert sub.next(timeout=0.01) is None

    def test_read_blocks_until_append(self, catalog):
        snaps = _snapshots(catalog, 1)
        edf = EvolvingDataFrame("test")
        buffer = SnapshotBuffer(edf)
        sub = Subscription(buffer)
        result = []

        def reader():
            result.append(sub.next(timeout=5.0))

        thread = threading.Thread(target=reader)
        thread.start()
        edf.append(snaps[0])
        buffer.publish()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result[0] is snaps[0]

    def test_timeout_returns_none(self):
        sub = Subscription(SnapshotBuffer(EvolvingDataFrame("test")))
        assert sub.next(timeout=0.01) is None
        assert not sub.finished

    def test_close_wakes_waiters_and_finishes(self):
        buffer = SnapshotBuffer(EvolvingDataFrame("test"))
        sub = Subscription(buffer)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(sub.next()))
        thread.start()
        buffer.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result == [None]
        assert sub.finished

    def test_closed_buffer_still_replays(self, catalog):
        snaps = _snapshots(catalog, 2)
        buffer = SnapshotBuffer(_edf(snaps))
        buffer.publish()
        buffer.close()
        sub = Subscription(buffer)
        assert list(sub) == snaps
        assert sub.finished
        assert sub.next(timeout=0.01) is None

    def test_fresh_cursor_is_not_penalized(self, catalog):
        snaps = _snapshots(catalog, 3)
        buffer = SnapshotBuffer(_edf(snaps))
        buffer.publish()
        late = Subscription(buffer, start=len(snaps))
        assert late.next(timeout=0.01) is None  # nothing new yet

    def test_cut_view_ends_without_ending_its_source(self, catalog):
        snaps = _snapshots(catalog, 3)
        edf = _edf(snaps[:1])
        source = SnapshotBuffer(edf)
        source.publish()
        view = source.view()
        waiting = Subscription(view, start=1)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(waiting.next()))
        thread.start()
        view.cut()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result == [None] and waiting.finished
        for snapshot in snaps[1:]:
            edf.append(snapshot)
        source.publish()
        assert view.retained() == snaps[:1]
        assert source.retained() == snaps
        assert not source.closed


class TestQuerySession:
    def _session(self, catalog, **kwargs):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                      by=["cust"])
        return QuerySession("s1", "sum", ctx.executor_for(plan),
                            **kwargs)

    def test_initial_state(self, catalog):
        session = self._session(catalog)
        assert session.state is SessionState.SUBMITTED
        assert not session.terminal
        status = session.status()
        assert status["state"] == "submitted"
        assert status["snapshots"] == 0

    def test_pump_moves_new_snapshots_only(self, catalog):
        """Publishing moves no snapshot: the buffer reads the
        executor's own edf."""
        session = self._session(catalog)
        while session.executor.step():
            session.buffer.publish()
        assert session.buffer.publish() == 0
        edf = session.executor.edf
        retained = session.buffer.retained()
        assert len(retained) == len(edf) == len(session.buffer) > 0
        assert all(retained[i] is edf.snapshot(i)
                   for i in range(len(edf)))

    def test_status_reports_progress(self, catalog):
        session = self._session(catalog)
        while session.executor.step():
            pass
        session.buffer.publish()
        status = session.status()
        assert status["t"] == 1.0
        assert status["final"] is True

    def test_bad_priority_rejected(self, catalog):
        with pytest.raises(QueryError):
            self._session(catalog, priority=0)

    def test_late_subscriber_replays_everything(self, catalog):
        """``finish`` publishes what the edf holds and seals it."""
        session = self._session(catalog)
        while session.executor.step():
            pass
        session.finish(SessionState.DONE)
        replayed = list(session.subscribe())
        assert [s.sequence for s in replayed] == list(
            range(len(session.executor.edf)))
        assert session.subscribe().error is None
