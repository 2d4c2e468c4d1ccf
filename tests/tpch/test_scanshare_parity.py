"""Scan sharing + the result cache vs plain execution on TPC-H.

The multi-query optimizations must be invisible in the output: with
scan-share on (solo and four-at-a-time through one shared pool) every
query's snapshot sequence stays byte-identical to ``WakeContext.run()``,
and a result-cache attach replays the primary's snapshots verbatim —
including under seeded transient faults where a quarantined partition
degrades *every* attached subscriber consistently.
"""

import pytest

from repro import ExecutionOptions, WakeContext
from repro.service import (
    AttachedSession,
    FairShareScheduler,
    QueryService,
    RetryPolicy,
    ScanShareManager,
    SessionState,
)
from repro.testing.faults import FaultInjector
from repro.tpch.queries import QUERIES
from tests.tpch.utils import assert_sequences_byte_identical

#: Same laptop-scale parameter overrides as test_queries.py.
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 150}}

#: Four-at-a-time batches covering every query.
BATCHES = [tuple(range(n, min(n + 4, 23))) for n in range(1, 23, 4)]


def _plan(ctx, number):
    query = QUERIES[number]
    return query.build_plan(ctx, **OVERRIDES.get(number, {}))


@pytest.fixture(scope="module")
def baselines(tpch):
    """``WakeContext.run()`` snapshot sequences for all 22 queries,
    no sharing, no cache — one fresh context per query (scan labels
    depend on per-context scan counts)."""
    catalog, _tables = tpch
    out = {}
    for number in sorted(QUERIES):
        ctx = WakeContext(catalog)
        out[number] = ctx.run(_plan(ctx, number))
    return out


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_scan_share_solo_parity(number, tpch, baselines):
    """A lone subscriber routed through the share pool is still
    byte-identical (every fetch takes the manager path)."""
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    scheduler = FairShareScheduler()
    executor = ctx.executor_for(_plan(ctx, number))
    executor.scan_share = ScanShareManager()
    session = scheduler.submit(executor, name=f"q{number:02d}")
    scheduler.run_until_idle()
    assert session.state is SessionState.DONE
    assert_sequences_byte_identical(
        session.executor.edf, baselines[number],
        f"q{number:02d} scan-share solo",
    )


@pytest.mark.parametrize("batch", BATCHES,
                         ids=lambda b: "q" + "-".join(map(str, b)))
def test_scan_share_concurrent_parity(batch, tpch, baselines):
    """Four queries time-sliced over ONE share pool: each sequence is
    byte-identical to its solo run, however the pool interleaves and
    fans out the physical reads."""
    catalog, _tables = tpch
    scheduler = FairShareScheduler()
    manager = ScanShareManager()
    sessions = {}
    for number in batch:
        ctx = WakeContext(catalog)
        executor = ctx.executor_for(_plan(ctx, number))
        executor.scan_share = manager
        sessions[number] = scheduler.submit(
            executor, name=f"q{number:02d}",
            priority=1.0 + 0.5 * (number % 3),  # uneven shares
        )
    scheduler.run_until_idle()
    for number, session in sessions.items():
        assert session.state is SessionState.DONE
        assert_sequences_byte_identical(
            session.executor.edf, baselines[number],
            f"q{number:02d} scan-share concurrent",
        )
    stats = manager.stats()
    assert stats["subscribers"] == 0  # every stream closed its share
    assert stats["entries"] == 0  # refcounts drained the pool


def test_identical_queries_share_most_reads(tpch):
    """8 copies of q06 through one pool: all but the cold-start reads
    are served from the pool (the bench guard enforces the wall-clock
    side of this; here we pin the counter semantics)."""
    catalog, _tables = tpch
    scheduler = FairShareScheduler()
    manager = ScanShareManager()
    sessions = []
    for i in range(8):
        ctx = WakeContext(catalog)
        executor = ctx.executor_for(_plan(ctx, 6))
        executor.scan_share = manager
        sessions.append(scheduler.submit(executor, name=f"copy{i}"))
    scheduler.run_until_idle()
    assert all(s.state is SessionState.DONE for s in sessions)
    stats = manager.stats()
    total_fetches = stats["physical_reads"] + stats["shared_hits"]
    # 8 identical scans: far more fetches served from the pool than
    # paid for physically (lazy subscription costs a few cold reads).
    assert stats["shared_hits"] > stats["physical_reads"]
    assert stats["physical_reads"] < total_fetches / 2
    finals = [s.executor.edf.get_final() for s in sessions]
    for final in finals[1:]:
        for name in finals[0].column_names:
            assert (final.column(name).tobytes()
                    == finals[0].column(name).tobytes())


@pytest.mark.parametrize("number", [1, 6, 12])
def test_result_cache_attach_parity(number, tpch, baselines):
    """Mid-flight duplicates attach and replay byte-identically: one
    execution serves three submits."""
    catalog, _tables = tpch
    ctx = WakeContext(
        catalog,
        options=ExecutionOptions(scan_share=True, result_cache=True),
    )
    service = QueryService(ctx)
    params = OVERRIDES.get(number)
    primary = service.submit(f"q{number:02d}", params=params)
    for _ in range(3):
        service.scheduler.run_once()
    attached = [service.submit(f"q{number:02d}", params=params)
                for _ in range(2)]
    assert all(isinstance(a, AttachedSession) for a in attached)
    while service.scheduler.run_once() is not None:
        pass
    assert primary.state is SessionState.DONE
    assert_sequences_byte_identical(
        primary.executor.edf, baselines[number],
        f"q{number:02d} cache primary",
    )
    for i, session in enumerate(attached):
        assert session.state is SessionState.DONE
        assert_sequences_byte_identical(
            session.buffer.retained(), baselines[number],
            f"q{number:02d} cache attach #{i}",
        )
    assert service.cache_stats()["hits"] == 2


def test_quarantine_degrades_all_attached_consistently(tpch):
    """Satellite 3's fault case: seeded transient faults exhaust the
    retry budget on one lineitem partition; skip-and-degrade
    quarantines it in the primary, and every attached subscriber sees
    the *same* degraded answer and the same degraded report."""
    catalog, _tables = tpch
    injector = FaultInjector(seed=5)
    injector.plan_fault("lineitem", 3, "transient", times=8)
    faulty = injector.wrap_catalog(catalog)
    ctx = WakeContext(
        faulty,
        options=ExecutionOptions(scan_share=True, result_cache=True),
    )
    retry = RetryPolicy(max_attempts=2, backoff_base=0.001,
                        backoff_max=0.002,
                        on_partition_error="skip")
    service = QueryService(ctx, retry=retry)
    primary = service.submit("q06")
    service.scheduler.run_once()
    attached = service.submit("q06")
    assert isinstance(attached, AttachedSession)
    # run_until_idle (not a run_once loop): it waits out the retry
    # backoff a cooling session parks in.
    service.scheduler.run_until_idle()
    assert primary.state is SessionState.DONE
    assert attached.state is SessionState.DONE
    degraded = primary.degraded()
    assert degraded is not None and degraded["rows_lost"] > 0
    assert any(p["table"] == "lineitem" and p["index"] == 3
               for p in degraded["partitions"])
    # Degradation is shared state: both report identically, and the
    # attached replay is the primary's snapshots verbatim.
    assert attached.degraded() == degraded
    assert attached.status()["degraded"] == \
        primary.status()["degraded"]
    got = attached.buffer.retained()
    expected = primary.buffer.retained()
    assert len(got) == len(expected) > 0
    assert all(a is b for a, b in zip(got, expected))
