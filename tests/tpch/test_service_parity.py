"""Scheduler-driven execution vs ``WakeContext.run()`` on TPC-H.

The StepExecutor's contract is that a query's dispatch order is a
function of its own plan only — however its partition-steps are
interleaved with other queries', every snapshot sequence must be
*byte*-identical to the run-to-completion sync engine's.  These tests
drive every TPC-H query through the fair-share scheduler alone and
four-at-a-time and compare full snapshot sequences (hence also finals)
against ``WakeContext.run()``.
"""

import pytest

from repro import WakeContext
from repro.service import FairShareScheduler, SessionState
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
    """``WakeContext.run()`` snapshot sequences for all 22 queries.

    One fresh context per query: scan labels (progress-counter keys)
    depend on how many times a context has scanned each table, so
    plans must be built the same way on both sides of the comparison.
    """
    catalog, _tables = tpch
    out = {}
    for number in sorted(QUERIES):
        ctx = WakeContext(catalog)
        out[number] = ctx.run(_plan(ctx, number))
    return out


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_scheduler_solo_parity(number, tpch, baselines):
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    scheduler = FairShareScheduler()
    session = scheduler.submit(
        ctx.executor_for(_plan(ctx, number)), name=f"q{number:02d}"
    )
    scheduler.run_until_idle()
    assert session.state is SessionState.DONE
    assert_sequences_byte_identical(
        session.executor.edf, baselines[number], f"q{number:02d} solo"
    )


@pytest.mark.parametrize("batch", BATCHES,
                         ids=lambda b: "q" + "-".join(map(str, b)))
def test_scheduler_concurrent_parity(batch, tpch, baselines):
    """Four queries time-sliced through one scheduler each still match
    their solo ``run()`` snapshot-for-snapshot."""
    catalog, _tables = tpch
    scheduler = FairShareScheduler()
    sessions = {}
    for number in batch:
        ctx = WakeContext(catalog)
        sessions[number] = scheduler.submit(
            ctx.executor_for(_plan(ctx, number)),
            name=f"q{number:02d}",
            priority=1.0 + 0.5 * (number % 3),  # uneven shares
        )
    scheduler.run_until_idle()
    for number, session in sessions.items():
        assert session.state is SessionState.DONE
        assert_sequences_byte_identical(
            session.executor.edf, baselines[number],
            f"q{number:02d} concurrent",
        )
