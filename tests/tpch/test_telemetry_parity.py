"""Telemetry on vs off on TPC-H: byte-identical snapshot sequences.

Observability is observe-only: attaching the full instrumentation
bundle (metrics registry + tracer + scan instruments + per-step
timing) to a scheduled execution must leave every query's snapshot
sequence byte-identical to a bare ``WakeContext.run()`` — solo and
four-at-a-time through one scheduler.
"""

import pytest

from repro import WakeContext
from repro.obs import MetricsRegistry, ServiceInstruments, Tracer
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


def _instrumented_bundle():
    registry = MetricsRegistry()
    instruments = ServiceInstruments(registry)
    tracer = Tracer(clock=registry.clock)
    return registry, instruments, tracer


@pytest.fixture(scope="module")
def baselines(tpch):
    """Bare ``WakeContext.run()`` sequences, no telemetry anywhere."""
    catalog, _tables = tpch
    out = {}
    for number in sorted(QUERIES):
        ctx = WakeContext(catalog)
        out[number] = ctx.run(_plan(ctx, number))
    return out


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_telemetry_solo_parity(number, tpch, baselines):
    """Fully instrumented scheduled execution is byte-identical to the
    bare run, and the step counter saw every step."""
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    _registry, instruments, tracer = _instrumented_bundle()
    scheduler = FairShareScheduler(metrics=instruments)
    trace = tracer.begin(f"q{number:02d}")
    executor = ctx.executor_for(_plan(ctx, number), trace=trace)
    executor.scan_metrics = instruments.scan
    session = scheduler.submit(executor, name=f"q{number:02d}",
                               trace=trace)
    scheduler.run_until_idle()
    assert session.state is SessionState.DONE
    assert_sequences_byte_identical(
        session.executor.edf, baselines[number],
        f"q{number:02d} telemetry solo",
    )
    assert instruments.scheduler.steps.value == session.steps
    assert trace.steps_total == session.steps


@pytest.mark.parametrize("batch", BATCHES,
                         ids=lambda b: "q" + "-".join(map(str, b)))
def test_telemetry_concurrent_parity(batch, tpch, baselines):
    """Four queries time-sliced through ONE instrumented scheduler:
    every sequence stays byte-identical to its bare solo run."""
    catalog, _tables = tpch
    _registry, instruments, tracer = _instrumented_bundle()
    scheduler = FairShareScheduler(metrics=instruments)
    sessions = {}
    for number in batch:
        ctx = WakeContext(catalog)
        trace = tracer.begin(f"q{number:02d}")
        executor = ctx.executor_for(_plan(ctx, number), trace=trace)
        executor.scan_metrics = instruments.scan
        sessions[number] = scheduler.submit(
            executor, name=f"q{number:02d}",
            priority=1.0 + 0.5 * (number % 3),  # uneven shares
            trace=trace,
        )
    scheduler.run_until_idle()
    total_steps = 0
    for number, session in sessions.items():
        assert session.state is SessionState.DONE
        total_steps += session.steps
        assert_sequences_byte_identical(
            session.executor.edf, baselines[number],
            f"q{number:02d} telemetry concurrent",
        )
    assert instruments.scheduler.steps.value == total_steps
