"""The server's event loop never waits out a step.

Every partition read here sleeps 300 ms (``testing/faults.py`` slow
reads), so a stepping session spends nearly all its time inside one
step.  Reads (``status``, ``metrics``, ``trace``) must still answer at
once, and so must a third connection's ``status`` while another
connection's ``submit`` / ``cancel`` / ``prune`` waits for the step
boundary: control ops are commands the scheduler applies between
steps, and the event loop only awaits their futures.
"""

import time

import pytest

from repro import F, WakeContext
from repro.api.options import ExecutionOptions
from repro.service import QueryService, ServiceClient, SnapshotServer
from repro.testing.faults import FaultInjector

SLOW_READ_S = 0.3
#: A reply that waited for a step would take up to SLOW_READ_S.
REPLY_BUDGET_S = 0.05


@pytest.fixture
def server(catalog):
    injector = FaultInjector(slow_delay=SLOW_READ_S)
    for index in range(catalog.table("sales").n_partitions):
        injector.plan_fault("sales", index, kind="slow", times=4)
    plans = {"slow": lambda ctx, **p: ctx.table("sales").agg(
        F.sum("qty").alias("s"), by=["cust"])}
    ctx = WakeContext(injector.wrap_catalog(catalog))
    service = QueryService(ctx, plans=plans,
                           options=ExecutionOptions(telemetry=True))
    server = SnapshotServer(service, port=0).start()
    yield server
    server.stop()


def _client(server):
    return ServiceClient(port=server.port, timeout=30)


def _stepping(client) -> str:
    """Submit the slow query and return once its first step is done
    (the loop is then inside the next 300 ms read)."""
    session = client.submit("slow")
    deadline = time.monotonic() + 10
    while client.status(session)["steps"] < 1:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return session


def _timed(client, payload: dict) -> float:
    started = time.perf_counter()
    reply = client._request(payload)
    took = time.perf_counter() - started
    assert reply["ok"], reply
    return took


def test_reads_answer_while_a_session_steps(server):
    with _client(server) as first, _client(server) as second:
        session = _stepping(first)
        for payload in (
            {"op": "status", "session": session},
            {"op": "status"},
            {"op": "metrics"},
            {"op": "trace"},
            {"op": "trace", "session": session},
        ):
            took = _timed(second, payload)
            assert took < REPLY_BUDGET_S, (payload, took)


def test_status_answers_while_a_control_op_waits(server):
    with _client(server) as first, _client(server) as second, \
            _client(server) as third:
        session = _stepping(first)
        replies = []
        for payload in (
            {"op": "submit", "query": "slow"},
            {"op": "cancel", "session": session},
            {"op": "prune"},
        ):
            second._send(payload)
            time.sleep(0.02)  # the op reaches the server and waits
            took = _timed(third, {"op": "status"})
            assert took < REPLY_BUDGET_S, (payload, took)
            replies.append(second._read())
        submitted, cancelled, pruned = replies
        assert submitted["ok"] and submitted["state"] in ("submitted",
                                                          "running")
        assert cancelled["state"] == "cancelled"
        assert pruned["removed"] == [session]
