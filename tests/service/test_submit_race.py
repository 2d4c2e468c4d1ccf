"""Plain (non-paused) wire submits racing the scheduler's first step.

The submit reply carries ``session.status()``, read on the server's
asyncio thread while the scheduler thread may already be stepping the
new session.  The executor therefore has to be complete — plan bound,
output edf created — before the scheduler can see it: a lazily built
sink gave wrong ``final: true`` replies and lost snapshots on a few
percent of concurrent cache-miss submits.
"""

import sys
import threading

import pytest

from repro import F, WakeContext, col
from repro.service import QueryService, ServiceClient, SnapshotServer

N_CLIENTS = 3
SUBMITS_PER_CLIENT = 70  # 210 concurrent cache-miss submits in all


def _plans():
    return {
        "sum_by_cust": lambda ctx, **p: ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["cust"]
        ),
        "filtered": lambda ctx, **p: (
            ctx.table("sales").filter(col("qty") > 20)
            .agg(F.count(None).alias("n"), by=["region"])
        ),
        "joined": lambda ctx, **p: (
            ctx.table("sales")
            .join(ctx.table("customers"), on=[("cust", "ckey")])
            .agg(F.sum("qty").alias("s"), by=["segment"])
        ),
    }


@pytest.fixture
def server(catalog):
    # Result cache off (the default): every submit executes for itself.
    service = QueryService(WakeContext(catalog), plans=_plans())
    server = SnapshotServer(service, port=0).start()
    yield server
    server.stop()


def _sequence(client, session):
    """The subscribed snapshot sequence, minus what legitimately varies
    between runs (session id/name, wall-clock stamps)."""
    return [
        {k: v for k, v in event.items()
         if k not in ("session", "name", "wall_time")}
        for event in client.subscribe(session)
    ]


def test_concurrent_plain_submits_match_solo_runs(server):
    with ServiceClient(port=server.port, timeout=60) as client:
        solo = {
            query: _sequence(client, client.submit(query))
            for query in _plans()
        }
    for query, events in solo.items():
        assert events[-1]["state"] == "done", query
        assert events[-2]["final"] is True, query

    queries = sorted(solo)
    problems: list[str] = []

    def drive(offset: int) -> None:
        try:
            with ServiceClient(port=server.port, timeout=60) as client:
                for i in range(SUBMITS_PER_CLIENT):
                    query = queries[(offset + i) % len(queries)]
                    reply = client._request(
                        {"op": "submit", "query": query}
                    )
                    if reply["final"] and reply["steps"] == 0:
                        problems.append(
                            f"{query}: reply final at steps == 0: {reply}"
                        )
                    got = _sequence(client, reply["session"])
                    if got != solo[query]:
                        problems.append(
                            f"{query} ({reply['session']}): sequence "
                            f"differs from the solo run: {got}"
                        )
        except BaseException as exc:  # noqa: BLE001 - reported below
            problems.append(f"client {offset}: {exc!r}")

    threads = [
        threading.Thread(target=drive, args=(n,), daemon=True)
        for n in range(N_CLIENTS)
    ]
    # A short switch interval makes the wire thread and the scheduler
    # thread interleave inside the submit/first-step window.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not problems, "\n".join(problems[:5])
