"""Multi-query serving demo: one process, concurrent TPC-H queries,
shared scans, a plan-hash cache hit, and a mid-flight cancellation.

Launches the NDJSON snapshot server on an ephemeral port, submits three
TPC-H queries at different priorities (plus a duplicate submit that
*attaches* to an in-flight identical session instead of re-executing),
prints their snapshot refinements as they interleave, then cancels one
query mid-flight.  A background thread polls the server's ``metrics``
op once a second and prints a compact steps/s + snapshot-lag dashboard
line while the queries refine.

Run:  python examples/serve_demo.py
"""

import tempfile
import threading

from repro import ExecutionOptions, WakeContext
from repro.service import (
    QueryService,
    ServiceClient,
    SessionHandle,
    SnapshotServer,
)
from repro.tpch import generate_and_load

#: (query, priority): q01 heavy scan, q06 selective filter at double
#: share, q03 a join we will cancel partway through.
SUBMISSIONS = [("q01", 1.0), ("q06", 2.0), ("q03", 1.0)]
CANCEL_QUERY = "q03"
#: Submitted a second time mid-flight: its plan hash matches the live
#: q06 session, so the submit attaches (cache_hit) instead of running.
DUPLICATE_QUERY = "q06"
CANCEL_AFTER_SNAPSHOTS = 2

print_lock = threading.Lock()


def dashboard(port: int, stop: threading.Event) -> None:
    """Poll the ``metrics`` op once a second over a dedicated
    connection (``ServiceClient`` is not thread-safe) and print one
    compact health line per tick."""
    with ServiceClient(port=port, timeout=60) as client:
        previous_steps = 0.0
        while True:
            report = client.metrics()
            steps = report["steps_total"]
            rate = steps - previous_steps
            previous_steps = steps
            lags = [
                s["snapshot_lag_seconds"]
                for s in report["sessions"].values()
                if s["snapshot_lag_seconds"] is not None
            ]
            worst = max(lags) * 1000.0 if lags else 0.0
            with print_lock:
                print(f"  [metrics] {rate:4.0f} steps/s  "
                      f"queue={report['run_queue_depth']}  "
                      f"snapshots={report['snapshots_published_total']:.0f}  "
                      f"worst-lag={worst:5.1f} ms  "
                      f"drops={report['buffer_drops_total']:.0f}")
            if stop.wait(1.0):
                return


def watch(name: str, handle: SessionHandle) -> None:
    """Subscribe to one session's handle and print its refinements
    (``handle.subscribe()`` opens its own connection, so the control
    connection stays free for the mid-flight cancel)."""
    seen = 0
    for event in handle.subscribe(include_frame=False):
        if event["event"] == "end":
            with print_lock:
                print(f"  [{name}] -> {event['state'].upper()}")
            return
        seen += 1
        with print_lock:
            print(f"  [{name}] snapshot {event['sequence']:>2}  "
                  f"t={event['t']:5.2f}  "
                  f"rows={event['n_rows']:>5}  "
                  f"{'FINAL' if event['final'] else ''}")
        if name == CANCEL_QUERY and seen == CANCEL_AFTER_SNAPSHOTS:
            state = handle.cancel()
            with print_lock:
                print(f"  [{name}] ... cancelled mid-flight "
                      f"(state={state})")


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="wake_serve_demo_")
    print(f"Generating TPC-H (SF 0.01) under {workdir} ...")
    catalog, _tables = generate_and_load(
        workdir, scale_factor=0.01, fact_partitions=24
    )

    # Shared scans + the plan-hash result cache + telemetry on for
    # every submit (what `repro serve` defaults to).
    ctx = WakeContext(
        catalog,
        options=ExecutionOptions(scan_share=True, result_cache=True,
                                 telemetry=True),
    )
    server = SnapshotServer(QueryService(ctx), port=0).start()
    print(f"snapshot server listening on 127.0.0.1:{server.port}\n")

    stop_dashboard = threading.Event()
    ticker = threading.Thread(
        target=dashboard, args=(server.port, stop_dashboard),
        daemon=True,
    )
    try:
        with ServiceClient(port=server.port, timeout=60) as control:
            watchers = []
            for query, priority in SUBMISSIONS:
                handle = control.submit(query, priority=priority)
                print(f"submitted {query} as {handle} "
                      f"(priority {priority})")
                watchers.append(threading.Thread(
                    target=watch, args=(query, handle),
                ))
            # An identical submit while the first is in flight: the
            # service attaches it to the running session (replaying the
            # snapshot prefix) instead of executing it again.
            duplicate = control.submit(DUPLICATE_QUERY)
            print(f"submitted {DUPLICATE_QUERY} again as {duplicate}: "
                  f"cache_hit={duplicate.cache_hit} "
                  f"(attached to {duplicate.attached_to})")
            watchers.append(threading.Thread(
                target=watch,
                args=(f"{DUPLICATE_QUERY}', attached", duplicate),
            ))
            print("\ninterleaved snapshot refinements:")
            ticker.start()
            for thread in watchers:
                thread.start()
            for thread in watchers:
                thread.join()
            stop_dashboard.set()
            ticker.join()

            status = control.status()
            print("\nfinal session states:")
            for session in status["sessions"]:
                tag = (" [cache hit]" if session.get("cache_hit")
                       else "")
                print(f"  {session['name']}: {session['state']} "
                      f"(t={session['t']:.2f}, "
                      f"{session['snapshots']} snapshots, "
                      f"{session['steps']} partition-steps){tag}")
            report = control.metrics()
            cache, scans = report["cache"], report["scan_share"]
            print(f"\nresult cache: {cache['hits']} hit(s), "
                  f"{cache['misses']} miss(es); shared scans saved "
                  f"{scans['shared_hits']} of "
                  f"{scans['shared_hits'] + scans['physical_reads']} "
                  f"partition reads")
    finally:
        stop_dashboard.set()
        server.stop()
    print("\nserver stopped.")


if __name__ == "__main__":
    main()
