"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — run dbgen and write a partitioned TPC-H catalog;
* ``run``      — execute one of the 22 TPC-H queries over a catalog,
  printing each OLA snapshot's progress/accuracy and the final frame;
* ``explain``  — print a query's physical plan (node types, deliveries,
  clustering, schemas, scan pushdowns);
* ``profile``  — execute a query with the per-operator profiler
  attached and print the time/rows breakdown per operator;
* ``stats``    — backfill per-partition zone-map statistics into an
  existing catalog so predicate pushdown can prune partitions;
* ``serve``    — run the multi-query snapshot-streaming server (NDJSON
  over TCP: submit/subscribe/status/pause/resume/cancel, plus the
  ``metrics``/``trace`` observability ops and ``GET /metrics``);
* ``lint``     — run the AST-based invariant linter over source trees
  (exit 1 on findings; ``--format json`` for machine-readable output).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import ExecutionOptions, WakeContext
from repro.bench.report import format_table
from repro.errors import QueryError
from repro.storage import Catalog, add_catalog_stats
from repro.tpch import generate_and_load
from repro.tpch.queries import QUERIES


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a TPC-H catalog")
    p.add_argument("directory", type=Path)
    p.add_argument("--scale-factor", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fact-partitions", type=int, default=16)
    p.add_argument("--format", choices=("npz", "csv"), default="npz")


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run a TPC-H query with OLA output")
    p.add_argument("catalog", type=Path,
                   help="catalog.json written by `generate`")
    p.add_argument("query", type=int, choices=sorted(QUERIES),
                   metavar="QUERY", help="TPC-H query number (1-22)")
    p.add_argument("--rows", type=int, default=5,
                   help="result rows to print")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="query parameter override (repeatable)")
    p.add_argument("--no-pushdown", action="store_true",
                   help="disable scan pushdown (projection + zone-map "
                        "partition pruning)")
    p.add_argument("--no-optimize", action="store_true",
                   help="disable every plan-rewrite rule (the plan runs "
                        "exactly as written)")
    p.add_argument("--disable-rule", action="append", default=[],
                   metavar="RULE",
                   help="disable one optimizer rule by name "
                        "(repeatable; see repro.engine.RULE_NAMES)")


def _add_explain(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("explain", help="print a query's physical plan")
    p.add_argument("catalog", type=Path)
    p.add_argument("query", type=int, choices=sorted(QUERIES),
                   metavar="QUERY")
    p.add_argument("--types", action="store_true",
                   help="show each node's statically inferred output "
                        "schema instead of the physical plan")
    p.add_argument("--no-pushdown", action="store_true",
                   help="show the plan without scan pushdown")
    p.add_argument("--no-optimize", action="store_true",
                   help="show the plan with every rewrite rule off")
    p.add_argument("--disable-rule", action="append", default=[],
                   metavar="RULE",
                   help="disable one optimizer rule by name "
                        "(repeatable)")


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "profile",
        help="execute a query with the per-operator profiler and "
             "print the time/rows breakdown",
    )
    p.add_argument("catalog", type=Path,
                   help="catalog.json written by `generate`")
    p.add_argument("query", type=int, choices=sorted(QUERIES),
                   metavar="QUERY", help="TPC-H query number (1-22)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="query parameter override (repeatable)")
    p.add_argument("--no-pushdown", action="store_true",
                   help="profile without scan pushdown")


def _add_stats(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "stats",
        help="backfill zone-map stats into an existing catalog "
             "(enables partition pruning on legacy catalogs)",
    )
    p.add_argument("catalog", type=Path,
                   help="catalog.json to rewrite in place")
    p.add_argument("--force", action="store_true",
                   help="recompute stats even for tables that have them")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="serve concurrent OLA queries over NDJSON/TCP "
             "(submit/subscribe/status/pause/resume/cancel)",
    )
    p.add_argument("catalog", type=Path,
                   help="catalog.json written by `generate`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--no-pushdown", action="store_true",
                   help="disable scan pushdown for submitted queries")
    p.add_argument("--no-scan-share", action="store_true",
                   help="disable shared scans (by default concurrent "
                        "queries over the same table share one "
                        "physical read per partition)")
    p.add_argument("--metrics", dest="metrics", action="store_true",
                   default=True,
                   help="enable the telemetry surface: the "
                        "metrics/trace wire ops, Prometheus text via "
                        "GET /metrics, and per-session tracing "
                        "(default: on)")
    p.add_argument("--no-metrics", dest="metrics", action="store_false",
                   help="disable telemetry (the metrics op then "
                        "reports only the always-on counters)")
    p.add_argument("--no-result-cache", action="store_true",
                   help="disable the plan-hash result cache (by "
                        "default a submit identical to an in-flight "
                        "or retained session attaches to it instead "
                        "of re-executing)")
    p.add_argument("--retry-max-attempts", type=int, default=3,
                   help="tries per partition before giving up "
                        "(1 = fail fast on the first transient error)")
    p.add_argument("--retry-backoff", type=float, default=0.05,
                   help="seconds before the first retry (doubled per "
                        "attempt, deterministic, no jitter)")
    p.add_argument("--retry-backoff-max", type=float, default=1.0,
                   help="cap on the per-retry backoff in seconds")
    p.add_argument("--retry-budget", type=int, default=64,
                   help="total retries one session may consume")
    p.add_argument("--on-partition-error", choices=("fail", "skip"),
                   default="fail",
                   help="after retries are exhausted: fail the session "
                        "(default) or skip the partition and keep "
                        "refining a degraded answer")


def _add_lint(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "lint",
        help="run the AST-based invariant linter "
             "(history-concat, lock-sleep, bare-bench-assert, "
             "unseeded-random, local-import, metric-hot-lookup, "
             "row-loop, engine-threading)",
    )
    p.add_argument("paths", type=Path, nargs="*",
                   help="files or directories to lint (default: "
                        "src/ and benchmarks/ under the cwd when "
                        "they exist, else the cwd)")
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="output format (json includes every finding "
                        "plus a count, for CI artifacts)")


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}; expected NAME=VALUE")
        name, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[name] = value
    return overrides


def _options(args: argparse.Namespace) -> ExecutionOptions:
    """The :class:`ExecutionOptions` a command's flags ask for.  A flag
    the command does not define keeps the library default, except the
    multi-query switches, which ``serve`` turns on unless told not to
    (a serve deployment is exactly the concurrent-duplicate workload
    they exist for)."""
    serving = args.command == "serve"
    return ExecutionOptions(
        pushdown=not args.no_pushdown,
        optimize=not getattr(args, "no_optimize", False),
        optimizer_disable=getattr(args, "disable_rule", ()),
        scan_share=serving and not args.no_scan_share,
        result_cache=serving and not args.no_result_cache,
        telemetry=serving and args.metrics,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    catalog, tables = generate_and_load(
        args.directory,
        scale_factor=args.scale_factor,
        seed=args.seed,
        fact_partitions=args.fact_partitions,
        fmt=args.format,
    )
    rows = [[name, tables[name].n_rows,
             catalog.table(name).n_partitions]
            for name in sorted(catalog.names())]
    print(format_table(["table", "rows", "partitions"], rows))
    print(f"\ncatalog written to {args.directory}/catalog.json")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    ctx = WakeContext.from_catalog(args.catalog, options=_options(args))
    query = QUERIES[args.query]
    overrides = _parse_overrides(args.param)
    plan = query.build_plan(ctx, **overrides)
    print(f"running {query.name} ({query.category}) ...")
    edf = ctx.run(plan)
    summary = [
        [s.sequence, f"{s.t:.3f}", f"{s.wall_time:.3f}",
         s.rows_processed, s.frame.n_rows]
        for s in edf.snapshots
    ]
    print(format_table(
        ["snapshot", "t", "wall(s)", "rows-read", "result-rows"],
        summary,
    ))
    final = edf.get_final()
    print(f"\nfinal answer ({final.n_rows} rows, first {args.rows}):")
    print(repr(final.head(args.rows)))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    ctx = WakeContext.from_catalog(args.catalog, options=_options(args))
    query = QUERIES[args.query]
    print(ctx.explain(query.build_plan(ctx),
                      mode="types" if args.types else "plan"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    ctx = WakeContext.from_catalog(args.catalog, options=_options(args))
    query = QUERIES[args.query]
    overrides = _parse_overrides(args.param)
    plan = query.build_plan(ctx, **overrides)
    print(f"profiling {query.name} ({query.category}) ...")
    print(ctx.explain(plan, mode="profile"))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import render_json, render_text, run_lint

    paths = list(args.paths)
    if not paths:
        paths = [p for p in (Path("src"), Path("benchmarks"))
                 if p.exists()]
        if not paths:
            paths = [Path(".")]
    findings = run_lint(paths)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def cmd_stats(args: argparse.Namespace) -> int:
    catalog = Catalog.load(args.catalog)
    updated = add_catalog_stats(catalog, force=args.force)
    catalog.save(args.catalog)
    rows = [
        [name, catalog.table(name).n_partitions,
         "updated" if name in updated else "kept"]
        for name in sorted(catalog.names())
    ]
    print(format_table(["table", "partitions", "stats"], rows))
    print(f"\ncatalog rewritten: {args.catalog}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import QueryService, RetryPolicy, SnapshotServer

    ctx = WakeContext.from_catalog(args.catalog, options=_options(args))
    retry = RetryPolicy(
        max_attempts=args.retry_max_attempts,
        backoff_base=args.retry_backoff,
        backoff_max=args.retry_backoff_max,
        retry_budget=args.retry_budget,
        on_partition_error=args.on_partition_error,
    )
    service = QueryService(ctx, retry=retry)
    server = SnapshotServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        task = asyncio.ensure_future(server.serve())
        # With --port 0 the bound port is only known once listening;
        # a failed bind must surface instead of spinning forever.
        while not server.port and not task.done():
            await asyncio.sleep(0.01)
        if not task.done():
            print(f"serving {len(service.plans)} registered plan "
                  f"names on {server.host}:{server.port} "
                  f"(Ctrl-C to stop)", flush=True)
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deep Online Aggregation (Wake, SIGMOD 2023) "
                    "reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_run(sub)
    _add_explain(sub)
    _add_profile(sub)
    _add_stats(sub)
    _add_serve(sub)
    _add_lint(sub)
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "explain": cmd_explain,
        "profile": cmd_profile,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "lint": cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except QueryError as exc:
        # Bad user input (an unknown --param, a malformed plan): one
        # line and the usage-error status, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
