"""Digest every snapshot sequence, to show a change is byte-identical.

One sha256 per sequence, over each snapshot's sequence number, progress
(done and total per source) and column names, dtypes and bytes:

* all 22 TPC-H queries, named ``tpch/qNN/k1`` so they match the
  digests of trees that also ran a ``k4`` arm,
* the §8.6 deep chain at depths 0-8, named ``deep/depthN``,
* the 22 TPC-H queries again under a ``CIConfig`` session, named
  ``ci/tpch/qNN``, so every σ column is digested too,
* one ``agg`` over ``lineitem`` carrying all 14 aggregates (quantile
  q = 0.9), named ``aggs/<shape>/<quantile_mode>/<ci|noci>``: grouped by
  ``l_suppkey`` (shuffle mode), global, and ``level2`` — a second level
  over the REPLACE output of a first, grouped one — each with exact and
  sketch (64-value reservoir) order statistics, with CI off and on,

each twice: with ``capture_all=True`` (every snapshot) and, under the
same name plus ``/ff``, with ``capture_all=False`` (the first estimate
and the final), the run that builds only the versions a reader sees.

Inputs are the repo benchmark's full preset (TPC-H SF 0.1 with 32 fact
partitions; a 1 M-row, 128-partition deep table), seed 42.  Run it on
two trees and compare::

    python benchmarks/sequence_digest.py --json before.json
    python benchmarks/sequence_digest.py --against before.json

It imports ``repro`` from the ``src/`` beside it, so a copy in another
checkout digests that checkout.  ``--against`` prints every sequence
whose digest differs or is missing and exits 1 if there is one.  Not a
pytest module: nothing collects it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import F, WakeContext  # noqa: E402
from repro.api.functions import AggExpr  # noqa: E402
from repro.api.options import ExecutionOptions  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    build_deep_query,
    generate_deep_dataset,
)
from repro.core.ci import CIConfig  # noqa: E402
from repro.dataframe.groupby import AGG_FUNCTIONS  # noqa: E402
from repro.tpch import generate_and_load  # noqa: E402
from repro.tpch.queries import QUERIES  # noqa: E402

SEED = 42
SCALE_FACTOR = 0.1
FACT_PARTITIONS = 32
DEEP_ROWS = 1_000_000
DEEP_PARTITIONS = 128
DEEP_DEPTHS = range(9)
QUANTILE = 0.9
#: Reservoir size of the sketch arm: below every group's row count, so
#: the sketch samples rather than holding each group whole.
SKETCH_SIZE = 64


def digest(edf) -> str:
    """sha256 over a snapshot sequence."""
    h = hashlib.sha256()
    for snapshot in edf.snapshots:
        progress = snapshot.progress
        h.update(repr((snapshot.sequence, sorted(progress.done.items()),
                       sorted(progress.total.items()))).encode())
        frame = snapshot.frame
        for name in frame.column_names:
            column = frame.column(name)
            h.update(f"{name}:{column.dtype.str}".encode())
            h.update(column.tobytes())
    return h.hexdigest()


def tpch_digests(workdir: Path) -> dict[str, str]:
    catalog, _tables = generate_and_load(
        workdir / "tpch", scale_factor=SCALE_FACTOR, seed=SEED,
        fact_partitions=FACT_PARTITIONS, dimension_partitions=2,
    )
    # The repo benchmark's overrides: q11 takes the spec's 0.0001 / SF
    # (a fixed fraction selects nothing at SF 0.1), q18 a lower bar.
    overrides = {11: {"fraction": 0.0001 / SCALE_FACTOR},
                 18: {"threshold": 200}}
    out = {}
    for prefix, suffix, ci in (("", "/k1", None), ("ci/", "", CIConfig())):
        ctx = WakeContext(catalog, ci=ci)
        out.update(both_arms(ctx, {
            f"{prefix}tpch/q{number:02d}{suffix}": (
                lambda ctx=ctx, number=number: QUERIES[number].build_plan(
                    ctx, **overrides.get(number, {}))
            )
            for number in sorted(QUERIES)
        }))
    return {**out, **aggregate_digests(catalog)}


def every_aggregate(column: str) -> list[AggExpr]:
    return [AggExpr(name, column,
                    param=QUANTILE if name == "quantile" else None)
            for name in AGG_FUNCTIONS]


def aggregate_digests(catalog) -> dict[str, str]:
    """All 14 aggregates in three shapes, each under both quantile
    modes and with CI off and on."""
    ctx = WakeContext(catalog)
    shapes = {
        "grouped": lambda ci: ctx.table("lineitem").agg(
            *every_aggregate("l_quantity"), by=["l_suppkey"], ci=ci),
        "global": lambda ci: ctx.table("lineitem").agg(
            *every_aggregate("l_quantity"), ci=ci),
        "level2": lambda ci: ctx.table("lineitem").agg(
            F.sum("l_quantity").alias("qty"),
            by=["l_suppkey", "l_linestatus"], ci=False,
        ).agg(*every_aggregate("qty"), by=["l_linestatus"], ci=ci),
    }
    out = {}
    for shape, build in shapes.items():
        for mode in ("exact", "sketch"):
            options = ExecutionOptions(quantile_mode=mode,
                                       sketch_size=SKETCH_SIZE)
            for label, ci in (("noci", False), ("ci", True)):
                out.update(both_arms(
                    ctx, {f"aggs/{shape}/{mode}/{label}":
                          lambda build=build, ci=ci: build(ci)},
                    options=options,
                ))
    return out


def deep_digests(workdir: Path) -> dict[str, str]:
    dataset = generate_deep_dataset(
        workdir / "deep", n_rows=DEEP_ROWS, n_partitions=DEEP_PARTITIONS,
        seed=SEED,
    )
    ctx = WakeContext(dataset.catalog)
    return both_arms(ctx, {
        f"deep/depth{depth}": (
            lambda depth=depth: build_deep_query(ctx, depth)
        )
        for depth in DEEP_DEPTHS
    })


def both_arms(ctx, builds: dict, options=None) -> dict[str, str]:
    """Digest every plan run with ``capture_all=True`` (under its name)
    and with ``capture_all=False`` (under its name plus ``/ff``)."""
    out = {}
    for base, build in builds.items():
        for name, capture_all in ((base, True), (base + "/ff", False)):
            out[name] = digest(ctx.run(build(), capture_all=capture_all,
                                       options=options))
            print(out[name], name, flush=True)
    return out


def compare(got: dict[str, str], expected: dict[str, str]) -> int:
    """Print every sequence whose digest differs from (or is absent
    in) ``expected``; the number of them."""
    bad = [name for name in sorted(got) if got[name] != expected.get(name)]
    for name in bad:
        print(f"DIFFERS {name}: {expected.get(name)} -> {got[name]}")
    print(f"{len(got) - len(bad)} of {len(got)} sequences identical")
    return len(bad)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where generated data goes (default: a "
                             "temporary directory, removed at exit)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write {sequence: sha256} here")
    parser.add_argument("--against", type=Path, default=None,
                        help="a --json file of another run to diff with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        digests = {**tpch_digests(Path(tmp)), **deep_digests(Path(tmp))}
    if args.json is not None:
        args.json.write_text(json.dumps(digests, indent=1, sort_keys=True))
    if args.against is None:
        return 0
    return 1 if compare(digests, json.loads(args.against.read_text())) else 0


if __name__ == "__main__":
    sys.exit(main())
