"""Sharded vs unsharded parity on the TPC-H suite.

The shard rewrite masks rows — it never re-batches them — so every
per-shard accumulation sequence is bit-identical to the unsharded
operator's and the union's key-sorted concat of exact finals must be
*byte*-identical to the unsharded final, for every query.
"""

import pytest
from repro.tpch.queries import QUERIES

#: Same laptop-scale parameter overrides as test_queries.py.
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 150}}


def assert_frames_byte_identical(got, expected):
    assert tuple(got.column_names) == tuple(expected.column_names)
    assert got.n_rows == expected.n_rows
    for name in expected.column_names:
        assert (got.column(name).tobytes()
                == expected.column(name).tobytes()), (
            f"column {name!r} drifted under sharding"
        )


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_sharded_final_byte_identical(number, tpch_ctx):
    query = QUERIES[number]
    overrides = OVERRIDES.get(number, {})
    base = tpch_ctx.run(
        query.build_plan(tpch_ctx, **overrides), capture_all=False
    ).get_final()
    sharded = tpch_ctx.run(
        query.build_plan(tpch_ctx, **overrides), capture_all=False,
        parallelism=4,
    ).get_final()
    assert_frames_byte_identical(sharded, base)


@pytest.mark.parametrize("number", [1, 10, 16])
def test_parallelism_one_keeps_snapshot_sequence(number, tpch_ctx):
    """The default (and explicit parallelism=1) must not perturb plans:
    snapshot sequences are byte-identical to the unsharded engine."""
    query = QUERIES[number]
    plan = query.build_plan(tpch_ctx)
    base = tpch_ctx.run(plan)
    explicit = tpch_ctx.run(plan, parallelism=1)
    assert len(base) == len(explicit)
    for a, b in zip(base.snapshots, explicit.snapshots):
        assert a.sequence == b.sequence
        assert a.progress.done == b.progress.done
        assert_frames_byte_identical(b.frame, a.frame)
