"""Pushdown-on vs pushdown-off parity over the TPC-H suite.

Projection pushdown only removes columns nothing downstream references,
and partition pruning is semantically a filter whose progress is
preserved via empty partials — so for every query the finals must be
*byte*-identical and the snapshot progress sequences identical.
"""

import pytest

from repro import ExecutionOptions, WakeContext
from repro.tpch.queries import QUERIES

#: Same laptop-scale parameter overrides as test_queries.py.
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 150}}


def assert_frames_byte_identical(got, expected):
    assert tuple(got.column_names) == tuple(expected.column_names)
    assert got.n_rows == expected.n_rows
    for name in expected.column_names:
        assert (got.column(name).tobytes()
                == expected.column(name).tobytes()), (
            f"column {name!r} drifted under pushdown"
        )


def _final(catalog, number, **run_kwargs):
    ctx = WakeContext(catalog)
    query = QUERIES[number]
    overrides = OVERRIDES.get(number, {})
    return ctx.run(
        query.build_plan(ctx, **overrides), capture_all=False,
        **run_kwargs,
    ).get_final()


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_pushdown_final_byte_identical(number, tpch):
    catalog, _tables = tpch
    pushed = _final(catalog, number)
    baseline = _final(catalog, number,
                      options=ExecutionOptions(pushdown=False))
    assert_frames_byte_identical(pushed, baseline)


@pytest.mark.parametrize("number", [1, 3, 6, 12, 14, 19])
def test_pushdown_snapshot_sequences_identical(number, tpch):
    """Progress ``t`` and every captured snapshot frame must not move:
    growth inference sees the exact same evolution under pruning."""
    catalog, _tables = tpch
    query = QUERIES[number]
    overrides = OVERRIDES.get(number, {})
    on_ctx = WakeContext(catalog)
    off_ctx = WakeContext(catalog,
                          options=ExecutionOptions(pushdown=False))
    seq_on = on_ctx.run(query.build_plan(on_ctx, **overrides))
    seq_off = off_ctx.run(query.build_plan(off_ctx, **overrides))
    assert len(seq_on) == len(seq_off)
    for a, b in zip(seq_on.snapshots, seq_off.snapshots):
        assert dict(a.progress.done) == dict(b.progress.done)
        assert a.t == b.t
        assert_frames_byte_identical(a.frame, b.frame)
