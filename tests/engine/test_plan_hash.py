"""Canonical plan-hash properties (α-equivalence).

``plan_hash`` must be *equal* for plans that differ only in
presentation that cannot change output bytes — commuted conjuncts,
literal-on-the-left comparisons, aggregate-name synonyms — and
*unequal* whenever the query or its output differs (another literal,
column, aggregate, table, scan source label, or select output order).
The commutation properties are checked with hypothesis over random
conjunct orderings.
"""

from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

#: The catalog fixture is read-only across examples, so reuse is safe.
_FIXTURE_OK = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

from repro import WakeContext, col
from repro.api.functions import F
from repro.engine.graph import QueryGraph
from repro.engine.plan_node import canon_expr, plan_hash


def _graph(frame):
    graph = QueryGraph()
    output = frame.plan.materialize(graph, {}, frame.context.options)
    return graph, output


def _hash(frame):
    return plan_hash(*_graph(frame))


@pytest.fixture
def ctx(catalog):
    return WakeContext(catalog)


#: A pool of distinct conjuncts over the sales schema.
def _conjuncts():
    return [
        col("qty") > 5.0,
        col("qty") < 45.0,
        col("okey") >= 3,
        col("cust") == "c1",
        col("region") != "east",
    ]


# ---------------------------------------------------------------------------
# Equal for α-equivalent plans
# ---------------------------------------------------------------------------

@_FIXTURE_OK
@given(perm=st.permutations(list(range(5))))
def test_hash_invariant_under_conjunct_order(catalog, perm):
    ctx = WakeContext(catalog)
    pool = _conjuncts()
    base = ctx.table("sales").filter(
        reduce(lambda a, b: a & b, pool)
    ).agg(F.count().alias("n"))
    pool2 = _conjuncts()
    shuffled = ctx.table("sales").filter(
        reduce(lambda a, b: a & b, [pool2[i] for i in perm])
    ).agg(F.count().alias("n"))
    assert _hash(base) == _hash(shuffled)


@_FIXTURE_OK
@given(value=st.integers(min_value=-1000, max_value=1000))
def test_hash_flips_literal_side(catalog, value):
    ctx = WakeContext(catalog)
    v = float(value)
    a = ctx.table("sales").filter(col("qty") > v)
    b = ctx.table("sales").filter(v < col("qty"))  # noqa: SIM300
    assert _hash(a) == _hash(b)
    c = ctx.table("sales").filter(col("qty") > (v + 1.0))
    assert _hash(a) != _hash(c)


def test_hash_equal_for_the_same_plan_built_twice(ctx):
    """Scan labels are numbered per plan, so building the same plan
    twice in one context gives it the same labels and the same hash."""
    a = ctx.table("sales").filter(col("qty") > 5.0)
    b = ctx.table("sales").filter(col("qty") > 5.0)
    assert _hash(a) == _hash(b)


def test_hash_distinguishes_source_labels(ctx):
    """Progress is keyed by source label, so a relabelled scan is a
    different result."""
    a = ctx.table("sales", source_name="left").sum("qty")
    b = ctx.table("sales", source_name="right").sum("qty")
    assert _hash(a) != _hash(b)


def test_hash_invariant_under_commuted_operands(ctx):
    a = ctx.table("sales").select(v=col("qty") * col("okey"))
    b = ctx.table("sales").select(v=col("okey") * col("qty"))
    assert _hash(a) == _hash(b)


def test_hash_invariant_under_agg_synonyms(ctx):
    a = ctx.table("sales").agg(F.std("qty").alias("s"), by=["region"])
    b = ctx.table("sales").agg(F.stddev("qty").alias("s"), by=["region"])
    assert _hash(a) == _hash(b)
    c = ctx.table("sales").agg(F.mean("qty").alias("m"), by=["region"])
    d = ctx.table("sales").agg(F.avg("qty").alias("m"), by=["region"])
    assert _hash(c) == _hash(d)


def test_plans_alpha_equal_matches_hash(ctx):
    a = ctx.table("sales").filter((col("qty") > 5.0) & (col("okey") >= 3))
    b = ctx.table("sales").filter((col("okey") >= 3) & (col("qty") > 5.0))
    assert _hash(a) == _hash(b)
    c = ctx.table("sales").filter(col("qty") > 5.0)
    assert _hash(a) != _hash(c)


# ---------------------------------------------------------------------------
# Unequal for semantically different plans
# ---------------------------------------------------------------------------

def test_hash_distinguishes_literals_columns_aggs_tables(ctx):
    hashes = {
        _hash(ctx.table("sales").filter(col("qty") > 5.0)),
        _hash(ctx.table("sales").filter(col("qty") > 6.0)),
        _hash(ctx.table("sales").filter(col("qty") >= 5.0)),
        _hash(ctx.table("sales").filter(col("okey") > 5.0)),
        _hash(ctx.table("customers").filter(col("ckey") == "c1")),
        _hash(ctx.table("sales").agg(F.sum("qty").alias("x"))),
        _hash(ctx.table("sales").agg(F.prod("qty").alias("x"))),
        _hash(ctx.table("sales").agg(F.sem("qty").alias("x"))),
        _hash(ctx.table("sales").agg(F.first("qty").alias("x"))),
        _hash(ctx.table("sales").agg(F.last("qty").alias("x"))),
    }
    assert len(hashes) == 10


def test_hash_distinguishes_group_keys_and_aliases(ctx):
    a = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["region"])
    b = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])
    c = ctx.table("sales").agg(F.sum("qty").alias("total"), by=["region"])
    assert len({_hash(a), _hash(b), _hash(c)}) == 3


def test_hash_respects_select_order(ctx):
    """Select output order is output bytes: the same columns in another
    order are another result, so they must not share a result-cache
    entry."""
    a = ctx.table("sales").select(x=col("qty") * 2.0, y="region")
    b = ctx.table("sales").select(y="region", x=col("qty") * 2.0)
    assert _hash(a) != _hash(b)


def test_hash_respects_join_input_order(ctx):
    """Joins are not symmetric: swapping build/probe sides must hash
    differently (probe-side columns survive with different suffixes)."""
    s = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])
    c = ctx.table("customers")
    a = s.join(c, on=[("cust", "ckey")])
    b = c.join(s, on=[("ckey", "cust")])
    assert _hash(a) != _hash(b)


# ---------------------------------------------------------------------------
# Digest mechanics
# ---------------------------------------------------------------------------

def test_canon_expr_sorts_and_flattens():
    a = canon_expr((col("x") > 1.0) & (col("y") < 2.0) & (col("z") == 3.0))
    b = canon_expr((col("z") == 3.0) & ((col("y") < 2.0) & (col("x") > 1.0)))
    assert a == b
    assert canon_expr(col("x") > 1.0) == canon_expr(1.0 < col("x"))
    assert canon_expr(col("x") > 1.0) != canon_expr(col("x") < 1.0)


def test_hash_is_stable_across_materializations(ctx):
    """Same frame, fresh graphs: node ids differ, hash must not."""
    q = ctx.table("sales").filter(col("qty") > 5.0) \
        .agg(F.sum("qty").alias("s"), by=["region"])
    assert _hash(q) == _hash(q)
