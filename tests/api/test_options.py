"""ExecutionOptions: one validated bundle, two call styles.

The contract under test: every historical WakeContext kwarg keeps
working (same defaults, same error messages), an ``options=`` bundle is
accepted everywhere the kwargs are, and explicit kwargs override the
bundle field-wise through a single validation path.
"""

import pytest

from repro import ExecutionOptions, F, QueryError, WakeContext
from repro.api.options import resolve_options
from repro.core.orderstat import DEFAULT_SKETCH_SIZE


class TestValidation:
    def test_defaults_match_legacy_kwargs(self):
        opts = ExecutionOptions()
        assert opts.pushdown is True
        assert opts.optimize is True
        assert opts.optimizer_disable == frozenset()
        assert opts.validate is True
        assert opts.quantile_mode == "exact"
        assert opts.sketch_size == DEFAULT_SKETCH_SIZE
        assert opts.scan_share is False
        assert opts.result_cache is False

    def test_parallelism_validated(self, catalog):
        """parallelism is no longer an option; each entry point says so."""
        with pytest.raises(TypeError, match="parallelism"):
            ExecutionOptions(parallelism=4)
        with pytest.raises(TypeError, match="parallelism"):
            WakeContext(catalog, parallelism=4)
        with pytest.raises(QueryError, match="unknown execution option"):
            ExecutionOptions().merged(parallelism=4)

    def test_quantile_mode_validated(self):
        with pytest.raises(QueryError, match="unknown quantile_mode"):
            ExecutionOptions(quantile_mode="bogus")

    def test_sketch_size_validated(self):
        with pytest.raises(QueryError, match="sketch_size must be >= 2"):
            ExecutionOptions(sketch_size=1)

    def test_rule_names_validated_eagerly(self):
        with pytest.raises(QueryError, match="unknown optimizer rule"):
            ExecutionOptions(optimizer_disable=("no_such_rule",))

    def test_optimizer_disable_coerced_to_frozenset(self):
        opts = ExecutionOptions(
            optimizer_disable=["predicate-pushdown"]
        )
        assert opts.optimizer_disable == frozenset(
            {"predicate-pushdown"}
        )

    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(Exception):
            opts.pushdown = False  # type: ignore[misc]


class TestMerged:
    def test_none_overrides_are_skipped(self):
        base = ExecutionOptions(sketch_size=64)
        assert base.merged(sketch_size=None) is base

    def test_override_revalidates(self):
        with pytest.raises(QueryError, match="sketch_size must be >= 2"):
            ExecutionOptions().merged(sketch_size=1)

    def test_unknown_key_rejected(self):
        with pytest.raises(QueryError,
                           match="unknown execution option"):
            ExecutionOptions().merged(pushdwon=False)  # typo

    def test_merge_keeps_unrelated_fields(self):
        base = ExecutionOptions(quantile_mode="sketch", sketch_size=32)
        merged = base.merged(pushdown=False)
        assert merged.quantile_mode == "sketch"
        assert merged.sketch_size == 32
        assert merged.pushdown is False

    def test_resolve_options_defaults(self):
        assert resolve_options(None) == ExecutionOptions()
        assert resolve_options(None, sketch_size=32).sketch_size == 32

    def test_cache_fingerprint_covers_result_bytes_knobs(self):
        a = ExecutionOptions(quantile_mode="sketch", sketch_size=64)
        b = ExecutionOptions(quantile_mode="sketch", sketch_size=128)
        assert a.cache_fingerprint() != b.cache_fingerprint()
        # Plan-structure knobs are the plan hash's job, not the
        # fingerprint's.
        c = ExecutionOptions(pushdown=False, optimize=False)
        assert c.cache_fingerprint() == \
            ExecutionOptions().cache_fingerprint()


class TestWakeContextIntegration:
    def test_legacy_kwargs_still_work(self, catalog):
        ctx = WakeContext(catalog, pushdown=False,
                          quantile_mode="sketch", sketch_size=16)
        assert ctx.options.pushdown is False
        assert ctx.options.quantile_mode == "sketch"
        assert ctx.options.sketch_size == 16

    def test_options_bundle(self, catalog):
        opts = ExecutionOptions(pushdown=False, optimize=False)
        ctx = WakeContext(catalog, options=opts)
        assert ctx.options is opts

    def test_kwargs_override_bundle(self, catalog):
        opts = ExecutionOptions(sketch_size=32)
        ctx = WakeContext(catalog, options=opts, sketch_size=64)
        assert ctx.options.sketch_size == 64

    def test_legacy_error_messages_preserved(self, catalog):
        with pytest.raises(QueryError, match="unknown quantile_mode"):
            WakeContext(catalog, quantile_mode="nope")
        with pytest.raises(QueryError, match="sketch_size must be >= 2"):
            WakeContext(catalog, sketch_size=1)

    def test_run_accepts_options(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(
            F.sum("qty").alias("total"), by=["region"]
        )
        baseline = ctx.run(plan)
        ctx2 = WakeContext(catalog)
        plan2 = ctx2.table("sales").agg(
            F.sum("qty").alias("total"), by=["region"]
        )
        via_options = ctx2.run(
            plan2, options=ExecutionOptions(pushdown=False)
        )
        assert (baseline.get_final().column("total").tobytes()
                == via_options.get_final().column("total").tobytes())

    def test_per_run_kwarg_overrides_options(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("t"),
                                      by=["region"])
        # options says pushdown=True; the kwarg wins, so the scan
        # keeps every column.
        ctx.run(plan, options=ExecutionOptions(pushdown=True),
                pushdown=False)
        graph = ctx.last_executor.graph
        scans = [graph.node(nid).operator for nid in graph.source_ids()]
        assert [scan.columns for scan in scans] == [None]

    def test_executor_for_and_explain_accept_options(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("t"))
        executor = ctx.executor_for(
            plan, options=ExecutionOptions(validate=False)
        )
        assert executor.run().is_final
        plan2 = ctx.table("sales").agg(F.sum("qty").alias("t"))
        text = ctx.explain(
            plan2, options=ExecutionOptions(pushdown=False)
        )
        assert "read(" in text
