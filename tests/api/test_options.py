"""ExecutionOptions: one validated bundle, one call style.

The contract under test: ``options=`` is the only way to tune a run.
The bundle validates every field once (booleans must be ``bool``), is
accepted by every entry point, and no entry point takes a loose
keyword named after one of its fields.
"""

import inspect
from dataclasses import fields

import pytest

from repro import ExecutionOptions, F, QueryError, WakeContext
from repro.core.orderstat import DEFAULT_SKETCH_SIZE
from repro.service import AttachedSession, QueryService, QuerySession


class TestValidation:
    def test_defaults_match_legacy_kwargs(self):
        opts = ExecutionOptions()
        assert opts.pushdown is True
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

    @pytest.mark.parametrize("name", [
        "pushdown", "validate", "scan_share",
        "result_cache", "telemetry",
    ])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_bool_fields_reject_non_booleans(self, name, value):
        with pytest.raises(QueryError, match=f"{name} must be a boolean"):
            ExecutionOptions(**{name: value})

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

    def test_override_type_checked(self):
        with pytest.raises(QueryError, match="pushdown must be a boolean"):
            ExecutionOptions().merged(pushdown="false")



#: The one loose keyword left beside ``options=``: the frozen
#: end-to-end benchmark passes ``executor_for(pushdown=False)``, and
#: ROADMAP item 6(a) removes it with the next benchmark change.
ALLOWED = {("WakeContext.executor_for", "pushdown")}


class TestOneOptionsPath:
    ENTRY_POINTS = {
        "WakeContext.__init__": WakeContext.__init__,
        "WakeContext.run": WakeContext.run,
        "WakeContext.stream": WakeContext.stream,
        "WakeContext.explain": WakeContext.explain,
        "WakeContext.executor_for": WakeContext.executor_for,
        "QueryService.__init__": QueryService.__init__,
        "QueryService.submit": QueryService.submit,
    }

    def test_no_parameter_shadows_an_option(self):
        option_names = {f.name for f in fields(ExecutionOptions)}
        shadows = sorted(
            (where, name)
            for where, fn in self.ENTRY_POINTS.items()
            for name in inspect.signature(fn).parameters
            if name in option_names and (where, name) not in ALLOWED
        )
        assert shadows == []

    def test_every_entry_point_takes_options(self):
        for where, fn in self.ENTRY_POINTS.items():
            assert "options" in inspect.signature(fn).parameters, where

    def test_legacy_kwargs_rejected(self, catalog):
        with pytest.raises(TypeError, match="pushdown"):
            WakeContext(catalog, pushdown=False)
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("t"))
        with pytest.raises(TypeError, match="optimize"):
            ctx.run(plan, optimize=False)


class TestWakeContextIntegration:
    def test_default_options(self, catalog):
        assert WakeContext(catalog).options == ExecutionOptions()

    def test_options_bundle(self, catalog):
        opts = ExecutionOptions(pushdown=False, validate=False)
        ctx = WakeContext(catalog, options=opts)
        assert ctx.options is opts

    def test_kwargs_override_bundle(self, catalog):
        """``executor_for(pushdown=)`` — the one keyword left, see
        :data:`ALLOWED` — overrides the bundle's setting."""
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("t"),
                                      by=["region"])
        executor = ctx.executor_for(
            plan, options=ExecutionOptions(pushdown=True), pushdown=False
        )
        graph = executor.graph
        scans = [graph.node(nid).operator for nid in graph.source_ids()]
        assert [scan.columns for scan in scans] == [None]
        executor.close()

    def test_legacy_error_messages_preserved(self, catalog):
        with pytest.raises(QueryError, match="unknown quantile_mode"):
            WakeContext(catalog,
                        options=ExecutionOptions(quantile_mode="nope"))
        with pytest.raises(QueryError, match="sketch_size must be >= 2"):
            WakeContext(catalog, options=ExecutionOptions(sketch_size=1))

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
        # The session says pushdown=True; the run's ``options=``
        # replaces it, so the scan keeps every column.
        ctx.run(plan, options=ctx.options.merged(pushdown=False))
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

    def test_plan_hash_covers_result_bytes_knobs(self, catalog):
        """The plan hash is the whole result-cache key: the quantile
        knobs change it, the observational ones do not."""
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").median("qty", by=["region"])

        def digest(**overrides):
            executor = ctx.executor_for(
                plan, options=ExecutionOptions(**overrides))
            executor.close()
            return executor.plan_hash

        exact = digest()
        assert digest(quantile_mode="sketch", sketch_size=64) != exact
        assert (digest(quantile_mode="sketch", sketch_size=64)
                != digest(quantile_mode="sketch", sketch_size=128))
        assert digest(scan_share=True, result_cache=True,
                      telemetry=True, validate=False) == exact


#: Two values per group: far from exact on 30 rows a group.
SKETCH = ExecutionOptions(quantile_mode="sketch", sketch_size=2)


def medians(catalog, session=None, per_call=None):
    """Every snapshot of a grouped median, as bytes, plus its plan
    hash; ``session`` tunes the context, ``per_call`` the run."""
    ctx = WakeContext(catalog, options=session)
    edf = ctx.run(ctx.table("sales").median("qty", by=["region"]),
                  options=per_call)
    return ([s.frame.column("median_qty").tobytes()
             for s in edf.snapshots], ctx.last_executor.plan_hash)


class TestPerCallOptions:
    def test_per_call_quantile_options_take_effect(self, catalog):
        """A run's ``options=`` reaches the aggregate: same bytes and
        hash as a context built with them, unlike the exact run's."""
        per_call = medians(catalog, per_call=SKETCH)
        assert per_call == medians(catalog, session=SKETCH)
        exact = medians(catalog)
        assert per_call[0] != exact[0]
        assert per_call[1] != exact[1]

    def test_per_submit_quantile_options_take_effect(self, catalog):
        """The same through ``QueryService.submit(options=)``, and with
        the result cache on an exact and a sketch submit of one plan
        never attach to each other."""
        plans = {"median": lambda ctx, **p: ctx.table("sales").median(
            "qty", by=["region"])}
        service = QueryService(
            WakeContext(catalog), plans=plans,
            options=ExecutionOptions(result_cache=True))
        exact = service.submit("median")
        sketch = service.submit(
            "median", options=SKETCH.merged(result_cache=True))
        again = service.submit("median")
        service.scheduler.run_until_idle()
        assert isinstance(exact, QuerySession)
        assert isinstance(sketch, QuerySession)
        assert isinstance(again, AttachedSession)  # to ``exact``

        def frames(session):
            return [s.frame.column("median_qty").tobytes()
                    for s in session.executor.edf.snapshots]

        assert (frames(sketch), sketch.plan_hash) == medians(
            catalog, session=SKETCH)
        assert (frames(exact), exact.plan_hash) == medians(catalog)
        assert frames(sketch) != frames(exact)
