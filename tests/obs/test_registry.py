"""Unit tests for the metrics registry (counters, gauges, histograms,
views and Prometheus exposition)."""

import threading

import pytest

from repro.errors import QueryError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCounter:
    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(QueryError, match="cannot decrease"):
            c.inc(-1)

    def test_concurrent_incs_all_land(self):
        c = MetricsRegistry().counter("x_total")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6.0


class TestHistogram:
    def test_observations_bucketed_cumulatively(self):
        h = MetricsRegistry().histogram(
            "lat_seconds", buckets=(0.01, 0.1, 1.0)
        )
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        assert snap["buckets"]["0.01"] == 1
        assert snap["buckets"]["0.1"] == 2
        assert snap["buckets"]["1.0"] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_boundary_lands_in_its_bucket(self):
        # le semantics: an observation equal to an upper bound counts
        # inside that bucket.
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.snapshot()["buckets"]["1.0"] == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(QueryError, match=">= 1 bucket"):
            MetricsRegistry().histogram("h", buckets=())

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"session": "s1"})
        b = reg.counter("x_total", labels={"session": "s2"})
        assert a is not b
        a.inc()
        assert b.value == 0.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"a": "1", "b": "2"})
        b = reg.counter("x_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(QueryError, match="already registered"):
            reg.gauge("x_total")

    def test_kind_conflict_across_label_sets_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels={"s": "1"})
        with pytest.raises(QueryError, match="already registered"):
            reg.gauge("x_total", labels={"s": "2"})

    def test_injectable_clock_drives_uptime(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        clock.advance(7.5)
        assert reg.uptime() == 7.5

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("x_total", help="things").inc(3)
        out = reg.to_dict()
        assert out["x_total"]["kind"] == "counter"
        assert out["x_total"]["help"] == "things"
        assert out["x_total"]["samples"] == [
            {"labels": {}, "value": 3.0}
        ]


class TestViews:
    def test_scalar_view_sampled_at_collection_time(self):
        reg = MetricsRegistry()
        state = {"depth": 2}
        reg.register_view("queue_depth", lambda: state["depth"])
        assert reg.to_dict()["queue_depth"]["samples"][0]["value"] == 2.0
        state["depth"] = 9
        assert reg.to_dict()["queue_depth"]["samples"][0]["value"] == 9.0

    def test_labeled_view_emits_one_sample_per_entity(self):
        reg = MetricsRegistry()
        reg.register_view(
            "sessions",
            lambda: [({"state": "done"}, 2), ({"state": "running"}, 1)],
        )
        samples = reg.to_dict()["sessions"]["samples"]
        assert {tuple(s["labels"].items()): s["value"]
                for s in samples} == {
            (("state", "done"),): 2.0,
            (("state", "running"),): 1.0,
        }

    def test_duplicate_view_name_rejected(self):
        reg = MetricsRegistry()
        reg.register_view("x", lambda: 0)
        with pytest.raises(QueryError, match="already registered"):
            reg.register_view("x", lambda: 1)

    def test_bad_view_kind_rejected(self):
        with pytest.raises(QueryError, match="counter|gauge"):
            MetricsRegistry().register_view(
                "x", lambda: 0, kind="histogram"
            )


class TestPrometheusRender:
    def test_counter_exposition(self):
        reg = MetricsRegistry()
        reg.counter("x_total", help="things").inc(3)
        text = reg.render_prometheus()
        assert "# HELP x_total things" in text
        assert "# TYPE x_total counter" in text
        assert "\nx_total 3\n" in text

    def test_labeled_sample_exposition(self):
        reg = MetricsRegistry()
        reg.gauge("lag", labels={"session": "s1"}).set(0.5)
        assert 'lag{session="s1"} 0.5' in reg.render_prometheus()

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"q": 'a"b\\c'}).set(1)
        assert r'g{q="a\"b\\c"} 1' in reg.render_prometheus()

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.render_prometheus()
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert 'lat_sum 5.05' in text
        assert 'lat_count 2' in text
