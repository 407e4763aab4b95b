"""Unit tests for the observability layer (:mod:`repro.obs`)."""

import json
import logging
import math
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.errors import ObservabilityError


class TestRegistry:
    def test_counter_accumulates(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            obs.MetricsRegistry().counter("x_total").inc(-1)

    def test_same_name_and_labels_share_instrument(self):
        registry = obs.MetricsRegistry()
        a = registry.counter("hits_total", stage="extract", vehicle="a")
        b = registry.counter("hits_total", vehicle="a", stage="extract")
        assert a is b  # label order must not matter

    def test_distinct_labels_are_distinct_children(self):
        registry = obs.MetricsRegistry()
        a = registry.counter("hits_total", stage="extract")
        b = registry.counter("hits_total", stage="classify")
        a.inc()
        assert a is not b
        assert b.value == 0.0

    def test_type_conflict_raises(self):
        registry = obs.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_gauge_up_and_down(self):
        gauge = obs.MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 3.0

    def test_get_does_not_create(self):
        registry = obs.MetricsRegistry()
        assert registry.get("nope") is None
        registry.counter("yep", x="1")
        assert registry.get("yep", x="1") is not None
        assert registry.get("yep", x="2") is None

    def test_samples_enumerates_family_children(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits_total", stage="extract").inc(2)
        registry.counter("hits_total", stage="classify").inc()
        by_labels = {
            labels["stage"]: c.value for labels, c in registry.samples("hits_total")
        }
        assert by_labels == {"extract": 2.0, "classify": 1.0}
        assert list(registry.samples("absent")) == []
        assert list(obs.NULL_REGISTRY.samples("hits_total")) == []

    def test_collect_orders_families_and_children(self):
        registry = obs.MetricsRegistry()
        registry.gauge("b_depth", queue="y").set(2)
        registry.gauge("b_depth", queue="x").set(1)
        registry.counter("a_total").inc()
        collected = [
            (family.name, [(labels, child.value) for labels, child in children])
            for family, children in registry.collect()
        ]
        assert collected == [
            ("a_total", [({}, 1.0)]),
            ("b_depth", [({"queue": "x"}, 1.0), ({"queue": "y"}, 2.0)]),
        ]
        assert obs.NULL_REGISTRY.collect() == []

    # A /metrics scrape or a time-series sample reads the registry while
    # the stream runtime creates children; readers must hold a snapshot.
    def test_families_iterator_survives_reset(self):
        registry = obs.MetricsRegistry()
        registry.counter("a_total")
        registry.counter("b_total")
        families = registry.families()
        assert next(families).name == "a_total"
        registry.reset()
        assert next(families).name == "b_total"

    def test_samples_iterator_survives_child_creation(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits_total", stage="extract").inc()
        samples = registry.samples("hits_total")
        assert next(samples)[0] == {"stage": "extract"}
        registry.counter("hits_total", stage="classify")
        assert list(samples) == []

    def test_readers_race_child_creation(self):
        registry = obs.MetricsRegistry()
        errors: list[Exception] = []
        done = threading.Event()

        def write(worker: int) -> None:
            for i in range(300):
                registry.counter("hits_total", worker=str(worker), i=str(i)).inc()

        def read() -> None:
            try:
                while not done.is_set():
                    obs.to_prometheus(registry)
                    list(registry.samples("hits_total"))
                    registry.get("hits_total", worker="0", i="0")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(2)]
            writers = [threading.Thread(target=write, args=(w,)) for w in range(4)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
            done.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in readers + writers)
        assert errors == []
        assert len(list(registry.samples("hits_total"))) == 4 * 300


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        h = obs.Histogram(buckets=(1.0, 2.0, 4.0), quantiles=())
        h.observe(1.0)   # == bound -> first bucket (le semantics)
        h.observe(1.5)
        h.observe(4.0)
        h.observe(100.0)  # +Inf bucket
        cumulative = dict(h.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 2
        assert cumulative[4.0] == 3
        assert cumulative[math.inf] == 4

    def test_summary_stats(self):
        h = obs.Histogram(buckets=(10.0,), quantiles=())
        for value in (2.0, 4.0, 6.0):
            h.observe(value)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.mean == 4.0
        assert h.min == 2.0
        assert h.max == 6.0

    def test_streaming_quantiles_converge(self):
        h = obs.Histogram(buckets=(1.0,), quantiles=(0.5, 0.9))
        rng = np.random.default_rng(42)
        for value in rng.uniform(0.0, 1.0, 20_000):
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert h.quantile(0.9) == pytest.approx(0.9, abs=0.02)

    def test_quantile_exact_below_five_samples(self):
        h = obs.Histogram(buckets=(1.0,), quantiles=(0.5,))
        for value in (3.0, 1.0, 2.0):
            h.observe(value)
        assert h.quantile(0.5) == 2.0

    def test_untracked_quantile_raises(self):
        h = obs.Histogram(buckets=(1.0,), quantiles=(0.5,))
        with pytest.raises(ObservabilityError):
            h.quantile(0.25)


class TestP2Quantile:
    def test_matches_numpy_on_normal_data(self):
        rng = np.random.default_rng(7)
        data = rng.normal(10.0, 2.0, 50_000)
        estimator = obs.P2Quantile(0.99)
        for value in data:
            estimator.observe(value)
        exact = float(np.quantile(data, 0.99))
        assert estimator.value == pytest.approx(exact, rel=0.02)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ObservabilityError):
            obs.P2Quantile(1.0)


class TestSpans:
    def test_span_records_into_histogram(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("work") as sp:
                pass
        assert sp.wall_s >= 0.0
        histogram = registry.get(obs.SPAN_METRIC, span="work")
        assert histogram is not None and histogram.count == 1

    def test_nesting_paths_and_trace_id(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
            assert obs.current_span() is None
        assert inner.path == "outer/inner"
        assert inner.parent is outer
        assert inner.trace_id == outer.trace_id

    def test_exception_safety(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with pytest.raises(ValueError):
                with obs.span("boom") as sp:
                    raise ValueError("nope")
        assert obs.current_span() is None  # stack popped
        assert isinstance(sp.error, ValueError)
        assert registry.get(obs.SPAN_METRIC, span="boom").count == 1  # still timed
        assert registry.get(obs.SPAN_ERRORS_METRIC, span="boom").value == 1

    def test_stage_timer_feeds_stage_histogram(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.stage_timer("extract"):
                pass
        histogram = registry.get(obs.STAGE_METRIC, stage="extract")
        assert histogram.count == 1

    def test_stage_timer_disabled_is_null_singleton(self):
        with obs.use_registry(obs.NULL_REGISTRY):
            assert obs.stage_timer("extract") is obs.NULL_TIMER
            assert obs.stage_timer("classify") is obs.NULL_TIMER

    def test_span_label_named_metric_does_not_collide(self):
        # Regression: a user label called "metric" used to be swallowed
        # by Span's metric-name parameter, renaming the whole family.
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("eval", metric="mahalanobis", vehicle="A"):
                pass
        histogram = registry.get(
            obs.SPAN_METRIC, span="eval", metric="mahalanobis", vehicle="A"
        )
        assert histogram is not None and histogram.count == 1
        assert registry.get("mahalanobis", span="eval", vehicle="A") is None

    def test_stopwatch_accumulates(self):
        sw = obs.Stopwatch()
        with sw:
            sum(range(100))
        first = sw.wall_s
        with sw:
            sum(range(100))
        assert sw.wall_s > first >= 0.0
        assert sw.cpu_s >= 0.0


class TestEvents:
    def test_level_filtering(self):
        log = obs.EventLog(level="warning")
        assert log.info("quiet") is None
        assert log.warning("loud", code=7) is not None
        events = log.records()
        assert len(events) == 1
        assert events[0].fields["code"] == 7

    def test_ring_buffer_capacity(self):
        log = obs.EventLog(level="debug", capacity=3)
        for i in range(10):
            log.info("tick", i=i)
        assert [e.fields["i"] for e in log.records()] == [7, 8, 9]

    def test_sink_writes_json_lines(self, tmp_path):
        sink_path = tmp_path / "events.jsonl"
        with sink_path.open("w") as sink:
            log = obs.EventLog(level="debug", sink=sink)
            log.info("hello", value=1.5)
            log.error("broken", detail="x")
        lines = sink_path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "hello" and first["value"] == 1.5
        assert json.loads(lines[1])["level"] == "error"

    def test_events_inherit_span_trace_id(self):
        log = obs.EventLog(level="debug")
        with obs.span("ctx") as sp:
            event = log.info("inside")
        assert event.trace_id == sp.trace_id

    def test_unknown_level_rejected(self):
        with pytest.raises(ObservabilityError):
            obs.EventLog(level="chatty")

    def test_stdlib_bridge(self):
        log = obs.EventLog(level="debug")
        handler = obs.bridge_stdlib("repro.test_bridge", event_log=log)
        try:
            logging.getLogger("repro.test_bridge.sub").warning("careful: %d", 3)
        finally:
            logging.getLogger("repro.test_bridge").removeHandler(handler)
        events = log.records(name="log.repro.test_bridge.sub")
        assert len(events) == 1
        assert events[0].level == "warning"
        assert events[0].fields["message"] == "careful: 3"


class TestExporters:
    def _populated_registry(self):
        registry = obs.MetricsRegistry()
        registry.counter("msgs_total", help="Messages seen").inc(4)
        registry.counter("odd_total", label='quote " back \\ slash').inc()
        registry.gauge("depth", shard="0").set(2.5)
        histogram = registry.histogram(
            "lat_seconds", help="Latency", buckets=(0.001, 0.01), stage="x"
        )
        histogram.observe(0.0005)
        histogram.observe(0.5)
        return registry

    def test_prometheus_format(self):
        text = obs.to_prometheus(self._populated_registry())
        assert "# HELP msgs_total Messages seen" in text
        assert "# TYPE msgs_total counter" in text
        assert "msgs_total 4" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.001",stage="x"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf",stage="x"} 2' in text
        assert 'lat_seconds_count{stage="x"} 2' in text
        assert 'label="quote \\" back \\\\ slash"' in text

    def test_prometheus_round_trip(self):
        registry = self._populated_registry()
        snapshot = obs.parse_prometheus(obs.to_prometheus(registry))
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("msgs_total", ())] == 4
        assert counters[("odd_total", (("label", 'quote " back \\ slash'),))] == 1
        (histogram,) = snapshot["histograms"]
        assert histogram["name"] == "lat_seconds"
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(0.5005)
        assert histogram["buckets"][-1]["count"] == 2
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["depth"] == 2.5

    def test_json_snapshot_carries_quantiles(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("t_seconds", quantiles=(0.5,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        snapshot = obs.to_json(registry)
        (entry,) = snapshot["histograms"]
        assert entry["quantiles"]["0.5"] == 2.0
        assert entry["mean"] == 2.0

    def test_write_and_load_both_formats(self, tmp_path):
        registry = self._populated_registry()
        for filename in ("m.prom", "m.json"):
            path = obs.write_metrics(registry, tmp_path / filename)
            snapshot = obs.load_snapshot(path)
            names = {c["name"] for c in snapshot["counters"]}
            assert "msgs_total" in names

    def test_load_rejects_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ObservabilityError):
            obs.load_snapshot(path)

    def test_summarize_mentions_everything(self):
        summary = obs.summarize_snapshot(
            obs.to_json(self._populated_registry()), source="m.prom"
        )
        assert "m.prom" in summary
        assert "lat_seconds" in summary
        assert "msgs_total" in summary
        assert "depth" in summary

    def test_summarize_empty(self):
        registry = obs.MetricsRegistry()
        assert "no metrics" in obs.summarize_snapshot(obs.to_json(registry))


class TestGlobalToggles:
    def test_default_is_disabled(self):
        # Nothing in this suite should leave observability enabled.
        assert obs.get_registry().enabled is False
        assert obs.get_event_log().enabled is False

    def test_enabled_context_restores(self):
        before_registry = obs.get_registry()
        before_log = obs.get_event_log()
        with obs.enabled() as (registry, log):
            assert obs.get_registry() is registry
            assert obs.get_event_log() is log
            registry.counter("x_total").inc()
            log.info("hi")
        assert obs.get_registry() is before_registry
        assert obs.get_event_log() is before_log

    def test_null_instruments_are_shared_singletons(self):
        registry = obs.NULL_REGISTRY
        assert registry.counter("a") is registry.counter("b", any_label="z")
        assert registry.histogram("h") is registry.histogram("h2")
        assert registry.snapshot() == {"counters": [], "gauges": [], "histograms": []}

    def test_preregister_creates_stable_surface(self):
        registry = obs.MetricsRegistry()
        obs.preregister_pipeline_metrics(registry)
        text = obs.to_prometheus(registry)
        for stage in obs.PIPELINE_STAGES:
            assert f'vprofile_stage_seconds_count{{stage="{stage}"}} 0' in text
        for reason in obs.ANOMALY_REASONS:
            assert f'vprofile_anomalies_total{{reason="{reason}"}} 0' in text


class TestExportHardening:
    """Escaping corners and crash-safety of the exposition writer."""

    def test_help_text_is_escaped_onto_one_line(self):
        registry = obs.MetricsRegistry()
        registry.counter("odd_total", help="line one\nline two \\ slash").inc()
        text = obs.to_prometheus(registry)
        assert "# HELP odd_total line one\\nline two \\\\ slash" in text
        # The family still occupies exactly one HELP line.
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP odd_total")]
        assert len(help_lines) == 1

    def test_label_newline_round_trips(self):
        registry = obs.MetricsRegistry()
        registry.counter("odd_total", note="up\ndown").inc()
        snapshot = obs.parse_prometheus(obs.to_prometheus(registry))
        (counter,) = snapshot["counters"]
        assert counter["labels"]["note"] == "up\ndown"

    def test_escaped_backslash_before_n_round_trips(self):
        # '\' followed by a literal 'n' encodes as '\\' + 'n'; a naive
        # chained-replace decoder would misread that as a newline.
        registry = obs.MetricsRegistry()
        registry.counter("odd_total", path="C:\\notes").inc()
        text = obs.to_prometheus(registry)
        assert 'path="C:\\\\notes"' in text
        snapshot = obs.parse_prometheus(text)
        (counter,) = snapshot["counters"]
        assert counter["labels"]["path"] == "C:\\notes"

    def test_adversarial_label_values_round_trip(self):
        values = ['\\n', '\\', '"', '\\"', 'a\nb\\c"d', '\\\\n']
        registry = obs.MetricsRegistry()
        for i, value in enumerate(values):
            registry.counter("odd_total", idx=str(i), v=value).inc()
        snapshot = obs.parse_prometheus(obs.to_prometheus(registry))
        decoded = {c["labels"]["idx"]: c["labels"]["v"] for c in snapshot["counters"]}
        assert decoded == {str(i): v for i, v in enumerate(values)}

    def test_write_metrics_is_atomic(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.counter("msgs_total").inc()
        path = tmp_path / "m.prom"
        path.write_text("stale contents")
        out = obs.write_metrics(registry, path)
        assert out == path
        assert "msgs_total 1" in path.read_text()
        # No temp droppings left next to the target.
        assert list(tmp_path.iterdir()) == [path]
