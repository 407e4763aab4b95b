"""Telemetry wired through the streaming runtime: determinism, bundles, health."""

from __future__ import annotations

import pytest

from repro import obs
from repro.acquisition.segmentation import assemble_stream
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import DetectionError
from repro.obs.health import HealthConfig
from repro.obs.recorder import ForensicsBundle
from repro.stream import (
    ReplaySource,
    StreamConfig,
    StreamTelemetry,
    TelemetryConfig,
)


@pytest.fixture(scope="module")
def stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


ATTACK = dict(hijack_probability=0.3, hijack_seed=5)


class TestDeterminism:
    """Telemetry observes the stream; it must never change it."""

    def test_verdicts_identical_with_and_without_telemetry(
        self, stream_pipeline, stream, tmp_path
    ):
        config_off = StreamConfig(**ATTACK)
        config_on = StreamConfig(
            **ATTACK,
            telemetry=TelemetryConfig(
                timeseries_interval_s=0.0, flight_dir=tmp_path / "flight"
            ),
        )
        plain = stream_pipeline().stream(ReplaySource(stream, 4096), config_off)
        telemetered = stream_pipeline().stream(ReplaySource(stream, 4096), config_on)
        assert [v.result for v in plain.verdicts] == [
            v.result for v in telemetered.verdicts
        ]
        assert plain.injected_attacks == telemetered.injected_attacks

    def test_no_clock_reads_when_telemetry_disabled(
        self, stream_pipeline, stream, monkeypatch
    ):
        """Extends the disabled-overhead contract to the new submodules:
        without a TelemetryConfig, a stream run must never touch the
        longitudinal layer's clock funnels."""
        import repro.obs.recorder as recorder_module
        import repro.obs.timeseries as timeseries_module

        def _explode(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("longitudinal clock read without telemetry")

        monkeypatch.setattr(timeseries_module, "monotonic", _explode)
        monkeypatch.setattr(timeseries_module, "wall_clock", _explode)
        monkeypatch.setattr(recorder_module, "wall_clock", _explode)
        report = stream_pipeline().stream(ReplaySource(stream, 4096))
        assert report.messages > 0
        assert report.telemetry is None
        assert report.bundles == []


class TestHealthWiring:
    def test_every_verdict_reaches_the_monitor(self, stream_pipeline, stream):
        config = StreamConfig(telemetry=TelemetryConfig(timeseries_capacity=0))
        report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert report.telemetry is not None
        health = report.telemetry.health
        seen = sum(a.verdicts_seen for a in health.assess_all().values())
        window = health.config.window
        expected = sum(
            min(window, sum(1 for v in report.verdicts if v.result.source_address == sa))
            for sa in {v.result.source_address for v in report.verdicts}
        )
        assert seen == expected

    def test_online_update_decisions_reach_the_monitor(
        self, stream_pipeline, stream
    ):
        pipeline = stream_pipeline(online_update=True)
        config = StreamConfig(telemetry=TelemetryConfig(timeseries_capacity=0))
        report = pipeline.stream(ReplaySource(stream, 4096), config)
        assert report.updated > 0
        updates = sum(
            a.updates_seen
            for a in report.telemetry.health.assess_all().values()
        )
        assert updates > 0

    def test_clean_stream_reports_healthy(self, stream_pipeline, stream):
        config = StreamConfig(telemetry=TelemetryConfig(timeseries_capacity=0))
        report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        verdicts = report.telemetry.health.verdicts()
        assert verdicts["overall"] == obs.HEALTHY
        assert all(
            source["state"] == obs.HEALTHY
            for source in verdicts["sources"].values()
        )

    def test_timeseries_fills_during_run(self, stream_pipeline, stream):
        config = StreamConfig(
            telemetry=TelemetryConfig(timeseries_interval_s=0.0)
        )
        with obs.enabled():
            report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        store = report.telemetry.timeseries
        assert len(store) > 0
        assert "vprofile_messages_total" in store.keys()
        # Health gauges were exported ahead of each sample.
        assert any(key.startswith(obs.HEALTH_METRIC) for key in store.keys())

    def test_pipeline_enable_health_covers_batch_path(
        self, stream_pipeline, stream_test_session
    ):
        pipeline = stream_pipeline(online_update=True)
        monitor = pipeline.enable_health(HealthConfig(hysteresis=1))
        for trace in stream_test_session.traces[:20]:
            pipeline.process(trace)
        seen = sum(a.verdicts_seen for a in monitor.assess_all().values())
        assert seen == 20

    def test_enable_health_requires_a_trained_pipeline(self):
        pipeline = VProfilePipeline(PipelineConfig())
        with pytest.raises(DetectionError):
            pipeline.enable_health()


class TestFlightRecorderWiring:
    @pytest.fixture()
    def attacked_report(self, stream_pipeline, stream, tmp_path):
        config = StreamConfig(
            **ATTACK,
            telemetry=TelemetryConfig(
                timeseries_capacity=0,
                flight_dir=tmp_path / "flight",
                post_alert=4,
                max_bundles=4,
            ),
        )
        return stream_pipeline().stream(ReplaySource(stream, 4096), config)

    def test_bundles_written_on_injected_attacks(self, attacked_report):
        assert attacked_report.injected_attacks
        assert attacked_report.bundles
        assert attacked_report.bundles == attacked_report.telemetry.recorder.bundle_paths

    def test_bundle_alerts_are_real_stream_anomalies(self, attacked_report):
        flagged = {v.seq for v in attacked_report.verdicts if v.is_anomaly}
        for path in attacked_report.bundles:
            bundle = ForensicsBundle.load(path)
            assert bundle.alert["seq"] in flagged

    def test_stream_bundles_replay_byte_identically(self, attacked_report):
        """The acceptance criterion, end to end: bundles written by a
        live (static-model) stream replay with zero mismatches."""
        for path in attacked_report.bundles:
            report = ForensicsBundle.load(path).replay()
            assert report.identical, report.mismatches
            assert report.alert_reproduced

    def test_no_bundles_on_a_clean_stream(self, stream_pipeline, stream, tmp_path):
        config = StreamConfig(
            telemetry=TelemetryConfig(
                timeseries_capacity=0, flight_dir=tmp_path / "flight"
            )
        )
        report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert report.anomalies == 0
        assert report.bundles == []


class TestPrebuiltTelemetry:
    def test_caller_supplied_instance_is_used_verbatim(
        self, stream_pipeline, stream, tmp_path
    ):
        pipeline = stream_pipeline()
        telemetry = StreamTelemetry(
            TelemetryConfig(timeseries_interval_s=0.0),
            model=pipeline.model,
            margin=pipeline.config.margin,
        )
        config = StreamConfig(telemetry=telemetry)
        report = pipeline.stream(ReplaySource(stream, 4096), config)
        assert report.telemetry is telemetry
        assert len(telemetry.timeseries) > 0


class TestEuclideanModel:
    """Euclidean clusters have no inverse covariance: health grades
    them from the alert and update windows, with drift as no evidence."""

    def test_stream_with_telemetry_serves_graded_health(
        self, stream_vehicle, stream_train_session, stream
    ):
        import json
        import urllib.request

        from repro.core.model import Metric

        pipeline = VProfilePipeline(PipelineConfig(
            metric="euclidean", margin=50.0, sa_clusters=stream_vehicle.sa_clusters
        ))
        pipeline.train(stream_train_session.traces)
        assert pipeline.model.metric is Metric.EUCLIDEAN
        report = pipeline.stream(
            ReplaySource(stream, 4096),
            StreamConfig(telemetry=TelemetryConfig(timeseries_capacity=0)),
        )
        assert report.messages > 0
        with obs.MetricsServer(health=report.telemetry.health) as server:
            with urllib.request.urlopen(server.url + "/health", timeout=5) as response:
                health = json.loads(response.read())
        assert health["overall"] in ("healthy", "drifting", "suspect")
        assert health["sources"]
