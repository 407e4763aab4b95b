"""The streaming supervisor: verdict parity, inline classification, checkpoint/resume."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro import obs
from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.core.edge_extraction import extract_many
from repro.core.pipeline import VProfilePipeline
from repro.errors import StreamError
from repro.stream import (
    CHUNKS_METRIC,
    LATENCY_METRIC,
    ReplaySource,
    StreamConfig,
    StreamRuntime,
    StreamTelemetry,
    TelemetryConfig,
    StreamingExtractor,
    load_checkpoint,
)


@pytest.fixture(scope="module")
def stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


class _TruncatedSource:
    """Stop a replay after ``n`` chunks — a simulated interruption."""

    def __init__(self, inner, n):
        self.inner, self.n = inner, n

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def chunks(self, start_chunk=0):
        return itertools.islice(
            self.inner.chunks(start_chunk), max(0, self.n - start_chunk)
        )


class TestVerdictParity:
    def test_matches_batch_detector(self, stream_pipeline, stream):
        pipeline = stream_pipeline()
        report = pipeline.stream(ReplaySource(stream, 4096))
        traces = segment_capture(stream)
        edge_sets = extract_many(traces, pipeline.extraction, skip_failures=True)
        assert report.messages == len(edge_sets)
        for verdict, edge_set in zip(report.verdicts, edge_sets):
            assert verdict.result == pipeline.detector.classify(edge_set)

    def test_verdicts_sorted_by_seq(self, stream_pipeline, stream):
        report = stream_pipeline().stream(
            ReplaySource(stream, 4096), StreamConfig(batch_size=4)
        )
        assert [v.seq for v in report.verdicts] == list(range(report.messages))


class TestHijackInjection:
    def test_injected_attacks_are_flagged(self, stream_pipeline, stream):
        config = StreamConfig(hijack_probability=0.3, hijack_seed=5)
        report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert report.injected_attacks
        assert report.anomalies >= len(report.injected_attacks)
        flagged = {v.seq for v in report.verdicts if v.is_anomaly}
        assert set(report.injected_attacks) <= flagged
        assert report.reasons["cluster-mismatch"] >= len(report.injected_attacks)
        assert len(report.alerts) == report.anomalies

    def test_injection_is_deterministic(self, stream_pipeline, stream):
        config = StreamConfig(hijack_probability=0.3, hijack_seed=5)
        first = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        second = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert first.injected_attacks == second.injected_attacks


class TestInlineClassification:
    def test_run_starts_no_thread(self, stream_pipeline, stream):
        pipeline = stream_pipeline(online_update=True)
        telemetry = StreamTelemetry(
            TelemetryConfig(), model=pipeline.model, margin=pipeline.config.margin
        )
        on_verdict = telemetry.on_verdict
        caller = threading.current_thread()
        before = set(threading.enumerate())
        seen: list[tuple[threading.Thread, set[threading.Thread]]] = []

        def spy(verdict):
            seen.append((threading.current_thread(), set(threading.enumerate())))
            on_verdict(verdict)

        telemetry.on_verdict = spy
        report = pipeline.stream(
            ReplaySource(stream, 4096), StreamConfig(telemetry=telemetry)
        )
        assert len(seen) == report.messages > 0
        for thread, alive in seen:
            assert thread is caller
            assert alive <= before

    def test_each_chunk_is_classified_before_the_next_pull(
        self, stream_pipeline, stream
    ):
        pipeline = stream_pipeline()
        extractor = StreamingExtractor(pipeline.extraction)
        extracted = [0]  # messages completed by the chunks pulled so far
        verdicts: list = []
        classified_at_pull: list[tuple[int, int]] = []

        class Watched(ReplaySource):
            def chunks(self, start_chunk=0):
                for chunk in super().chunks(start_chunk):
                    classified_at_pull.append((extracted[0], len(verdicts)))
                    extracted[0] += len(extractor.push(chunk))
                    yield chunk

        telemetry = StreamTelemetry(
            TelemetryConfig(), model=pipeline.model, margin=pipeline.config.margin
        )
        telemetry.on_verdict = verdicts.append
        report = pipeline.stream(
            Watched(stream, 4096), StreamConfig(telemetry=telemetry)
        )
        assert report.messages > 0
        for completed, classified in classified_at_pull:
            assert classified == completed

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_call_size_does_not_move_verdicts(self, stream_pipeline, stream, batch_size):
        config = dict(hijack_probability=0.3, hijack_seed=4)
        whole = stream_pipeline(online_update=True).stream(
            ReplaySource(stream, len(stream)),
            StreamConfig(batch_size=len(stream), **config),
        )
        chunked = stream_pipeline(online_update=True).stream(
            ReplaySource(stream, 4096), StreamConfig(batch_size=batch_size, **config)
        )
        assert whole.chunks == 1
        assert whole.updated > 0 and whole.anomalies > 0
        assert chunked.updated == whole.updated
        # DetectionResult equality compares min_distance and slack too.
        assert [(v.seq, v.result) for v in chunked.verdicts] == [
            (v.seq, v.result) for v in whole.verdicts
        ]


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(
        self, stream_pipeline, stream, tmp_path
    ):
        config = dict(hijack_probability=0.3, hijack_seed=9)
        full = stream_pipeline().stream(
            ReplaySource(stream, 4096), StreamConfig(**config)
        )

        source = ReplaySource(stream, 4096)
        interrupted = StreamRuntime(
            stream_pipeline(),
            StreamConfig(
                checkpoint_dir=tmp_path, checkpoint_every_chunks=50, **config
            ),
        ).run(_TruncatedSource(source, 100))
        assert interrupted.checkpoints >= 2
        assert interrupted.messages < full.messages

        resumed_pipeline = VProfilePipeline(stream_pipeline().config)
        resumed = StreamRuntime(resumed_pipeline, StreamConfig(**config)).run(
            source, resume=tmp_path
        )

        combined = interrupted.verdicts + resumed.verdicts
        assert len(combined) == full.messages
        for got, expected in zip(combined, full.verdicts):
            assert got.seq == expected.seq
            assert got.result == expected.result
        combined_alerts = interrupted.alerts.alerts + resumed.alerts.alerts
        assert [
            (a.timestamp_s, a.can_id, a.reason) for a in combined_alerts
        ] == [(a.timestamp_s, a.can_id, a.reason) for a in full.alerts.alerts]

    def test_checkpoint_roundtrip_fields(self, stream_pipeline, stream, tmp_path):
        pipeline = stream_pipeline()
        pipeline.stream(
            ReplaySource(stream, 4096), StreamConfig(checkpoint_dir=tmp_path)
        )
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint.next_chunk == ReplaySource(stream, 4096).n_chunks
        assert checkpoint.margin == pipeline.config.margin
        assert checkpoint.extraction == pipeline.extraction

    def test_resume_rejects_non_checkpoint(self, stream_pipeline, stream, tmp_path):
        with pytest.raises(StreamError):
            stream_pipeline().stream(
                ReplaySource(stream, 4096), resume=tmp_path / "missing"
            )


class TestRuntimeContract:
    def test_untrained_pipeline_raises(self, stream):
        with pytest.raises(StreamError):
            VProfilePipeline().stream(ReplaySource(stream, 4096))

    def test_online_updates_fold_into_shared_stats(self, stream_pipeline, stream):
        pipeline = stream_pipeline(online_update=True)
        report = pipeline.stream(ReplaySource(stream, 4096))
        assert report.updated > 0
        assert pipeline.stats.updated == report.updated
        assert pipeline.stats.processed == report.messages

    def test_exports_obs_metrics(self, stream_pipeline, stream):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            stream_pipeline().stream(ReplaySource(stream, 4096))
        finally:
            obs.set_registry(previous)
        assert registry.get(CHUNKS_METRIC).value > 0
        latency = registry.get(LATENCY_METRIC)
        assert latency is not None and latency.count > 0
        assert registry.get("vprofile_messages_total").value > 0


class TestClassificationFailure:
    def test_detector_failure_raises_stream_error(
        self, stream_pipeline, stream, monkeypatch
    ):
        pipeline = stream_pipeline()
        detector = pipeline.detector
        kernel = detector.classify_and_update
        calls = []

        def fail_on_third_call(vectors, sas, updater=None):
            calls.append(len(sas))
            if len(calls) == 3:
                raise RuntimeError("classify failed")
            return kernel(vectors, sas, updater)

        monkeypatch.setattr(detector, "classify_and_update", fail_on_third_call)
        with pytest.raises(StreamError) as info:
            pipeline.stream(ReplaySource(stream, 4096))
        assert isinstance(info.value.__cause__, RuntimeError)
        assert len(calls) == 3

    def test_callback_failure_raises_stream_error(self, stream_pipeline, stream):
        pipeline = stream_pipeline()
        telemetry = StreamTelemetry(
            TelemetryConfig(), model=pipeline.model, margin=pipeline.config.margin
        )

        def broken(verdict):
            raise ValueError("callback failed")

        telemetry.on_verdict = broken
        with pytest.raises(StreamError) as info:
            pipeline.stream(ReplaySource(stream, 4096), StreamConfig(telemetry=telemetry))
        assert isinstance(info.value.__cause__, ValueError)

    def test_unwritable_flight_dir_at_stream_end_raises_stream_error(
        self, stream_pipeline, stream, tmp_path
    ):
        # post_alert outlasts the stream, so the first dump fires in finish().
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = TelemetryConfig(flight_dir=blocker / "flight", post_alert=10**6)
        with pytest.raises(StreamError) as info:
            stream_pipeline().stream(
                ReplaySource(stream, 4096),
                StreamConfig(telemetry=config, hijack_probability=0.3),
            )
        assert isinstance(info.value.__cause__, OSError)
