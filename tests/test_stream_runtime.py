"""The streaming supervisor: verdict parity, the worker, checkpoint/resume."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.core.edge_extraction import ExtractedEdgeSet, extract_many
from repro.core.pipeline import VProfilePipeline
from repro.errors import StreamError
from repro.stream import (
    CHUNKS_METRIC,
    LATENCY_METRIC,
    QUEUE_DEPTH_METRIC,
    OverflowPolicy,
    ReplaySource,
    StreamConfig,
    StreamRuntime,
    load_checkpoint,
)
from repro.stream.extractor import StreamMessage
from repro.stream.workers import ShardedWorkerPool


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


class TestBackpressure:
    def test_drop_newest_loses_messages(self, stream_pipeline, stream):
        config = StreamConfig(
            queue_capacity=1,
            policy=OverflowPolicy.DROP_NEWEST,
            batch_size=1,
        )
        report = stream_pipeline().stream(ReplaySource(stream, len(stream)), config)
        clean = stream_pipeline().stream(ReplaySource(stream, len(stream)))
        assert report.dropped > 0
        assert report.messages == clean.messages - report.dropped

    def test_block_policy_is_lossless(self, stream_pipeline, stream):
        config = StreamConfig(queue_capacity=1, batch_size=1)
        report = stream_pipeline().stream(ReplaySource(stream, len(stream)), config)
        assert report.dropped == 0


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
        assert registry.get(QUEUE_DEPTH_METRIC) is not None
        latency = registry.get(LATENCY_METRIC)
        assert latency is not None and latency.count > 0
        assert registry.get("vprofile_messages_total").value > 0


class _FailingDetector:
    """Classifies nothing: every batch stalls, then raises."""

    margin = 0.0

    def classify_and_update(self, vectors, sas, updater=None):
        time.sleep(0.5)
        raise RuntimeError("classify failed")


class TestWorkerFailure:
    def test_blocked_producer_gets_the_failure(self):
        pool = ShardedWorkerPool(_FailingDetector(), queue_capacity=2, batch_size=1)
        message = StreamMessage(
            edge_set=ExtractedEdgeSet(
                source_address=0x10, vector=np.zeros(4), metadata={}
            ),
            start_s=0.0,
            index=0,
        )
        outcome: list[BaseException | None] = []

        def produce():
            try:
                for seq in range(10):
                    pool.submit(seq, message)
            except BaseException as exc:
                outcome.append(exc)
            else:
                outcome.append(None)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        producer.join(10)
        assert not producer.is_alive(), "producer hung on a dead worker"
        assert isinstance(outcome[0], StreamError)
        assert isinstance(outcome[0].__cause__, RuntimeError)
        with pytest.raises(StreamError):
            pool.close()
