"""Online streaming detection runtime.

The batch pipeline answers "what happened in this capture?"; this
subsystem answers the question the paper actually poses — "is the frame
that just ended legitimate?" — against a continuous digitizer stream:

* :mod:`repro.stream.chunks` — chunked ingestion (:class:`SampleChunk`,
  the :class:`ChunkSource` protocol, live-simulation and archive-replay
  adapters);
* :mod:`repro.stream.segmenter` / :mod:`repro.stream.extractor` —
  incremental message segmentation and Algorithm 1 extraction with
  state carried across chunk boundaries, provably equivalent to the
  batch path on the concatenated stream;
* :mod:`repro.stream.workers` — the classification stage: each chunk's
  messages go through Algorithm 3 and then 4 in vectorised batches, on
  the ingest thread, before the next chunk is pulled;
* :mod:`repro.stream.runtime` — the supervisor: hijack
  injection, checkpoint/resume, obs metrics;
* :mod:`repro.stream.telemetry` — longitudinal telemetry riding on the
  runtime: metrics time-series, per-SA profile health, and the alert
  flight recorder (see :mod:`repro.obs`);
* :mod:`repro.stream.checkpoint` — the on-disk checkpoint format.

Typical use::

    pipeline = VProfilePipeline()
    pipeline.train(training_traces)
    source = ReplaySource.from_archive("capture.npz")
    report = pipeline.stream(source, StreamConfig(hijack_probability=0.2))
    print(report.frames_per_s, report.anomalies)
"""

from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.chunks import (
    DEFAULT_CHUNK_SAMPLES,
    ChunkSource,
    LiveSource,
    ReplaySource,
    SampleChunk,
)
from repro.stream.extractor import ExtractorStats, StreamingExtractor, StreamMessage
from repro.stream.runtime import (
    CHUNKS_METRIC,
    EXTRACTION_FAILURES_METRIC,
    SAMPLES_METRIC,
    StreamConfig,
    StreamReport,
    StreamRuntime,
)
from repro.stream.segmenter import StreamingSegmenter
from repro.stream.telemetry import StreamTelemetry, TelemetryConfig
from repro.stream.workers import LATENCY_METRIC, ShardedWorkerPool, StreamVerdict

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "DEFAULT_CHUNK_SAMPLES",
    "ChunkSource",
    "LiveSource",
    "ReplaySource",
    "SampleChunk",
    "ExtractorStats",
    "StreamingExtractor",
    "StreamMessage",
    "CHUNKS_METRIC",
    "EXTRACTION_FAILURES_METRIC",
    "SAMPLES_METRIC",
    "StreamConfig",
    "StreamReport",
    "StreamRuntime",
    "StreamingSegmenter",
    "StreamTelemetry",
    "TelemetryConfig",
    "LATENCY_METRIC",
    "ShardedWorkerPool",
    "StreamVerdict",
]
