"""The chunk engine: one chunk in, its verdicts out, on the calling thread.

:class:`ChunkEngine` is the one place where a chunk becomes verdicts.
It checks the chunk order, runs the incremental extractor, numbers the
messages, applies the optional in-flight rewrite (hijack injection) and
hands them to :meth:`~repro.core.detection.Detector.classify_and_update`
in calls of at most ``batch_size`` messages.  The kernel applies
Algorithm 3 and then 4 message by message, so the verdicts do not depend
on where the call boundaries fall.  The streaming runtime pulls chunks
from a source into an engine; the fleet's
:class:`~repro.fleet.tenant.TenantEngine` is an engine plus tenant
metadata.

A classification thread behind a queue cost more than it bought: NumPy
releases the GIL inside every large-array call, and each release cost a
wake-up to get it back.  On stream-replay (Vehicle A, 2 cores) that made
18-24 voluntary context switches per message; inline makes none (see
``docs/streaming.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.detection import DetectionResult, Detector
from repro.core.edge_extraction import ExtractedEdgeSet, ExtractionConfig
from repro.core.online_update import OnlineUpdater
from repro.errors import StreamError
from repro.obs.clock import monotonic
from repro.obs.health import ProfileHealthMonitor
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import get_registry
from repro.stream.checkpoint import Checkpoint, save_checkpoint
from repro.stream.chunks import SampleChunk
from repro.stream.extractor import StreamingExtractor, StreamMessage

#: Ingest-to-verdict latency of one message through the engine.
LATENCY_METRIC = "vprofile_stream_latency_seconds"


@dataclass(frozen=True)
class StreamVerdict:
    """One classified message, tagged with its stream position."""

    seq: int
    message: StreamMessage
    result: DetectionResult

    @property
    def is_anomaly(self) -> bool:
        return self.result.is_anomaly


class ChunkEngine:
    """Algorithm 1 → 3 → 4 over one ordered chunk stream.

    ``extraction`` and ``metadata`` configure the
    :class:`StreamingExtractor` (``extraction`` is derived from the first
    message when ``None``).  ``batch_size`` caps the messages per kernel
    call, which bounds the per-fold column recompute.  ``updater`` folds
    OK verdicts into the detector's model (Algorithm 4).  ``health`` is
    fed every verdict and, through the updater's observer, every update
    decision; ``recorder`` gets every verdict.  ``rewrite(seq, edge_set)``
    may replace a message's edge set before classification
    (:class:`repro.attacks.hijack.InFlightHijack`).
    """

    def __init__(
        self,
        detector: Detector,
        *,
        extraction: ExtractionConfig | None = None,
        metadata: dict[str, Any] | None = None,
        batch_size: int = 8,
        updater: OnlineUpdater | None = None,
        health: ProfileHealthMonitor | None = None,
        recorder: FlightRecorder | None = None,
        rewrite: Callable[[int, ExtractedEdgeSet], ExtractedEdgeSet] | None = None,
    ):
        if batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size}")
        self.detector = detector
        self.extractor = StreamingExtractor(extraction, metadata=metadata)
        self.batch_size = int(batch_size)
        self.updater = updater
        self.health = health
        self.recorder = recorder
        self.rewrite = rewrite
        if updater is not None and health is not None:
            updater.observer = health.record_update
        self.next_chunk = 0
        self.next_seq = 0
        self.updated = 0
        self._pending: list[tuple[int, StreamMessage, float]] = []
        self._registry = get_registry()

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def process(self, chunk: SampleChunk) -> list[StreamVerdict]:
        """Classify every message completed by ``chunk``, in order.

        Raises :class:`StreamError` for an out-of-order chunk (a gap or
        replay would corrupt the extractor's carried state) and, with the
        cause chained, when the kernel, health monitor or recorder fails.
        """
        if chunk.seq != self.next_chunk:
            raise StreamError(
                f"out-of-order chunk {chunk.seq} (expected {self.next_chunk})"
            )
        messages = self.extractor.push(chunk)
        self.next_chunk += 1
        return self._classify(messages)

    def finish(self) -> list[StreamVerdict]:
        """End of stream: classify the messages still open."""
        return self._classify(self.extractor.finish())

    def submit(self, message: StreamMessage) -> None:
        """Number one message and queue it for classification."""
        ingest_t = monotonic() if self._registry.enabled else 0.0
        self._pending.append((self.next_seq, message, ingest_t))
        self.next_seq += 1

    def _classify(self, messages: list[StreamMessage]) -> list[StreamVerdict]:
        if not messages:  # most chunks carry no complete message
            return []
        for message in messages:
            if self.rewrite is not None:
                edge_set = self.rewrite(self.next_seq, message.edge_set)
                if edge_set is not message.edge_set:
                    message = replace(message, edge_set=edge_set)
            self.submit(message)
        pending, self._pending = self._pending, []
        verdicts: list[StreamVerdict] = []
        try:
            for start in range(0, len(pending), self.batch_size):
                self._classify_batch(pending[start : start + self.batch_size], verdicts)
        except Exception as exc:
            raise StreamError(f"stream classification failed: {exc}") from exc
        return verdicts

    def _classify_batch(
        self,
        batch: list[tuple[int, StreamMessage, float]],
        verdicts: list[StreamVerdict],
    ) -> None:
        vectors = np.stack([message.edge_set.vector for _, message, _ in batch])
        sas = [message.edge_set.source_address for _, message, _ in batch]
        results, folded = self.detector.classify_and_update(vectors, sas, self.updater)
        self.updated += folded
        registry = self._registry
        for (seq, message, ingest_t), result in zip(batch, results):
            if registry.enabled and ingest_t:
                registry.histogram(
                    LATENCY_METRIC,
                    help="Ingest-to-verdict latency through the stream runtime",
                ).observe(monotonic() - ingest_t)
            if self.recorder is not None:
                self.recorder.record(
                    seq,
                    result.source_address,
                    message.start_s,
                    message.edge_set.vector,
                    result,
                )
            if self.health is not None:
                self.health.record_verdict(result.source_address, result.is_anomaly)
            verdicts.append(StreamVerdict(seq=seq, message=message, result=result))

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path) -> None:
        """Write the profile store, extractor state and counters.  Before
        the first chunk there is no extractor state; a fresh one is equal."""
        save_checkpoint(
            directory,
            model=self.detector.model,
            extraction=self.extractor.extraction,
            extractor_state=self.extractor.state_dict() if self.next_chunk else None,
            next_chunk=self.next_chunk,
            next_seq=self.next_seq,
            margin=self.detector.margin,
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Continue the verdict sequence where ``checkpoint`` stopped (the
        caller builds the engine around ``checkpoint.model``)."""
        if checkpoint.extractor_state is not None:
            self.extractor.load_state(checkpoint.extractor_state)
        if checkpoint.extraction is not None:
            self.extractor.extraction = checkpoint.extraction
        self.next_chunk = checkpoint.next_chunk
        self.next_seq = checkpoint.next_seq


#: The engine's former name, still imported by the stream-replay benchmark.
ShardedWorkerPool = ChunkEngine
