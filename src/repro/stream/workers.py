"""Stream classification: Algorithm 3, then 4, on the ingest thread.

:class:`ShardedWorkerPool` collects the messages extracted from one
chunk; :meth:`~ShardedWorkerPool.flush` hands them to
:meth:`~repro.core.detection.Detector.classify_and_update` in calls of
at most ``batch_size`` messages.  The kernel computes a call's distances
in one vectorised step and then applies Algorithm 3 and Algorithm 4
message by message, so the verdicts do not depend on where the call
boundaries fall, and they come out in stream sequence order.

Everything runs on the thread that calls :meth:`StreamRuntime.run
<repro.stream.runtime.StreamRuntime.run>`.  A classification thread
behind a queue cost more than it bought: NumPy releases the GIL inside
every large-array call, and each release handed the GIL to the other
thread and cost a wake-up to get it back.  On stream-replay (Vehicle A,
2 cores) that made 18-24 voluntary context switches per message;
classifying inline makes none (see ``docs/streaming.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.detection import DetectionResult, Detector
from repro.core.online_update import OnlineUpdater
from repro.errors import StreamError
from repro.obs.clock import monotonic
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import get_registry
from repro.stream.extractor import StreamMessage

#: Ingest-to-verdict latency of one message through the runtime.
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


class ShardedWorkerPool:
    """The classification stage: collect a chunk's messages, then classify.

    The name predates the inline design (it once ran SA-sharded worker
    threads); it is kept because callers import it.

    Parameters
    ----------
    detector:
        The trained detector.
    batch_size:
        Max feature vectors per kernel call.  It bounds the per-fold
        column recompute when one chunk holds many messages.
    updater:
        Optional Algorithm 4 online updater; OK verdicts are folded into
        the shared model.
    on_result:
        Callback invoked for every verdict, in sequence order.
    recorder:
        Optional flight recorder; every verdict is appended to its ring.
    """

    def __init__(
        self,
        detector: Detector,
        *,
        batch_size: int = 8,
        updater: OnlineUpdater | None = None,
        on_result: Callable[[StreamVerdict], None] | None = None,
        recorder: FlightRecorder | None = None,
    ):
        if batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size}")
        self.detector = detector
        self.batch_size = int(batch_size)
        self.updater = updater
        self.on_result = on_result
        self.recorder = recorder
        self.updated = 0
        self._pending: list[tuple[int, StreamMessage, float]] = []
        self._registry = get_registry()

    def submit(self, seq: int, message: StreamMessage) -> None:
        """Collect one message for the next :meth:`flush`."""
        ingest_t = monotonic() if self._registry.enabled else 0.0
        self._pending.append((seq, message, ingest_t))

    def flush(self) -> None:
        """Classify every collected message, in order, on this thread.

        Raises :class:`StreamError`, with the cause chained, when the
        kernel, the recorder or the ``on_result`` callback fails.
        """
        if not self._pending:  # most chunks carry no complete message
            return
        pending, self._pending = self._pending, []
        try:
            for start in range(0, len(pending), self.batch_size):
                self._classify_batch(pending[start : start + self.batch_size])
        except Exception as exc:
            raise StreamError(f"stream classification failed: {exc}") from exc

    def _classify_batch(self, batch: list[tuple[int, StreamMessage, float]]) -> None:
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
            if self.on_result is not None:
                self.on_result(StreamVerdict(seq=seq, message=message, result=result))
