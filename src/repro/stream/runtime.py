"""The streaming supervisor: chunks in, ordered verdicts and alerts out.

:class:`StreamRuntime` glues the subsystem together around a trained
:class:`VProfilePipeline`:

* the **ingestion stage** pulls chunks from a :class:`ChunkSource` and
  feeds the incremental extractor;
* extracted messages are sharded by source address onto the
  :class:`ShardedWorkerPool`'s bounded queues — when a queue fills, the
  configured overflow policy (block / drop-newest / drop-oldest)
  decides between backpressure and loss;
* workers classify in vectorised batches; OK verdicts optionally fold
  back into the *shared* profile store through the pipeline's Algorithm
  4 updater, so drift adaptation learned on the stream is visible to
  every other consumer of the model;
* the supervisor checkpoints at quiesced chunk boundaries, restores
  from a checkpoint, reorders verdicts by stream sequence, and reports
  per-stage metrics through :mod:`repro.obs`.

An optional hijack injector rewrites source addresses in flight with a
seeded probability — the streaming twin of the paper's replay-and-
rewrite attack methodology, used by the CLI to demonstrate alerts.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.detection import AnomalyReason
from repro.core.pipeline import VProfilePipeline
from repro.errors import StreamError
from repro.ids.alerts import Alert, AlertLog
from repro.obs.clock import monotonic
from repro.obs.events import get_event_log
from repro.obs.registry import MetricsRegistry, get_registry
from repro.stream.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.stream.chunks import ChunkSource
from repro.stream.extractor import StreamingExtractor, StreamMessage
from repro.stream.queues import OverflowPolicy
from repro.stream.telemetry import StreamTelemetry, TelemetryConfig
from repro.stream.workers import ShardedWorkerPool, StreamVerdict

#: Chunks ingested by the runtime.
CHUNKS_METRIC = "vprofile_stream_chunks_total"
#: Samples ingested by the runtime.
SAMPLES_METRIC = "vprofile_stream_samples_total"
#: Messages that could not be extracted from the stream.
EXTRACTION_FAILURES_METRIC = "vprofile_stream_extraction_failures_total"


@dataclass
class StreamConfig:
    """Knobs of the streaming runtime.

    Attributes
    ----------
    n_workers:
        Classification workers (= shard count).
    queue_capacity / policy:
        Per-shard queue bound and overflow behaviour under load.
    batch_size:
        Feature vectors classified per vectorised detector call.
    checkpoint_dir:
        Where to write checkpoints; ``None`` disables checkpointing.
    checkpoint_every_chunks:
        Take a checkpoint after every N ingested chunks (0: only the
        final checkpoint when ``checkpoint_dir`` is set).
    hijack_probability / hijack_seed:
        In-flight SA-rewrite attack injection (0 disables).
    telemetry:
        Longitudinal telemetry: a :class:`TelemetryConfig` (the runtime
        builds the :class:`StreamTelemetry` from the pipeline's model
        at run start) or a pre-built :class:`StreamTelemetry` (when the
        caller needs the component handles up front, e.g. to serve
        ``/health`` while the run is live).  ``None`` disables it.
    """

    n_workers: int = 1
    queue_capacity: int = 256
    policy: OverflowPolicy | str = OverflowPolicy.BLOCK
    batch_size: int = 8
    checkpoint_dir: str | Path | None = None
    checkpoint_every_chunks: int = 0
    hijack_probability: float = 0.0
    hijack_seed: int = 0
    telemetry: TelemetryConfig | StreamTelemetry | None = None


@dataclass
class StreamReport:
    """What one streaming run saw and decided.

    ``verdicts`` is ordered by stream sequence number regardless of
    which worker classified each message, so two runs over the same
    source are comparable element by element.
    """

    chunks: int = 0
    samples: int = 0
    messages: int = 0
    anomalies: int = 0
    reasons: Counter = field(default_factory=Counter)
    dropped: int = 0
    updated: int = 0
    extraction_failures: int = 0
    injected_attacks: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    verdicts: list[StreamVerdict] = field(default_factory=list)
    alerts: AlertLog = field(default_factory=AlertLog)
    checkpoints: int = 0
    telemetry: StreamTelemetry | None = None
    bundles: list[Path] = field(default_factory=list)

    @property
    def frames_per_s(self) -> float:
        """End-to-end classified-message throughput."""
        if self.wall_s <= 0:
            return 0.0
        return self.messages / self.wall_s


class StreamRuntime:
    """Supervise one streaming detection run over a chunk source."""

    def __init__(self, pipeline: VProfilePipeline, config: StreamConfig | None = None):
        self.pipeline = pipeline
        self.config = config or StreamConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        source: ChunkSource,
        *,
        resume: Checkpoint | str | Path | None = None,
    ) -> StreamReport:
        """Consume ``source`` to exhaustion and return the run report.

        With ``resume`` (a :class:`Checkpoint` or a checkpoint
        directory), ingestion restarts at the checkpointed chunk with
        the checkpointed profile store and extractor state: the verdict
        sequence continues exactly where the interrupted run stopped.
        """
        config = self.config
        pipeline = self.pipeline
        checkpoint: Checkpoint | None = None
        if resume is not None:
            checkpoint = (
                resume if isinstance(resume, Checkpoint) else load_checkpoint(resume)
            )
            pipeline.load_model(checkpoint.model, checkpoint.extraction)

        if not pipeline.is_trained:
            raise StreamError("the pipeline must be trained (or resumed) to stream")

        extractor = StreamingExtractor(
            pipeline.extraction, metadata=dict(source.metadata)
        )
        start_chunk = 0
        seq = 0
        if checkpoint is not None:
            if checkpoint.extractor_state is not None:
                extractor.load_state(checkpoint.extractor_state)
                extractor.extraction = checkpoint.extraction
            start_chunk = checkpoint.next_chunk
            seq = checkpoint.next_seq

        registry = get_registry()
        events = get_event_log()
        report = StreamReport()
        results: list[StreamVerdict] = []
        results_lock = threading.Lock()

        telemetry: StreamTelemetry | None = None
        if config.telemetry is not None:
            if isinstance(config.telemetry, StreamTelemetry):
                telemetry = config.telemetry
            else:
                model = pipeline.model
                assert model is not None  # is_trained checked above
                telemetry = StreamTelemetry(
                    config.telemetry,
                    model=model,
                    margin=pipeline.config.margin,
                    n_shards=config.n_workers,
                )
            telemetry.attach_updater(pipeline.updater)
        report.telemetry = telemetry

        def collect(verdict: StreamVerdict) -> None:
            if telemetry is not None:
                telemetry.on_verdict(verdict)
            with results_lock:
                results.append(verdict)

        pool = ShardedWorkerPool(
            pipeline.detector,
            config.n_workers,
            queue_capacity=config.queue_capacity,
            policy=config.policy,
            batch_size=config.batch_size,
            updater=pipeline.updater,
            on_result=collect,
            recorder=telemetry.recorder if telemetry is not None else None,
        )
        events.info(
            "stream.started",
            workers=config.n_workers,
            policy=OverflowPolicy(config.policy).value,
            queue_capacity=config.queue_capacity,
            batch_size=config.batch_size,
            start_chunk=start_chunk,
            resumed=checkpoint is not None,
        )

        t0 = monotonic()
        try:
            for chunk in source.chunks(start_chunk):
                report.chunks += 1
                report.samples += len(chunk)
                if registry.enabled:
                    registry.counter(
                        CHUNKS_METRIC, help="Chunks ingested by the stream runtime"
                    ).inc()
                    registry.counter(
                        SAMPLES_METRIC, help="Samples ingested by the stream runtime"
                    ).inc(len(chunk))
                seq = self._submit_all(
                    pool, extractor.push(chunk), seq, report
                )
                if telemetry is not None:
                    telemetry.on_chunk()
                if (
                    config.checkpoint_dir is not None
                    and config.checkpoint_every_chunks > 0
                    and (chunk.seq + 1) % config.checkpoint_every_chunks == 0
                ):
                    pool.drain()
                    self._checkpoint(extractor, chunk.seq + 1, seq)
                    report.checkpoints += 1
                    events.info(
                        "stream.checkpoint",
                        next_chunk=chunk.seq + 1,
                        next_seq=seq,
                        path=str(config.checkpoint_dir),
                    )
            seq = self._submit_all(pool, extractor.finish(), seq, report)
            if self.config.checkpoint_dir is not None and report.chunks:
                pool.drain()
                self._checkpoint(extractor, start_chunk + report.chunks, seq)
                report.checkpoints += 1
        finally:
            pool.close()
        if telemetry is not None:
            report.bundles = telemetry.finish()
        report.wall_s = monotonic() - t0

        results.sort(key=lambda v: v.seq)
        report.verdicts = results
        report.messages = len(results)
        report.dropped = pool.dropped
        report.updated = pool.updated
        report.extraction_failures = extractor.stats.extraction_failures
        if registry.enabled and report.extraction_failures:
            registry.counter(
                EXTRACTION_FAILURES_METRIC,
                help="Messages the incremental extractor could not decode",
            ).inc(report.extraction_failures)
        for verdict in results:
            if not verdict.is_anomaly:
                continue
            report.anomalies += 1
            reason = verdict.result.reason
            reason_name = reason.value if reason else "unknown"
            report.reasons[reason_name] += 1
            report.alerts.record(
                Alert(
                    timestamp_s=verdict.message.start_s,
                    detector="stream-voltage",
                    can_id=verdict.result.source_address,
                    reason=reason_name,
                    detail=(
                        f"seq {verdict.seq}: SA "
                        f"0x{verdict.result.source_address:02X} via worker "
                        f"{verdict.worker}"
                    ),
                )
            )
        self._mirror_into_pipeline(report, registry)

        events.info(
            "stream.finished",
            chunks=report.chunks,
            messages=report.messages,
            anomalies=report.anomalies,
            dropped=report.dropped,
            updated=report.updated,
            wall_s=report.wall_s,
            frames_per_s=report.frames_per_s,
        )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _submit_all(
        self,
        pool: ShardedWorkerPool,
        messages: list[StreamMessage],
        seq: int,
        report: StreamReport,
    ) -> int:
        probability = self.config.hijack_probability
        for message in messages:
            if probability > 0:
                # Seed per sequence number, not from a shared stream:
                # a resumed run must inject exactly the attacks the
                # uninterrupted run would have injected at each seq.
                rng = np.random.default_rng([self.config.hijack_seed, seq])
                if rng.random() < probability:
                    rewritten = self._hijack(message, rng)
                    if rewritten is not None:
                        message = rewritten
                        report.injected_attacks.append(seq)
            pool.submit(seq, message)
            seq += 1
        return seq

    def _hijack(
        self, message: StreamMessage, rng: np.random.Generator
    ) -> StreamMessage | None:
        """Rewrite the claimed SA to one from a *different* cluster."""
        from dataclasses import replace

        model = self.pipeline.model
        assert model is not None
        true_sa = message.edge_set.source_address
        own_cluster = model.sa_to_cluster.get(true_sa)
        candidates = [
            sa
            for sa, cluster in model.sa_to_cluster.items()
            if cluster != own_cluster
        ]
        if not candidates:
            return None
        forged = int(candidates[int(rng.integers(len(candidates)))])
        return StreamMessage(
            edge_set=replace(message.edge_set, source_address=forged),
            start_s=message.start_s,
            index=message.index,
        )

    def _checkpoint(
        self, extractor: StreamingExtractor, next_chunk: int, next_seq: int
    ) -> None:
        assert self.config.checkpoint_dir is not None
        model = self.pipeline.model
        if model is None:
            raise StreamError("cannot checkpoint an untrained pipeline")
        save_checkpoint(
            self.config.checkpoint_dir,
            model=model,
            extraction=extractor.extraction,
            extractor_state=extractor.state_dict(),
            next_chunk=next_chunk,
            next_seq=next_seq,
            margin=self.pipeline.config.margin,
        )

    def _mirror_into_pipeline(
        self, report: StreamReport, registry: MetricsRegistry
    ) -> None:
        """Fold the run's counters into the shared pipeline stats.

        The worker path bypasses ``VProfilePipeline.process``, so the
        shared counters (and their metric twins) are reconciled here —
        one bulk update per run, not one per message.
        """
        stats = self.pipeline.stats
        stats.processed += report.messages
        stats.anomalies += report.anomalies
        stats.reasons.update(report.reasons)
        stats.updated += report.updated
        if not registry.enabled:
            return
        registry.counter(
            "vprofile_messages_total", help="Messages classified by the detector"
        ).inc(report.messages)
        for reason in AnomalyReason:
            count = report.reasons.get(reason.value, 0)
            if count:
                registry.counter(
                    "vprofile_anomalies_total", reason=reason.value
                ).inc(count)
        if report.updated:
            registry.counter(
                "vprofile_online_updates_total",
                help="Edge sets folded into the model by Algorithm 4",
            ).inc(report.updated)
