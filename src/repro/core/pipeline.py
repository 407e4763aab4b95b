"""End-to-end vProfile pipeline: traces in, verdicts out.

Glues the three operational stages of Section 3.2 together for users who
want a ready-made IDS component:

* **Preprocessing** — edge-set extraction from raw voltage traces;
* **Training** — fitting the cluster model from a training capture;
* **Detection** — classifying live traces, optionally feeding verified
  legitimate messages back into the model via the Algorithm 4 online
  updater.

Observability: when a metrics registry is enabled (:mod:`repro.obs`),
the pipeline exports message/anomaly/update counters and the per-stage
latency histograms recorded inside ``extract_edge_set`` /
``Detector.classify_batch`` / ``OnlineUpdater.update``, and emits
structured events for training runs and anomalies.  With observability
disabled (the default) every handle is a stateless no-op singleton, so
:meth:`VProfilePipeline.process` pays one global read and an identity
check per message — nothing else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.acquisition.trace import VoltageTrace
from repro.core.detection import DetectionResult, Detector, Verdict
from repro.core.edge_extraction import (
    ExtractionConfig,
    extract_edge_set,
    extract_many,
)
from repro.core.model import Metric, VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.core.training import TrainingData, train_model
from repro.errors import DetectionError
from repro.obs import preregister_pipeline_metrics
from repro.obs.events import get_event_log
from repro.obs.health import HealthConfig, ProfileHealthMonitor
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span


@dataclass
class PipelineConfig:
    """Configuration of a :class:`VProfilePipeline`.

    Attributes
    ----------
    metric:
        Distance metric for training and detection.
    margin:
        Detection margin added to the per-cluster thresholds.
    sa_clusters:
        Optional SA -> ECU lookup table (the "fortunate" training path).
    online_update:
        When True, messages classified OK are folded back into the model
        (Algorithm 4).  Requires the Mahalanobis metric.
    retrain_bound:
        Upper bound ``M`` on per-cluster counts for the online updater.
    shrinkage:
        Covariance shrinkage for training (0 matches the paper).
    jobs:
        Worker processes for training-time edge-set extraction (``None``
        keeps it serial).  Extraction is deterministic, so the trained
        model is identical for every value.
    """

    metric: Metric | str = Metric.MAHALANOBIS
    margin: float = 0.0
    sa_clusters: Mapping[int, str] | None = None
    online_update: bool = False
    retrain_bound: int | None = None
    shrinkage: float = 0.0
    jobs: int | None = None


@dataclass
class PipelineStats:
    """Counters accumulated while the pipeline runs.

    ``reasons`` is a :class:`collections.Counter`, so missing reasons
    read as 0 and it still quacks like the plain dict it used to be.
    """

    processed: int = 0
    anomalies: int = 0
    updated: int = 0
    reasons: Counter = field(default_factory=Counter)


class VProfilePipeline:
    """A trainable, streaming sender-identification pipeline."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.extraction: ExtractionConfig | None = None
        self.model: VProfileModel | None = None
        self._detector: Detector | None = None
        self._updater: OnlineUpdater | None = None
        self.stats = PipelineStats()
        self.health: ProfileHealthMonitor | None = None
        self._obs_registry: MetricsRegistry | None = None
        self._m_processed = None
        self._m_updated = None

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _bind_obs(self, registry: MetricsRegistry) -> None:
        """(Re)resolve metric handles against the active registry.

        Called whenever the active registry changes identity; on the
        null registry the handles are the shared no-op singletons, which
        is what makes the disabled path free.
        """
        self._obs_registry = registry
        preregister_pipeline_metrics(registry)
        self._m_processed = registry.counter(
            "vprofile_messages_total", help="Messages classified by the detector"
        )
        self._m_updated = registry.counter(
            "vprofile_online_updates_total",
            help="Edge sets folded into the model by Algorithm 4",
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        traces: Sequence[VoltageTrace],
        extraction: ExtractionConfig | None = None,
    ) -> VProfileModel:
        """Run preprocessing + Algorithm 2 over a training capture."""
        if not traces:
            raise DetectionError("cannot train on an empty capture")
        with span("pipeline.train") as sp:
            self.extraction = extraction or ExtractionConfig.for_trace(traces[0])
            if self.config.jobs is not None:
                from repro.perf.engine import extract_many_parallel

                edge_sets = extract_many_parallel(
                    traces, self.extraction, jobs=self.config.jobs
                )
            else:
                edge_sets = extract_many(traces, self.extraction)
            self.model = train_model(
                TrainingData.from_edge_sets(edge_sets),
                metric=self.config.metric,
                sa_clusters=self.config.sa_clusters,
                shrinkage=self.config.shrinkage,
            )
            self._detector = Detector(self.model, margin=self.config.margin)
            self._updater = None
            if self.config.online_update:
                self._updater = OnlineUpdater(self.model, self.config.retrain_bound)
        registry = get_registry()
        self._bind_obs(registry)
        registry.gauge(
            "vprofile_model_clusters", help="Clusters in the trained model"
        ).set(self.model.n_clusters)
        get_event_log().info(
            "pipeline.trained",
            traces=len(traces),
            clusters=self.model.n_clusters,
            metric=self.model.metric.value,
            wall_s=sp.wall_s,
            cpu_s=sp.cpu_s,
        )
        return self.model

    def load_model(
        self, model: VProfileModel, extraction: ExtractionConfig
    ) -> None:
        """Adopt a pre-trained model instead of training."""
        self.model = model
        self.extraction = extraction
        self._detector = Detector(model, margin=self.config.margin)
        self._updater = (
            OnlineUpdater(model, self.config.retrain_bound)
            if self.config.online_update
            else None
        )
        self._bind_obs(get_registry())

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        return self._detector is not None

    @property
    def detector(self) -> Detector:
        """The trained detector (shared with the streaming runtime)."""
        if self._detector is None:
            raise DetectionError("pipeline is not trained")
        return self._detector

    @property
    def updater(self) -> OnlineUpdater | None:
        """The Algorithm 4 updater, when online updates are enabled."""
        return self._updater

    def enable_health(
        self, config: HealthConfig | None = None
    ) -> ProfileHealthMonitor:
        """Attach a profile-health monitor to the trained model.

        Pins the current cluster profiles as the drift baseline, routes
        Algorithm-4 accept/reject decisions into the monitor, and makes
        :meth:`process` record every verdict.  Call after :meth:`train`
        or :meth:`load_model` — the baseline is whatever the profiles
        look like *now*.
        """
        if self.model is None:
            raise DetectionError("pipeline is not trained")
        self.health = ProfileHealthMonitor(self.model, config)
        if self._updater is not None:
            self._updater.observer = self.health.record_update
        return self.health

    def process(self, trace: VoltageTrace) -> DetectionResult:
        """Classify one trace, updating counters (and the model if
        online updates are enabled)."""
        if self._detector is None or self.extraction is None:
            raise DetectionError("pipeline is not trained")
        registry = get_registry()
        if registry is not self._obs_registry:
            self._bind_obs(registry)
        edge_set = extract_edge_set(trace, self.extraction)
        [result], folded = self._detector.classify_and_update(
            [edge_set.vector], [edge_set.source_address], self._updater
        )
        if self.health is not None:
            self.health.record_verdict(result.source_address, result.is_anomaly)
        stats = self.stats
        stats.processed += 1
        self._m_processed.inc()
        if result.is_anomaly:
            stats.anomalies += 1
            reason = result.reason.value if result.reason else "unknown"
            stats.reasons[reason] += 1
            registry.counter("vprofile_anomalies_total", reason=reason).inc()
            get_event_log().warning(
                "pipeline.anomaly",
                reason=reason,
                source_address=result.source_address,
                min_distance=result.min_distance,
                slack=result.slack,
            )
        elif folded:
            stats.updated += folded
            self._m_updated.inc(folded)
        return result

    def process_stream(
        self, traces: Iterable[VoltageTrace]
    ) -> Iterable[DetectionResult]:
        """Lazily classify a stream of traces."""
        for trace in traces:
            yield self.process(trace)

    def stream(self, source, config=None, *, resume=None):
        """Run the online streaming runtime against this pipeline.

        ``source`` is a :class:`repro.stream.ChunkSource`; ``config`` a
        :class:`repro.stream.StreamConfig`; ``resume`` an optional
        checkpoint (object or directory).  The runtime classifies on the
        calling thread, and the profile store, the Algorithm 4 updater
        and the pipeline counters are shared: online updates
        learned on the stream are immediately visible to
        :meth:`process` and vice versa.  Returns the run's
        :class:`repro.stream.StreamReport`.
        """
        from repro.stream.runtime import StreamRuntime

        return StreamRuntime(self, config).run(source, resume=resume)

    def anomaly_rate(self) -> float:
        """Fraction of processed messages flagged anomalous."""
        if self.stats.processed == 0:
            return 0.0
        return self.stats.anomalies / self.stats.processed
