"""Longitudinal telemetry bundle for the streaming runtime.

:class:`StreamTelemetry` wires the three ``repro.obs`` longitudinal
components into one object the runtime can drive:

* a :class:`~repro.obs.timeseries.TimeSeriesStore` sampled once per
  ingested chunk (rate-limited by its own interval);
* a :class:`~repro.obs.health.ProfileHealthMonitor` fed every verdict
  and every Algorithm-4 update decision;
* an optional :class:`~repro.obs.recorder.FlightRecorder` (enabled by
  setting ``flight_dir``) that dumps forensics bundles on alert.

The aggregator itself holds no locks: each component is internally
thread-safe (the ``--serve`` endpoint reads them from its own threads),
and the aggregator only ever delegates.  The runtime calls
``on_verdict``, ``on_chunk`` and ``finish`` from the thread that runs
the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.model import VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.obs.health import HealthConfig, ProfileHealthMonitor
from repro.obs.recorder import FlightRecorder
from repro.obs.timeseries import TimeSeriesStore
from repro.stream.workers import StreamVerdict


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the streaming telemetry layer.

    Attributes
    ----------
    timeseries_capacity / timeseries_interval_s / timeseries_downsample:
        Ring size, sampling interval and coarse-aggregation factor of
        the time-series store (capacity 0 disables the store).
    health:
        Profile-health thresholds; ``None`` uses the defaults.
    flight_dir:
        Directory for forensics bundles; ``None`` disables the flight
        recorder.
    recorder_capacity / post_alert / max_bundles:
        Ring size, post-alert context length, and bundle cap
        of the flight recorder.
    """

    timeseries_capacity: int = 512
    timeseries_interval_s: float = 0.25
    timeseries_downsample: int = 8
    health: HealthConfig | None = None
    flight_dir: str | Path | None = None
    recorder_capacity: int = 128
    post_alert: int = 16
    max_bundles: int = 8


class StreamTelemetry:
    """Time-series + health + flight recorder, driven by the runtime."""

    def __init__(
        self,
        config: TelemetryConfig,
        *,
        model: VProfileModel,
        margin: float = 0.0,
    ) -> None:
        self.config = config
        self.timeseries: TimeSeriesStore | None = None
        if config.timeseries_capacity > 0:
            self.timeseries = TimeSeriesStore(
                capacity=config.timeseries_capacity,
                interval_s=config.timeseries_interval_s,
                downsample=config.timeseries_downsample,
            )
        self.health: ProfileHealthMonitor = ProfileHealthMonitor(
            model, config.health
        )
        self.recorder: FlightRecorder | None = None
        if config.flight_dir is not None:
            self.recorder = FlightRecorder(
                config.flight_dir,
                capacity=config.recorder_capacity,
                post_alert=config.post_alert,
                max_bundles=config.max_bundles,
                model=model,
                margin=margin,
            )
        self.bundles: list[Path] = []

    # ------------------------------------------------------------------
    # Hooks driven by the runtime
    # ------------------------------------------------------------------
    def attach_updater(self, updater: OnlineUpdater | None) -> None:
        """Route Algorithm-4 accept/reject decisions into the monitor."""
        if updater is not None:
            updater.observer = self.health.record_update

    def on_chunk(self) -> None:
        """Supervisor hook: advance telemetry once per ingested chunk.

        Health gauges are exported *before* the time-series store
        samples, so each snapshot carries the freshest per-SA health;
        both ride the store's rate limit (at most one assessment sweep
        per sampling interval), keeping the per-chunk cost flat.
        """
        if self.timeseries is None:
            self.health.export()
            return
        if self.timeseries.due():
            self.health.export()
            self.timeseries.sample()

    def on_verdict(self, verdict: StreamVerdict) -> None:
        """Classification hook: feed one verdict into the monitor."""
        self.health.record_verdict(
            verdict.result.source_address, verdict.result.is_anomaly
        )

    def finish(self) -> list[Path]:
        """End of run: flush pending dumps, final sample, export gauges."""
        if self.recorder is not None:
            self.bundles = list(self.recorder.bundle_paths)
            for path in self.recorder.finish():
                self.bundles.append(path)
        if self.timeseries is not None:
            self.timeseries.sample()
            self.timeseries.flush()
        self.health.export()
        return self.bundles


__all__ = ["StreamTelemetry", "TelemetryConfig"]
