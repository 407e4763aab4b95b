"""Per-source-address profile-health monitor.

Algorithm 4 lets cluster profiles track benign drift, which is exactly
the surface a slow-poisoning adversary exploits (Sagong et al.): each
accepted update is individually plausible, but the profile walks away
from its trained position.  This module watches that walk.

At attach time the monitor **pins a baseline**: a frozen copy of every
cluster's mean and inverse covariance.  From then on it tracks, per
source address:

* **drift distance** — Mahalanobis distance of the *live* cluster mean
  from the pinned baseline mean, under the baseline inverse covariance
  (so the yardstick itself cannot be poisoned);
* **update-acceptance rate** — fraction of recent Algorithm-4 update
  attempts that were folded into the profile;
* **alert rate** — fraction of recent verdicts that were anomalous.

Each assessment maps to ``healthy`` / ``drifting`` / ``suspect`` with
hysteresis: a state change requires ``hysteresis`` consecutive raw
assessments agreeing, so a single borderline sample cannot flap the
verdict.  Verdicts are exported as ``vprofile_profile_health`` gauges
(0 = healthy, 1 = drifting, 2 = suspect) plus the underlying drift /
rate gauges.

The monitor duck-types the model (anything with ``cluster_of_sa`` and
``clusters`` carrying ``name`` / ``mean`` / ``inv_covariance``) and
computes Mahalanobis distance inline — ``repro.obs`` must stay
import-cycle free from ``repro.core``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.registry import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.core.model import VProfileModel

HEALTHY = "healthy"
DRIFTING = "drifting"
SUSPECT = "suspect"

_STATE_CODES = {HEALTHY: 0, DRIFTING: 1, SUSPECT: 2}

HEALTH_METRIC = "vprofile_profile_health"
DRIFT_METRIC = "vprofile_profile_drift_distance"
ACCEPT_RATE_METRIC = "vprofile_profile_update_accept_ratio"
ALERT_RATE_METRIC = "vprofile_profile_alert_ratio"


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds and hysteresis for profile-health assessment.

    ``drift_warn``/``drift_alarm`` are Mahalanobis distances of the live
    cluster mean from its pinned baseline; the defaults assume the
    whitened scale the paper's profiles live on (a healthy mean stays
    well under one baseline standard deviation).
    """

    drift_warn: float = 1.0
    drift_alarm: float = 3.0
    alert_rate_warn: float = 0.1
    alert_rate_alarm: float = 0.5
    accept_rate_floor: float = 0.2
    window: int = 256
    hysteresis: int = 3

    def __post_init__(self) -> None:
        if self.drift_warn <= 0 or self.drift_alarm <= self.drift_warn:
            raise ObservabilityError(
                "need 0 < drift_warn < drift_alarm, got "
                f"{self.drift_warn} / {self.drift_alarm}"
            )
        if self.window < 1:
            raise ObservabilityError(f"window must be >= 1, got {self.window}")
        if self.hysteresis < 1:
            raise ObservabilityError(
                f"hysteresis must be >= 1, got {self.hysteresis}"
            )


@dataclass(frozen=True)
class HealthAssessment:
    """One source address's health at one instant."""

    source_address: int
    cluster: str | None
    state: str
    drift_distance: float
    update_accept_ratio: float
    alert_ratio: float
    verdicts_seen: int
    updates_seen: int

    @property
    def code(self) -> int:
        """Numeric state for gauge export (0/1/2)."""
        return _STATE_CODES[self.state]


class _SourceWindow:
    """Bounded recent-history window for one source address."""

    __slots__ = ("verdicts", "updates", "state", "candidate", "streak")

    def __init__(self, window: int):
        self.verdicts: deque[bool] = deque(maxlen=window)  # True == anomaly
        self.updates: deque[bool] = deque(maxlen=window)  # True == accepted
        self.state = HEALTHY
        self.candidate = HEALTHY
        self.streak = 0


class ProfileHealthMonitor:
    """Watches live cluster profiles against a pinned baseline.

    Thread-safe: ``record_verdict`` / ``record_update`` are called by the
    streaming runtime while ``/health`` scrapes read from the metrics
    server's threads; one lock guards all mutable state.
    """

    def __init__(self, model: "VProfileModel", config: HealthConfig | None = None):
        self.config = config or HealthConfig()
        self._model = model
        # Pin the baseline: frozen copies, so later Algorithm-4 updates
        # to the live model cannot move the yardstick.
        self._baseline_mean: dict[str, np.ndarray] = {}
        self._baseline_inv_cov: dict[str, np.ndarray] = {}
        for cluster in model.clusters:
            self._baseline_mean[cluster.name] = np.array(
                cluster.mean, dtype=np.float64, copy=True
            )
            self._baseline_inv_cov[cluster.name] = np.array(
                cluster.inv_covariance, dtype=np.float64, copy=True
            )
        self._windows: dict[int, _SourceWindow] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (hot path, called per verdict)
    # ------------------------------------------------------------------
    def record_verdict(self, source_address: int, is_anomaly: bool) -> None:
        with self._lock:
            self._window(source_address).verdicts.append(bool(is_anomaly))

    def record_update(self, source_address: int, accepted: bool) -> None:
        with self._lock:
            self._window(source_address).updates.append(bool(accepted))

    def _window(self, source_address: int) -> _SourceWindow:
        window = self._windows.get(source_address)
        if window is None:
            window = _SourceWindow(self.config.window)
            self._windows[source_address] = window
        return window

    # ------------------------------------------------------------------
    # Assessment
    # ------------------------------------------------------------------
    def drift_distance(self, source_address: int) -> float:
        """Mahalanobis distance of the live mean from the pinned baseline."""
        cluster = self._cluster_for(source_address)
        if cluster is None:
            return float("nan")
        baseline_mean = self._baseline_mean[cluster.name]
        inv_cov = self._baseline_inv_cov[cluster.name]
        delta = np.asarray(cluster.mean, dtype=np.float64) - baseline_mean
        return float(np.sqrt(delta @ inv_cov @ delta))

    def _cluster_for(self, source_address: int):
        idx = self._model.cluster_of_sa(source_address)
        if idx is None:
            return None
        return self._model.clusters[idx]

    def assess(self, source_address: int) -> HealthAssessment:
        """Assess one SA and advance its hysteresis state machine."""
        cluster = self._cluster_for(source_address)
        drift = self.drift_distance(source_address)
        with self._lock:
            window = self._window(source_address)
            n_verdicts = len(window.verdicts)
            n_updates = len(window.updates)
            alert_ratio = (
                sum(window.verdicts) / n_verdicts if n_verdicts else 0.0
            )
            accept_ratio = (
                sum(window.updates) / n_updates if n_updates else 1.0
            )
            raw = self._raw_state(drift, alert_ratio, accept_ratio, n_updates)
            state = self._advance(window, raw)
        return HealthAssessment(
            source_address=source_address,
            cluster=cluster.name if cluster is not None else None,
            state=state,
            drift_distance=drift,
            update_accept_ratio=accept_ratio,
            alert_ratio=alert_ratio,
            verdicts_seen=n_verdicts,
            updates_seen=n_updates,
        )

    def _raw_state(
        self,
        drift: float,
        alert_ratio: float,
        accept_ratio: float,
        n_updates: int,
    ) -> str:
        cfg = self.config
        if not np.isnan(drift) and drift >= cfg.drift_alarm:
            return SUSPECT
        if alert_ratio >= cfg.alert_rate_alarm:
            return SUSPECT
        if not np.isnan(drift) and drift >= cfg.drift_warn:
            return DRIFTING
        if alert_ratio >= cfg.alert_rate_warn:
            return DRIFTING
        if n_updates > 0 and accept_ratio < cfg.accept_rate_floor:
            # The updater keeps refusing this SA's samples: the live
            # traffic no longer matches the profile it maps to.
            return DRIFTING
        return HEALTHY

    def _advance(self, window: _SourceWindow, raw: str) -> str:
        """Hysteresis: require ``hysteresis`` consecutive agreements."""
        if raw == window.state:
            window.candidate = raw
            window.streak = 0
            return window.state
        if raw == window.candidate:
            window.streak += 1
        else:
            window.candidate = raw
            window.streak = 1
        if window.streak >= self.config.hysteresis:
            window.state = raw
            window.streak = 0
        return window.state

    def assess_all(self) -> dict[int, HealthAssessment]:
        """Assess every source address seen so far, sorted by SA."""
        with self._lock:
            addresses = sorted(self._windows)
        return {sa: self.assess(sa) for sa in addresses}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def verdicts(self) -> dict:
        """JSON-serialisable per-SA health report (the ``/health`` body)."""
        assessments = self.assess_all()
        states = [a.state for a in assessments.values()]
        overall = HEALTHY
        if SUSPECT in states:
            overall = SUSPECT
        elif DRIFTING in states:
            overall = DRIFTING
        return {
            "overall": overall,
            "sources": {
                f"0x{sa:02X}": {
                    "cluster": a.cluster,
                    "state": a.state,
                    "drift_distance": None
                    if np.isnan(a.drift_distance)
                    else a.drift_distance,
                    "update_accept_ratio": a.update_accept_ratio,
                    "alert_ratio": a.alert_ratio,
                    "verdicts_seen": a.verdicts_seen,
                    "updates_seen": a.updates_seen,
                }
                for sa, a in assessments.items()
            },
        }

    def export(self, registry: MetricsRegistry | None = None) -> None:
        """Publish per-SA health gauges into the metrics registry."""
        registry = registry if registry is not None else get_registry()
        for sa, a in self.assess_all().items():
            labels: Mapping[str, str] = {"sa": f"0x{sa:02X}"}
            registry.gauge(
                HEALTH_METRIC,
                "Profile health state (0=healthy 1=drifting 2=suspect).",
                **labels,
            ).set(float(a.code))
            if not np.isnan(a.drift_distance):
                registry.gauge(
                    DRIFT_METRIC,
                    "Mahalanobis drift of live cluster mean from pinned baseline.",
                    **labels,
                ).set(a.drift_distance)
            registry.gauge(
                ACCEPT_RATE_METRIC,
                "Fraction of recent Algorithm-4 updates accepted.",
                **labels,
            ).set(a.update_accept_ratio)
            registry.gauge(
                ALERT_RATE_METRIC,
                "Fraction of recent verdicts that were anomalous.",
                **labels,
            ).set(a.alert_ratio)


__all__ = [
    "ACCEPT_RATE_METRIC",
    "ALERT_RATE_METRIC",
    "DRIFTING",
    "DRIFT_METRIC",
    "HEALTHY",
    "HEALTH_METRIC",
    "HealthAssessment",
    "HealthConfig",
    "ProfileHealthMonitor",
    "SUSPECT",
]
