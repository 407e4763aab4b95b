"""Bounded time-series store: longitudinal snapshots of the registry.

The metrics registry answers "what is the value *now*"; this module
answers "how did it get there".  A :class:`TimeSeriesStore` periodically
snapshots an attached :class:`~repro.obs.registry.MetricsRegistry` —
counter and gauge values plus histogram count/sum and the P² quantile
estimates — into fixed-memory ring windows:

* a **fine** ring of raw snapshots (one point per sampling interval);
* a **coarse** ring of downsampled aggregates: every ``downsample``
  fine points collapse into one point carrying min/max/mean/last per
  series, so the store covers ``capacity * downsample`` intervals of
  history at reduced resolution without growing.

Memory is provably bounded: both rings are ``deque(maxlen=capacity)``
and each point is a flat ``{series_key: value}`` dict over the
registry's current instruments.

All clock reads go through :mod:`repro.obs.clock` (the VPL103 funnel);
``sample(now=...)`` accepts an explicit timestamp so tests and replay
tooling can drive the store deterministically.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.clock import monotonic, wall_clock
from repro.obs.registry import Histogram, MetricsRegistry, get_registry


def series_key(name: str, labels: Mapping[str, str], suffix: str = "") -> str:
    """Canonical flat key for one instrument (plus an optional facet).

    ``vprofile_stage_seconds{stage="extract"}:p99`` — stable across
    snapshots, so consecutive points of one series line up by key.
    """
    label_text = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    base = f"{name}{{{label_text}}}" if label_text else name
    return f"{base}:{suffix}" if suffix else base


@dataclass(frozen=True)
class TimePoint:
    """One snapshot of every registry instrument at one instant.

    Attributes
    ----------
    ts:
        Wall-clock epoch seconds of the snapshot.
    values:
        Flat ``series_key -> value`` mapping; histogram series fan out
        into ``:count`` / ``:sum`` / ``:p50`` (etc.) facets.
    """

    ts: float
    values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AggregatePoint:
    """``downsample`` fine points collapsed into one coarse point.

    ``ts`` spans ``[ts_first, ts_last]``; per-series statistics keep the
    envelope (min/max), the central tendency (mean) and the most recent
    value (last) so monotonic counters stay readable after aggregation.
    """

    ts_first: float
    ts_last: float
    n: int
    minimum: dict[str, float] = field(default_factory=dict)
    maximum: dict[str, float] = field(default_factory=dict)
    mean: dict[str, float] = field(default_factory=dict)
    last: dict[str, float] = field(default_factory=dict)


class TimeSeriesStore:
    """Fixed-memory longitudinal view over a metrics registry.

    Parameters
    ----------
    registry:
        Registry to snapshot; defaults to the active one at each sample
        (so the store follows ``set_registry`` swaps).
    capacity:
        Ring size of both the fine and the coarse window.
    interval_s:
        Minimum seconds between :meth:`maybe_sample` snapshots.
    downsample:
        Fine points folded into one coarse aggregate (>= 1).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        capacity: int = 512,
        interval_s: float = 1.0,
        downsample: int = 8,
    ):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        if interval_s < 0:
            raise ObservabilityError(f"interval must be >= 0, got {interval_s}")
        if downsample < 1:
            raise ObservabilityError(f"downsample must be >= 1, got {downsample}")
        self._registry = registry
        self.capacity = int(capacity)
        self.interval_s = float(interval_s)
        self.downsample = int(downsample)
        self._fine: deque[TimePoint] = deque(maxlen=self.capacity)
        self._coarse: deque[AggregatePoint] = deque(maxlen=self.capacity)
        self._pending: list[TimePoint] = []
        self._last_sample_mono: float | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _snapshot_values(self, registry: MetricsRegistry) -> dict[str, float]:
        values: dict[str, float] = {}
        for family, children in registry.collect():
            for labels, child in children:
                if isinstance(child, Histogram):
                    values[series_key(family.name, labels, "count")] = float(child.count)
                    values[series_key(family.name, labels, "sum")] = float(child.sum)
                    for q, estimate in child.quantiles.items():
                        if estimate is not None:
                            facet = f"p{q * 100:g}".replace(".", "_")
                            values[series_key(family.name, labels, facet)] = float(estimate)
                else:
                    values[series_key(family.name, labels)] = float(child.value)
        return values

    def sample(self, now: float | None = None) -> TimePoint:
        """Take one snapshot unconditionally and append it to the ring."""
        registry = self._registry if self._registry is not None else get_registry()
        point = TimePoint(
            ts=wall_clock() if now is None else float(now),
            values=self._snapshot_values(registry),
        )
        with self._lock:
            self._fine.append(point)
            self._pending.append(point)
            if len(self._pending) >= self.downsample:
                self._coarse.append(_aggregate(self._pending))
                self._pending = []
            self._last_sample_mono = monotonic()
        return point

    def due(self) -> bool:
        """True when ``interval_s`` has elapsed since the last sample.

        One clock read, no snapshot cost — callers that want to do
        extra work per sample (e.g. export health gauges first) gate on
        this and then call :meth:`sample` themselves.
        """
        with self._lock:
            last = self._last_sample_mono
        if last is None:
            return True
        return monotonic() - last >= self.interval_s

    def maybe_sample(self, now: float | None = None) -> TimePoint | None:
        """Snapshot only when ``interval_s`` has elapsed since the last.

        This is the hook the streaming runtime calls once per ingested
        chunk; at most one clock read per call, none of the snapshot
        cost when the interval has not passed.
        """
        if not self.due():
            return None
        return self.sample(now)

    def flush(self) -> None:
        """Fold any pending fine points into a final coarse aggregate."""
        with self._lock:
            if self._pending:
                self._coarse.append(_aggregate(self._pending))
                self._pending = []

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fine)

    @property
    def points(self) -> list[TimePoint]:
        """Fine-window snapshots, oldest first."""
        with self._lock:
            return list(self._fine)

    @property
    def aggregates(self) -> list[AggregatePoint]:
        """Coarse-window aggregates, oldest first."""
        with self._lock:
            return list(self._coarse)

    def series(self, key: str) -> list[tuple[float, float]]:
        """``(ts, value)`` pairs of one series across the fine window."""
        with self._lock:
            return [
                (p.ts, p.values[key]) for p in self._fine if key in p.values
            ]

    def keys(self) -> list[str]:
        """Every series key present anywhere in the fine window."""
        seen: dict[str, None] = {}
        with self._lock:
            for point in self._fine:
                for key in point.values:
                    seen.setdefault(key)
        return list(seen)

    def to_payload(self, last: int | None = None) -> dict:
        """JSON-serialisable dump (the ``/timeseries`` endpoint body)."""
        with self._lock:
            fine = list(self._fine)
            coarse = list(self._coarse)
        if last is not None and last >= 0:
            fine = fine[-last:]
            coarse = coarse[-last:]
        return {
            "capacity": self.capacity,
            "interval_s": self.interval_s,
            "downsample": self.downsample,
            "fine": [{"ts": p.ts, "values": p.values} for p in fine],
            "coarse": [
                {
                    "ts_first": a.ts_first,
                    "ts_last": a.ts_last,
                    "n": a.n,
                    "min": a.minimum,
                    "max": a.maximum,
                    "mean": a.mean,
                    "last": a.last,
                }
                for a in coarse
            ],
        }


def _aggregate(points: list[TimePoint]) -> AggregatePoint:
    """Collapse consecutive fine points into one coarse point."""
    minimum: dict[str, float] = {}
    maximum: dict[str, float] = {}
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    last: dict[str, float] = {}
    for point in points:
        for key, value in point.values.items():
            if key in minimum:
                if value < minimum[key]:
                    minimum[key] = value
                if value > maximum[key]:
                    maximum[key] = value
                total[key] += value
                count[key] += 1
            else:
                minimum[key] = maximum[key] = total[key] = value
                count[key] = 1
            last[key] = value
    return AggregatePoint(
        ts_first=points[0].ts,
        ts_last=points[-1].ts,
        n=len(points),
        minimum=minimum,
        maximum=maximum,
        mean={k: total[k] / count[k] for k in total},
        last=last,
    )


def _series_iter(points: list[TimePoint], key: str) -> Iterator[float]:
    for point in points:
        if key in point.values:
            yield point.values[key]


__all__ = [
    "AggregatePoint",
    "TimePoint",
    "TimeSeriesStore",
    "series_key",
]
