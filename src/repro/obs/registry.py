"""Process-local metrics registry: counters, gauges, histograms.

The registry is the single source of truth for everything the repo
measures about itself.  Instruments are addressed by *name + label set*
(Prometheus style), created lazily on first use, and aggregated in
process so exporting is a pure read:

    registry = MetricsRegistry()
    registry.counter("vprofile_messages_total").inc()
    registry.histogram("vprofile_stage_seconds", stage="extract").observe(4.2e-5)

A module-global *active* registry backs the convenience instrumentation
sprinkled through the hot paths (:func:`get_registry`).  It defaults to
:data:`NULL_REGISTRY`, whose instruments are stateless no-op singletons:
with observability disabled the per-message cost of an instrumented call
site is one global read plus a no-op method call — no dict lookups, no
allocation.  Enable with :func:`enable` / :func:`set_registry`.

Histograms combine fixed buckets (cheap, exportable to Prometheus) with
streaming quantile estimators (the P² algorithm of Jain & Chlamtac,
CACM 1985) so per-stage latency tails are available without retaining
samples.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence, Union

from repro.errors import ObservabilityError

#: Sorted label items; the child key inside a metric family.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds, in seconds, spanning the
#: sub-microsecond edge-walk up to whole-capture training runs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Quantiles tracked by every histogram (P² estimators).
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Value that can go up and down (e.g. cluster count, queue depth)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class P2Quantile:
    """Streaming quantile estimate without sample retention.

    The P² algorithm (Jain & Chlamtac, 1985): five markers track the
    minimum, the target quantile, the two intermediate quantiles and the
    maximum; marker heights are nudged with a piecewise-parabolic fit as
    observations arrive.  Exact for the first five observations, O(1)
    per observation afterwards.
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_n", "_np", "_dn")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ObservabilityError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: list[float] = []
        self._heights: list[float] | None = None
        self._n: list[float] = []
        self._np: list[float] = []
        self._dn: tuple[float, ...] = ()

    def observe(self, x: float) -> None:
        self.count += 1
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._np = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                self._dn = (0.0, q / 2, q, (1 + q) / 2, 1.0)
            return
        h, n = self._heights, self._n
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if h[i] <= x:
                    k = i
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                s = 1 if d >= 1 else -1
                candidate = self._parabolic(i, s)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, s)
                n[i] += s

    def _parabolic(self, i: int, s: int) -> float:
        h, n = self._heights, self._n
        return h[i] + s / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, s: int) -> float:
        h, n = self._heights, self._n
        return h[i] + s * (h[i + s] - h[i]) / (n[i + s] - n[i])

    @property
    def value(self) -> float | None:
        """Current estimate; exact while fewer than five observations."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return None
        ordered = sorted(self._initial)
        position = self.q * (len(ordered) - 1)
        low = int(position)
        frac = position - low
        if low + 1 >= len(ordered):
            return ordered[-1]
        return ordered[low] * (1 - frac) + ordered[low + 1] * frac


class Histogram:
    """Fixed buckets plus streaming quantiles.

    Buckets follow Prometheus semantics: a bound counts observations
    ``value <= bound`` and an implicit ``+Inf`` bucket catches the rest.
    """

    __slots__ = ("bounds", "_bucket_counts", "count", "sum", "min", "max", "_quantiles")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ):
        self.bounds: tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ObservabilityError("histogram needs at least one bucket bound")
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._quantiles = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        value = float(value)
        self._bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for estimator in self._quantiles.values():
            estimator.observe(value)

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Streaming estimate for a tracked quantile."""
        estimator = self._quantiles.get(q)
        if estimator is None:
            raise ObservabilityError(
                f"quantile {q} is not tracked (have {sorted(self._quantiles)})"
            )
        return estimator.value

    @property
    def quantiles(self) -> dict[float, float | None]:
        return {q: e.value for q, e in sorted(self._quantiles.items())}

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


#: Any child of a metric family.
Instrument = Union[Counter, Gauge, Histogram]


# ----------------------------------------------------------------------
# Families and the registry
# ----------------------------------------------------------------------

class MetricFamily:
    """All children (label combinations) of one metric name."""

    __slots__ = ("name", "kind", "help", "children", "buckets", "quantiles")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        quantiles: Sequence[float] | None = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.children: dict[LabelKey, Instrument] = {}
        self.buckets = buckets
        self.quantiles = quantiles


class MetricsRegistry:
    """A live, mutable collection of metric families.

    Instrument *creation* and every read of the family and child dicts
    (:meth:`families`, :meth:`get`, :meth:`samples`, :meth:`collect`)
    hold ``_lock``, so a ``/metrics`` scrape or a time-series sample can
    run while the stream runtime creates labelled children.  Readers get
    a snapshot of the dicts, never a live view.  Individual updates rely
    on the GIL (float ``+=`` races would at worst drop a tick, which is
    an acceptable trade for zero locking on the per-message path).
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- instrument accessors ------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._child(name, "counter", help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        quantiles: Sequence[float] | None = None,
        **labels: str,
    ) -> Histogram:
        return self._child(  # type: ignore[return-value]
            name, "histogram", help, labels, buckets=buckets, quantiles=quantiles
        )

    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, str],
        buckets: Sequence[float] | None = None,
        quantiles: Sequence[float] | None = None,
    ):
        # Double-checked fast path: the unlocked read is a benign race
        # (dict get is atomic under the GIL) and the locked re-check
        # below decides creation.
        family = self._families.get(name)  # vpl: ignore[VPL310]
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        name, kind, help, buckets=buckets, quantiles=quantiles
                    )
                    self._families[name] = family
        if family.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} is a {family.kind}, requested as {kind}"
            )
        if help and not family.help:
            family.help = help
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            with self._lock:
                child = family.children.get(key)
                if child is None:
                    if kind == "counter":
                        child = Counter()
                    elif kind == "gauge":
                        child = Gauge()
                    else:
                        child = Histogram(
                            buckets=family.buckets or DEFAULT_LATENCY_BUCKETS,
                            quantiles=family.quantiles or DEFAULT_QUANTILES,
                        )
                    family.children[key] = child
        return child

    # -- introspection --------------------------------------------------
    def families(self) -> Iterator[MetricFamily]:
        """Families sorted by name (stable export order)."""
        with self._lock:
            return iter([family for _, family in sorted(self._families.items())])

    def get(self, name: str, **labels: str):
        """Existing instrument or ``None`` (does not create)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def samples(self, name: str) -> Iterator[tuple[dict, Instrument]]:
        """``(labels, instrument)`` pairs of one family (empty if absent)."""
        with self._lock:
            family = self._families.get(name)
            children = list(family.children.items()) if family is not None else []
        return iter([(dict(key), child) for key, child in children])

    def collect(self) -> list[tuple[MetricFamily, list[tuple[dict, Instrument]]]]:
        """Every family by name, with its ``(labels, instrument)`` pairs.

        The one export walk: :meth:`snapshot`, the Prometheus exporter
        and the time-series sampler all read the registry through it.
        """
        with self._lock:
            return [
                (family, [(dict(key), child) for key, child in sorted(family.children.items())])
                for _, family in sorted(self._families.items())
            ]

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every instrument."""
        counters, gauges, histograms = [], [], []
        for family, children in self.collect():
            for labels, child in children:
                entry = {
                    "name": family.name,
                    "help": family.help,
                    "labels": labels,
                }
                if family.kind == "counter":
                    counters.append({**entry, "value": child.value})
                elif family.kind == "gauge":
                    gauges.append({**entry, "value": child.value})
                else:
                    histograms.append({
                        **entry,
                        "count": child.count,
                        "sum": child.sum,
                        "min": child.min,
                        "max": child.max,
                        "mean": child.mean,
                        "buckets": [
                            {"le": le, "count": n}
                            for le, n in child.cumulative_buckets()
                        ],
                        "quantiles": {
                            str(q): v for q, v in child.quantiles.items()
                        },
                    })
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


# ----------------------------------------------------------------------
# The disabled (null) registry
# ----------------------------------------------------------------------

class NullCounter(Counter):
    """Stateless counter accepted everywhere a real one is."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    @property
    def value(self) -> float:
        return 0.0


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(buckets=(1.0,), quantiles=())

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry(MetricsRegistry):
    """Registry stand-in when observability is off.

    Every accessor returns a shared stateless singleton, so call sites
    keep working with zero bookkeeping: no family dict, no child dicts,
    no allocation.  ``enabled`` is False so hot paths (span timers) can
    skip clock reads entirely.
    """

    enabled = False

    def __init__(self) -> None:  # no family dict at all
        pass

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name, help="", buckets=None, quantiles=None, **labels):
        return NULL_HISTOGRAM

    def families(self) -> Iterator[MetricFamily]:
        return iter(())

    def get(self, name: str, **labels: str):
        return None

    def samples(self, name: str) -> Iterator[tuple[dict, Instrument]]:
        return iter(())

    def collect(self) -> list[tuple[MetricFamily, list[tuple[dict, Instrument]]]]:
        return []

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_active_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide active registry (the null registry when disabled)."""
    return _active_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _active_registry
    previous = _active_registry
    _active_registry = registry
    return previous


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn metrics collection on; returns the now-active registry."""
    registry = registry or MetricsRegistry()
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    """Restore the no-op null registry."""
    set_registry(NULL_REGISTRY)


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scoped activation (used heavily by the test-suite)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
