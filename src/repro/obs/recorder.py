"""Flight recorder: bounded pre/post-alert context, dumpable and replayable.

Viden-style attacker identification needs the voltage context *around*
an alert, not just the alert itself.  The :class:`FlightRecorder` keeps
a bounded ring of the most recent classified messages (edge feature
vector + verdict ingredients); when an anomaly arrives it arms a dump
that completes after ``post_alert`` more records, then writes a
**versioned forensics bundle**:

* ``manifest.json`` — bundle schema version, alert coordinates, margin,
  record index (seq/SA/verdict per row);
* ``arrays.npz`` — float64 feature vectors, one row per record;
* ``model.npz`` — the detector's model at dump time.

:class:`ForensicsBundle` loads a bundle back and :meth:`replay`\\ s it
through a fresh detector built from the embedded model.  Because the
detector's classification floats are batch-size independent (pinned by
the stream-vs-batch equality tests), replay reproduces every recorded
verdict — including the alerting one — byte-identically whenever the
profile store was static over the recorded window.  With Algorithm-4
online updates enabled the embedded model is the *dump-time* state, so
records classified against earlier profile states may legitimately
mismatch — the per-field :class:`ReplayMismatch` list then measures
exactly how far the profile moved across the window, which is itself
the drift-vs-poisoning signal the health monitor consumes.

The recorder is called from the thread that classifies stream
messages; one lock guards the ring and the pending dump.  Heavy imports (``Detector``,
``VProfileModel``) happen lazily inside the dump/replay cold paths:
``repro.obs`` must stay import-cycle free from ``repro.core``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.clock import wall_clock
from repro.obs.events import get_event_log

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.core.detection import DetectionResult
    from repro.core.model import VProfileModel

#: Schema version stamped into every manifest; bump on layout changes.
BUNDLE_VERSION = 1

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"
MODEL_FILE = "model.npz"

BUNDLES_METRIC = "vprofile_forensics_bundles_total"


@dataclass(frozen=True)
class FlightRecord:
    """One classified message as the recorder remembers it."""

    seq: int
    source_address: int
    start_s: float
    vector: np.ndarray
    verdict: str
    reason: str | None
    expected_cluster: int | None
    predicted_cluster: int | None
    min_distance: float | None
    slack: float | None


class _PendingDump:
    """A dump armed by an alert, waiting for its post-alert context."""

    __slots__ = ("alert", "remaining")

    def __init__(self, alert: FlightRecord, remaining: int):
        self.alert = alert
        self.remaining = remaining


class FlightRecorder:
    """A bounded ring of recent verdicts, dumped on alert.

    Parameters
    ----------
    flight_dir:
        Directory receiving forensics bundles (created on first dump).
    capacity:
        Records retained (the pre-alert context window).
    post_alert:
        Records to wait for after the alert before dumping, so the
        bundle carries context on both sides of the event.
    max_bundles:
        Cap on bundles written per recorder lifetime (alert storms must
        not fill the disk).
    model:
        The live model (duck-typed: needs ``save(path)``); embedded in
        every bundle so replay uses the exact profiles that alerted.
    margin:
        Detector margin at record time, stored for replay.
    """

    def __init__(
        self,
        flight_dir: str | Path,
        *,
        capacity: int = 128,
        post_alert: int = 16,
        max_bundles: int = 8,
        model: "VProfileModel | None" = None,
        margin: float = 0.0,
    ):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        if post_alert < 0:
            raise ObservabilityError(f"post_alert must be >= 0, got {post_alert}")
        self.flight_dir = Path(flight_dir)
        self.capacity = int(capacity)
        self.post_alert = int(post_alert)
        self.max_bundles = int(max_bundles)
        self.model = model
        self.margin = float(margin)
        self._ring: deque[FlightRecord] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._pending: _PendingDump | None = None
        self._bundle_lock = threading.Lock()
        self._bundles_written = 0
        self.bundle_paths: list[Path] = []

    # ------------------------------------------------------------------
    # Hot path (one call per classified stream message)
    # ------------------------------------------------------------------
    def record(
        self,
        seq: int,
        source_address: int,
        start_s: float,
        vector: np.ndarray,
        result: "DetectionResult",
    ) -> Path | None:
        """Append one verdict; returns a bundle path when a dump fired."""
        entry = FlightRecord(
            seq=seq,
            source_address=source_address,
            start_s=start_s,
            vector=np.asarray(vector, dtype=np.float64).copy(),
            verdict=str(result.verdict),
            reason=None if result.reason is None else str(result.reason),
            expected_cluster=result.expected_cluster,
            predicted_cluster=result.predicted_cluster,
            min_distance=result.min_distance,
            slack=result.slack,
        )
        to_dump: list[FlightRecord] | None = None
        alert: FlightRecord | None = None
        with self._lock:
            self._ring.append(entry)
            pending = self._pending
            if pending is not None:
                pending.remaining -= 1
                if pending.remaining <= 0:
                    to_dump = list(self._ring)
                    alert = pending.alert
                    self._pending = None
            elif result.is_anomaly:
                if self.post_alert == 0:
                    to_dump = list(self._ring)
                    alert = entry
                else:
                    self._pending = _PendingDump(entry, self.post_alert)
        if to_dump is not None and alert is not None:
            return self._dump(alert, to_dump)
        return None

    def finish(self) -> list[Path]:
        """Flush dumps still waiting for post-alert context (stream end)."""
        with self._lock:
            pending = self._pending
            self._pending = None
            to_dump = list(self._ring) if pending else None
        if pending is None or not to_dump:
            return []
        path = self._dump(pending.alert, to_dump)
        return [] if path is None else [path]

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # Dump (cold path)
    # ------------------------------------------------------------------
    def _dump(self, alert: FlightRecord, records: list[FlightRecord]) -> Path | None:
        with self._bundle_lock:
            if self._bundles_written >= self.max_bundles:
                return None
            self._bundles_written += 1
            bundle_index = self._bundles_written
        directory = self.flight_dir / f"bundle-{bundle_index:04d}-seq{alert.seq}"
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": BUNDLE_VERSION,
            "created_unix_s": wall_clock(),
            "margin": self.margin,
            "alert": {
                "seq": alert.seq,
                "source_address": alert.source_address,
                "verdict": alert.verdict,
                "reason": alert.reason,
            },
            "records": [
                {
                    "seq": r.seq,
                    "source_address": r.source_address,
                    "start_s": r.start_s,
                    "verdict": r.verdict,
                    "reason": r.reason,
                    "expected_cluster": r.expected_cluster,
                    "predicted_cluster": r.predicted_cluster,
                    "min_distance": r.min_distance,
                    "slack": r.slack,
                }
                for r in records
            ],
        }
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        np.savez_compressed(
            directory / ARRAYS_FILE,
            vectors=np.stack([r.vector for r in records]),
            seqs=np.array([r.seq for r in records], dtype=np.int64),
            sas=np.array([r.source_address for r in records], dtype=np.int64),
        )
        if self.model is not None:
            self.model.save(directory / MODEL_FILE)
        get_event_log().info(
            "forensics.bundle",
            path=str(directory),
            alert_seq=alert.seq,
            records=len(records),
        )
        from repro.obs.registry import get_registry

        registry = get_registry()
        if registry.enabled:
            registry.counter(
                BUNDLES_METRIC, help="Forensics bundles written on alert"
            ).inc()
        self.bundle_paths.append(directory)
        return directory


@dataclass(frozen=True)
class ReplayMismatch:
    """One record whose replayed verdict differed from the bundle."""

    seq: int
    field: str
    recorded: object
    replayed: object


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-running a bundle through the detector."""

    records: int
    alert_seq: int
    alert_reproduced: bool
    mismatches: list[ReplayMismatch]

    @property
    def identical(self) -> bool:
        return not self.mismatches


class ForensicsBundle:
    """A dumped bundle loaded back for post-mortem analysis."""

    def __init__(
        self,
        manifest: dict,
        vectors: np.ndarray,
        model: "VProfileModel | None",
        path: Path,
    ):
        self.manifest = manifest
        self.vectors = vectors
        self.model = model
        self.path = path

    @classmethod
    def load(cls, path: str | Path) -> "ForensicsBundle":
        directory = Path(path)
        manifest_path = directory / MANIFEST_FILE
        if not manifest_path.exists():
            raise ObservabilityError(f"not a forensics bundle: {directory}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("version")
        if version != BUNDLE_VERSION:
            raise ObservabilityError(
                f"unsupported bundle version {version!r} "
                f"(this loader reads version {BUNDLE_VERSION})"
            )
        with np.load(directory / ARRAYS_FILE, allow_pickle=False) as archive:
            vectors = np.array(archive["vectors"], dtype=np.float64)
        model = None
        if (directory / MODEL_FILE).exists():
            from repro.core.model import VProfileModel

            model = VProfileModel.load(directory / MODEL_FILE)
        return cls(manifest, vectors, model, directory)

    @property
    def records(self) -> list[dict]:
        return list(self.manifest["records"])

    @property
    def alert(self) -> dict:
        return dict(self.manifest["alert"])

    def replay(self, model: "VProfileModel | None" = None) -> ReplayReport:
        """Re-classify every record; verify verdicts byte-identically.

        The detector's floats are batch-size independent, so one
        ``classify`` per stored float64 vector must land on exactly the
        values recorded at alert time — any drift (library version,
        model mismatch, corrupted arrays) surfaces as a mismatch.
        """
        from repro.core.detection import Detector

        replay_model = model if model is not None else self.model
        if replay_model is None:
            raise ObservabilityError(
                "bundle has no embedded model; pass one to replay()"
            )
        detector = Detector(replay_model, margin=float(self.manifest["margin"]))
        mismatches: list[ReplayMismatch] = []
        alert_seq = int(self.manifest["alert"]["seq"])
        alert_reproduced = False
        for row, record in enumerate(self.records):
            result = detector.classify(
                self.vectors[row], sa=int(record["source_address"])
            )
            replayed = {
                "verdict": str(result.verdict),
                "reason": None if result.reason is None else str(result.reason),
                "expected_cluster": result.expected_cluster,
                "predicted_cluster": result.predicted_cluster,
                "min_distance": result.min_distance,
                "slack": result.slack,
            }
            for field_name, new_value in replayed.items():
                old_value = record[field_name]
                if not _values_identical(old_value, new_value):
                    mismatches.append(
                        ReplayMismatch(
                            seq=int(record["seq"]),
                            field=field_name,
                            recorded=old_value,
                            replayed=new_value,
                        )
                    )
            if int(record["seq"]) == alert_seq:
                alert_reproduced = result.is_anomaly and not any(
                    m.seq == alert_seq for m in mismatches
                )
        return ReplayReport(
            records=len(self.records),
            alert_seq=alert_seq,
            alert_reproduced=alert_reproduced,
            mismatches=mismatches,
        )


def _values_identical(old: object, new: object) -> bool:
    """Byte-identical comparison: floats must match bit for bit."""
    if isinstance(old, float) and isinstance(new, float):
        return (
            np.float64(old).tobytes() == np.float64(new).tobytes()
        )
    return old == new


__all__ = [
    "ARRAYS_FILE",
    "BUNDLES_METRIC",
    "BUNDLE_VERSION",
    "FlightRecord",
    "FlightRecorder",
    "ForensicsBundle",
    "MANIFEST_FILE",
    "MODEL_FILE",
    "ReplayMismatch",
    "ReplayReport",
]
