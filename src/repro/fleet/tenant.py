"""Per-vehicle detection state inside the fleet gateway.

A :class:`TenantEngine` is the streaming runtime's
:class:`~repro.stream.workers.ChunkEngine` — extraction, the Algorithm
3→4 kernel folding OK verdicts into the tenant's *own* profile store,
profile health, checkpoint/restore — plus the tenant's metadata, a ring
of recent verdicts and their JSON projection.  So a tenant evicted to a
:mod:`repro.stream.checkpoint` directory and rehydrated later produces
the byte-identical verdict sequence an uninterrupted tenant would — the
property the fleet supervisor's residency budget leans on.

Engines are driven from the gateway's event loop, one chunk at a time
per tenant (the per-tenant asyncio lock serialises access), so the
engine itself holds no locks.

The module also owns the wire codec for chunks and verdicts: JSON
payloads with base64 sample blocks, floats carried at full ``repr``
precision so the byte-identical guarantee survives the HTTP hop.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.detection import Detector
from repro.core.model import VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.errors import FleetError, StreamError
from repro.obs.health import ProfileHealthMonitor
from repro.stream.checkpoint import load_checkpoint
from repro.stream.chunks import SampleChunk
from repro.stream.workers import ChunkEngine
from repro.vehicles.profiles import VehicleConfig, sterling_acterra, vehicle_a, vehicle_b

#: Built-in synthetic vehicles a tenant may register as.
BUILTIN_VEHICLES: Mapping[str, Callable[[], VehicleConfig]] = {
    "a": vehicle_a,
    "b": vehicle_b,
    "sterling": sterling_acterra,
}

#: Sample dtypes accepted on the ingest path.
ALLOWED_DTYPES = frozenset({"int16", "int32", "int64", "uint16", "uint8"})

#: Sidecar file carrying tenant state the stream checkpoint does not.
TENANT_META_FILE = "tenant.json"


@dataclass(frozen=True)
class CaptureParams:
    """Digitizer parameters, fixed per tenant at registration."""

    sample_rate: float
    resolution_bits: int
    bitrate: float

    def to_payload(self) -> dict[str, float | int]:
        return {
            "sample_rate": self.sample_rate,
            "resolution_bits": self.resolution_bits,
            "bitrate": self.bitrate,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CaptureParams":
        try:
            return cls(
                sample_rate=float(payload["sample_rate"]),
                resolution_bits=int(payload["resolution_bits"]),
                bitrate=float(payload["bitrate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"bad capture parameters: {exc!r}") from exc

    @classmethod
    def for_vehicle(cls, vehicle: VehicleConfig) -> "CaptureParams":
        return cls(
            sample_rate=vehicle.sample_rate,
            resolution_bits=vehicle.resolution_bits,
            bitrate=vehicle.bitrate,
        )


def builtin_vehicle(name: str, sample_rate: float | None = None) -> VehicleConfig:
    """A built-in vehicle, optionally at a reduced capture rate."""
    try:
        factory = BUILTIN_VEHICLES[name]
    except KeyError:
        raise FleetError(
            f"unknown vehicle {name!r}; choose from "
            f"{', '.join(sorted(BUILTIN_VEHICLES))}"
        ) from None
    vehicle = factory()
    if sample_rate is not None:
        from dataclasses import replace

        vehicle = replace(vehicle, sample_rate=float(sample_rate))
    return vehicle


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

def encode_chunk(chunk: SampleChunk) -> dict[str, Any]:
    """JSON-able ingest payload for one sample chunk."""
    counts = np.ascontiguousarray(chunk.counts)
    return {
        "seq": int(chunk.seq),
        "start_s": float(chunk.start_s),
        "dtype": str(counts.dtype),
        "counts": base64.b64encode(counts.tobytes()).decode("ascii"),
    }


def decode_chunk(payload: Mapping[str, Any], params: CaptureParams) -> SampleChunk:
    """Rebuild a :class:`SampleChunk` from its wire payload."""
    try:
        seq = int(payload["seq"])
        start_s = float(payload["start_s"])
        dtype_name = str(payload.get("dtype", "int32"))
        raw = base64.b64decode(str(payload["counts"]), validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed chunk payload: {exc!r}") from exc
    if dtype_name not in ALLOWED_DTYPES:
        raise FleetError(
            f"unsupported sample dtype {dtype_name!r}; "
            f"allowed: {', '.join(sorted(ALLOWED_DTYPES))}"
        )
    dtype = np.dtype(dtype_name)
    if len(raw) % dtype.itemsize:
        raise FleetError(
            f"chunk byte length {len(raw)} is not a multiple of "
            f"{dtype.itemsize}-byte {dtype_name} samples"
        )
    counts = np.frombuffer(raw, dtype=dtype)
    return SampleChunk(
        counts=counts,
        seq=seq,
        start_s=start_s,
        sample_rate=params.sample_rate,
        resolution_bits=params.resolution_bits,
        bitrate=params.bitrate,
    )


def model_to_b64(model: VProfileModel) -> str:
    """Serialise a profile store for the register payload."""
    import io

    buffer = io.BytesIO()
    model.save(buffer)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def model_from_b64(text: str) -> VProfileModel:
    """Load an uploaded profile store (each call returns a fresh copy)."""
    import io

    try:
        raw = base64.b64decode(text, validate=True)
        return VProfileModel.load(io.BytesIO(raw))
    except FleetError:
        raise
    except Exception as exc:  # zipfile/numpy raise a zoo of types here
        raise FleetError(f"cannot decode uploaded model: {exc!r}") from exc


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class TenantEngine(ChunkEngine):
    """One vehicle's streaming detection state: a chunk engine plus the
    tenant's metadata, its verdict ring and the JSON projection.

    Parameters
    ----------
    tenant_id:
        Stable identifier; labels metadata and checkpoint sidecars.
    vehicle:
        Registered vehicle name (informational; the model carries the
        actual profiles).
    model:
        The tenant's private profile store — mutated in place by online
        updates, serialised whole on eviction.
    params:
        Digitizer parameters every ingested chunk is interpreted with.
    margin / online_update / retrain_bound:
        Detection margin and Algorithm-4 settings, as in
        :class:`~repro.core.pipeline.PipelineConfig`.
    verdict_ring:
        How many recent verdicts ``/verdicts`` can page through.  The
        ring is in-memory only: verdicts are delivered inline on every
        ingest response, the ring is a convenience for late readers.
    """

    def __init__(
        self,
        tenant_id: str,
        *,
        vehicle: str,
        model: VProfileModel,
        params: CaptureParams,
        margin: float = 5.0,
        online_update: bool = False,
        retrain_bound: int | None = None,
        verdict_ring: int = 4096,
    ) -> None:
        super().__init__(
            Detector(model, margin=margin),
            metadata={"tenant": tenant_id, "vehicle": vehicle},
            updater=OnlineUpdater(model, retrain_bound) if online_update else None,
            health=ProfileHealthMonitor(model),
        )
        self.tenant_id = tenant_id
        self.vehicle = vehicle
        self.params = params
        self.online_update = bool(online_update)
        self.retrain_bound = retrain_bound
        self.anomalies = 0
        self.verdict_ring = int(verdict_ring)
        self._verdicts: list[dict[str, Any]] = []

    @property
    def chunks(self) -> int:
        return self.next_chunk

    @property
    def frames(self) -> int:
        return self.next_seq

    @property
    def samples(self) -> int:
        return self.extractor.stats.samples

    # ------------------------------------------------------------------
    # Hot path (runs on the gateway's event loop)
    # ------------------------------------------------------------------
    def process_chunk(self, chunk: SampleChunk) -> list[dict[str, Any]]:
        """Classify every message completed by ``chunk``; return verdicts.

        Raises :class:`FleetError` when the engine rejects the chunk, an
        out-of-order one included.
        """
        try:
            verdicts = self.process(chunk)
        except StreamError as exc:
            raise FleetError(f"tenant {self.tenant_id}: {exc}") from exc
        wire: list[dict[str, Any]] = []
        for verdict in verdicts:
            result = verdict.result
            if result.is_anomaly:
                self.anomalies += 1
            wire.append({
                "seq": verdict.seq,
                "sa": int(result.source_address),
                "verdict": "anomaly" if result.is_anomaly else "ok",
                "reason": result.reason.value if result.reason else None,
                "expected_cluster": result.expected_cluster,
                "predicted_cluster": result.predicted_cluster,
                "min_distance": result.min_distance,
                "slack": result.slack,
                "start_s": float(verdict.message.start_s),
            })
        self._verdicts.extend(wire)
        overflow = len(self._verdicts) - self.verdict_ring
        if overflow > 0:
            del self._verdicts[:overflow]
        return wire

    def recent_verdicts(
        self, since: int = 0, limit: int = 256
    ) -> list[dict[str, Any]]:
        """Ring slice: verdicts with ``seq >= since``, at most ``limit``."""
        out = [v for v in self._verdicts if v["seq"] >= since]
        return out[: max(0, int(limit))]

    def status(self) -> dict[str, Any]:
        """The ``/tenants/<id>`` payload."""
        return {
            "tenant": self.tenant_id,
            "vehicle": self.vehicle,
            "margin": self.detector.margin,
            "online_update": self.online_update,
            "chunks": self.chunks,
            "samples": self.samples,
            "frames": self.frames,
            "anomalies": self.anomalies,
            "online_updates": self.updated,
            "extraction_failures": self.extractor.stats.extraction_failures,
            "next_chunk": self.next_chunk,
            "next_seq": self.next_seq,
            **self.params.to_payload(),
        }

    def health_report(self) -> dict[str, Any]:
        """The ``/tenants/<id>/health`` payload."""
        assert self.health is not None
        return self.health.verdicts()

    # ------------------------------------------------------------------
    # Eviction / rehydration (runs on the gateway's thread executor)
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path) -> None:
        """Persist everything needed to continue this tenant elsewhere."""
        directory = Path(directory)
        super().checkpoint(directory)
        meta = {
            "tenant": self.tenant_id,
            "vehicle": self.vehicle,
            "online_update": self.online_update,
            "retrain_bound": self.retrain_bound,
            "verdict_ring": self.verdict_ring,
            "chunks": self.chunks,
            "samples": self.samples,
            "frames": self.frames,
            "anomalies": self.anomalies,
            "online_updates": self.updated,
            **self.params.to_payload(),
        }
        (directory / TENANT_META_FILE).write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def rehydrate(cls, directory: str | Path) -> "TenantEngine":
        """Rebuild an engine from :meth:`checkpoint` output.

        The restored engine continues the verdict sequence exactly where
        the evicted one stopped (same model bytes, same extractor state,
        same sequence counters) — pinned by the eviction equivalence
        property tests.
        """
        directory = Path(directory)
        meta_path = directory / TENANT_META_FILE
        if not meta_path.exists():
            raise FleetError(f"not a tenant checkpoint: {directory}")
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise FleetError(f"corrupt tenant sidecar: {exc}") from exc
        checkpoint = load_checkpoint(directory)
        bound = meta.get("retrain_bound")
        engine = cls(
            str(meta["tenant"]),
            vehicle=str(meta.get("vehicle", "?")),
            model=checkpoint.model,
            params=CaptureParams.from_payload(meta),
            margin=checkpoint.margin,
            online_update=bool(meta.get("online_update", False)),
            retrain_bound=None if bound is None else int(bound),
            verdict_ring=int(meta.get("verdict_ring", 4096)),
        )
        engine.restore(checkpoint)
        engine.anomalies = int(meta.get("anomalies", 0))
        engine.updated = int(meta.get("online_updates", 0))
        return engine


__all__ = [
    "ALLOWED_DTYPES",
    "BUILTIN_VEHICLES",
    "CaptureParams",
    "TENANT_META_FILE",
    "TenantEngine",
    "builtin_vehicle",
    "decode_chunk",
    "encode_chunk",
    "model_from_b64",
    "model_to_b64",
]
