"""Multi-tenant detection gateway: many vehicles, one service.

Everything below :mod:`repro.stream` assumes one vehicle per process.
This subsystem lifts that to a fleet: an asyncio gateway
(:mod:`repro.fleet.gateway`) accepts sample streams from many vehicles
at once — REST ingest or persistent WebSocket connections, both spoken
by the stdlib-only codec in :mod:`repro.fleet.protocol` — and routes
each tenant to its own :class:`~repro.fleet.tenant.TenantEngine`, the
streaming runtime's chunk engine (incremental extraction, vectorised
detection, Algorithm-4 online updates, profile health) plus tenant
metadata.

Memory stays bounded by the supervisor
(:mod:`repro.fleet.supervisor`): beyond ``max_resident`` tenants, the
least-recently-active one is evicted to a
:mod:`repro.stream.checkpoint` directory and rehydrated on its next
request — byte-identically, so eviction never perturbs a verdict
stream.  :mod:`repro.fleet.loadgen` is the deterministic N-vehicle
client used by the benchmarks and the CI smoke test.

Typical use::

    config = GatewayConfig(state_dir="fleet-state", max_resident=32)
    with GatewayThread(config) as server:
        report = run_loadgen(server.host, server.port, LoadgenConfig())
    print(format_report(report))
"""

from repro.fleet.gateway import (
    ANOMALIES_METRIC,
    CHUNKS_METRIC,
    FRAMES_METRIC,
    REQUESTS_METRIC,
    VERDICT_LATENCY_METRIC,
    WS_CONNECTIONS_METRIC,
    FleetGateway,
    GatewayConfig,
    GatewayThread,
)
from repro.fleet.loadgen import (
    LoadgenConfig,
    format_report,
    run_loadgen,
    train_shared_model,
)
from repro.fleet.protocol import ProtocolError
from repro.fleet.supervisor import (
    EVICTIONS_METRIC,
    REHYDRATIONS_METRIC,
    TENANTS_METRIC,
    FleetSupervisor,
    TenantRecord,
)
from repro.fleet.tenant import (
    CaptureParams,
    TenantEngine,
    builtin_vehicle,
    decode_chunk,
    encode_chunk,
    model_from_b64,
    model_to_b64,
)

__all__ = [
    "ANOMALIES_METRIC",
    "CHUNKS_METRIC",
    "CaptureParams",
    "EVICTIONS_METRIC",
    "FRAMES_METRIC",
    "FleetGateway",
    "FleetSupervisor",
    "GatewayConfig",
    "GatewayThread",
    "LoadgenConfig",
    "ProtocolError",
    "REHYDRATIONS_METRIC",
    "REQUESTS_METRIC",
    "TENANTS_METRIC",
    "TenantEngine",
    "TenantRecord",
    "VERDICT_LATENCY_METRIC",
    "WS_CONNECTIONS_METRIC",
    "builtin_vehicle",
    "decode_chunk",
    "encode_chunk",
    "format_report",
    "model_from_b64",
    "model_to_b64",
    "run_loadgen",
    "train_shared_model",
]
