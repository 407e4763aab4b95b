"""The asyncio multi-tenant detection gateway.

One process, one event loop, many vehicles: each registered tenant
streams digitizer chunks in (REST ``POST /tenants/<id>/ingest`` or a
persistent WebSocket) and gets that chunk's verdicts back on the same
round-trip.  The event loop parses, decodes and classifies each chunk
under the tenant's asyncio lock: that work is GIL-bound and bounded by
the request body, so a thread hop would only add a wait for the GIL.
Work that touches files or runs for seconds — model upload, server-side
training, checkpoint and rehydrate — runs on a thread executor, so one
slow vehicle never stalls the others.

Routes
------
==== =========================== ==========================================
POST ``/tenants``                register a vehicle (upload or train model)
GET  ``/tenants``                list tenants and residency
GET  ``/tenants/<id>``           per-tenant status counters
GET  ``/tenants/<id>/health``    per-SA profile-health verdicts
GET  ``/tenants/<id>/verdicts``  recent verdict ring (``?since=&limit=``)
POST ``/tenants/<id>/ingest``    one sample chunk in, its verdicts out
POST ``/tenants/<id>/evict``     checkpoint the tenant out immediately
DEL  ``/tenants/<id>``           forget the tenant and its checkpoint
GET  ``/tenants/<id>/stream``    WebSocket upgrade (chunk/verdict frames)
GET  ``/fleet``                  aggregate fleet summary
GET  ``/metrics``                Prometheus text exposition
==== =========================== ==========================================

Shutdown is graceful: :meth:`FleetGateway.drain` flips the gateway into
a draining state (ingest answers 503), waits for in-flight chunks to
finish, and checkpoints every resident tenant so no accepted sample is
lost across a restart.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.model import VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import FleetError, ReproError
from repro.fleet import protocol
from repro.fleet.protocol import (
    HttpRequest,
    ProtocolError,
    encode_ws_frame,
    read_http_request,
    read_ws_frame,
    render_json,
    render_response,
    render_ws_handshake,
)
from repro.fleet.supervisor import FleetSupervisor, TenantRecord
from repro.fleet.tenant import (
    CaptureParams,
    TenantEngine,
    builtin_vehicle,
    decode_chunk,
    model_from_b64,
)
from repro.obs.clock import monotonic
from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.server import PROMETHEUS_CONTENT_TYPE
from repro.vehicles.dataset import capture_session

#: Chunks accepted across all tenants.
CHUNKS_METRIC = "vprofile_fleet_chunks_total"
#: Frames classified across all tenants.
FRAMES_METRIC = "vprofile_fleet_frames_total"
#: Anomalous frames across all tenants.
ANOMALIES_METRIC = "vprofile_fleet_anomalies_total"
#: Ingest-to-verdict latency of one chunk through the gateway.
VERDICT_LATENCY_METRIC = "vprofile_fleet_verdict_seconds"
#: HTTP requests served, by route class and status.
REQUESTS_METRIC = "vprofile_fleet_requests_total"
#: Currently open WebSocket streaming sessions.
WS_CONNECTIONS_METRIC = "vprofile_fleet_ws_connections"


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway deployment knobs.

    Attributes
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the chosen one
        is :attr:`FleetGateway.port`).
    state_dir:
        Checkpoint spill directory for evicted tenants; ``None``
        disables eviction (every tenant stays resident).
    max_resident:
        Residency budget enforced by the supervisor.
    executor_workers:
        Thread-pool size for model upload, server-side training,
        checkpoint and rehydrate (chunk classification runs on the
        event loop); ``None`` uses the
        :class:`~concurrent.futures.ThreadPoolExecutor` default.
    train_duration_limit_s:
        Upper bound on server-side training captures, so one register
        call cannot monopolise the executor for minutes.
    """

    host: str = "127.0.0.1"
    port: int = 0
    state_dir: str | Path | None = None
    max_resident: int = 64
    executor_workers: int | None = None
    train_duration_limit_s: float = 30.0


class FleetGateway:
    """The asyncio server: owns the supervisor, executor and routes."""

    def __init__(
        self,
        config: GatewayConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config or GatewayConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="vprofile-fleet",
        )
        self.supervisor = FleetSupervisor(
            self.registry,
            state_dir=self.config.state_dir,
            max_resident=self.config.max_resident,
            executor=self.executor,
        )
        self.draining = False
        self._server: asyncio.Server | None = None
        self._sessions: set[asyncio.Task[None]] = set()
        self._auto_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetGateway":
        if self._server is not None:
            raise FleetError("gateway already started")
        try:
            self._server = await asyncio.start_server(
                self._serve_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            raise FleetError(
                f"cannot bind gateway to "
                f"{self.config.host}:{self.config.port}: {exc}"
            ) from exc
        # A drained predecessor leaves checkpoints behind; re-list them
        # so the restarted gateway serves the same fleet.
        self.supervisor.adopt_checkpoints()
        return self

    @property
    def host(self) -> str:
        if self._server is None:
            raise FleetError("gateway is not started")
        return str(self._server.sockets[0].getsockname()[0])

    @property
    def port(self) -> int:
        if self._server is None:
            raise FleetError("gateway is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def drain(self) -> int:
        """Refuse new work, finish in-flight chunks, checkpoint tenants.

        Returns the number of tenants flushed to disk.  Idempotent: a
        second drain finds nothing resident and flushes zero.
        """
        self.draining = True
        # In-flight ingests hold their tenant lock; evict() waits on the
        # same lock, so the per-tenant flush below is the barrier that
        # lets them finish before their state is serialised.
        return await self.supervisor.drain()

    async def stop(self) -> None:
        """Stop accepting connections and tear the server down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._sessions):
            task.cancel()
        if self._sessions:
            await asyncio.gather(*self._sessions, return_exceptions=True)
        self.executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            finally:
                # Leave the set only once the transport is closed, so
                # stop() still awaits a session that is shutting down
                # instead of closing the loop under it.
                if task is not None:
                    self._sessions.discard(task)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_http_request(reader)
            except ProtocolError as exc:
                writer.write(
                    render_json(400, {"error": str(exc)}, keep_alive=False)
                )
                await writer.drain()
                return
            if request is None:
                return
            if request.is_websocket_upgrade:
                await self._websocket_session(request, reader, writer)
                return
            status, response = await self._dispatch(request)
            self._count_request(request, status)
            writer.write(response)
            await writer.drain()
            if not request.keep_alive:
                return

    def _count_request(self, request: HttpRequest, status: int) -> None:
        if not self.registry.enabled:
            return
        route = request.path.split("/")[1] if "/" in request.path else ""
        self.registry.counter(
            REQUESTS_METRIC,
            help="HTTP requests served by the fleet gateway",
            route=route or "root",
            status=str(status),
        ).inc()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> tuple[int, bytes]:
        keep = request.keep_alive
        try:
            status, payload = await self._route(request)
        except ProtocolError as exc:
            status, payload = 400, {"error": str(exc)}
        except FleetError as exc:
            code = 409 if "out-of-order" in str(exc) else 400
            if "unknown tenant" in str(exc):
                code = 404
            status, payload = code, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # route bugs must not kill the loop
            status, payload = 500, {"error": repr(exc)}
        if isinstance(payload, bytes):
            return status, payload
        return status, render_json(status, payload, keep_alive=keep)

    async def _route(self, request: HttpRequest) -> tuple[int, Any]:
        parts = [p for p in request.path.split("/") if p]
        if request.path == "/metrics" and request.method == "GET":
            body = to_prometheus(self.registry).encode("utf-8")
            return 200, render_response(
                200,
                body,
                content_type=PROMETHEUS_CONTENT_TYPE,
                keep_alive=request.keep_alive,
            )
        if request.path == "/fleet" and request.method == "GET":
            return 200, self._fleet_summary()
        if request.path == "/tenants":
            if request.method == "POST":
                return await self._register(request)
            if request.method == "GET":
                return 200, self._list_tenants()
            return 405, {"error": f"{request.method} not allowed on /tenants"}
        if parts and parts[0] == "tenants" and len(parts) >= 2:
            return await self._tenant_route(request, parts[1], parts[2:])
        return 404, {
            "error": f"unknown route {request.path!r}",
            "routes": ["/tenants", "/fleet", "/metrics"],
        }

    async def _tenant_route(
        self, request: HttpRequest, tenant_id: str, rest: list[str]
    ) -> tuple[int, Any]:
        record = self.supervisor.record(tenant_id)
        action = rest[0] if rest else ""
        if request.method == "GET" and action in ("", "status"):
            return 200, await self._tenant_status(record)
        if request.method == "GET" and action == "health":
            async with record.lock:
                engine = await self.supervisor.resident_engine(record)
                return 200, engine.health_report()
        if request.method == "GET" and action == "verdicts":
            since = _int_query(request, "since", 0)
            limit = _int_query(request, "limit", 256)
            async with record.lock:
                engine = await self.supervisor.resident_engine(record)
                return 200, {
                    "tenant": tenant_id,
                    "verdicts": engine.recent_verdicts(since, limit),
                }
        if request.method == "POST" and action == "ingest":
            return await self._ingest(record, request.json())
        if request.method == "POST" and action == "evict":
            await self.supervisor.evict(record)
            return 200, {"tenant": tenant_id, "resident": False}
        if request.method == "DELETE" and not action:
            await self.supervisor.remove(tenant_id)
            return 200, {"tenant": tenant_id, "removed": True}
        return 405, {
            "error": f"{request.method} {request.path} is not a fleet route"
        }

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    async def _register(self, request: HttpRequest) -> tuple[int, Any]:
        if self.draining:
            return 503, {"error": "gateway is draining"}
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError("register payload must be a JSON object")
        tenant_id = str(payload.get("tenant") or self._next_tenant_id())
        if "/" in tenant_id or tenant_id in (".", ".."):
            raise FleetError(f"invalid tenant id: {tenant_id!r}")
        if tenant_id in self.supervisor.tenants:
            return 409, {"error": f"tenant already registered: {tenant_id!r}"}
        vehicle_name = str(payload.get("vehicle", "sterling"))
        sample_rate = payload.get("sample_rate")
        vehicle = builtin_vehicle(
            vehicle_name,
            None if sample_rate is None else float(sample_rate),
        )
        params = CaptureParams.for_vehicle(vehicle)
        margin = float(payload.get("margin", 5.0))
        online_update = bool(payload.get("online_update", False))
        bound = payload.get("retrain_bound")
        retrain_bound = None if bound is None else int(bound)

        loop = asyncio.get_running_loop()
        if "model_b64" in payload:
            model_text = str(payload["model_b64"])
            model = await loop.run_in_executor(
                self.executor, lambda: model_from_b64(model_text)
            )
        elif "train" in payload:
            spec = payload["train"]
            if not isinstance(spec, dict):
                raise ProtocolError("train spec must be a JSON object")
            duration_s = float(spec.get("duration_s", 4.0))
            seed = int(spec.get("seed", 0))
            limit = self.config.train_duration_limit_s
            if not 0 < duration_s <= limit:
                raise FleetError(
                    f"train duration must be in (0, {limit:g}] seconds"
                )
            model = await loop.run_in_executor(
                self.executor,
                lambda: _train_model(vehicle, duration_s, seed, margin),
            )
        else:
            raise FleetError(
                "register payload needs 'model_b64' or 'train'"
            )

        engine = TenantEngine(
            tenant_id,
            vehicle=vehicle_name,
            model=model,
            params=params,
            margin=margin,
            online_update=online_update,
            retrain_bound=retrain_bound,
        )
        record = await self.supervisor.register(tenant_id, engine)
        return 200, await self._tenant_status(record)

    def _next_tenant_id(self) -> str:
        while True:
            self._auto_id += 1
            candidate = f"vehicle-{self._auto_id}"
            if candidate not in self.supervisor.tenants:
                return candidate

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def _ingest(
        self, record: TenantRecord, payload: Any
    ) -> tuple[int, Any]:
        if self.draining:
            return 503, {"error": "gateway is draining"}
        if not isinstance(payload, dict):
            raise ProtocolError("ingest payload must be a JSON object")
        started = monotonic()
        async with record.lock:
            engine = await self.supervisor.resident_engine(record)
            chunk = decode_chunk(payload, engine.params)
            # Classified on the loop: the work is GIL-bound, so a worker
            # thread would only wait for the GIL while the loop decodes.
            verdicts = engine.process_chunk(chunk)
        self._observe_ingest(record.tenant_id, verdicts, monotonic() - started)
        return 200, {
            "tenant": record.tenant_id,
            "chunk": chunk.seq,
            "verdicts": verdicts,
        }

    def _observe_ingest(
        self, tenant_id: str, verdicts: list[dict[str, Any]], elapsed: float
    ) -> None:
        if not self.registry.enabled:
            return
        self.registry.counter(
            CHUNKS_METRIC, help="Chunks accepted across all tenants"
        ).inc()
        if verdicts:
            self.registry.counter(
                FRAMES_METRIC, help="Frames classified across all tenants"
            ).inc(len(verdicts))
            anomalies = sum(v["verdict"] == "anomaly" for v in verdicts)
            if anomalies:
                self.registry.counter(
                    ANOMALIES_METRIC,
                    help="Anomalous frames across all tenants",
                ).inc(anomalies)
        self.registry.histogram(
            VERDICT_LATENCY_METRIC,
            help="Ingest-to-verdict latency of one chunk through the gateway",
        ).observe(elapsed)

    # ------------------------------------------------------------------
    # WebSocket streaming sessions
    # ------------------------------------------------------------------
    async def _websocket_session(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        valid = (
            len(parts) == 3
            and parts[0] == "tenants"
            and parts[2] == "stream"
            and "sec-websocket-key" in request.headers
        )
        if not valid:
            writer.write(
                render_json(
                    400,
                    {"error": "WebSocket upgrades live at /tenants/<id>/stream"},
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        try:
            record = self.supervisor.record(parts[1])
        except FleetError as exc:
            writer.write(render_json(404, {"error": str(exc)}, keep_alive=False))
            await writer.drain()
            return
        writer.write(render_ws_handshake(request.headers["sec-websocket-key"]))
        await writer.drain()
        gauge = None
        if self.registry.enabled:
            gauge = self.registry.gauge(
                WS_CONNECTIONS_METRIC,
                help="Currently open WebSocket streaming sessions",
            )
            gauge.inc()
        try:
            await self._ws_loop(record, reader, writer)
        finally:
            if gauge is not None:
                gauge.dec()

    async def _ws_loop(
        self,
        record: TenantRecord,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                opcode, frame = await read_ws_frame(reader)
            except ProtocolError as exc:
                # Fail the connection (RFC 6455 §7.4.1): status 1002 and
                # the error text, cut to fit a control frame.
                reason = str(exc).encode("ascii", "replace")
                close = protocol.CLOSE_PROTOCOL_ERROR.to_bytes(2, "big") + reason
                writer.write(
                    encode_ws_frame(
                        close[: protocol.MAX_CONTROL_PAYLOAD],
                        opcode=protocol.OP_CLOSE,
                    )
                )
                await writer.drain()
                return
            if opcode == protocol.OP_CLOSE:
                writer.write(encode_ws_frame(frame, opcode=protocol.OP_CLOSE))
                await writer.drain()
                return
            if opcode == protocol.OP_PING:
                writer.write(encode_ws_frame(frame, opcode=protocol.OP_PONG))
                await writer.drain()
                continue
            if opcode not in (protocol.OP_TEXT, protocol.OP_BINARY):
                continue
            reply = await self._ws_message(record, frame)
            writer.write(
                encode_ws_frame(
                    json.dumps(reply, sort_keys=True).encode("utf-8")
                )
            )
            await writer.drain()

    async def _ws_message(
        self, record: TenantRecord, frame: bytes
    ) -> dict[str, Any]:
        try:
            message = json.loads(frame.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return {"type": "error", "error": f"bad frame: {exc}"}
        if not isinstance(message, dict):
            return {"type": "error", "error": "frame must be a JSON object"}
        kind = message.get("type", "chunk")
        if kind != "chunk":
            return {"type": "error", "error": f"unknown frame type {kind!r}"}
        try:
            status, payload = await self._ingest(record, message)
        except ReproError as exc:
            return {"type": "error", "error": str(exc)}
        if status != 200:
            return {"type": "error", "error": str(payload.get("error", status))}
        return {
            "type": "verdicts",
            "chunk": payload["chunk"],
            "verdicts": payload["verdicts"],
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _list_tenants(self) -> dict[str, Any]:
        return {
            "tenants": [
                {
                    "tenant": record.tenant_id,
                    "resident": record.resident,
                    "evicted": record.evicted,
                }
                for record in self.supervisor.tenants.values()
            ]
        }

    async def _tenant_status(self, record: TenantRecord) -> dict[str, Any]:
        if not record.resident:
            return {
                "tenant": record.tenant_id,
                "resident": False,
                "evicted": record.evicted,
            }
        async with record.lock:
            engine = await self.supervisor.resident_engine(record)
            status = engine.status()
        status["resident"] = True
        status["evicted"] = False
        return status

    def _fleet_summary(self) -> dict[str, Any]:
        summary: dict[str, Any] = {
            "draining": self.draining,
            **self.supervisor.stats(),
        }
        if self.registry.enabled:
            for key, name in (
                ("chunks", CHUNKS_METRIC),
                ("frames", FRAMES_METRIC),
                ("anomalies", ANOMALIES_METRIC),
            ):
                total = 0.0
                for _labels, metric in self.registry.samples(name):
                    total += metric.value
                summary[key] = int(total)
            histogram = self.registry.histogram(
                VERDICT_LATENCY_METRIC,
                help="Ingest-to-verdict latency of one chunk through the gateway",
            )
            summary["verdict_latency"] = {
                "count": histogram.count,
                "p50": histogram.quantile(0.5),
                "p99": histogram.quantile(0.99),
                "max": histogram.max,
            }
        return summary


def _train_model(
    vehicle: Any, duration_s: float, seed: int, margin: float
) -> VProfileModel:
    """Server-side registration path: capture and train on the executor."""
    session = capture_session(vehicle, duration_s, seed=seed)
    pipeline = VProfilePipeline(
        PipelineConfig(margin=margin, sa_clusters=vehicle.sa_clusters)
    )
    pipeline.train(session.traces)
    return pipeline.model


def _int_query(request: HttpRequest, name: str, default: int) -> int:
    values = request.query.get(name)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise ProtocolError(
            f"query parameter {name!r} must be an integer, got {values[0]!r}"
        ) from None


class GatewayThread:
    """Run a :class:`FleetGateway` on a dedicated event-loop thread.

    Synchronous callers (tests, examples, the benchmark harness) start
    the gateway with ``GatewayThread(config).start()``, talk plain HTTP
    to :attr:`url`, and ``stop()`` it when done.  ``drain()`` and
    ``stop()`` are marshalled onto the loop thread.
    """

    def __init__(
        self,
        config: GatewayConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.gateway = FleetGateway(config, registry)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "GatewayThread":
        if self._thread is not None:
            raise FleetError("gateway thread already started")
        self._thread = threading.Thread(
            target=self._run, name="vprofile-fleet-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise FleetError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise FleetError(
                f"gateway failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.gateway.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
            # Post-loop cleanup scheduled by stop():
            loop.run_until_complete(self.gateway.stop())
        finally:
            loop.close()
            self._stopped.set()

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def url(self) -> str:
        return self.gateway.url

    def drain(self, timeout: float = 60.0) -> int:
        """Run a graceful drain on the loop thread; returns tenants flushed."""
        loop = self._require_loop()
        future = asyncio.run_coroutine_threadsafe(self.gateway.drain(), loop)
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 60.0) -> None:
        loop = self._loop
        if loop is None or self._thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if not self._stopped.wait(timeout=timeout):
            raise FleetError("gateway thread did not stop in time")
        self._thread.join(timeout=timeout)
        self._thread = None
        self._loop = None

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise FleetError("gateway thread is not running")
        return self._loop

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = [
    "ANOMALIES_METRIC",
    "CHUNKS_METRIC",
    "FRAMES_METRIC",
    "FleetGateway",
    "GatewayConfig",
    "GatewayThread",
    "REQUESTS_METRIC",
    "VERDICT_LATENCY_METRIC",
    "WS_CONNECTIONS_METRIC",
]
