"""End-to-end gateway tests: REST, WebSocket, metrics, graceful drain.

The reference for every wire test is a :class:`TenantEngine` run directly
over the same chunk sequence — whatever comes back over HTTP must be the
byte-identical verdict stream, eviction, drain and restart included.
"""

import asyncio
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.acquisition.segmentation import assemble_stream
from repro.acquisition.trace import VoltageTrace
from repro.core.model import VProfileModel
from repro.fleet.gateway import (
    CHUNKS_METRIC,
    FRAMES_METRIC,
    WS_CONNECTIONS_METRIC,
    FleetGateway,
    GatewayConfig,
    GatewayThread,
)
from repro.fleet.protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    client_ws_connect,
    encode_ws_frame,
    http_json,
    read_ws_frame,
)
from repro.fleet.tenant import (
    CaptureParams,
    TenantEngine,
    encode_chunk,
    model_to_b64,
)
from repro.obs.registry import MetricsRegistry
from repro.stream import ReplaySource


@pytest.fixture(scope="module")
def fleet_chunks(stream_test_session):
    stream = assemble_stream(stream_test_session.traces)
    short = VoltageTrace(
        counts=stream.counts[:60_000],
        sample_rate=stream.sample_rate,
        resolution_bits=stream.resolution_bits,
        bitrate=stream.bitrate,
        start_s=stream.start_s,
        metadata=dict(stream.metadata),
    )
    return list(ReplaySource(short, 8192).chunks())


@pytest.fixture(scope="module")
def model_b64(stream_model_file):
    path, _extraction = stream_model_file
    return model_to_b64(VProfileModel.load(path))


@pytest.fixture(scope="module")
def reference_verdicts(stream_vehicle, stream_model_file, fleet_chunks):
    """Verdicts of an uninterrupted local engine over the same chunks."""
    path, _extraction = stream_model_file
    engine = TenantEngine(
        "ref",
        vehicle="sterling",
        model=VProfileModel.load(path),
        params=CaptureParams.for_vehicle(stream_vehicle),
        margin=5.0,
    )
    verdicts = []
    for chunk in fleet_chunks:
        verdicts.append(engine.process_chunk(chunk))
    assert sum(len(v) for v in verdicts) > 0
    return verdicts  # one list per chunk


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def gateway(tmp_path, registry):
    config = GatewayConfig(state_dir=tmp_path / "state", max_resident=64)
    with GatewayThread(config, registry) as server:
        yield server


def call(server, method, path, payload=None):
    """One request over a fresh connection; ``(status, decoded body)``."""

    async def go():
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            return await http_json(reader, writer, method, path, payload)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    return asyncio.run(go())


def ws_exchange(server, path, payloads):
    """Send each payload as one masked WebSocket text frame; the replies."""

    async def go():
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            await client_ws_connect(reader, writer, path)
            replies = []
            for payload in payloads:
                writer.write(
                    encode_ws_frame(
                        json.dumps(payload).encode(),
                        opcode=OP_TEXT,
                        mask_key=b"\x10\x20\x30\x40",
                    )
                )
                await writer.drain()
                opcode, frame = await read_ws_frame(reader)
                assert opcode == OP_TEXT
                replies.append(json.loads(frame))
            return replies
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    return asyncio.run(go())


def register(server, model_b64, tenant="v1", **extra):
    payload = {
        "tenant": tenant,
        "vehicle": "sterling",
        "sample_rate": 2_000_000.0,
        "margin": 5.0,
        "model_b64": model_b64,
        **extra,
    }
    return call(server, "POST", "/tenants", payload)


def flat(verdict_lists):
    return json.dumps(
        [v for chunk in verdict_lists for v in chunk], sort_keys=True
    )


class TestRegistration:
    def test_register_lists_and_status(self, gateway, model_b64):
        status, body = register(gateway, model_b64)
        assert status == 200
        assert body["tenant"] == "v1" and body["resident"]
        status, body = call(gateway, "GET", "/tenants")
        assert [t["tenant"] for t in body["tenants"]] == ["v1"]
        status, body = call(gateway, "GET", "/tenants/v1")
        assert status == 200 and body["chunks"] == 0

    def test_duplicate_is_409(self, gateway, model_b64):
        register(gateway, model_b64)
        status, body = register(gateway, model_b64)
        assert status == 409
        assert "already registered" in body["error"]

    def test_bad_vehicle_and_bad_tenant_id_are_400(self, gateway, model_b64):
        status, body = register(gateway, model_b64, vehicle="tractor")
        assert status == 400 and "unknown vehicle" in body["error"]
        status, body = register(gateway, model_b64, tenant="../escape")
        assert status == 400 and "invalid tenant id" in body["error"]

    def test_register_without_model_or_train_is_400(self, gateway):
        status, body = call(gateway, "POST", "/tenants", {"tenant": "v1"})
        assert status == 400
        assert "model_b64" in body["error"]

    def test_train_duration_cap_is_enforced(self, gateway):
        status, body = call(
            gateway,
            "POST",
            "/tenants",
            {"tenant": "v1", "train": {"duration_s": 1e6}},
        )
        assert status == 400
        assert "train duration" in body["error"]

    def test_unknown_tenant_is_404(self, gateway):
        status, body = call(gateway, "GET", "/tenants/ghost")
        assert status == 404
        assert "unknown tenant" in body["error"]

    def test_unknown_route_and_bad_method(self, gateway):
        status, body = call(gateway, "GET", "/nope")
        assert status == 404 and "/fleet" in body["routes"]
        status, body = call(gateway, "PUT", "/tenants")
        assert status == 405


class TestIngest:
    def test_rest_verdicts_match_local_engine(
        self, gateway, model_b64, fleet_chunks, reference_verdicts
    ):
        register(gateway, model_b64)
        collected = []
        for index, chunk in enumerate(fleet_chunks):
            status, body = call(
                gateway, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
            )
            assert status == 200
            assert body["chunk"] == index
            collected.append(body["verdicts"])
        assert flat(collected) == flat(reference_verdicts)

    def test_out_of_order_chunk_is_409(self, gateway, model_b64, fleet_chunks):
        register(gateway, model_b64)
        call(gateway, "POST", "/tenants/v1/ingest", encode_chunk(fleet_chunks[0]))
        status, body = call(
            gateway, "POST", "/tenants/v1/ingest", encode_chunk(fleet_chunks[0])
        )
        assert status == 409
        assert "out-of-order" in body["error"]

    def test_verdict_ring_and_query_validation(
        self, gateway, model_b64, fleet_chunks, reference_verdicts
    ):
        register(gateway, model_b64)
        for chunk in fleet_chunks:
            call(gateway, "POST", "/tenants/v1/ingest", encode_chunk(chunk))
        total = sum(len(v) for v in reference_verdicts)
        status, body = call(
            gateway, "GET", f"/tenants/v1/verdicts?since={total - 2}&limit=50"
        )
        assert status == 200
        assert [v["seq"] for v in body["verdicts"]] == [total - 2, total - 1]
        status, body = call(gateway, "GET", "/tenants/v1/verdicts?since=abc")
        assert status == 400
        assert "'since'" in body["error"]

    def test_health_endpoint(self, gateway, model_b64, fleet_chunks):
        register(gateway, model_b64)
        for chunk in fleet_chunks:
            call(gateway, "POST", "/tenants/v1/ingest", encode_chunk(chunk))
        status, body = call(gateway, "GET", "/tenants/v1/health")
        assert status == 200
        assert body["overall"] != "unavailable"
        assert body["sources"]

    def test_evict_endpoint_is_invisible_in_verdicts(
        self, gateway, model_b64, fleet_chunks, reference_verdicts
    ):
        register(gateway, model_b64)
        halfway = len(fleet_chunks) // 2
        collected = []
        for index, chunk in enumerate(fleet_chunks):
            if index == halfway:
                status, body = call(gateway, "POST", "/tenants/v1/evict")
                assert status == 200 and body["resident"] is False
                status, body = call(gateway, "GET", "/tenants/v1")
                assert body["evicted"] is True
            status, body = call(
                gateway, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
            )
            assert status == 200
            collected.append(body["verdicts"])
        assert flat(collected) == flat(reference_verdicts)

    def test_delete_forgets_tenant(self, gateway, model_b64):
        register(gateway, model_b64)
        status, body = call(gateway, "DELETE", "/tenants/v1")
        assert status == 200 and body["removed"]
        status, _body = call(gateway, "GET", "/tenants/v1")
        assert status == 404


class TestWebSocket:
    def test_ws_stream_matches_local_engine(
        self, gateway, registry, model_b64, fleet_chunks, reference_verdicts
    ):
        register(gateway, model_b64)

        async def session():
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                await client_ws_connect(reader, writer, "/tenants/v1/stream")
                collected = []
                for chunk in fleet_chunks:
                    frame = json.dumps(
                        {"type": "chunk", **encode_chunk(chunk)}
                    ).encode()
                    writer.write(
                        encode_ws_frame(
                            frame, opcode=OP_TEXT, mask_key=b"\x10\x20\x30\x40"
                        )
                    )
                    await writer.drain()
                    opcode, payload = await read_ws_frame(reader)
                    assert opcode == OP_TEXT
                    reply = json.loads(payload)
                    assert reply["type"] == "verdicts"
                    collected.append(reply["verdicts"])
                # Ping/pong keep-alives work mid-session.
                writer.write(
                    encode_ws_frame(
                        b"hb", opcode=OP_PING, mask_key=b"\x01\x02\x03\x04"
                    )
                )
                await writer.drain()
                assert await read_ws_frame(reader) == (OP_PONG, b"hb")
                # Clean close handshake is echoed.
                writer.write(
                    encode_ws_frame(
                        b"", opcode=OP_CLOSE, mask_key=b"\x01\x02\x03\x04"
                    )
                )
                await writer.drain()
                opcode, _payload = await read_ws_frame(reader)
                assert opcode == OP_CLOSE
                return collected
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        collected = asyncio.run(session())
        assert flat(collected) == flat(reference_verdicts)
        # The server decrements the gauge in its handler's cleanup, which
        # may land just after the client saw the close echo.
        gauge = registry.get(WS_CONNECTIONS_METRIC)
        assert gauge is not None
        deadline = time.monotonic() + 5.0
        while gauge.value != 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gauge.value == 0

    def test_ws_upgrade_for_unknown_tenant_is_404(self, gateway):
        async def attempt():
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                with pytest.raises(Exception, match="refused with status 404"):
                    await client_ws_connect(reader, writer, "/tenants/ghost/stream")
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        asyncio.run(attempt())

    def test_ws_bad_frame_yields_error_reply(self, gateway, model_b64):
        register(gateway, model_b64)

        async def session():
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                await client_ws_connect(reader, writer, "/tenants/v1/stream")
                writer.write(
                    encode_ws_frame(
                        b"not json", mask_key=b"\x01\x02\x03\x04"
                    )
                )
                await writer.drain()
                _opcode, payload = await read_ws_frame(reader)
                return json.loads(payload)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        reply = asyncio.run(session())
        assert reply["type"] == "error"
        assert "bad frame" in reply["error"]

    @pytest.mark.parametrize(
        "first_byte, payload, match",
        [
            (0x01, b"frag", b"fragmented"),  # FIN=0 text frame
            (0x80 | OP_PING, b"p" * 126, b"control frame"),
            (0x80 | 0x40 | OP_TEXT, b"{}", b"reserved bits"),  # RSV1
        ],
        ids=["fin0", "oversize-ping", "rsv1"],
    )
    def test_ws_protocol_error_closes_with_1002(
        self, gateway, registry, model_b64, caplog, first_byte, payload, match
    ):
        register(gateway, model_b64)
        frame = bytearray(
            encode_ws_frame(payload, mask_key=b"\x01\x02\x03\x04")
        )
        frame[0] = first_byte

        async def session():
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                await client_ws_connect(reader, writer, "/tenants/v1/stream")
                writer.write(bytes(frame))
                await writer.drain()
                return await read_ws_frame(reader)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            opcode, close = asyncio.run(session())
            # The session's cleanup runs just after the close frame is
            # sent; an exception escaping it would be logged then.
            gauge = registry.get(WS_CONNECTIONS_METRIC)
            deadline = time.monotonic() + 5.0
            while gauge.value != 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
        assert opcode == OP_CLOSE
        assert close.startswith(b"\x03\xea")  # status 1002
        assert match in close
        assert len(close) <= 125
        assert not [r for r in caplog.records if r.name == "asyncio"]


def send_chunks(server, transport, payloads):
    """Ingest ``payloads`` in order over REST or one WebSocket session.

    Returns ``(ok, body)`` per payload, where ``body`` is the verdict
    list of an accepted chunk and the error text of a rejected one.
    """
    if transport == "rest":
        results = []
        for payload in payloads:
            status, body = call(server, "POST", "/tenants/v1/ingest", payload)
            assert status in (200, 400, 409), (status, body)
            results.append(
                (True, body["verdicts"])
                if status == 200
                else (False, f"{status} {body['error']}")
            )
        return results
    replies = ws_exchange(
        server,
        "/tenants/v1/stream",
        [{"type": "chunk", **payload} for payload in payloads],
    )
    return [
        (True, reply["verdicts"])
        if reply["type"] == "verdicts"
        else (False, reply["error"])
        for reply in replies
    ]


@pytest.mark.parametrize("transport", ["rest", "ws"])
class TestIngestOnTheLoop:
    """Chunk classification runs inline on the gateway's event loop."""

    def test_process_chunk_runs_on_the_loop_thread(
        self, gateway, model_b64, fleet_chunks, monkeypatch, transport
    ):
        threads = []
        process_chunk = TenantEngine.process_chunk

        def recording(engine, chunk):
            threads.append(threading.get_ident())
            return process_chunk(engine, chunk)

        monkeypatch.setattr(TenantEngine, "process_chunk", recording)
        register(gateway, model_b64)
        results = send_chunks(
            gateway, transport, [encode_chunk(c) for c in fleet_chunks[:3]]
        )
        assert [ok for ok, _body in results] == [True] * 3
        assert threads == [gateway._thread.ident] * 3

    def test_tenant_recovers_after_rejected_chunks(
        self, gateway, model_b64, fleet_chunks, reference_verdicts, transport
    ):
        """A rejected chunk leaves the tenant's lock and state intact."""
        register(gateway, model_b64)
        bad_dtype = {**encode_chunk(fleet_chunks[2]), "dtype": "float32"}
        payloads = [encode_chunk(c) for c in fleet_chunks]
        payloads[2:2] = [encode_chunk(fleet_chunks[0]), bad_dtype]
        results = send_chunks(gateway, transport, payloads)
        assert [ok for ok, _body in results[2:5]] == [False, False, True]
        assert "out-of-order" in results[2][1]
        assert "unsupported sample dtype" in results[3][1]
        if transport == "rest":
            assert results[2][1].startswith("409")
            assert results[3][1].startswith("400")
        accepted = [body for ok, body in results if ok]
        assert accepted[2] == reference_verdicts[2]
        assert flat(accepted) == flat(reference_verdicts)


class TestObservability:
    def test_fleet_summary_and_metrics(
        self, gateway, registry, model_b64, fleet_chunks
    ):
        register(gateway, model_b64)
        for chunk in fleet_chunks:
            call(gateway, "POST", "/tenants/v1/ingest", encode_chunk(chunk))
        status, body = call(gateway, "GET", "/fleet")
        assert status == 200
        assert body["tenants"] == 1 and body["resident"] == 1
        assert body["chunks"] == len(fleet_chunks)
        assert body["frames"] > 0
        assert body["verdict_latency"]["count"] == len(fleet_chunks)
        assert body["verdict_latency"]["p99"] >= body["verdict_latency"]["p50"]
        assert registry.get(CHUNKS_METRIC).value == len(fleet_chunks)
        assert registry.get(FRAMES_METRIC).value == body["frames"]

        async def scrape():
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            try:
                from repro.fleet.protocol import http_request

                return await http_request(reader, writer, "GET", "/metrics")
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

        _status, headers, text = asyncio.run(scrape())
        assert headers["content-type"].startswith("text/plain")
        exposition = text.decode()
        assert "# TYPE vprofile_fleet_chunks_total counter" in exposition
        assert 'vprofile_fleet_tenants{state="resident"} 1' in exposition


class TestGracefulDrain:
    def test_no_verdicts_lost_across_drain_and_restart(
        self, tmp_path, model_b64, fleet_chunks, reference_verdicts
    ):
        """Satellite guarantee: accepted chunks survive a drain; the
        restarted gateway continues the verdict stream byte-identically."""
        state = tmp_path / "state"
        halfway = len(fleet_chunks) // 2
        collected = []
        with GatewayThread(
            GatewayConfig(state_dir=state), MetricsRegistry()
        ) as first:
            register(first, model_b64)
            for chunk in fleet_chunks[:halfway]:
                status, body = call(
                    first, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
                )
                assert status == 200
                collected.append(body["verdicts"])
            assert first.drain() == 1
            # Draining gateway refuses new work but stays queryable.
            status, body = call(
                first,
                "POST",
                "/tenants/v1/ingest",
                encode_chunk(fleet_chunks[halfway]),
            )
            assert status == 503 and "draining" in body["error"]
            status, _body = register(first, model_b64, tenant="late")
            assert status == 503
            status, body = call(first, "GET", "/fleet")
            assert body["draining"] is True and body["resident"] == 0

        with GatewayThread(
            GatewayConfig(state_dir=state), MetricsRegistry()
        ) as second:
            status, body = call(second, "GET", "/tenants")
            assert [t["tenant"] for t in body["tenants"]] == ["v1"]
            assert body["tenants"][0]["evicted"] is True
            for chunk in fleet_chunks[halfway:]:
                status, body = call(
                    second, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
                )
                assert status == 200
                collected.append(body["verdicts"])
        assert flat(collected) == flat(reference_verdicts)

    def test_stop_finishes_every_session_task(self, tmp_path, monkeypatch):
        """Sessions closing while the gateway stops must not be left
        pending on the closed loop ("Task was destroyed but it is
        pending!" when they are collected later)."""
        tasks = []
        serve = FleetGateway._serve_connection

        async def recording(self, reader, writer):
            tasks.append(asyncio.current_task())
            await serve(self, reader, writer)

        monkeypatch.setattr(FleetGateway, "_serve_connection", recording)
        config = GatewayConfig(state_dir=tmp_path / "state")
        with GatewayThread(config, MetricsRegistry()) as server:
            clients = [
                socket.create_connection((server.host, server.port))
                for _ in range(32)
            ]
            deadline = time.monotonic() + 10.0
            while len(tasks) < len(clients) and time.monotonic() < deadline:
                time.sleep(0.01)
            for client in clients:
                client.close()
        assert len(tasks) == len(clients)
        assert [task for task in tasks if not task.done()] == []

    @pytest.mark.slow
    def test_sigterm_drains_the_serve_process(
        self, tmp_path, model_b64, fleet_chunks, reference_verdicts
    ):
        """``repro fleet serve`` + SIGTERM flushes in-flight tenants; a
        restart picks the fleet up with zero verdicts lost."""
        state = tmp_path / "state"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli",
                "fleet", "serve",
                "--address", "127.0.0.1:0",
                "--state-dir", str(state),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            banner = process.stdout.readline()
            assert "fleet gateway on http://" in banner
            address = banner.split("http://", 1)[1].split(" ", 1)[0]
            host, port_text = address.rsplit(":", 1)
            server = type(
                "Addr", (), {"host": host, "port": int(port_text)}
            )()
            halfway = len(fleet_chunks) // 2
            collected = []
            register(server, model_b64)
            for chunk in fleet_chunks[:halfway]:
                status, body = call(
                    server, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
                )
                assert status == 200
                collected.append(body["verdicts"])
            process.send_signal(signal.SIGTERM)
            _stdout, stderr = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "drained: 1 tenant checkpoint flushed" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        with GatewayThread(
            GatewayConfig(state_dir=state), MetricsRegistry()
        ) as revived:
            for chunk in fleet_chunks[halfway:]:
                status, body = call(
                    revived, "POST", "/tenants/v1/ingest", encode_chunk(chunk)
                )
                assert status == 200
                collected.append(body["verdicts"])
        assert flat(collected) == flat(reference_verdicts)


class TestBudgetOverWire:
    def test_many_tenants_share_a_small_residency_budget(
        self, tmp_path, model_b64, fleet_chunks
    ):
        config = GatewayConfig(state_dir=tmp_path / "state", max_resident=2)
        with GatewayThread(config, MetricsRegistry()) as server:
            for index in range(4):
                status, _body = register(
                    server, model_b64, tenant=f"v{index}"
                )
                assert status == 200
            status, body = call(server, "GET", "/fleet")
            assert body["tenants"] == 4
            assert body["resident"] == 2
            assert body["evictions"] >= 2
            # Every tenant still answers ingest (rehydrating on demand).
            for index in range(4):
                status, body = call(
                    server,
                    "POST",
                    f"/tenants/v{index}/ingest",
                    encode_chunk(fleet_chunks[0]),
                )
                assert status == 200
