"""fleet-gateway: a real ``FleetGateway`` process under a closed-loop load.

Set-up trains one sterling model at 2 MS/s, pre-renders one capture,
base64-encodes it into 32768-sample chunk payloads, pre-masks every
WebSocket frame, starts the gateway in its own process
(``gateway_main.py``, with a state directory and ``max_resident=8``)
and registers 16 tenants with the model.  Every tenant streams the same
chunk sequence, the capture looped, from its start, so one in-process
``TenantEngine`` fed the same payloads afterwards gives every tenant's
reference: the n-th chunk of any tenant must get the reference's n-th
verdicts, whatever evictions happened in between.

The load is a closed loop from this one process over 2 connections, the
core count: a WebSocket session on tenant 0, and a REST keep-alive
connection whose every request goes to one of tenants 1-15, drawn with
a seeded Zipf skew.  Tenant 0 keeps one resident slot busy, so the other
seven churn and some requests evict and rehydrate.  A connection sends
its next chunk only when the previous chunk's verdicts are back.  A
round trip is timed from the first request byte written to the last
reply byte read; request bytes are built before the clock starts.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from perfbench.common import (
    JOBS,
    MARGIN,
    ROOT,
    WORK_DIR,
    Outcome,
    median,
    percentile,
    timed_setup,
)

NAME = "fleet-gateway"
HOST = "127.0.0.1"
VEHICLE = "sterling"
SAMPLE_RATE = 2_000_000.0
CHUNK_SAMPLES = 32768
#: 16-bit offset-binary ADC codes travel as uint16, two bytes a sample.
WIRE_DTYPE = "uint16"
TENANTS = 16
MAX_RESIDENT = 8
ZIPF_EXPONENT = 3.0
TRAIN_S = 4.0
#: Bus time pre-rendered.  Its whole chunks up to the last one ending in
#: bus idle form a loop that every tenant streams from its start, so
#: memory stays bounded however long a window runs.
CAPTURE_S = 12.0
#: Bus idle (1 ms) the loop must end in: replaying it joins idle to idle
#: and cuts no frame.
IDLE_TAIL_SAMPLES = 2048
#: Chunks one connection may send in a window; the window ends early
#: (``exhausted``) if a connection gets through them all.
MAX_CHUNKS = 50_000
#: Fixed width of the per-chunk JSON tail (``seq``, ``start_s``), padded
#: with spaces, so every frame of a run has the same length.
TAIL_BYTES = 64
#: Throughput and median latency are medians over slices of the window
#: this long, so a few seconds of a slower host move them less.
SLICE_S = 2.5
LAUNCHER = ROOT / "perfbench" / "gateway_main.py"


def tenant_name(index: int) -> str:
    return f"bench-{index}"


@dataclass
class Fleet:
    """What the load generator sends, all built in set-up.

    Chunk ``seq`` of any tenant is loop position ``seq % len(bodies)``:
    its body is ``bodies[position]`` followed by tail ``seq``.
    """

    model_b64: str
    #: Counts of each loop position, JSON up to the tail.
    bodies: list[bytes]
    #: The same behind ``"type": "chunk"``, masked with ``ws_head``'s key.
    ws_bodies: list[bytes]
    #: Frame header and mask key, the same for every WebSocket frame.
    ws_head: bytes
    #: Tails of chunks ``0 .. MAX_CHUNKS-1``, ``TAIL_BYTES`` each, plain
    #: and masked.
    tails: bytes
    ws_tails: bytes
    #: Tenant index of every REST request, in order.
    plan: np.ndarray

    def tail(self, seq: int, masked: bool = False) -> bytes:
        blob = self.ws_tails if masked else self.tails
        return blob[seq * TAIL_BYTES : (seq + 1) * TAIL_BYTES]

    def body(self, seq: int) -> bytes:
        return self.bodies[seq % len(self.bodies)] + self.tail(seq)

    def ws_frame(self, seq: int) -> list[bytes]:
        return [self.ws_head, self.ws_bodies[seq % len(self.bodies)], self.tail(seq, True)]


@dataclass
class Connection:
    """What one client connection saw in a window."""

    transport: str
    #: Per chunk sent: round trip, when it ended (window time), verdicts.
    latencies: list[float] = field(default_factory=list)
    finished: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    #: Tenant -> the verdict list of each of its chunks, in order.
    replies: dict[int, list[Any]] = field(default_factory=dict)
    errors: int = 0

    @property
    def chunks(self) -> int:
        return len(self.latencies)

    @property
    def messages(self) -> int:
        return sum(self.sizes)

    def record(self, started: float, ended: float, window: "Window", verdicts: list | None) -> None:
        self.latencies.append(ended - started)
        self.finished.append(ended - window.started)
        self.sizes.append(0 if verdicts is None else len(verdicts))
        if verdicts is None:
            self.errors += 1


@dataclass
class Window:
    started: float
    deadline: float
    exhausted: bool = False

    def exhaust(self) -> None:
        self.exhausted = True
        self.deadline = perf_counter()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def ws_head(length: int, key: bytes) -> bytes:
    """Header of a masked client text frame, as ``encode_ws_frame`` writes it."""
    if length < 126:
        head = bytes([0x81, 0x80 | length])
    elif length < 1 << 16:
        head = bytes([0x81, 0x80 | 126]) + length.to_bytes(2, "big")
    else:
        head = bytes([0x81, 0x80 | 127]) + length.to_bytes(8, "big")
    return head + key


def mask(payload: bytes, key: bytes, offset: int = 0) -> bytes:
    """RFC 6455 masking of ``payload`` starting at frame byte ``offset``."""
    # XOR whole 4-byte words with the key rotated to the payload's offset.
    shift = offset % 4
    word = np.frombuffer(key[shift:] + key[:shift], dtype=np.uint32)[0]
    words = np.frombuffer(payload + bytes(-len(payload) % 4), dtype=np.uint32)
    return (words ^ word).tobytes()[: len(payload)]


def loop_chunks(chunks: list[Any], idle_code: int) -> list[Any]:
    """Whole chunks up to the last one that ends in bus idle."""
    for end in range(len(chunks), 0, -1):
        counts = chunks[end - 1].counts
        if len(counts) == CHUNK_SAMPLES and np.all(counts[-IDLE_TAIL_SAMPLES:] == idle_code):
            return chunks[:end]
    raise ValueError("no chunk of the capture ends in bus idle")


def chunk_prefix(chunk: Any) -> bytes:
    counts = chunk.counts.astype(WIRE_DTYPE)
    if not np.array_equal(counts, chunk.counts):
        raise ValueError(f"samples do not fit {WIRE_DTYPE}")
    encoded = base64.b64encode(counts.tobytes()).decode("ascii")
    return f'{{"dtype": "{WIRE_DTYPE}", "counts": "{encoded}"'.encode("ascii")


def tails() -> bytes:
    """The fixed-width JSON tails of chunks ``0 .. MAX_CHUNKS-1``."""
    parts = []
    for seq in range(MAX_CHUNKS):
        text = f', "seq": {seq}, "start_s": {seq * CHUNK_SAMPLES / SAMPLE_RATE!r}'
        parts.append(text.ljust(TAIL_BYTES - 1) + "}")
    return "".join(parts).encode("ascii")


def prepare(seed: int) -> tuple[Fleet, dict[str, float]]:
    """Train, render, encode and mask; returns the times of each step."""
    from repro.acquisition.adc import AdcConfig
    from repro.fleet.loadgen import LoadgenConfig, train_shared_model
    from repro.fleet.tenant import builtin_vehicle, model_to_b64
    from repro.stream.chunks import LiveSource

    times = {}
    started = perf_counter()
    config = LoadgenConfig(
        vehicle=VEHICLE,
        sample_rate=SAMPLE_RATE,
        seed=1000 * seed + 700,
        train_duration_s=TRAIN_S,
        margin=MARGIN,
    )
    model_b64 = model_to_b64(train_shared_model(config))
    times["train_s"] = perf_counter() - started

    started = perf_counter()
    vehicle = builtin_vehicle(VEHICLE, SAMPLE_RATE)
    source = LiveSource(vehicle, CAPTURE_S, CHUNK_SAMPLES, seed=1000 * seed + 701, jobs=JOBS)
    idle_code = round(AdcConfig(resolution_bits=vehicle.resolution_bits).volts_to_counts(0.0))
    bodies = [chunk_prefix(chunk) for chunk in loop_chunks(list(source.chunks()), idle_code)]
    times["render_s"] = perf_counter() - started

    started = perf_counter()
    rng = np.random.default_rng(seed)
    key = rng.bytes(4)
    ws_plain = [b'{"type": "chunk", ' + body[1:] for body in bodies]
    if len({len(body) for body in ws_plain}) != 1:
        raise ValueError("loop chunks encode to different lengths")
    plain_tails = tails()
    length = len(ws_plain[0])
    ranks = np.arange(1, TENANTS)
    weights = ranks ** -ZIPF_EXPONENT
    fleet = Fleet(
        model_b64=model_b64,
        bodies=bodies,
        ws_bodies=[mask(body, key) for body in ws_plain],
        ws_head=ws_head(length + TAIL_BYTES, key),
        tails=plain_tails,
        # Every tail starts at the same frame offset, so one pattern fits all.
        ws_tails=mask(plain_tails, key, length),
        plan=rng.choice(ranks, size=MAX_CHUNKS, p=weights / weights.sum()),
    )
    times["mask_s"] = perf_counter() - started
    return fleet, times


class Gateway:
    """The gateway process, driven through ``gateway_main.py``'s stdin."""

    def __init__(self, state_dir: Path, trace: bool):
        self.state_dir = state_dir
        command = [sys.executable, str(LAUNCHER), "--state-dir", str(state_dir)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("the gateway exited before it listened")
        self.port = int(json.loads(line)["port"])

    def reset(self) -> None:
        """Zero the gateway's span totals and peak-RSS high-water mark."""
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError("the gateway did not acknowledge reset")

    def stop(self) -> dict[str, Any]:
        """Stop the gateway; its final report (peak RSS, spans, counters)."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"the gateway exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.state_dir, ignore_errors=True)


async def _register(port: int, model_b64: str) -> None:
    from repro.fleet.protocol import http_json

    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        for index in range(TENANTS):
            status, body = await http_json(
                reader,
                writer,
                "POST",
                "/tenants",
                {
                    "tenant": tenant_name(index),
                    "vehicle": VEHICLE,
                    "sample_rate": SAMPLE_RATE,
                    "margin": MARGIN,
                    "model_b64": model_b64,
                },
            )
            if status != 200:
                raise RuntimeError(f"register {tenant_name(index)} failed ({status}): {body}")
    finally:
        await _close(writer)


def start_gateway(fleet: Fleet, trace: bool, times: dict[str, float]) -> Gateway:
    """Start the gateway process and register the fleet."""
    WORK_DIR.mkdir(exist_ok=True)
    started = perf_counter()
    gateway = Gateway(Path(tempfile.mkdtemp(prefix="fleet-", dir=WORK_DIR)), trace)
    times["gateway_start_s"] = perf_counter() - started
    started = perf_counter()
    try:
        asyncio.run(_register(gateway.port, fleet.model_b64))
    except BaseException:
        gateway.kill()
        raise
    times["register_s"] = perf_counter() - started
    return gateway


def setup(seed: int) -> tuple[Fleet, Gateway, dict[str, float]]:
    """Everything before the window: the fleet, and the gateway serving it."""
    fleet, times = prepare(seed)
    return fleet, start_gateway(fleet, False, times), times


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _websocket(port: int, fleet: Fleet, window: Window, out: Connection) -> None:
    from repro.fleet.protocol import OP_CLOSE, OP_TEXT, client_ws_connect, encode_ws_frame, read_ws_frame

    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        await client_ws_connect(reader, writer, f"/tenants/{tenant_name(0)}/stream")
        replies = out.replies.setdefault(0, [])
        for seq in range(MAX_CHUNKS):
            if perf_counter() >= window.deadline:
                break
            frame = fleet.ws_frame(seq)
            started = perf_counter()
            writer.writelines(frame)
            await writer.drain()
            opcode, payload = await read_ws_frame(reader)
            ended = perf_counter()
            reply = json.loads(payload) if opcode == OP_TEXT else {}
            if reply.get("type") != "verdicts":
                out.record(started, ended, window, None)
                window.deadline = ended
                break
            out.record(started, ended, window, reply["verdicts"])
            replies.append(reply["verdicts"])
        else:
            window.exhaust()
        writer.write(encode_ws_frame(b"", opcode=OP_CLOSE, mask_key=b"\0\0\0\0"))
        await writer.drain()
        await read_ws_frame(reader)
    finally:
        await _close(writer)


async def _rest(port: int, fleet: Fleet, window: Window, out: Connection) -> None:
    from repro.fleet.protocol import read_http_response

    reader, writer = await asyncio.open_connection(HOST, port)
    sent = [0] * TENANTS
    length = len(fleet.bodies[0]) + TAIL_BYTES
    try:
        for tenant in fleet.plan.tolist():
            if perf_counter() >= window.deadline:
                break
            seq = sent[tenant]
            request = [
                (
                    f"POST /tenants/{tenant_name(tenant)}/ingest HTTP/1.1\r\n"
                    f"Host: fleet\r\nContent-Length: {length}\r\n\r\n"
                ).encode("latin-1"),
                fleet.bodies[seq % len(fleet.bodies)],
                fleet.tail(seq),
            ]
            started = perf_counter()
            writer.writelines(request)
            await writer.drain()
            status, _headers, raw = await read_http_response(reader)
            ended = perf_counter()
            if status != 200:
                out.record(started, ended, window, None)
                continue
            verdicts = json.loads(raw)["verdicts"]
            out.record(started, ended, window, verdicts)
            sent[tenant] += 1
            out.replies.setdefault(tenant, []).append(verdicts)
        else:
            window.exhaust()
    finally:
        await _close(writer)


async def _drive(port: int, fleet: Fleet, seconds: float) -> tuple[list[Connection], float, bool]:
    started = perf_counter()
    window = Window(started, started + seconds)
    connections = [Connection("ws"), Connection("rest")]
    await asyncio.gather(
        _websocket(port, fleet, window, connections[0]),
        _rest(port, fleet, window, connections[1]),
    )
    return connections, perf_counter() - started, window.exhausted


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def reference(fleet: Fleet, count: int) -> tuple[list[Any], list[int]]:
    """Verdicts of chunks ``0 .. count-1`` from an in-process engine, and
    its extraction failures after each chunk."""
    from repro.fleet.tenant import CaptureParams, TenantEngine, builtin_vehicle, decode_chunk, model_from_b64

    engine = TenantEngine(
        "reference",
        vehicle=VEHICLE,
        model=model_from_b64(fleet.model_b64),
        params=CaptureParams.for_vehicle(builtin_vehicle(VEHICLE, SAMPLE_RATE)),
        margin=MARGIN,
    )
    verdicts, failures = [], [0]
    for seq in range(count):
        verdicts.append(engine.process_chunk(decode_chunk(json.loads(fleet.body(seq)), engine.params)))
        failures.append(engine.extractor.stats.extraction_failures)
    # The wire carries floats at full repr precision; compare as received.
    return json.loads(json.dumps(verdicts)), failures


def check(fleet: Fleet, connections: list[Connection], outcome: Outcome) -> str:
    """Count failed chunks against the reference; returns its digest.

    Every tenant streams a prefix of the reference's chunks, so its
    extraction failures are the reference's over that prefix.
    """
    longest = max(
        (len(replies) for c in connections for replies in c.replies.values()), default=0
    )
    expected, failures = reference(fleet, longest)
    for connection in connections:
        outcome.attempted += connection.chunks
        outcome.failed += connection.errors
        for replies in connection.replies.values():
            outcome.failed += sum(got != want for got, want in zip(replies, expected))
            outcome.failed += failures[len(replies)]
    return hashlib.sha256(json.dumps(expected, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

@dataclass
class Run:
    """One measured window on one gateway, checked."""

    connections: list[Connection]
    wall: float
    exhausted: bool
    final: dict[str, Any]
    digest: str

    def latencies(self, transport: str | None = None) -> list[float]:
        return [
            t for c in self.connections if transport in (None, c.transport) for t in c.latencies
        ]

    def chunks(self, transport: str | None = None) -> int:
        return len(self.latencies(transport))

    @property
    def messages(self) -> int:
        return sum(c.messages for c in self.connections)

    @property
    def msgs_per_s(self) -> float:
        return self.messages / self.wall

    def slices(self) -> list[tuple[float, list[float]]]:
        """Verdicts per second and round trips of each equal slice of the
        window, about ``SLICE_S`` long, by when chunks finished."""
        count = max(1, round(self.wall / SLICE_S))
        width = self.wall / count
        messages = [0] * count
        latencies: list[list[float]] = [[] for _ in range(count)]
        for c in self.connections:
            for ended, size, latency in zip(c.finished, c.sizes, c.latencies):
                k = min(int(ended / width), count - 1)
                messages[k] += size
                latencies[k].append(latency)
        return [(m / width, lat) for m, lat in zip(messages, latencies) if lat]

    def summary(self) -> dict[str, Any]:
        return {
            "wall_s": self.wall,
            "exhausted": self.exhausted,
            "slices": len(self.slices()),
            "chunks": {c.transport: c.chunks for c in self.connections},
            "messages": self.messages,
            "latency_samples": self.chunks(),
            "samples_per_chunk": CHUNK_SAMPLES,
            "supervisor": self.final["supervisor"],
            "verdict_digest": self.digest,
        }


def run_window(fleet: Fleet, gateway: Gateway, seconds: float, outcome: Outcome) -> Run:
    """Drive one window, stop the gateway, check every verdict.  The
    gateway's spans and peak RSS cover the window only."""
    try:
        gateway.reset()
        connections, wall, exhausted = asyncio.run(_drive(gateway.port, fleet, seconds))
    finally:
        final = gateway.stop()
    digest = check(fleet, connections, outcome)
    return Run(connections, wall, exhausted, final, digest)


def measure(seed: int, seconds: float) -> Outcome:
    (fleet, gateway, breakdown), setup_s = timed_setup(
        setup, seed, release=lambda state: state[1].stop()
    )
    outcome = Outcome()
    run = run_window(fleet, gateway, seconds, outcome)
    slices = run.slices()
    outcome.metrics = {
        "msgs_per_s": (median(rate for rate, _ in slices), "msg/s"),
        "chunk_latency_p50_ms": (median(percentile(lat, 50) for _, lat in slices) * 1e3, "ms"),
        "chunk_latency_p99_ms": (percentile(run.latencies(), 99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.final["peak_rss_mb"], "MiB"),
    }
    outcome.details[NAME] = {
        **run.summary(),
        "load": "closed loop; 1 WebSocket and 1 REST keep-alive connection",
        "setup_breakdown_s": breakdown,
    }
    return outcome


def trace(seed: int, seconds: float) -> Outcome:
    """Half the window on an untraced gateway, half on a traced one."""
    fleet, times = prepare(seed)
    outcome = Outcome()
    plain = run_window(fleet, start_gateway(fleet, False, times), seconds / 2, outcome)
    traced = run_window(fleet, start_gateway(fleet, True, times), seconds / 2, outcome)

    spans = traced.final["spans"]
    chunks = traced.chunks()
    evictions = spans["fleet.checkpoint"]["calls"]
    rehydrations = spans["fleet.rehydrate"]["calls"]
    server_s = sum(s["self_s"] for s in spans.values())

    def per_chunk(layer: str, transport: str | None = None) -> float:
        return spans[layer]["self_s"] / max(traced.chunks(transport), 1) * 1e3

    outcome.metrics = {
        "fleet.ws_read_ms_per_chunk": (per_chunk("fleet.ws_read", "ws"), "ms"),
        "fleet.decode_ms_per_chunk": (per_chunk("fleet.decode"), "ms"),
        "fleet.http_read_ms_per_chunk": (per_chunk("fleet.http_read", "rest"), "ms"),
        "fleet.process_ms_per_chunk": (per_chunk("fleet.process"), "ms"),
        "fleet.checkpoint_ms_per_evict": (
            spans["fleet.checkpoint"]["total_s"] / max(evictions, 1) * 1e3,
            "ms",
        ),
        "fleet.rehydrate_ms_per_call": (
            spans["fleet.rehydrate"]["total_s"] / max(rehydrations, 1) * 1e3,
            "ms",
        ),
        "fleet.evictions_per_chunk": (evictions / chunks, "ratio"),
        "fleet.ws_latency_p50_ms": (percentile(plain.latencies("ws"), 50) * 1e3, "ms"),
        "fleet.rest_latency_p50_ms": (percentile(plain.latencies("rest"), 50) * 1e3, "ms"),
        "fleet.unattributed_ms_per_chunk": (
            (sum(traced.latencies()) - server_s) / chunks * 1e3,
            "ms",
        ),
        "fleet.trace_overhead": (1.0 - traced.msgs_per_s / plain.msgs_per_s, "ratio"),
    }
    outcome.details[NAME + ".trace"] = {
        "untraced": plain.summary(),
        "traced": traced.summary(),
        "untraced_msgs_per_s": plain.msgs_per_s,
        "traced_msgs_per_s": traced.msgs_per_s,
        "spans": spans,
    }
    return outcome
