"""stream-replay: the streaming runtime over a pre-rendered Vehicle A capture.

Set-up renders and assembles one continuous capture; each repetition
replays it through ``VProfilePipeline.stream`` in 8192-sample chunks
with ``StreamConfig`` defaults, 20 % in-flight hijacks and Algorithm 4
online updates.  Algorithm 4 mutates the model, so every repetition
starts from a fresh copy of the trained model.

The replay source records how long the runtime holds each chunk: from
handing it over until the runtime asks for the next one.  That covers
segmentation, extraction, hijack injection and the queue hand-off,
including backpressure; when a verdict is emitted cannot be seen from
outside the runtime, so this is the chunk latency reported.

Verdicts are checked at the decision level (SA, verdict, reason and
both clusters).  Distances and slack are not: the worker drains its
queue in timing-dependent batches, and Algorithm 4 updates land between
batches, so the same replay can give slightly different distances.
How many messages drifted that way is reported, not counted as failed.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from perfbench.common import (
    JOBS,
    MARGIN,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    timed_setup,
)
from perfbench.tracing import Tracer

NAME = "stream-replay"
#: Bus time of the replayed capture.  Vehicle A samples at 20 MS/s, so
#: every bus-second is 80 MB of int32 counts held in memory.
REPLAY_S = 4.0
TRAIN_S = 4.0
CHUNK_SAMPLES = 8192
HIJACK = 0.2
MIN_REPS = 3


@dataclass
class State:
    vehicle: object
    model_bytes: bytes
    extraction: object
    stream: object
    hijack_seed: int


@dataclass
class Pass:
    """One replay through the runtime."""

    wall: float
    decisions: list[tuple]
    distances: list[tuple]
    lost: int
    holds: list[float] = field(default_factory=list)


def setup(seed: int) -> State:
    """Training capture, Algorithm 2, and the pre-rendered replay capture."""
    from repro.acquisition.segmentation import assemble_stream
    from repro.core.pipeline import PipelineConfig, VProfilePipeline
    from repro.vehicles.dataset import capture_session
    from repro.vehicles.profiles import vehicle_a

    vehicle = vehicle_a()
    train = capture_session(vehicle, TRAIN_S, seed=1000 * seed + 500, jobs=JOBS)
    pipeline = VProfilePipeline(
        PipelineConfig(margin=MARGIN, sa_clusters=vehicle.sa_clusters, online_update=True)
    )
    pipeline.train(train.traces)
    del train
    buffer = io.BytesIO()
    pipeline.model.save(buffer)
    replay = capture_session(vehicle, REPLAY_S, seed=1000 * seed + 501, jobs=JOBS)
    stream = assemble_stream(replay.traces)
    return State(
        vehicle=vehicle,
        model_bytes=buffer.getvalue(),
        extraction=pipeline.extraction,
        stream=stream,
        hijack_seed=seed,
    )


def _timed_source(stream: object, holds: list[float]) -> object:
    from repro.stream import ReplaySource

    class TimedReplaySource(ReplaySource):
        def chunks(self, start_chunk: int = 0) -> Iterator:
            for chunk in super().chunks(start_chunk):
                handed = perf_counter()
                yield chunk
                holds.append(perf_counter() - handed)

    return TimedReplaySource(stream, CHUNK_SAMPLES)


def stream_once(state: State) -> Pass:
    """One replay from the trained model."""
    from repro.core.model import VProfileModel
    from repro.core.pipeline import PipelineConfig, VProfilePipeline
    from repro.stream import StreamConfig

    pipeline = VProfilePipeline(
        PipelineConfig(
            margin=MARGIN, sa_clusters=state.vehicle.sa_clusters, online_update=True
        )
    )
    pipeline.load_model(VProfileModel.load(io.BytesIO(state.model_bytes)), state.extraction)
    holds: list[float] = []
    source = _timed_source(state.stream, holds)
    config = StreamConfig(hijack_probability=HIJACK, hijack_seed=state.hijack_seed)
    started = perf_counter()
    report = pipeline.stream(source, config)
    wall = perf_counter() - started
    decisions = []
    distances = []
    for verdict in report.verdicts:
        r = verdict.result
        decisions.append(
            (verdict.seq, r.source_address, r.verdict.value,
             r.reason.value if r.reason else None, r.expected_cluster, r.predicted_cluster)
        )
        distances.append((r.min_distance, r.slack))
    return Pass(wall, decisions, distances, report.dropped + report.extraction_failures, holds)


def _digest(decisions: list[tuple]) -> str:
    return hashlib.sha256(repr(decisions).encode()).hexdigest()


@dataclass
class Totals:
    """Accumulated over the repetitions of one phase."""

    wall: float = 0.0
    messages: int = 0
    holds: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    drifted: int = 0

    @property
    def msgs_per_s(self) -> float:
        return self.messages / self.wall


def _checked(state: State, reference: Pass, totals: Totals, outcome: Outcome) -> None:
    """One replay, checked against the reference and added to ``totals``."""
    run = stream_once(state)
    outcome.attempted += len(reference.decisions)
    if len(run.decisions) == len(reference.decisions):
        outcome.failed += sum(a != b for a, b in zip(run.decisions, reference.decisions))
        totals.drifted += sum(a != b for a, b in zip(run.distances, reference.distances))
    else:
        outcome.failed += max(len(run.decisions), len(reference.decisions))
    outcome.failed += run.lost
    totals.wall += run.wall
    totals.messages += len(run.decisions)
    totals.holds += run.holds
    totals.rates.append(len(run.decisions) / run.wall)


def _reference(state: State, outcome: Outcome) -> Pass:
    reference = stream_once(state)
    outcome.failed += reference.lost
    return reference


def measure(seed: int, seconds: float) -> Outcome:
    state, setup_s = timed_setup(setup, seed)
    outcome = Outcome()
    reference = _reference(state, outcome)
    reset_peak_rss()
    start_mb = peak_rss_mb()
    totals = Totals()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(totals.rates) < MIN_REPS:
        _checked(state, reference, totals, outcome)
    peak_mb = peak_rss_mb()
    outcome.metrics = {
        "msgs_per_s": (median(totals.rates), "msg/s"),
        "chunk_latency_p50_ms": (percentile(totals.holds, 50) * 1e3, "ms"),
        "chunk_latency_p99_ms": (percentile(totals.holds, 99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    outcome.details[NAME] = {
        "calls": len(totals.rates),
        "messages_per_call": len(reference.decisions),
        "latency": f"runtime hold time of one {CHUNK_SAMPLES}-sample chunk",
        "latency_samples": len(totals.holds),
        "rss_at_window_start_mb": start_mb,
        "distance_drifted_msgs": totals.drifted,
        "verdict_digest": _digest(reference.decisions),
    }
    return outcome


def tracer() -> Tracer:
    from repro.core.detection import Detector
    from repro.core.online_update import OnlineUpdater
    from repro.stream import extractor
    from repro.stream.segmenter import StreamingSegmenter
    from repro.stream.workers import ShardedWorkerPool

    return Tracer(
        {
            "acquisition.segment": [(StreamingSegmenter, "push")],
            "core.extract_stream": [(extractor, "extract_edge_set")],
            "core.classify_stream": [(Detector, "classify_batch")],
            "core.update": [(OnlineUpdater, "update")],
            "stream.submit": [(ShardedWorkerPool, "submit")],
        }
    )


def trace(seed: int, seconds: float) -> Outcome:
    """Per-layer self times of the runtime, plus the tracing overhead.

    Ingest (segment, extract, submit) runs on the calling thread and
    classify and update on the worker thread, at the same time, so layer
    costs are CPU self times and the unattributed share is the part of
    the wall no layer spent computing.  Submit is the exception: its
    cost is the wall time the ingest thread waits to hand a message on.
    Untraced and traced replays alternate, each pair in the other order
    from the last.
    """
    state = setup(seed)
    outcome = Outcome()
    reference = _reference(state, outcome)
    plain, totals = Totals(), Totals()
    traced = tracer()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(plain.rates) < MIN_REPS:
        if len(plain.rates) % 2:
            _checked(state, reference, plain, outcome)
        with traced:
            _checked(state, reference, totals, outcome)
        if len(plain.rates) < len(totals.rates):
            _checked(state, reference, plain, outcome)
    spans = traced.snapshot()
    msgs = totals.messages
    per_msg = {name: s.cpu_s / msgs * 1e6 for name, s in spans.items()}
    outcome.metrics = {
        "acquisition.segment_us_per_msg": (per_msg["acquisition.segment"], "us"),
        "core.extract_stream_us_per_msg": (per_msg["core.extract_stream"], "us"),
        "core.classify_stream_us_per_msg": (per_msg["core.classify_stream"], "us"),
        "core.classify_msgs_per_call": (
            msgs / spans["core.classify_stream"].calls,
            "count",
        ),
        "core.update_us_per_msg": (per_msg["core.update"], "us"),
        "stream.submit_us_per_msg": (spans["stream.submit"].self_s / msgs * 1e6, "us"),
        "stream.unattributed_share": (
            1.0 - sum(s.cpu_s for s in spans.values()) / totals.wall,
            "ratio",
        ),
        "stream.trace_overhead": (1.0 - totals.msgs_per_s / plain.msgs_per_s, "ratio"),
    }
    outcome.details[NAME + ".trace"] = {
        "untraced_msgs_per_s": plain.msgs_per_s,
        "traced_msgs_per_s": totals.msgs_per_s,
        "spans": {n: vars(s) for n, s in spans.items()},
    }
    return outcome
