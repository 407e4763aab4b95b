"""batch-detect: the ``repro detect --jobs 2 --hijack 0.2`` path on Vehicle A.

One repetition is one fresh-process-style detect call: capture a
Vehicle A session through the parallel engine, extract every edge set,
rewrite 20 % of the source addresses, and classify the whole batch.
The batch path has no chunks: its chunk latency is the wall time of one
such call, its throughput the median over calls.  Before each
repetition the plan memo and the parent's per-message seed cache are
cleared, so scheduling and seeding run cold as in a new
``repro detect`` process; the capture cache is never used.  Pool
workers keep their own seed caches warm across repetitions; that is the
one warm cache the benchmark cannot reach from outside.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from perfbench.common import (
    JOBS,
    MARGIN,
    Outcome,
    clear_warm_state,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    timed_setup,
)
from perfbench.tracing import Tracer

NAME = "batch-detect"
#: Bus time captured per repetition (about 600 Vehicle A messages).
CAPTURE_S = 2.0
TRAIN_S = 4.0
HIJACK = 0.2
#: Distinct capture seeds cycled through; each has a set-up reference.
N_CAPTURE_SEEDS = 3
MIN_REPS = 3


@dataclass
class State:
    vehicle: object
    detector: object
    capture_seeds: list[int]


@dataclass(frozen=True)
class Verdicts:
    """Per-message verdict ingredients of one detect call."""

    arrays: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return int(self.arrays[0].shape[0])

    def digest(self) -> str:
        h = hashlib.sha256()
        for array in self.arrays:
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    def mismatches(self, other: "Verdicts") -> int:
        """Messages whose verdict differs; a length change fails them all."""
        if other.n != self.n:
            return max(self.n, other.n)
        differ = np.zeros(self.n, dtype=bool)
        for mine, theirs in zip(self.arrays, other.arrays):
            differ |= mine != theirs
        return int(differ.sum())


def setup(seed: int) -> State:
    """Training capture, Algorithm 2, and (through the capture) pool warm-up."""
    from repro.core.detection import Detector
    from repro.core.pipeline import PipelineConfig, VProfilePipeline
    from repro.vehicles.dataset import capture_session
    from repro.vehicles.profiles import vehicle_a

    vehicle = vehicle_a()
    train = capture_session(vehicle, TRAIN_S, seed=1000 * seed, jobs=JOBS)
    pipeline = VProfilePipeline(
        PipelineConfig(margin=MARGIN, sa_clusters=vehicle.sa_clusters)
    )
    pipeline.train(train.traces)
    return State(
        vehicle=vehicle,
        detector=Detector(pipeline.model, margin=MARGIN),
        capture_seeds=[1000 * seed + 1 + k for k in range(N_CAPTURE_SEEDS)],
    )


def detect_once(state: State, capture_seed: int, jobs: int) -> tuple[float, Verdicts]:
    """One capture→verdict call; returns its wall time and verdicts."""
    from repro.attacks import hijack
    from repro.core.edge_extraction import ExtractionConfig
    from repro.perf import engine
    from repro.vehicles import dataset

    clear_warm_state()
    started = perf_counter()
    session = dataset.capture_session(
        state.vehicle, CAPTURE_S, seed=capture_seed, jobs=jobs
    )
    extraction = ExtractionConfig.for_trace(session.traces[0])
    edge_sets = engine.extract_many_parallel(session.traces, extraction, jobs=jobs)
    labelled = hijack.apply_hijack(
        edge_sets,
        state.vehicle.sa_clusters,
        probability=HIJACK,
        rng=np.random.default_rng(capture_seed),
    )
    vectors = np.stack([item.edge_set.vector for item in labelled])
    sas = np.array([item.edge_set.source_address for item in labelled])
    batch = state.detector.classify_batch(vectors, sas)
    flags = batch.anomalies()
    wall = perf_counter() - started
    verdicts = Verdicts(
        (
            np.array([item.is_attack for item in labelled]),
            batch.expected_cluster,
            batch.predicted_cluster,
            batch.min_distance,
            batch.slack,
            flags,
        )
    )
    return wall, verdicts


def _references(state: State) -> dict[int, Verdicts]:
    return {s: detect_once(state, s, JOBS)[1] for s in state.capture_seeds}


def _repeat(
    state: State,
    references: dict[int, Verdicts],
    jobs: int,
    seconds: float,
    outcome: Outcome,
) -> list[tuple[float, int]]:
    """Detect calls until ``seconds`` pass; returns (wall, messages) per call."""
    calls: list[tuple[float, int]] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(calls) < MIN_REPS:
        calls.append(_checked(state, references, len(calls), jobs, outcome))
    return calls


def _checked(
    state: State, references: dict[int, Verdicts], call: int, jobs: int, outcome: Outcome
) -> tuple[float, int]:
    """The ``call``-th detect call, checked; returns its wall and messages."""
    capture_seed = state.capture_seeds[call % len(state.capture_seeds)]
    wall, verdicts = detect_once(state, capture_seed, jobs)
    reference = references[capture_seed]
    outcome.attempted += reference.n
    outcome.failed += reference.mismatches(verdicts)
    return wall, verdicts.n


def _totals(calls: list[tuple[float, int]]) -> tuple[float, int]:
    return sum(w for w, _ in calls), sum(n for _, n in calls)


def measure(seed: int, seconds: float) -> Outcome:
    from repro.perf.parallel import get_pool

    state, setup_s = timed_setup(setup, seed)
    references = _references(state)
    # Synthesis runs in the warm pool workers, so their peaks count too.
    processes = ["self", *get_pool(JOBS)._processes]
    reset_peak_rss(processes)
    start_mb = peak_rss_mb(processes)
    outcome = Outcome()
    # A call's peak is read outside its timed wall.  The median over calls
    # is reported: a whole-window peak read ~80 MiB high in 2 runs of 10,
    # and a few such calls do not move the median.
    calls: list[tuple[float, int]] = []
    peaks: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(calls) < MIN_REPS:
        reset_peak_rss(processes)
        calls.append(_checked(state, references, len(calls), JOBS, outcome))
        peaks.append(peak_rss_mb(processes))
    walls = [wall for wall, _ in calls]
    outcome.metrics = {
        "msgs_per_s": (median(n / wall for wall, n in calls), "msg/s"),
        "chunk_latency_p50_ms": (percentile(walls, 50) * 1e3, "ms"),
        "chunk_latency_p99_ms": (percentile(walls, 99) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (median(peaks), "MiB"),
    }
    outcome.details[NAME] = {
        "calls": len(calls),
        "messages": _totals(calls)[1],
        "latency": f"one detect call over {CAPTURE_S:g} bus-seconds",
        "latency_samples": len(walls),
        "rss_at_window_start_mb": start_mb,
        "peak_rss_max_mb": max(peaks),
        "verdict_digests": {str(s): r.digest() for s, r in references.items()},
    }
    return outcome


def tracer() -> Tracer:
    """Spans at every layer of the detect path."""
    from repro.acquisition.adc import AdcConfig
    from repro.core import edge_extraction
    from repro.core.detection import Detector
    from repro.perf import batch, engine
    from repro.perf.shm import SharedArena

    return Tracer(
        {
            "can.schedule": [(engine, "plan_transmissions")],
            "analog.synthesize": [
                (engine, "synthesize_waveform_matrix"),
                (batch, "synthesize_waveform_matrix"),
                (batch, "synthesize_waveform_batch"),
            ],
            "acquisition.quantize": [(AdcConfig, "quantize")],
            "core.extract_columnar": [
                (edge_extraction, "extract_many_indexed"),
                (engine, "extract_many_indexed"),
            ],
            "core.classify_batch": [(Detector, "classify_batch")],
            "perf.shm_attach": [(SharedArena, "attach")],
        }
    )


def trace(seed: int, seconds: float) -> Outcome:
    """Per-layer self times: untraced and traced at jobs=1, traced at jobs=2.

    At jobs=1 every layer runs in this process, so its spans cover the
    whole call; at jobs=2 only the parent-side layers are visible.  The
    untraced and traced jobs=1 calls come in pairs on the same capture,
    each pair in the other order from the last, so neither drift nor
    call order shows up as tracing overhead.
    """
    state = setup(seed)
    references = _references(state)
    outcome = Outcome()
    plain: list[tuple[float, int]] = []
    serial_calls: list[tuple[float, int]] = []
    serial = tracer()
    deadline = perf_counter() + 2 * seconds / 3
    while perf_counter() < deadline or len(plain) < MIN_REPS:
        call = len(plain)
        if call % 2:
            plain.append(_checked(state, references, call, 1, outcome))
        with serial:
            serial_calls.append(_checked(state, references, call, 1, outcome))
        if not call % 2:
            plain.append(_checked(state, references, call, 1, outcome))
    plain_wall, plain_msgs = _totals(plain)
    wall1, msgs1 = _totals(serial_calls)
    phase = seconds / 3
    with tracer() as fanned:
        wall2, msgs2 = _totals(_repeat(state, references, JOBS, phase, outcome))
    spans = serial.snapshot()
    per_msg = {name: s.self_s / msgs1 * 1e6 for name, s in spans.items()}
    covered = sum(s.self_s for name, s in spans.items() if name != "perf.shm_attach")
    plain_rate = plain_msgs / plain_wall
    outcome.metrics = {
        "can.schedule_us_per_msg": (per_msg["can.schedule"], "us"),
        "analog.synthesize_us_per_msg": (per_msg["analog.synthesize"], "us"),
        "acquisition.quantize_us_per_msg": (per_msg["acquisition.quantize"], "us"),
        "core.extract_columnar_us_per_msg": (per_msg["core.extract_columnar"], "us"),
        "core.classify_batch_us_per_msg": (per_msg["core.classify_batch"], "us"),
        "perf.shm_attach_us_per_msg": (
            fanned.snapshot()["perf.shm_attach"].self_s / msgs2 * 1e6,
            "us",
        ),
        "perf.fanout_speedup": ((wall1 / msgs1) / (wall2 / msgs2), "ratio"),
        "batch.coverage": (covered / wall1, "ratio"),
        "batch.trace_overhead": (1.0 - (msgs1 / wall1) / plain_rate, "ratio"),
    }
    outcome.details[NAME + ".trace"] = {
        "untraced_msgs_per_s_jobs1": plain_rate,
        "traced_msgs_per_s_jobs1": msgs1 / wall1,
        "traced_msgs_per_s_jobs2": msgs2 / wall2,
        "spans_jobs1": {n: vars(s) for n, s in spans.items()},
    }
    return outcome
