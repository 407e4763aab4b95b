"""Throughput of the repro.perf capture→extraction engine.

Three claims, one artefact (``results/perf_engine.{txt,json}``):

* batched synthesis renders same-config messages several times faster
  than the per-message loop — the gain is largest at low sample rates
  (short messages, where per-call overhead dominates the serial path)
  and tapers toward parity at 10 MS/s where both paths are bound by
  the per-message noise draws;
* the fused engine (batched rendering + in-worker extraction) beats
  legacy serial capture→extract end to end at every job count — the
  artefact records a ``jobs`` ∈ {1, 2, 4} sweep.  The legacy baseline
  pins the scalar bit-walker (the pre-engine default; the vectorized
  walker is this engine's own work and would flatter the baseline).
  The affinity cap means extra jobs only pay on multi-core hosts; the
  asserted floors come from the single-core batching win;
* a capture-cache hit skips simulation entirely — loading the archive
  is far cheaper than regenerating the session.

Timing method: serial and batched runs are interleaved and the minimum
wall time of each is kept, so background load inflates both sides or
neither.  Generators are pre-built outside the timed regions — the
claim is about synthesis throughput, not seeding cost (which the two
paths share by construction).

``REPRO_BENCH_MESSAGES`` scales the workload down for CI smoke runs
(speedup ratios shrink with tiny workloads, so the smoke run only
checks the artefact is produced and the cache behaves).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from benchmarks.conftest import report, report_json
from repro.core.edge_extraction import ExtractionConfig
from repro.perf.batch import synthesize_waveform_batch
from repro.perf.cache import CaptureCache
from repro.perf.engine import capture_and_extract, capture_session_engine
from repro.perf.parallel import rngs_for_slice
from repro.vehicles.dataset import capture_session
from tests import extraction_oracle

DEFAULT_MESSAGES = 400
SMOKE_THRESHOLD = 100  # below this, only sanity-check the artefacts
SYNTH_RATES_MS = (1.0, 2.0, 10.0)
REPEATS = 3


def _n_messages() -> int:
    raw = os.environ.get("REPRO_BENCH_MESSAGES")
    return int(raw) if raw else DEFAULT_MESSAGES


def _best_of(runs: int, fn, *args, **kwargs):
    """Minimum wall time over ``runs`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _synth_case(sterling, rate_hz: float, n: int) -> dict:
    """Serial vs batched synthesis of ``n`` 60-bit messages at one rate."""
    from dataclasses import replace

    from repro.analog.waveform import synthesize_waveform

    vehicle = replace(sterling, sample_rate=rate_hz)
    chain = vehicle.capture_chain(60)
    transceiver = vehicle.ecus[0].transceiver
    wire = np.random.default_rng(0).integers(0, 2, size=(n, 60)).astype(np.int8)
    wire[:, 0] = 0  # SOF is dominant

    def serial(rngs):
        return [
            synthesize_waveform(
                row, transceiver, chain.synthesis, noise=chain.noise, rng=rng
            )
            for row, rng in zip(wire, rngs)
        ]

    def batched(rngs):
        return synthesize_waveform_batch(
            wire, transceiver, chain.synthesis, noise=chain.noise, rngs=rngs
        )

    # Equivalence first (also warms both paths), then interleaved timing
    # with generators pre-built outside the timed regions.
    serial_out = serial(rngs_for_slice(0, 0, n))
    batched_out = batched(rngs_for_slice(0, 0, n))
    assert all(np.array_equal(a, b) for a, b in zip(serial_out, batched_out))

    serial_rngs = [rngs_for_slice(0, 0, n) for _ in range(REPEATS)]
    batch_rngs = [rngs_for_slice(0, 0, n) for _ in range(REPEATS)]
    serial_s = batched_s = float("inf")
    for k in range(REPEATS):
        t0 = time.perf_counter()
        serial(serial_rngs[k])
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched(batch_rngs[k])
        batched_s = min(batched_s, time.perf_counter() - t0)
    return {
        "rate_ms_per_s": rate_hz / 1e6,
        "serial_msgs_per_s": n / serial_s,
        "batched_msgs_per_s": n / batched_s,
        "speedup": serial_s / batched_s,
    }


def test_perf_engine(sterling):
    from dataclasses import replace

    n = _n_messages()
    smoke = n < SMOKE_THRESHOLD
    cpus = os.cpu_count() or 1

    # --- 1. batched vs serial synthesis across sample rates ---------------
    synth = [_synth_case(sterling, rate * 1e6, n) for rate in SYNTH_RATES_MS]
    headline = synth[0]["speedup"]  # 1 MS/s: where vectorisation pays most

    # --- 2. end-to-end capture→extract: legacy serial vs engine sweep -----
    vehicle = replace(sterling, sample_rate=2_000_000.0)
    duration_s = max(n / 120.0, 1.0)  # ≈120 scheduled frames per bus second
    e2e_jobs = (1, 2, 4)

    def legacy_e2e():
        # The honest pre-engine baseline: serial capture plus the scalar
        # bit-walker, which survives only as the test oracle — the
        # production walkers are the engine's own vectorisation, so they
        # would speed up the baseline and understate the engine's gain.
        session = capture_session(vehicle, duration_s, seed=123)
        config = ExtractionConfig.for_trace(session.traces[0])
        return session, extraction_oracle.extract_many(session.traces, config)

    def engine_e2e(jobs):
        return capture_and_extract(vehicle, duration_s, seed=123, jobs=jobs)

    # Warm every path (and pool) once, checking the sweep is
    # byte-identical across job counts while we have the outputs.
    legacy_session, legacy_edges = legacy_e2e()
    warm = {jobs: engine_e2e(jobs) for jobs in e2e_jobs}
    reference_session, reference_edges = warm[e2e_jobs[0]]
    assert len(reference_session.traces) == len(legacy_session.traces)
    assert len(reference_edges) == len(legacy_edges)
    for jobs in e2e_jobs[1:]:
        session, edges = warm[jobs]
        assert all(
            np.array_equal(a.counts, b.counts)
            for a, b in zip(session.traces, reference_session.traces)
        )
        assert all(
            np.array_equal(a.vector, b.vector)
            for a, b in zip(edges, reference_edges)
        )
    del warm

    legacy_s = float("inf")
    engine_s = {jobs: float("inf") for jobs in e2e_jobs}
    for _ in range(REPEATS):
        # Interleaved min-of-N: background load hits all sides equally.
        t0 = time.perf_counter()
        legacy_e2e()
        legacy_s = min(legacy_s, time.perf_counter() - t0)
        for jobs in e2e_jobs:
            t0 = time.perf_counter()
            engine_e2e(jobs)
            engine_s[jobs] = min(engine_s[jobs], time.perf_counter() - t0)
    jobs_sweep = [
        {
            "jobs": jobs,
            "engine_msgs_per_s": len(reference_session.traces) / engine_s[jobs],
            "speedup": legacy_s / engine_s[jobs],
        }
        for jobs in e2e_jobs
    ]
    e2e_speedup = jobs_sweep[-1]["speedup"]  # headline: jobs=4
    n_e2e = len(reference_session.traces)

    # --- 3. cache hit vs miss ---------------------------------------------
    with tempfile.TemporaryDirectory() as root:
        cache = CaptureCache(root)
        miss_s, _ = _best_of(
            1, capture_session_engine, vehicle, duration_s,
            seed=123, jobs=1, cache=cache,
        )
        hit_s, hit = _best_of(
            2, capture_session_engine, vehicle, duration_s,
            seed=123, jobs=1, cache=cache,
        )
    assert len(hit.traces) == n_e2e
    cache_speedup = miss_s / hit_s

    lines = [
        "=== repro.perf engine throughput ===",
        f"workload: {n} synthetic messages; {n_e2e} scheduled frames "
        f"({duration_s:.1f} s of bus time at 2 MS/s); {cpus} CPU(s)",
        "",
        "batched vs serial synthesis (60-bit frames):",
    ]
    for case in synth:
        lines.append(
            f"  {case['rate_ms_per_s']:4.0f} MS/s: "
            f"serial {case['serial_msgs_per_s']:8.0f} msg/s, "
            f"batched {case['batched_msgs_per_s']:8.0f} msg/s "
            f"-> {case['speedup']:.2f}x"
        )
    lines += [
        "",
        "end-to-end capture -> extract (legacy = serial + scalar walker):",
        f"  legacy serial {n_e2e / legacy_s:9.0f} msg/s",
    ]
    for case in jobs_sweep:
        lines.append(
            f"  engine jobs={case['jobs']} "
            f"{case['engine_msgs_per_s']:9.0f} msg/s "
            f"-> {case['speedup']:.2f}x"
        )
    lines += [
        "",
        "capture cache:",
        f"  miss (simulate + store) {miss_s * 1e3:8.1f} ms",
        f"  hit  (load archive)     {hit_s * 1e3:8.1f} ms",
        f"  speedup {cache_speedup:.1f}x",
    ]
    report("perf_engine", "\n".join(lines))
    report_json(
        "perf_engine",
        {
            "messages": n,
            "scheduled_frames": n_e2e,
            "cpus": cpus,
            "synthesis": synth,
            "end_to_end": {
                "jobs": e2e_jobs[-1],
                "legacy_msgs_per_s": n_e2e / legacy_s,
                "engine_msgs_per_s": jobs_sweep[-1]["engine_msgs_per_s"],
                "speedup": e2e_speedup,
                "legacy_extract_impl": "scalar",
                "jobs_sweep": jobs_sweep,
            },
            "cache": {
                "miss_ms": miss_s * 1e3,
                "hit_ms": hit_s * 1e3,
                "speedup": cache_speedup,
            },
        },
    )

    assert cache_speedup > 1.2 if smoke else cache_speedup > 2.0
    if smoke:
        return  # tiny workloads: ratios are noise, artefacts are the point
    assert headline >= 3.0
    assert synth[1]["speedup"] >= 1.8  # 2 MS/s
    # The engine must never lose to legacy, even inline; the jobs=4
    # headline floor holds on single-core hosts too because the
    # zero-copy + batching win is a single-core win (the affinity cap
    # collapses extra jobs to the inline path there).
    assert jobs_sweep[0]["speedup"] >= 1.0
    assert e2e_speedup >= 2.0
