"""Engine equivalence: jobs, batching and fusion never change bytes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
from repro.core.edge_extraction import ExtractionConfig, extract_many
from repro.errors import DatasetError, PerfError
from repro.perf.engine import (
    capture_and_extract,
    capture_session_engine,
    extract_many_parallel,
    plan_transmissions,
    render_transmissions,
)
from repro.perf.parallel import (
    chunk_slices,
    default_jobs,
    message_seed,
    parallel_map,
    resolve_jobs,
    rngs_for_slice,
    spawn_seeds,
)
from repro.vehicles.profiles import DEFAULT_TRUNCATE_BITS


def _render_per_message(vehicle, transmissions, *, seed):
    """Reference renderer: one ``capture_frame`` per message.

    Message *i* draws from its own ``SeedSequence`` child, exactly as in
    the engine, so the pad-batched renderer must match it byte for byte.
    """
    chain = vehicle.capture_chain(DEFAULT_TRUNCATE_BITS)
    transceivers = {ecu.name: ecu.transceiver for ecu in vehicle.ecus}
    rngs = rngs_for_slice(seed, 0, len(transmissions))
    return [
        chain.capture_frame(
            tx.frame, transceivers[tx.sender], rng=rng, start_s=tx.start_s
        )
        for tx, rng in zip(transmissions, rngs)
    ]


def _assert_traces_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left.counts, right.counts)
        assert left.start_s == right.start_s
        assert left.metadata["sender"] == right.metadata["sender"]
        assert left.metadata["frame"] == right.metadata["frame"]


def _assert_edges_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.source_address == right.source_address
        assert np.array_equal(left.vector, right.vector)


class TestSeeding:
    def test_message_seed_matches_spawn(self):
        parent = np.random.SeedSequence(42)
        children = parent.spawn(6)
        for i, child in enumerate(children):
            assert np.array_equal(
                message_seed(42, i).generate_state(4), child.generate_state(4)
            )

    def test_spawn_seeds_offsets(self):
        tail = spawn_seeds(7, 3, start=2)
        for offset, seq in enumerate(tail):
            assert np.array_equal(
                seq.generate_state(4), message_seed(7, 2 + offset).generate_state(4)
            )


class TestJobsResolution:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() is None
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert resolve_jobs(None) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("raw", ["zero", "1.5", "0", "-2"])
    def test_bad_env_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(PerfError):
            default_jobs()

    def test_blank_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert default_jobs() is None

    def test_bad_explicit_jobs(self):
        with pytest.raises(PerfError):
            resolve_jobs(0)


class TestParallelMap:
    def test_preserves_order(self):
        items = [-5, 3, -1, 0, 9, -2, 4]
        assert parallel_map(abs, items, jobs=2) == [abs(x) for x in items]

    def test_inline_when_single_job(self):
        assert parallel_map(abs, [-1, -2], jobs=1) == [1, 2]

    def test_chunk_slices_cover_range(self):
        for n, jobs in [(1, 1), (7, 2), (16, 4), (5, 8)]:
            slices = chunk_slices(n, jobs)
            flat = [i for lo, hi in slices for i in range(lo, hi)]
            assert flat == list(range(n))
        assert chunk_slices(0, 4) == []
        assert chunk_slices(10, 2, chunk_size=4) == [(0, 4), (4, 8), (8, 10)]


class TestEngineEquivalence:
    def test_plan_rejects_bad_duration(self, stream_vehicle):
        with pytest.raises(DatasetError):
            plan_transmissions(stream_vehicle, 0.0)

    def test_jobs_do_not_change_traces(self, stream_vehicle):
        serial = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=1)
        fanned = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=2)
        _assert_traces_equal(serial.traces, fanned.traces)

    def test_batched_matches_unbatched(self, stream_vehicle):
        transmissions = plan_transmissions(stream_vehicle, 1.0, seed=7)
        batched = render_transmissions(stream_vehicle, transmissions, seed=7)
        unbatched = _render_per_message(stream_vehicle, transmissions, seed=7)
        _assert_traces_equal(batched, unbatched)
        starts = [trace.start_s for trace in batched]
        assert starts == sorted(starts)

    def test_fused_matches_capture_then_extract(self, stream_vehicle):
        session, edges = capture_and_extract(
            stream_vehicle, 1.0, seed=7, jobs=2
        )
        reference = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=1)
        _assert_traces_equal(session.traces, reference.traces)
        expected = extract_many(
            reference.traces, ExtractionConfig.for_trace(reference.traces[0])
        )
        _assert_edges_equal(edges, expected)


class TestExtractManyParallel:
    def test_matches_serial(self, stream_train_session):
        traces = stream_train_session.traces[:40]
        config = ExtractionConfig.for_trace(traces[0])
        serial = extract_many(traces, config)
        fanned = extract_many_parallel(traces, config, jobs=2)
        _assert_edges_equal(serial, fanned)

    def test_empty_input(self):
        assert extract_many_parallel([], jobs=2) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_skip_counting(self, stream_train_session, jobs):
        traces = list(stream_train_session.traces[:10])
        bad = dataclasses.replace(traces[3], counts=traces[3].counts[:8])
        traces[3] = bad
        traces[7] = bad
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            edges = extract_many_parallel(
                traces, jobs=jobs, skip_failures=True
            )
        assert len(edges) == 8
        skipped = registry.get("vprofile_extraction_skipped_total")
        assert skipped is not None and skipped.value == 2
