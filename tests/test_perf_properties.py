"""Property tests: engine variants are interchangeable, byte for byte.

The contract under test is the one :mod:`repro.perf` promises — the
job count and the capture cache change scheduling and storage, never
the traces, the edge-set vectors, or the detector's verdict sequence —
plus the extraction contract: both production walkers reproduce the
scalar reference walker (``tests/extraction_oracle.py``).
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detection import Detector
from repro.core.edge_extraction import (
    ExtractionConfig,
    extract_edge_set,
    extract_many,
    extract_many_indexed,
)
from repro.core.model import VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import ExtractionError
from repro.perf import engine as engine_mod
from repro.perf.cache import CaptureCache
from repro.perf.engine import capture_and_extract, extract_many_parallel
from tests import extraction_oracle as oracle

DURATION_S = 0.6

SETTINGS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="session")
def trained_detector(stream_vehicle, stream_train_session):
    pipeline = VProfilePipeline(
        PipelineConfig(margin=5.0, sa_clusters=stream_vehicle.sa_clusters)
    )
    pipeline.train(stream_train_session.traces)
    return pipeline.detector


def _verdicts(detector: Detector, edges) -> list[tuple[bool, str | None]]:
    results = [detector.classify(edge_set) for edge_set in edges]
    return [
        (r.is_anomaly, r.reason.value if r.reason else None) for r in results
    ]


@pytest.fixture(scope="module")
def oracle_pools(stream_test_session, sterling_session):
    """Clean traces at two sample rates (8 and 40 samples per bit)."""
    return [
        list(stream_test_session.traces[:30]),
        list(sterling_session.traces[:12]),
    ]


def _corruptions():
    """One corruption: kind, position and span as fractions of the trace."""
    return st.tuples(
        st.sampled_from(["truncate", "flip", "nan", "clip_low", "clip_high"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.2),
    )


def _corrupt(trace, corruptions, config: ExtractionConfig):
    counts = np.asarray(trace.counts)
    for kind, where, span in corruptions:
        if kind == "truncate":
            counts = counts[: int(where * counts.size)]
            continue
        if counts.size == 0:
            continue
        counts = counts.astype(np.float64 if kind == "nan" else counts.dtype)
        at = min(int(where * counts.size), counts.size - 1)
        stop = at + max(1, int(span * counts.size))
        if kind == "flip":
            # One sample across the threshold, in whichever direction.
            if counts[at] >= config.threshold:
                counts[at] = math.floor(config.threshold) - 1
            else:
                counts[at] = math.ceil(config.threshold)
        elif kind == "nan":
            counts[at:stop] = np.nan
        elif kind == "clip_low":
            counts[at:stop] = 0
        else:
            counts[at:stop] = (1 << trace.resolution_bits) - 1
    return dataclasses.replace(trace, counts=counts)


def _summary(edge_set):
    vector = edge_set.vector
    return ("ok", edge_set.source_address, vector.dtype.str, vector.shape, vector.tobytes())


def _outcome(walker, trace, config: ExtractionConfig):
    try:
        return _summary(walker(trace, config))
    except ExtractionError as exc:
        return ("error", str(exc))


def _assert_equivalent(detector, reference, candidate):
    ref_session, ref_edges = reference
    cand_session, cand_edges = candidate
    assert len(cand_session.traces) == len(ref_session.traces)
    for a, b in zip(ref_session.traces, cand_session.traces):
        assert np.array_equal(a.counts, b.counts)
    assert len(cand_edges) == len(ref_edges)
    for a, b in zip(ref_edges, cand_edges):
        assert a.source_address == b.source_address
        assert np.array_equal(a.vector, b.vector)
    assert _verdicts(detector, cand_edges) == _verdicts(detector, ref_edges)


class TestEngineProperties:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_jobs_one_and_four_are_identical(
        self, stream_vehicle, trained_detector, seed
    ):
        serial = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        fanned = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=4
        )
        _assert_equivalent(trained_detector, serial, fanned)

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_vector_and_scalar_extraction_are_identical(
        self, oracle_pools, data
    ):
        """Both production walkers reproduce the scalar oracle exactly.

        Over clean and corrupted traces (truncated, one sample flipped
        across the threshold, NaN samples, ADC-clipped runs), the
        per-message walker (``extract_edge_set``), the columnar walker
        (``extract_many`` over a batch, ``skip_failures=True``) and the
        oracle agree on every trace: the same vector bytes, or the same
        ``ExtractionError`` message.
        """
        pool = data.draw(st.sampled_from(oracle_pools))
        config = dataclasses.replace(
            ExtractionConfig.for_trace(pool[0]),
            n_edge_sets=data.draw(st.sampled_from([1, 2])),
        )
        picks = data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6)
        )
        traces = [
            _corrupt(pool[i], data.draw(st.lists(_corruptions(), max_size=3)), config)
            for i in picks
        ]
        expected = [_outcome(oracle.extract_edge_set, trace, config) for trace in traces]
        per_message = [_outcome(extract_edge_set, trace, config) for trace in traces]
        assert per_message == expected
        columnar = iter(extract_many(traces, config, skip_failures=True))
        _, skipped = extract_many_indexed(traces, config, skip_failures=True)
        reasons = dict(skipped)
        from_batch = [
            ("error", reasons[i]) if i in reasons else _summary(next(columnar))
            for i in range(len(traces))
        ]
        assert from_batch == expected
        assert next(columnar, None) is None

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cache_hit_is_identical_to_fresh(
        self, stream_vehicle, trained_detector, seed
    ):
        fresh = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        with tempfile.TemporaryDirectory() as root:
            cache = CaptureCache(root)
            miss = capture_and_extract(
                stream_vehicle, DURATION_S, seed=seed, jobs=1, cache=cache
            )
            hit = capture_and_extract(
                stream_vehicle, DURATION_S, seed=seed, jobs=1, cache=cache
            )
        _assert_equivalent(trained_detector, fresh, miss)
        _assert_equivalent(trained_detector, fresh, hit)


class TestExtractionParity:
    """Serial and parallel extraction agree on failures, not just bytes."""

    @pytest.fixture()
    def corrupted_traces(self, stream_train_session):
        traces = list(stream_train_session.traces[:24])
        bad = dataclasses.replace(traces[13], counts=traces[13].counts[:8])
        traces[13] = bad
        return traces

    def test_error_context_matches_serial(self, corrupted_traces):
        """Workers must report the run-global message index and sample
        offset, exactly as the serial walker would."""
        config = ExtractionConfig.for_trace(corrupted_traces[0])
        with pytest.raises(ExtractionError) as serial_exc:
            extract_many(corrupted_traces, config)
        with mock.patch.object(engine_mod, "_usable_cpus", return_value=4):
            with pytest.raises(ExtractionError) as parallel_exc:
                extract_many_parallel(corrupted_traces, config, jobs=3)
        assert str(parallel_exc.value) == str(serial_exc.value)
        assert "message 13" in str(parallel_exc.value)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_skip_counting_matches_serial(self, corrupted_traces, jobs):
        """The skip ledger survives the process boundary: the metric is
        folded exactly once per dropped trace, at any job count."""
        import repro.obs as obs

        config = ExtractionConfig.for_trace(corrupted_traces[0])
        serial_registry = obs.MetricsRegistry()
        with obs.use_registry(serial_registry):
            serial = extract_many(corrupted_traces, config, skip_failures=True)
        fanned_registry = obs.MetricsRegistry()
        with obs.use_registry(fanned_registry):
            with mock.patch.object(engine_mod, "_usable_cpus", return_value=4):
                fanned = extract_many_parallel(
                    corrupted_traces, config, jobs=jobs, skip_failures=True
                )
        assert len(fanned) == len(serial) == len(corrupted_traces) - 1
        for a, b in zip(serial, fanned):
            assert np.array_equal(a.vector, b.vector)
        name = "vprofile_extraction_skipped_total"
        assert serial_registry.get(name).value == 1
        assert fanned_registry.get(name).value == 1


def test_model_trained_on_engine_capture_is_job_invariant(stream_vehicle):
    """The whole training path is job-invariant, not just extraction."""
    models: list[VProfileModel] = []
    for jobs in (1, 3):
        session, _ = capture_and_extract(
            stream_vehicle, 1.5, seed=42, jobs=jobs
        )
        pipeline = VProfilePipeline(
            PipelineConfig(margin=5.0, sa_clusters=stream_vehicle.sa_clusters)
        )
        pipeline.train(session.traces)
        models.append(pipeline.model)
    a, b = models
    assert a.n_clusters == b.n_clusters
    for name in sorted(c.name for c in a.clusters):
        ca = next(c for c in a.clusters if c.name == name)
        cb = next(c for c in b.clusters if c.name == name)
        assert np.array_equal(ca.mean, cb.mean)
