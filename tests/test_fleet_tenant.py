"""Per-tenant engine and wire codec: chunks in, verdicts out, checkpoints."""

import base64
import json

import numpy as np
import pytest

from repro.acquisition.segmentation import assemble_stream
from repro.acquisition.trace import VoltageTrace
from repro.core.model import VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import FleetError
from repro.fleet.tenant import (
    CaptureParams,
    TenantEngine,
    builtin_vehicle,
    decode_chunk,
    encode_chunk,
    model_from_b64,
    model_to_b64,
)
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


@pytest.fixture
def engine(stream_vehicle, stream_model_file):
    path, _extraction = stream_model_file
    return TenantEngine(
        "t0",
        vehicle="sterling",
        model=VProfileModel.load(path),
        params=CaptureParams.for_vehicle(stream_vehicle),
        margin=5.0,
    )


# ----------------------------------------------------------------------
# Vehicles and capture parameters
# ----------------------------------------------------------------------
class TestRegistration:
    def test_builtin_vehicles_and_rate_override(self):
        vehicle = builtin_vehicle("sterling", 2_000_000.0)
        assert vehicle.sample_rate == 2_000_000.0
        assert builtin_vehicle("a").sample_rate != 2_000_000.0

    def test_unknown_vehicle_raises(self):
        with pytest.raises(FleetError, match="unknown vehicle"):
            builtin_vehicle("tractor")

    def test_capture_params_roundtrip(self, stream_vehicle):
        params = CaptureParams.for_vehicle(stream_vehicle)
        assert CaptureParams.from_payload(params.to_payload()) == params

    def test_capture_params_bad_payload_raises(self):
        with pytest.raises(FleetError, match="capture parameters"):
            CaptureParams.from_payload({"sample_rate": "fast"})


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestChunkCodec:
    def test_roundtrip_is_byte_identical(self, fleet_chunks, stream_vehicle):
        params = CaptureParams.for_vehicle(stream_vehicle)
        chunk = fleet_chunks[0]
        decoded = decode_chunk(encode_chunk(chunk), params)
        assert decoded.seq == chunk.seq
        assert decoded.start_s == chunk.start_s
        assert decoded.counts.dtype == chunk.counts.dtype
        np.testing.assert_array_equal(decoded.counts, chunk.counts)
        assert decoded.sample_rate == params.sample_rate

    def test_payload_is_json_serialisable(self, fleet_chunks):
        payload = encode_chunk(fleet_chunks[0])
        assert json.loads(json.dumps(payload)) == payload

    def test_rejects_unlisted_dtype(self, stream_vehicle):
        params = CaptureParams.for_vehicle(stream_vehicle)
        raw = base64.b64encode(np.zeros(4).tobytes()).decode()
        payload = {"seq": 0, "start_s": 0.0, "dtype": "float64", "counts": raw}
        with pytest.raises(FleetError, match="unsupported sample dtype"):
            decode_chunk(payload, params)

    def test_rejects_misaligned_byte_length(self, stream_vehicle):
        params = CaptureParams.for_vehicle(stream_vehicle)
        raw = base64.b64encode(b"\x00" * 7).decode()
        payload = {"seq": 0, "start_s": 0.0, "dtype": "int32", "counts": raw}
        with pytest.raises(FleetError, match="not a multiple"):
            decode_chunk(payload, params)

    def test_rejects_bad_base64_and_missing_keys(self, stream_vehicle):
        params = CaptureParams.for_vehicle(stream_vehicle)
        with pytest.raises(FleetError, match="malformed chunk"):
            decode_chunk({"seq": 0, "start_s": 0.0, "counts": "!!!"}, params)
        with pytest.raises(FleetError, match="malformed chunk"):
            decode_chunk({"seq": 0}, params)

    def test_model_b64_roundtrip(self, stream_model_file):
        path, _ = stream_model_file
        model = VProfileModel.load(path)
        restored = model_from_b64(model_to_b64(model))
        assert restored.sa_to_cluster == model.sa_to_cluster
        assert len(restored.clusters) == len(model.clusters)
        np.testing.assert_array_equal(
            restored.clusters[0].mean, model.clusters[0].mean
        )

    def test_model_b64_garbage_raises(self):
        with pytest.raises(FleetError, match="cannot decode"):
            model_from_b64(base64.b64encode(b"junk").decode())


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestTenantEngine:
    def test_processes_chunks_and_counts(self, engine, fleet_chunks):
        verdicts = []
        for chunk in fleet_chunks:
            verdicts.extend(engine.process_chunk(chunk))
        assert verdicts, "the test stream must contain classifiable frames"
        assert engine.frames == len(verdicts)
        assert engine.chunks == len(fleet_chunks)
        assert [v["seq"] for v in verdicts] == list(range(len(verdicts)))
        assert {v["verdict"] for v in verdicts} <= {"ok", "anomaly"}

    def test_out_of_order_chunk_raises(self, engine, fleet_chunks):
        engine.process_chunk(fleet_chunks[0])
        with pytest.raises(FleetError, match=r"out-of-order chunk 0 \(expected 1\)"):
            engine.process_chunk(fleet_chunks[0])

    def test_status_payload_shape(self, engine, fleet_chunks):
        engine.process_chunk(fleet_chunks[0])
        status = engine.status()
        assert status["tenant"] == "t0"
        assert status["chunks"] == 1
        assert status["samples"] == len(fleet_chunks[0])
        for key in ("frames", "anomalies", "sample_rate", "next_chunk"):
            assert key in status

    def test_health_report_available_for_mahalanobis(self, engine, fleet_chunks):
        assert engine.health is not None
        for chunk in fleet_chunks:
            engine.process_chunk(chunk)
        report = engine.health_report()
        assert report["overall"] != "unavailable"
        assert report["sources"]

    def test_health_sees_online_updates(
        self, stream_vehicle, stream_model_file, fleet_chunks
    ):
        path, _ = stream_model_file
        engine = TenantEngine(
            "online",
            vehicle="sterling",
            model=VProfileModel.load(path),
            params=CaptureParams.for_vehicle(stream_vehicle),
            online_update=True,
        )
        for chunk in fleet_chunks:
            engine.process_chunk(chunk)
        assert engine.updated > 0
        sources = engine.health_report()["sources"].values()
        assert sum(source["updates_seen"] for source in sources) > 0

    def test_health_report_graded_for_euclidean(
        self, stream_vehicle, stream_train_session, fleet_chunks
    ):
        pipeline = VProfilePipeline(PipelineConfig(
            metric="euclidean", sa_clusters=stream_vehicle.sa_clusters
        ))
        pipeline.train(stream_train_session.traces)
        engine = TenantEngine(
            "euclid",
            vehicle="sterling",
            model=pipeline.model,
            params=CaptureParams.for_vehicle(stream_vehicle),
        )
        for chunk in fleet_chunks:
            engine.process_chunk(chunk)
        report = engine.health_report()
        assert report["overall"] in ("healthy", "drifting", "suspect")
        assert report["sources"]

    def test_verdict_ring_is_bounded(
        self, stream_vehicle, stream_model_file, fleet_chunks
    ):
        path, _ = stream_model_file
        engine = TenantEngine(
            "ring",
            vehicle="sterling",
            model=VProfileModel.load(path),
            params=CaptureParams.for_vehicle(stream_vehicle),
            verdict_ring=3,
        )
        total = 0
        for chunk in fleet_chunks:
            total += len(engine.process_chunk(chunk))
        assert total > 3
        recent = engine.recent_verdicts(since=0, limit=100)
        assert len(recent) == 3
        assert [v["seq"] for v in recent] == [total - 3, total - 2, total - 1]
        assert engine.recent_verdicts(since=total - 1, limit=100)[0]["seq"] == total - 1
        assert engine.recent_verdicts(since=0, limit=1) == recent[:1]

    def test_checkpoint_before_first_chunk(self, engine, fleet_chunks, tmp_path):
        engine.checkpoint(tmp_path / "t0")
        restored = TenantEngine.rehydrate(tmp_path / "t0")
        assert restored.next_chunk == 0
        assert restored.process_chunk(fleet_chunks[0]) == engine.process_chunk(
            fleet_chunks[0]
        )

    def test_checkpoint_resume_continues_counters(
        self, engine, fleet_chunks, tmp_path
    ):
        for chunk in fleet_chunks[:2]:
            engine.process_chunk(chunk)
        engine.checkpoint(tmp_path / "t0")
        restored = TenantEngine.rehydrate(tmp_path / "t0")
        assert restored.next_chunk == engine.next_chunk
        assert restored.next_seq == engine.next_seq
        assert restored.samples == engine.samples
        rest = []
        for chunk in fleet_chunks[2:]:
            rest.extend(restored.process_chunk(chunk))
        expected = []
        for chunk in fleet_chunks[2:]:
            expected.extend(engine.process_chunk(chunk))
        assert json.dumps(rest, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_rehydrate_rejects_non_checkpoint(self, tmp_path):
        with pytest.raises(FleetError, match="not a tenant checkpoint"):
            TenantEngine.rehydrate(tmp_path)
