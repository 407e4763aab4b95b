"""The alert flight recorder: bounded rings, bundle dumps, exact replay."""

import json

import numpy as np
import pytest

from repro.core.detection import Detector
from repro.core.model import ClusterProfile, Metric, VProfileModel
from repro.errors import ObservabilityError
from repro.obs.recorder import (
    ARRAYS_FILE,
    BUNDLE_VERSION,
    MANIFEST_FILE,
    MODEL_FILE,
    FlightRecorder,
    ForensicsBundle,
)


def make_model(dim=4):
    clusters = [
        ClusterProfile(
            name=f"ECU{i}",
            mean=np.full(dim, float(i * 10)),
            max_distance=3.0,
            count=100,
            covariance=np.eye(dim),
            inv_covariance=np.eye(dim),
        )
        for i in range(2)
    ]
    return VProfileModel(
        metric=Metric.MAHALANOBIS,
        clusters=clusters,
        sa_to_cluster={0x10: 0, 0x11: 1},
    )


@pytest.fixture
def model():
    return make_model()


@pytest.fixture
def detector(model):
    return Detector(model, margin=0.5)


def ok_vector(model, cluster=0, dim=4):
    return model.clusters[cluster].mean + 0.1


def bad_vector(dim=4):
    # Equidistant-from-nothing: far outside every cluster's threshold.
    return np.full(dim, 100.0)


def feed(recorder, detector, model, seqs, *, anomaly_at=()):
    """Classify and record a run of messages; return dump paths."""
    paths = []
    for seq in seqs:
        vector = bad_vector() if seq in anomaly_at else ok_vector(model)
        result = detector.classify(vector, sa=0x10)
        path = recorder.record(seq, 0x10, float(seq) * 1e-3, vector, result)
        if path is not None:
            paths.append(path)
    return paths


class TestRingBounds:
    def test_ring_is_bounded(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, capacity=8, model=model)
        feed(recorder, detector, model, range(100))
        assert len(recorder) == 8

    def test_validation(self, tmp_path):
        with pytest.raises(ObservabilityError):
            FlightRecorder(tmp_path, capacity=0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(tmp_path, post_alert=-1)


class TestDump:
    def test_no_alert_no_bundle(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, model=model)
        assert feed(recorder, detector, model, range(50)) == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_dump_waits_for_post_alert_context(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, capacity=32, post_alert=4, model=model)
        # seq 5 alerts; the dump needs 4 post-alert records (6..9), so
        # feeding only up to seq 8 leaves the dump armed but unfired.
        assert feed(recorder, detector, model, range(9), anomaly_at={5}) == []
        recorder2 = FlightRecorder(tmp_path / "b", capacity=32, post_alert=4, model=model)
        paths2 = feed(recorder2, detector, model, range(10), anomaly_at={5})
        assert len(paths2) == 1

    def test_bundle_layout_and_manifest(self, tmp_path, detector, model):
        recorder = FlightRecorder(
            tmp_path, capacity=32, post_alert=2, model=model, margin=0.5
        )
        [bundle] = feed(recorder, detector, model, range(8), anomaly_at={4})
        assert bundle.name == "bundle-0001-seq4"
        assert (bundle / MANIFEST_FILE).exists()
        assert (bundle / ARRAYS_FILE).exists()
        assert (bundle / MODEL_FILE).exists()
        manifest = json.loads((bundle / MANIFEST_FILE).read_text())
        assert manifest["version"] == BUNDLE_VERSION
        assert manifest["margin"] == 0.5
        assert manifest["alert"]["seq"] == 4
        assert manifest["alert"]["source_address"] == 0x10
        # Pre-alert context (0..3) + alert (4) + post context (5, 6).
        assert [r["seq"] for r in manifest["records"]] == list(range(7))

    def test_post_alert_zero_dumps_immediately(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, post_alert=0, model=model)
        paths = feed(recorder, detector, model, range(5), anomaly_at={2})
        assert len(paths) == 1
        manifest = json.loads((paths[0] / MANIFEST_FILE).read_text())
        assert manifest["records"][-1]["seq"] == 2

    def test_max_bundles_caps_alert_storms(self, tmp_path, detector, model):
        recorder = FlightRecorder(
            tmp_path, post_alert=0, max_bundles=2, model=model
        )
        paths = feed(
            recorder, detector, model, range(20), anomaly_at=set(range(0, 20, 2))
        )
        assert len(paths) == 2
        assert recorder.bundle_paths == paths
        assert len(list(tmp_path.iterdir())) == 2

    def test_finish_flushes_pending_dump(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, post_alert=100, model=model)
        assert feed(recorder, detector, model, range(6), anomaly_at={5}) == []
        paths = recorder.finish()
        assert len(paths) == 1
        manifest = json.loads((paths[0] / MANIFEST_FILE).read_text())
        assert manifest["alert"]["seq"] == 5

    def test_finish_is_a_noop_without_pending(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, model=model)
        feed(recorder, detector, model, range(6))
        assert recorder.finish() == []


class TestReplay:
    """The acceptance criterion: static-model replay is byte-identical."""

    def make_bundle(self, tmp_path, detector, model):
        recorder = FlightRecorder(
            tmp_path, capacity=16, post_alert=3, model=model, margin=0.5
        )
        [path] = feed(recorder, detector, model, range(12), anomaly_at={6})
        return path

    def test_replay_is_byte_identical(self, tmp_path, detector, model):
        bundle = ForensicsBundle.load(self.make_bundle(tmp_path, detector, model))
        report = bundle.replay()
        assert report.records == 10  # seqs 0..6 plus 3 post-alert
        assert report.identical
        assert report.mismatches == []
        assert report.alert_seq == 6
        assert report.alert_reproduced

    def test_replay_with_explicit_model_overrides_embedded(
        self, tmp_path, detector, model
    ):
        bundle = ForensicsBundle.load(self.make_bundle(tmp_path, detector, model))
        report = bundle.replay(model=make_model())
        assert report.identical  # structurally identical model: same floats

    def test_replay_detects_profile_drift(self, tmp_path, detector, model):
        bundle = ForensicsBundle.load(self.make_bundle(tmp_path, detector, model))
        drifted = make_model()
        drifted.clusters[0].mean += 0.5
        report = bundle.replay(model=drifted)
        assert not report.identical
        assert {m.field for m in report.mismatches} <= {
            "verdict", "reason", "expected_cluster", "predicted_cluster",
            "min_distance", "slack",
        }

    def test_load_rejects_non_bundles(self, tmp_path):
        with pytest.raises(ObservabilityError, match="not a forensics bundle"):
            ForensicsBundle.load(tmp_path)

    def test_load_rejects_future_versions(self, tmp_path, detector, model):
        path = self.make_bundle(tmp_path, detector, model)
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        manifest["version"] = BUNDLE_VERSION + 1
        (path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ObservabilityError, match="unsupported bundle version"):
            ForensicsBundle.load(path)

    def test_replay_without_any_model_raises(self, tmp_path, detector, model):
        recorder = FlightRecorder(tmp_path, post_alert=0, model=None)
        [path] = feed(recorder, detector, model, range(3), anomaly_at={2})
        bundle = ForensicsBundle.load(path)
        assert bundle.model is None
        with pytest.raises(ObservabilityError, match="no embedded model"):
            bundle.replay()

    def test_vectors_round_trip_exactly(self, tmp_path, detector, model):
        rng = np.random.default_rng(5)
        recorder = FlightRecorder(tmp_path, post_alert=0, model=model)
        vectors = [rng.normal(0.0, 1.0, 4) for _ in range(3)]
        vectors.append(bad_vector())
        for seq, vector in enumerate(vectors):
            result = detector.classify(vector, sa=0x10)
            path = recorder.record(seq, 0x10, 0.0, vector, result)
        bundle = ForensicsBundle.load(path)
        assert bundle.vectors.dtype == np.float64
        np.testing.assert_array_equal(bundle.vectors, np.stack(vectors))
