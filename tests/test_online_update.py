"""Algorithm 4: online model updates."""

import numpy as np
import pytest

from repro.core.edge_extraction import ExtractedEdgeSet
from repro.core.model import Metric
from repro.core.online_update import OnlineUpdater
from repro.core.training import TrainingData, train_model
from repro.errors import DetectionError, TrainingError


def make_model(rng, dim=4, n=150):
    vectors, sas = [], []
    for sa, center in ((0x10, 0.0), (0x20, 8.0)):
        vectors.append(center + rng.normal(scale=0.6, size=(n, dim)))
        sas.extend([sa] * n)
    data = TrainingData(np.concatenate(vectors), np.array(sas))
    return train_model(
        data, metric=Metric.MAHALANOBIS, sa_clusters={0x10: "A", 0x20: "B"}
    ), data


def edge_set(vector, sa, sender="A"):
    return ExtractedEdgeSet(
        source_address=sa, vector=np.asarray(vector, float), metadata={"sender": sender}
    )


class TestUpdate:
    def test_matches_batch_retraining(self, rng):
        """Streaming updates reproduce batch statistics (eq. 5.1)."""
        model, data = make_model(rng)
        new_points = rng.normal(scale=0.6, size=(30, 4))
        updater = OnlineUpdater(model)
        updater.update([edge_set(p, 0x10) for p in new_points])

        cluster_a_rows = data.source_addresses == 0x10
        combined = np.concatenate([data.vectors[cluster_a_rows], new_points])
        cluster = model.cluster_named("A")
        assert cluster.count == combined.shape[0]
        assert np.allclose(cluster.mean, combined.mean(axis=0))
        centered = combined - combined.mean(axis=0)
        expected_cov = centered.T @ centered / combined.shape[0]
        assert np.allclose(cluster.covariance, expected_cov, atol=1e-10)

    def test_inverse_tracks_covariance(self, rng):
        model, _ = make_model(rng)
        updater = OnlineUpdater(model)
        updater.update([edge_set(rng.normal(size=4), 0x10) for _ in range(25)])
        cluster = model.cluster_named("A")
        assert np.allclose(
            cluster.inv_covariance,
            np.linalg.inv(cluster.covariance),
            rtol=1e-6,
            atol=1e-9,
        )

    def test_max_distance_monotone(self, rng):
        model, _ = make_model(rng)
        before = model.cluster_named("A").max_distance
        updater = OnlineUpdater(model)
        updater.update([edge_set(np.full(4, 3.0), 0x10)])  # clear outlier
        assert model.cluster_named("A").max_distance >= before

    def test_adapts_to_drift(self, rng):
        """Updating with drifted data pulls the mean toward the drift."""
        model, _ = make_model(rng)
        drifted = 0.5 + rng.normal(scale=0.6, size=(200, 4))
        updater = OnlineUpdater(model)
        updater.update([edge_set(p, 0x10) for p in drifted])
        assert np.all(model.cluster_named("A").mean > 0.1)

    def test_report_counts(self, rng):
        model, _ = make_model(rng)
        updater = OnlineUpdater(model)
        report = updater.update(
            [edge_set(np.zeros(4), 0x10), edge_set(np.zeros(4), 0x99)]
        )
        assert report.updated == {"A": 1}
        assert report.skipped_unknown_sa == 1

    def test_retrain_bound(self, rng):
        model, _ = make_model(rng, n=150)
        updater = OnlineUpdater(model, retrain_bound=152)
        report = updater.update([edge_set(np.zeros(4), 0x10) for _ in range(5)])
        assert report.updated["A"] == 2  # 150 -> 152, then saturated
        assert "A" in report.saturated
        assert updater.needs_retrain(model.sa_to_cluster[0x10])

    def test_requires_mahalanobis(self, rng):
        data = TrainingData(rng.normal(size=(100, 3)), np.full(100, 0x10))
        euclid = train_model(data, metric="euclidean", sa_clusters={0x10: "A"})
        with pytest.raises(DetectionError):
            OnlineUpdater(euclid)

    def test_shape_mismatch(self, rng):
        model, _ = make_model(rng)
        with pytest.raises(TrainingError):
            OnlineUpdater(model).update([edge_set(np.zeros(7), 0x10)])

    def test_non_finite_edge_set_rejected(self, rng):
        """A NaN folded in would poison the cluster for good."""
        model, _ = make_model(rng)
        before = model.clusters[0].mean.copy()
        vector = np.zeros(4)
        vector[2] = np.nan
        with pytest.raises(TrainingError):
            OnlineUpdater(model).update([edge_set(vector, 0x10)])
        np.testing.assert_array_equal(model.clusters[0].mean, before)
        assert model.clusters[0].count == 150

    def test_bad_bound(self, rng):
        model, _ = make_model(rng)
        with pytest.raises(TrainingError):
            OnlineUpdater(model, retrain_bound=1)
