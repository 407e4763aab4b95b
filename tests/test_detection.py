"""Algorithm 3: detection paths and batch consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import AnomalyReason, Detector, Verdict
from repro.core.distances import mahalanobis_distances
from repro.core.model import ClusterProfile, Metric, VProfileModel
from repro.core.training import TrainingData, train_model
from repro.errors import DetectionError


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(77)
    dim = 4
    vectors, sas = [], []
    for sa, center in ((0x10, 0.0), (0x20, 10.0)):
        vectors.append(center + rng.normal(scale=0.5, size=(200, dim)))
        sas.extend([sa] * 200)
    data = TrainingData(np.concatenate(vectors), np.array(sas))
    return train_model(
        data, metric=Metric.MAHALANOBIS, sa_clusters={0x10: "A", 0x20: "B"}
    )


class TestClassify:
    def test_legitimate_message_ok(self, model):
        result = Detector(model, margin=1.0).classify(np.zeros(4), sa=0x10)
        assert result.verdict is Verdict.OK
        assert result.reason is None
        assert result.expected_cluster == result.predicted_cluster

    def test_unknown_sa(self, model):
        result = Detector(model).classify(np.zeros(4), sa=0x99)
        assert result.is_anomaly
        assert result.reason is AnomalyReason.UNKNOWN_SA
        assert result.predicted_cluster is None

    def test_cluster_mismatch(self, model):
        """A message shaped like ECU B but claiming ECU A's SA."""
        result = Detector(model, margin=100.0).classify(np.full(4, 10.0), sa=0x10)
        assert result.is_anomaly
        assert result.reason is AnomalyReason.CLUSTER_MISMATCH
        assert result.origin_name(model) == "B"

    def test_distance_exceeded(self, model):
        """Close to A's mean direction but far outside its spread."""
        outlier = np.array([3.0, -3.0, 3.0, -3.0])  # ~8+ sigma, nearest to A
        result = Detector(model, margin=0.0).classify(outlier, sa=0x10)
        assert result.is_anomaly
        assert result.reason is AnomalyReason.DISTANCE_EXCEEDED

    def test_margin_suppresses_distance_alarm(self, model):
        outlier = np.array([3.0, -3.0, 3.0, -3.0])
        slack = Detector(model).classify(outlier, sa=0x10).slack
        relaxed = Detector(model, margin=slack + 1.0).classify(outlier, sa=0x10)
        assert relaxed.verdict is Verdict.OK

    def test_raw_vector_requires_sa(self, model):
        with pytest.raises(DetectionError):
            Detector(model).classify(np.zeros(4))

    def test_negative_margin_rejected(self, model):
        with pytest.raises(DetectionError):
            Detector(model, margin=-1.0)


class TestBatch:
    def test_batch_matches_single(self, model):
        rng = np.random.default_rng(5)
        vectors = rng.normal(scale=3.0, size=(100, 4))
        sas = rng.choice([0x10, 0x20, 0x99], size=100)
        detector = Detector(model, margin=0.5)
        batch = detector.classify_batch(vectors, sas)
        flags = batch.anomalies()
        for i in range(100):
            single = detector.classify(vectors[i], sa=int(sas[i]))
            assert single.is_anomaly == bool(flags[i])

    def test_hard_anomalies_ignore_margin(self, model):
        vectors = np.vstack([np.zeros(4), np.full(4, 10.0)])
        sas = np.array([0x99, 0x10])  # unknown SA; mismatch
        batch = Detector(model).classify_batch(vectors, sas)
        assert batch.hard_anomalies.all()
        assert batch.anomalies(margin=1e9).all()

    def test_length_mismatch(self, model):
        with pytest.raises(DetectionError):
            Detector(model).classify_batch(np.zeros((2, 4)), np.zeros(3, dtype=int))

    def test_euclidean_model_batch(self):
        rng = np.random.default_rng(9)
        data = TrainingData(
            np.concatenate([rng.normal(size=(50, 3)), 8 + rng.normal(size=(50, 3))]),
            np.array([1] * 50 + [2] * 50),
        )
        model = train_model(data, metric="euclidean", sa_clusters={1: "A", 2: "B"})
        batch = Detector(model, margin=1.0).classify_batch(
            np.array([[0.0, 0, 0], [8.0, 8, 8]]), np.array([1, 2])
        )
        assert not batch.anomalies().any()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    k=st.integers(1, 8),
    d=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_matrix_is_bitwise_the_per_cluster_loop(n, k, d, seed):
    """The distance matrix equals, bit for bit, a loop of
    ``mahalanobis_distances`` over the clusters, so batch, stream and
    fleet verdicts match the single-message path exactly.  One stacked
    ``einsum`` over all clusters would not: at d = 2 NumPy sums the
    quadratic form in another order and the last bit differs."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    clusters = []
    for index in range(k):
        factor = rng.normal(size=(d, d))
        clusters.append(
            ClusterProfile(
                name=f"c{index}",
                mean=rng.normal(size=d) * scale,
                max_distance=1.0,
                count=10,
                inv_covariance=factor @ factor.T / d,
            )
        )
    model = VProfileModel(Metric.MAHALANOBIS, clusters)
    vectors = rng.normal(size=(n, d)) * scale
    expected = np.stack(
        [mahalanobis_distances(vectors, c.mean, c.inv_covariance) for c in clusters],
        axis=1,
    )
    assert np.array_equal(Detector(model)._distances_to_clusters(vectors), expected)
