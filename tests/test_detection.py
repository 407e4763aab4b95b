"""Algorithm 3: detection paths and batch consistency."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.detection import AnomalyReason, Detector, Verdict
from repro.core.distances import mahalanobis_distances
from repro.core.model import ClusterProfile, Metric, VProfileModel
from repro.core.online_update import OnlineUpdater
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
        results, folded = detector.classify_and_update(vectors, sas)
        assert folded == 0
        flags = batch.anomalies()
        for i in range(100):
            single = detector.classify(vectors[i], sa=int(sas[i]))
            assert single == results[i]
            assert single.is_anomaly == bool(flags[i])
            if single.expected_cluster is None:
                assert batch.expected_cluster[i] == -1
                continue
            assert single.expected_cluster == batch.expected_cluster[i]
            assert single.predicted_cluster == batch.predicted_cluster[i]
            assert single.min_distance == batch.min_distance[i]
            assert single.slack == batch.slack[i]

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


class TestErrorContract:
    """Malformed vectors raise ``DetectionError`` on every path, before
    any verdict is given or any update is folded in."""

    @pytest.fixture()
    def nan_vector(self):
        vector = np.zeros(4)
        vector[1] = np.nan
        return vector

    def test_single_non_finite(self, model, nan_vector):
        with pytest.raises(DetectionError, match="non-finite"):
            Detector(model).classify(nan_vector, sa=0x10)
        with pytest.raises(DetectionError, match="non-finite"):
            Detector(model).classify(np.full(4, np.inf), sa=0x10)

    def test_single_wrong_length(self, model):
        with pytest.raises(DetectionError, match="shape"):
            Detector(model).classify(np.zeros(5), sa=0x10)

    def test_batch_non_finite(self, model, nan_vector):
        vectors = np.vstack([np.zeros(4), nan_vector])
        with pytest.raises(DetectionError, match="non-finite"):
            Detector(model).classify_batch(vectors, [0x10, 0x10])
        with pytest.raises(DetectionError, match="non-finite"):
            Detector(model).classify_and_update(vectors, [0x10, 0x10])

    def test_batch_wrong_shape(self, model):
        with pytest.raises(DetectionError, match="shape"):
            Detector(model).classify_batch(np.zeros((2, 3)), [0x10, 0x10])
        with pytest.raises(DetectionError, match="shape"):
            Detector(model).classify_and_update(np.zeros((2, 2, 4)), [0x10, 0x10])

    def test_updater_sees_nothing_from_a_bad_batch(self, model, nan_vector):
        live = copy.deepcopy(model)
        before = [c.count for c in live.clusters]
        with pytest.raises(DetectionError):
            Detector(live).classify_and_update(
                np.vstack([np.zeros(4), nan_vector]), [0x10, 0x10], OnlineUpdater(live)
            )
        assert [c.count for c in live.clusters] == before


def _two_cluster_model(count):
    """A on the origin, B at x = 4, both with unit covariance."""
    clusters = [
        ClusterProfile(
            name=name,
            mean=np.array([x, 0.0]),
            max_distance=3.0,
            count=count,
            covariance=np.eye(2),
            inv_covariance=np.eye(2),
        )
        for name, x in (("A", 0.0), ("B", 4.0))
    ]
    return VProfileModel(Metric.MAHALANOBIS, clusters, {0x10: 0, 0x20: 1})


class TestClassifyAndUpdate:
    def test_update_changes_a_later_prediction(self):
        """Row 0 (x = 1.9) passes and pulls A's mean to x = 0.95, so row
        1 (x = 2.1, nearer B at the batch's start) is predicted A and
        passes too.  Against the batch-start model it is a mismatch."""
        vectors = np.array([[1.9, 0.0], [2.1, 0.0]])
        sas = [0x10, 0x10]
        model = _two_cluster_model(count=1)
        results, folded = Detector(model, margin=5.0).classify_and_update(
            vectors, sas, OnlineUpdater(model)
        )
        assert folded == 2
        assert [r.predicted_cluster for r in results] == [0, 0]
        assert not any(r.is_anomaly for r in results)
        stale = Detector(_two_cluster_model(count=1), margin=5.0).classify_batch(
            vectors, sas
        )
        assert stale.predicted_cluster.tolist() == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_batching_matches_one_message_at_a_time(self, cuts, seed):
        """Splitting a message sequence into batches anywhere changes no
        verdict byte: each row sees the updates of the rows before it."""
        rng = np.random.default_rng(seed)
        n = 30
        centres = rng.choice([0.0, 4.0], size=n)
        vectors = rng.normal(scale=1.5, size=(n, 2)) + np.outer(centres, [1.0, 0.0])
        sas = rng.choice([0x10, 0x20, 0x99], size=n, p=[0.45, 0.45, 0.1]).tolist()

        model = _two_cluster_model(count=3)
        detector, updater = Detector(model, margin=1.0), OnlineUpdater(model)
        one_by_one = []
        for row in range(n):
            results, _ = detector.classify_and_update(
                vectors[row : row + 1], sas[row : row + 1], updater
            )
            one_by_one.extend(results)

        model = _two_cluster_model(count=3)
        detector, updater = Detector(model, margin=1.0), OnlineUpdater(model)
        batched = []
        start = 0
        for size in [*cuts, n]:
            results, _ = detector.classify_and_update(
                vectors[start : start + size], sas[start : start + size], updater
            )
            batched.extend(results)
            start += size
            if start >= n:
                break
        assert batched == one_by_one


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    k=st.integers(1, 8),
    d=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=2, d=2, seed=0)
@example(n=7, k=3, d=2, seed=1)
@example(n=8, k=4, d=2, seed=2)
@example(n=9, k=5, d=2, seed=3)
@example(n=16, k=6, d=2, seed=4)
@example(n=17, k=7, d=2, seed=5)
@example(n=33, k=8, d=2, seed=6)
@example(n=64, k=1, d=2, seed=7)
def test_distance_matrix_is_bitwise_the_per_cluster_loop(n, k, d, seed):
    """The distance matrix equals, bit for bit, a loop of
    ``mahalanobis_distances`` over the clusters, so batch, stream and
    fleet verdicts match the single-message path exactly.  The stacked
    two-step ``einsum`` over all clusters does.  A single 3-operand
    ``einsum`` would not: at d = 2 NumPy sums that quadratic form in
    another order and the last bit differs; the examples are d = 2
    shapes where it did."""
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
