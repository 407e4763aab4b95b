"""The model's stacked profile store and the in-place Algorithm 4 fold.

A :class:`VProfileModel` owns stacked copies of its clusters' means,
thresholds and (inverse) covariances; its ``clusters`` read and write
those rows.  These tests pin that contract: edits through a profile
reach the detector, models never share state, pinned baselines stay
put, and the in-place fold matches the out-of-place oracle bit for bit.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import Detector
from repro.core.distances import mahalanobis_distances
from repro.core.model import ClusterProfile, Metric, VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.errors import TrainingError
from repro.obs.health import ProfileHealthMonitor
from tests.online_update_oracle import OracleCluster, fold

SAS = {0x10: 0, 0x20: 1, 0x30: 2}


def _profiles(rng, k=3, d=4, count=40):
    profiles = []
    for index in range(k):
        points = rng.normal(size=(count, d)) + 3.0 * index
        mean = points.mean(axis=0)
        covariance = np.cov(points.T, bias=True)
        profiles.append(
            ClusterProfile(
                name=f"ECU{index}",
                mean=mean,
                max_distance=3.0,
                count=count,
                covariance=covariance,
                inv_covariance=np.linalg.inv(covariance),
            )
        )
    return profiles


def _batch(model, vectors, sas):
    detection = Detector(model, margin=1.0).classify_batch(vectors, sas)
    return detection.distances, detection.slack, detection.predicted_cluster


def _fresh(model):
    """The same statistics, copied into a newly built model."""
    return VProfileModel(
        model.metric,
        [
            ClusterProfile(
                name=c.name,
                mean=c.mean.copy(),
                max_distance=c.max_distance,
                count=c.count,
                covariance=c.covariance.copy(),
                inv_covariance=c.inv_covariance.copy(),
            )
            for c in model.clusters
        ],
        dict(model.sa_to_cluster),
    )


class TestAssignment:
    @pytest.mark.parametrize("field", ["mean", "inv_covariance", "max_distance"])
    def test_assigning_a_field_changes_the_next_batch_like_a_fresh_model(
        self, rng, field
    ):
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
        vectors = rng.normal(size=(12, 4)) * 3.0
        sas = rng.choice(list(SAS), size=12)
        before = _batch(model, vectors, sas)
        cluster = model.clusters[1]
        if field == "mean":
            cluster.mean = cluster.mean + 0.75
        elif field == "inv_covariance":
            cluster.inv_covariance = cluster.inv_covariance * 2.0
        else:
            cluster.max_distance = cluster.max_distance + 1.5
        after = _batch(model, vectors, sas)
        expected = _batch(_fresh(model), vectors, sas)
        for got, want in zip(after, expected):
            assert np.array_equal(got, want)
        assert not all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_in_place_edits_reach_the_store(self, rng):
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
        model.clusters[0].mean += 1.0
        assert np.array_equal(model.means[0], model.clusters[0].mean)

    def test_stacked_views_are_read_only(self, rng):
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
        for stacked in (model.means, model.max_distances, model.inv_covariances):
            with pytest.raises(ValueError):
                stacked[0] = 0.0

    def test_a_row_of_the_wrong_shape_is_refused(self, rng):
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
        with pytest.raises(TrainingError):
            model.clusters[0].mean = np.zeros(5)
        with pytest.raises(TrainingError):
            model.clusters[0].inv_covariance = None

    def test_a_standalone_profile_keeps_what_it_was_given(self, rng):
        profile = _profiles(rng, k=1)[0]
        mean = np.zeros(4)
        profile.mean = mean
        assert profile.mean is mean


class TestStackedDistances:
    def test_an_empty_batch_gives_an_empty_matrix(self, rng):
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
        detection = Detector(model).classify_batch(np.empty((0, 4)), [])
        assert detection.distances.shape == (0, 3)

    def test_a_batch_of_many_blocks_is_bitwise_the_per_cluster_loop(self, rng):
        """At d = 64, k = 5 a block holds 204 rows; 500 rows take three."""
        model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng, k=5, d=64, count=200))
        vectors = rng.normal(size=(500, 64)) * 2.0
        expected = np.stack(
            [
                mahalanobis_distances(vectors, c.mean, c.inv_covariance)
                for c in model.clusters
            ],
            axis=1,
        )
        assert np.array_equal(Detector(model)._distances_to_clusters(vectors), expected)


class TestIsolation:
    def test_folding_one_model_leaves_a_sibling_from_the_same_profiles(self, rng):
        profiles = _profiles(rng)
        snapshot = [(p.mean.copy(), p.covariance.copy(), p.count) for p in profiles]
        live = VProfileModel(Metric.MAHALANOBIS, profiles, SAS)
        sibling = VProfileModel(Metric.MAHALANOBIS, profiles, SAS)
        reference = _fresh(sibling)
        updater = OnlineUpdater(live)
        for _ in range(20):
            updater._update_cluster(1, rng.normal(size=4) + 3.0)
        vectors = rng.normal(size=(8, 4)) * 3.0
        sas = rng.choice(list(SAS), size=8)
        for got, want in zip(_batch(sibling, vectors, sas), _batch(reference, vectors, sas)):
            assert np.array_equal(got, want)
        for profile, (mean, covariance, count) in zip(profiles, snapshot):
            assert np.array_equal(profile.mean, mean)
            assert np.array_equal(profile.covariance, covariance)
            assert profile.count == count
        assert not np.array_equal(live.means, sibling.means)

    def test_folding_one_model_leaves_a_sibling_from_the_same_archive(self, rng):
        buffer = io.BytesIO()
        VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS).save(buffer)
        archive = buffer.getvalue()
        live = VProfileModel.load(io.BytesIO(archive))
        sibling = VProfileModel.load(io.BytesIO(archive))
        updater = OnlineUpdater(live)
        for _ in range(20):
            updater._update_cluster(0, rng.normal(size=4))
        resaved = io.BytesIO()
        sibling.save(resaved)
        assert resaved.getvalue() == archive


def test_a_pinned_health_baseline_survives_folds(rng):
    model = VProfileModel(Metric.MAHALANOBIS, _profiles(rng), SAS)
    pinned = [(c.mean.copy(), c.inv_covariance.copy()) for c in model.clusters]
    monitor = ProfileHealthMonitor(model)
    updater = OnlineUpdater(model)
    for _ in range(50):
        updater._update_cluster(2, rng.normal(size=4) + 7.0)
    for sa, index in SAS.items():
        mean, inv_covariance = pinned[index]
        delta = model.clusters[index].mean - mean
        expected = float(np.sqrt(delta @ inv_covariance @ delta))
        assert monitor.drift_distance(sa) == expected
    assert monitor.drift_distance(0x30) > 0.0


def test_an_edge_set_that_views_the_store_folds_like_a_copy(rng):
    profiles = _profiles(rng)
    profiles[0].max_distance = 0.0  # so the fold's distance shows
    viewed = VProfileModel(Metric.MAHALANOBIS, profiles, SAS)
    copied = VProfileModel(Metric.MAHALANOBIS, profiles, SAS)
    OnlineUpdater(viewed)._update_cluster(0, viewed.clusters[0].covariance[1])
    OnlineUpdater(copied)._update_cluster(0, copied.clusters[0].covariance[1].copy())
    for a, b in zip(viewed.clusters, copied.clusters):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)
        assert np.array_equal(a.inv_covariance, b.inv_covariance)
        assert a.max_distance == b.max_distance

@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 24),
    k=st.integers(1, 4),
    folds=st.lists(st.integers(0, 3), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_folds_are_bitwise_the_out_of_place_oracle(d, k, folds, seed):
    rng = np.random.default_rng(seed)
    profiles = _profiles(rng, k=k, d=d, count=3 * d)
    model = VProfileModel(Metric.MAHALANOBIS, profiles)
    oracles = [
        OracleCluster(
            count=p.count,
            mean=p.mean.copy(),
            covariance=p.covariance.copy(),
            inv_covariance=p.inv_covariance.copy(),
            max_distance=p.max_distance,
        )
        for p in profiles
    ]
    updater = OnlineUpdater(model)
    for index in folds:
        index %= k
        x = model.clusters[index].mean + rng.normal(scale=1.5, size=d)
        fold(oracles[index], x.copy())
        updater._update_cluster(index, x)
    for cluster, oracle in zip(model.clusters, oracles):
        assert cluster.count == oracle.count
        assert np.array_equal(cluster.mean, oracle.mean)
        assert np.array_equal(cluster.covariance, oracle.covariance)
        assert np.array_equal(cluster.inv_covariance, oracle.inv_covariance)
        assert cluster.max_distance == oracle.max_distance
