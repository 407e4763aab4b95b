"""Distance metrics and streaming statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distances import (
    RunningStats,
    euclidean_distance,
    euclidean_distances,
    invert_covariance,
    mahalanobis_distance,
    mahalanobis_distances,
)
from repro.errors import SingularCovarianceError, TrainingError

vectors = arrays(
    np.float64,
    st.integers(2, 6),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero_for_identical(self):
        assert euclidean_distance([1.5, 2.5], [1.5, 2.5]) == 0.0

    @given(vectors)
    def test_symmetric(self, x):
        y = x + 1.0
        assert euclidean_distance(x, y) == pytest.approx(euclidean_distance(y, x))

    def test_batch_matches_single(self):
        points = np.random.default_rng(0).normal(size=(10, 4))
        center = np.zeros(4)
        batch = euclidean_distances(points, center)
        singles = [euclidean_distance(p, center) for p in points]
        assert np.allclose(batch, singles)


class TestMahalanobis:
    def test_identity_covariance_reduces_to_euclidean(self):
        x = np.array([1.0, 2.0, 3.0])
        mean = np.zeros(3)
        inv = np.eye(3)
        assert mahalanobis_distance(x, mean, inv) == pytest.approx(
            euclidean_distance(x, mean)
        )

    def test_scales_by_variance(self):
        """A 2-sigma deviation scores 2 regardless of the actual sigma."""
        inv = np.diag([1 / 0.25, 1.0])  # var 0.25 in dim 0
        assert mahalanobis_distance([1.0, 0.0], [0.0, 0.0], inv) == pytest.approx(2.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 3))
        mean = rng.normal(size=3)
        cov = np.cov(rng.normal(size=(100, 3)).T)
        inv = np.linalg.inv(cov)
        batch = mahalanobis_distances(points, mean, inv)
        singles = [mahalanobis_distance(p, mean, inv) for p in points]
        assert np.allclose(batch, singles)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_do_not_depend_on_batch_shape(self, n, d, seed):
        """Row i of an n-row call is bitwise the 1-row call on ``X[i]``
        and row 0 of the tail call on ``X[i:]``: the online kernel
        recomputes tails after every update and must match a message
        classified on its own."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        factor = rng.normal(size=(d, d))
        inv = factor @ factor.T / d
        mean = rng.normal(size=d) * scale
        points = rng.normal(size=(n, d)) * scale
        full = mahalanobis_distances(points, mean, inv)
        for i in range(n):
            assert full[i] == mahalanobis_distances(points[i : i + 1], mean, inv)[0]
            assert full[i] == mahalanobis_distances(points[i:], mean, inv)[0]

    def test_whitened_data_has_unit_scale(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50_000, 4)) * np.array([1.0, 5.0, 0.1, 2.0])
        mean = data.mean(axis=0)
        cov = np.cov(data.T, bias=True)
        inv = np.linalg.inv(cov)
        d2 = mahalanobis_distances(data, mean, inv) ** 2
        assert d2.mean() == pytest.approx(4.0, rel=0.05)  # chi^2_4 mean


class TestInvertCovariance:
    def test_inverts(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        inv = invert_covariance(cov)
        assert np.allclose(inv @ cov, np.eye(2), atol=1e-10)

    def test_singular_detected(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCovarianceError):
            invert_covariance(cov)

    def test_shrinkage_rescues_singular(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        inv = invert_covariance(cov, shrinkage=0.1)
        assert np.all(np.isfinite(inv))

    def test_rejects_nonsquare(self):
        with pytest.raises(TrainingError):
            invert_covariance(np.zeros((2, 3)))

    def test_rejects_bad_shrinkage(self):
        with pytest.raises(TrainingError):
            invert_covariance(np.eye(2), shrinkage=2.0)


class TestRunningStats:
    def test_from_data_matches_numpy(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 5))
        stats = RunningStats.from_data(data)
        assert np.allclose(stats.mean, data.mean(axis=0))
        assert np.allclose(stats.covariance, np.cov(data.T, bias=True))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 30), st.integers(2, 4), st.integers(0, 10_000))
    def test_incremental_equals_batch(self, n, d, seed):
        """Eq. 5.1 streaming updates match batch statistics exactly."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        stats = RunningStats(d)
        for row in data:
            stats.update(row)
        batch = RunningStats.from_data(data)
        assert np.allclose(stats.mean, batch.mean)
        assert np.allclose(stats.covariance, batch.covariance, atol=1e-10)

    def test_sherman_morrison_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 4))
        stats = RunningStats.from_data(data)
        stats.inverse_covariance()  # prime the cache
        for row in rng.normal(size=(20, 4)):
            stats.update(row)
        direct = np.linalg.inv(stats.covariance)
        assert np.allclose(stats.inverse_covariance(), direct, rtol=1e-6, atol=1e-9)

    def test_covariance_requires_data(self):
        with pytest.raises(TrainingError):
            RunningStats(3).covariance

    def test_update_checks_shape(self):
        stats = RunningStats(3)
        with pytest.raises(TrainingError):
            stats.update(np.zeros(4))

    def test_rejects_bad_dimension(self):
        with pytest.raises(TrainingError):
            RunningStats(0)
