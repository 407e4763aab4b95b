"""Out-of-place reference for one Algorithm 4 fold — the update oracle.

A direct transcription of eq. (5.1) and the Sherman-Morrison inverse
update, building fresh arrays for every statistic.  The production fold
(:meth:`repro.core.online_update.OnlineUpdater._update_cluster`) writes
into the model's stacked rows in place and must reproduce these values
bit for bit.  It allocates four arrays per fold, so it lives here and
serves only the store properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import _sherman_morrison_cov_update, mahalanobis_distance


@dataclass
class OracleCluster:
    """One cluster's Algorithm 4 statistics, held as separate arrays."""

    count: int
    mean: np.ndarray
    covariance: np.ndarray
    inv_covariance: np.ndarray
    max_distance: float


def fold(cluster: OracleCluster, x: np.ndarray) -> None:
    """Fold one edge set into ``cluster``, replacing every array."""
    prev_count = cluster.count
    prev_mean = cluster.mean
    new_count = prev_count + 1
    new_mean = prev_mean + (x - prev_mean) / new_count

    u = x - prev_mean  # uses the *previous* mean, per eq. (5.1)
    v = x - new_mean   # and the *new* mean
    new_cov = (np.outer(u, v) + prev_count * cluster.covariance) / new_count
    new_inv = _sherman_morrison_cov_update(cluster.inv_covariance, u, v, new_count)

    cluster.count = new_count
    cluster.mean = new_mean
    cluster.covariance = new_cov
    cluster.inv_covariance = new_inv
    distance = mahalanobis_distance(x, new_mean, new_inv)
    cluster.max_distance = max(cluster.max_distance, distance)
