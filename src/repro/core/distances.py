"""Distance metrics and incremental cluster statistics.

Implements the two metrics the paper compares (Section 2.2.2):

* Euclidean distance, eq. (2.1) — treats every edge-set sample equally;
* Mahalanobis distance, eq. (2.2) — whitens by the cluster covariance,
  which down-weights the jittery edge samples and exploits neighbour
  correlations.  This is the metric behind the paper's headline results.

Also provides :class:`RunningStats`, the streaming mean / covariance /
inverse-covariance tracker that Algorithm 4 (online model update,
Section 5.3, eq. 5.1) builds on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SingularCovarianceError, TrainingError

#: Reciprocal-condition-number cutoff below which a covariance matrix is
#: reported singular (mirrors the paper's failures at <= 10-bit data).
RCOND_LIMIT = 1e-12


def euclidean_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between two edge sets (paper eq. 2.1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x - y
    return float(np.sqrt(diff @ diff))


def euclidean_distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances from ``points`` (n, d) to ``center``."""
    diffs = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def invert_covariance(cov: np.ndarray, *, shrinkage: float = 0.0) -> np.ndarray:
    """Invert a covariance matrix, raising on singularity.

    Parameters
    ----------
    cov:
        Symmetric positive semi-definite (d, d) matrix.
    shrinkage:
        Optional Ledoit-Wolf-style ridge: ``(1-s)*cov + s*tr(cov)/d*I``.
        The paper uses no regularisation (and therefore hits singular
        matrices at 10-bit resolution); shrinkage is provided as an
        opt-in extension.

    Raises
    ------
    SingularCovarianceError
        When the (possibly shrunk) matrix is numerically singular.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise TrainingError(f"covariance must be square, got shape {cov.shape}")
    if shrinkage:
        if not 0.0 <= shrinkage <= 1.0:
            raise TrainingError(f"shrinkage must be in [0, 1], got {shrinkage}")
        ridge = np.trace(cov) / cov.shape[0]
        cov = (1.0 - shrinkage) * cov + shrinkage * ridge * np.eye(cov.shape[0])
    # Use eigh-based reciprocal condition estimate: covariance matrices
    # from coarse quantisation are exactly rank-deficient, and np.linalg
    # .inv would return garbage rather than fail for near-singular input.
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 0 or eigvals[0] / max(eigvals[-1], np.finfo(float).tiny) < RCOND_LIMIT:
        raise SingularCovarianceError(
            "covariance matrix is singular (the paper reports the same "
            "failure for captures at 10-bit resolution and below); "
            "increase resolution, add training data, or pass shrinkage"
        )
    return np.linalg.inv(cov)


def mahalanobis_distance(x: np.ndarray, mean: np.ndarray, inv_cov: np.ndarray) -> float:
    """Mahalanobis distance of ``x`` from a distribution (paper eq. 2.2)."""
    diff = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    value = diff @ inv_cov @ diff
    # Guard tiny negative values from floating-point asymmetry.
    return float(np.sqrt(max(value, 0.0)))


def mahalanobis_distances(points: np.ndarray, mean: np.ndarray, inv_cov: np.ndarray) -> np.ndarray:
    """Row-wise Mahalanobis distances from ``points`` (n, d) to a cluster.

    Each row is bitwise the same whatever the other rows; a 3-operand
    ``einsum`` is not (at d = 2 its summation order depends on n).
    """
    diffs = np.asarray(points, dtype=float) - np.asarray(mean, dtype=float)
    values = np.einsum("ij,ij->i", np.einsum("ij,jk->ik", diffs, inv_cov), diffs)
    return np.sqrt(np.maximum(values, 0.0))


class RunningStats:
    """Streaming mean and covariance over edge sets of one cluster.

    Uses Welford-style updates for the mean and the paper's eq. (5.1)
    recurrence for the covariance:

        Sigma_n = ((x_n - mean_{n-1})(x_n - mean_n)^T + (n-1) Sigma_{n-1}) / n

    The inverse covariance is maintained incrementally with a
    Sherman-Morrison rank-1 update so that Algorithm 4 never pays a full
    O(d^3) inversion per message.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise TrainingError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._scatter = np.zeros((dim, dim))  # sum of (x-mean) outer products
        self._inv_cov: np.ndarray | None = None

    @classmethod
    def from_data(cls, points: np.ndarray) -> "RunningStats":
        """Initialise from a batch (n, d) of edge sets."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        stats = cls(points.shape[1])
        stats.count = points.shape[0]
        stats.mean = points.mean(axis=0)
        centered = points - stats.mean
        stats._scatter = centered.T @ centered
        return stats

    @property
    def covariance(self) -> np.ndarray:
        """Population covariance (divide by n, matching eq. 5.1)."""
        if self.count < 1:
            raise TrainingError("no observations accumulated")
        return self._scatter / self.count

    def inverse_covariance(self, *, shrinkage: float = 0.0) -> np.ndarray:
        """Inverse covariance, cached until the next update."""
        if self._inv_cov is None:
            self._inv_cov = invert_covariance(self.covariance, shrinkage=shrinkage)
        return self._inv_cov

    def update(self, x: np.ndarray) -> None:
        """Fold one new edge set into the statistics (paper eq. 5.1).

        When an inverse covariance is already cached it is updated in
        place via Sherman-Morrison instead of being recomputed.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise TrainingError(f"expected shape ({self.dim},), got {x.shape}")
        prev_mean = self.mean.copy()
        self.count += 1
        self.mean = prev_mean + (x - prev_mean) / self.count
        u = x - prev_mean
        v = x - self.mean
        self._scatter = self._scatter + np.outer(u, v)
        if self._inv_cov is not None and self.count > 1:
            self._inv_cov = _sherman_morrison_cov_update(
                self._inv_cov, u, v, self.count
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunningStats(dim={self.dim}, count={self.count})"


def _sherman_morrison_cov_update(
    inv_cov: np.ndarray, u: np.ndarray, v: np.ndarray, n: int
) -> np.ndarray:
    """Update ``inv(Sigma)`` after ``Sigma_n = ((n-1)Sigma + u v^T) / n``.

    With A = (n-1)/n * Sigma and the rank-1 term u v^T / n:

        inv(A + uv^T/n) = inv(A) - (inv(A) u v^T inv(A) / n) / (1 + v^T inv(A) u / n)

    where inv(A) = n/(n-1) * inv(Sigma).

    Raises
    ------
    SingularCovarianceError
        If the update would make the matrix singular (denominator ~ 0).
    """
    scale = n / (n - 1)
    inv_a = inv_cov * scale
    inv_a_u = inv_a @ u
    v_inv_a = v @ inv_a
    denom = 1.0 + (v @ inv_a_u) / n
    if abs(denom) < 1e-300:
        raise SingularCovarianceError("rank-1 covariance update became singular")
    return inv_a - np.outer(inv_a_u, v_inv_a) / (n * denom)
