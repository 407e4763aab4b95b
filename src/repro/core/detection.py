"""Intrusion detection — Algorithm 3 of the paper, and the online kernel.

Given an edge set and its claimed source address:

1. unknown SA  -> anomaly (trivial case the paper's experiments skip);
2. the SA's *expected* cluster comes from the model LUT, the *predicted*
   cluster is the one with the minimum distance to the edge set;
   mismatch -> anomaly;
3. otherwise the minimum distance is compared against the predicted
   cluster's training maximum plus a configurable margin;
   exceeded -> anomaly.

For anomalies from trained ECUs, the predicted cluster names the attack
origin (Section 3.2.3).

:meth:`Detector.classify_and_update` is the one online kernel: Algorithm
3 and then Algorithm 4 (:mod:`repro.core.online_update`) per message, in
order.  It holds the only copy of the reason rule above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.core.distances import euclidean_distances, mahalanobis_distances
from repro.core.edge_extraction import ExtractedEdgeSet
from repro.core.model import ClusterProfile, Metric, VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.errors import DetectionError
from repro.obs.spans import stage_timer


class Verdict(str, Enum):
    """Detection outcome."""

    OK = "ok"
    ANOMALY = "anomaly"


class AnomalyReason(str, Enum):
    """Why a message was flagged."""

    UNKNOWN_SA = "unknown-sa"
    CLUSTER_MISMATCH = "cluster-mismatch"
    DISTANCE_EXCEEDED = "distance-exceeded"


@dataclass(frozen=True)
class DetectionResult:
    """Full outcome of Algorithm 3 for one message.

    Attributes
    ----------
    verdict:
        OK or ANOMALY.
    reason:
        Why the message was flagged; ``None`` for OK verdicts.
    source_address:
        The claimed SA.
    expected_cluster / predicted_cluster:
        Cluster indices; ``None`` when unavailable (unknown SA).
    min_distance:
        Distance to the nearest cluster mean.
    slack:
        ``min_distance`` minus the predicted cluster's threshold; an
        anomaly by distance when this exceeds the margin.
    """

    verdict: Verdict
    reason: AnomalyReason | None
    source_address: int
    expected_cluster: int | None
    predicted_cluster: int | None
    min_distance: float | None
    slack: float | None

    @property
    def is_anomaly(self) -> bool:
        return self.verdict is Verdict.ANOMALY

    def origin_name(self, model: VProfileModel) -> str | None:
        """Name of the attack origin, when attributable (Section 3.2.3)."""
        if self.predicted_cluster is None:
            return None
        return model.clusters[self.predicted_cluster].name


class Detector:
    """Algorithm 3 with a fixed margin, plus the online Algorithm 3→4 kernel.

    Parameters
    ----------
    model:
        A trained :class:`VProfileModel`.
    margin:
        Additional slack added to each cluster's max-distance threshold
        to absorb deviation beyond the training data.  "Selecting an
        appropriate margin is critical to vProfile's success" (Section
        3.2.3); :mod:`repro.eval.margin` implements the paper's tuning.
    """

    def __init__(self, model: VProfileModel, margin: float = 0.0):
        if margin < 0:
            raise DetectionError("margin must be non-negative (paper Section 4.3)")
        self.model = model
        self.margin = float(margin)

    def classify(self, edge_set: ExtractedEdgeSet | np.ndarray, sa: int | None = None) -> DetectionResult:
        """Classify one message: a 1-row :meth:`classify_and_update`.

        ``edge_set`` may be an extraction result (which carries its own
        SA) or a raw vector with ``sa`` supplied explicitly.
        """
        if isinstance(edge_set, ExtractedEdgeSet):
            vector = edge_set.vector
            sa = edge_set.source_address if sa is None else sa
        else:
            vector = edge_set
            if sa is None:
                raise DetectionError("raw vectors need an explicit SA")
        results, _ = self.classify_and_update([vector], [sa])
        return results[0]

    def classify_and_update(
        self,
        vectors: np.ndarray | Sequence[np.ndarray],
        sas: Sequence[int] | np.ndarray,
        updater: OnlineUpdater | None = None,
    ) -> tuple[list[DetectionResult], int]:
        """Algorithm 3, then Algorithm 4, once per message, in order.

        The one online kernel, shared by every entry point.  Row ``i``
        is decided against the model as updated by rows ``0..i-1``, as
        if the messages came one at a time.  Distances come from one
        :meth:`classify_batch` call; after each edge set ``updater``
        folds into cluster ``c``, column ``c`` of the remaining rows is
        recomputed.  Returns the verdicts and the number of edge sets
        folded in.  Raises :class:`DetectionError` for a vector of the
        wrong dimension or with non-finite values.
        """
        detection = self.classify_batch(vectors, sas)
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        distances = detection.distances
        assert distances is not None
        clusters = self.model.clusters
        results: list[DetectionResult] = []
        folded = 0
        for row, expected in enumerate(detection.expected_cluster.tolist()):
            sa = int(sas[row])
            if expected < 0:
                results.append(
                    DetectionResult(
                        verdict=Verdict.ANOMALY,
                        reason=AnomalyReason.UNKNOWN_SA,
                        source_address=sa,
                        expected_cluster=None,
                        predicted_cluster=None,
                        min_distance=None,
                        slack=None,
                    )
                )
                continue
            predicted = int(distances[row].argmin())
            min_distance = float(distances[row, predicted])
            slack = min_distance - float(clusters[predicted].max_distance)
            if predicted != expected:
                reason: AnomalyReason | None = AnomalyReason.CLUSTER_MISMATCH
            elif slack > self.margin:
                reason = AnomalyReason.DISTANCE_EXCEEDED
            else:
                reason = None
            results.append(
                DetectionResult(
                    verdict=Verdict.ANOMALY if reason else Verdict.OK,
                    reason=reason,
                    source_address=sa,
                    expected_cluster=expected,
                    predicted_cluster=predicted,
                    min_distance=min_distance,
                    slack=slack,
                )
            )
            if reason is None and updater is not None:
                report = updater.update([ExtractedEdgeSet(sa, vectors[row], {})])
                if report.updated:
                    folded += 1
                    distances[row + 1 :, expected] = self._distances_to_cluster(
                        vectors[row + 1 :], clusters[expected]
                    )
        return results, folded

    def classify_batch(self, vectors: np.ndarray, sas: Sequence[int] | np.ndarray) -> "BatchDetection":
        """Classify many messages at once against the current model.

        Returns a :class:`BatchDetection` with per-message verdict
        ingredients, from which anomaly flags for *any* margin can be
        derived cheaply (the margin-tuning sweep relies on this).

        Observability: the whole batch is one observation in
        ``vprofile_stage_seconds{stage="classify"}`` (one span per
        call, not per message).
        """
        with stage_timer("classify"):
            return self._classify_batch(vectors, sas)

    def _classify_batch(self, vectors: np.ndarray, sas: Sequence[int] | np.ndarray) -> "BatchDetection":
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        sas = np.asarray(sas, dtype=np.int64)
        if vectors.ndim != 2 or vectors.shape[1] != self.model.dim:
            raise DetectionError(
                f"edge sets have shape {vectors.shape}, the model expects "
                f"(n, {self.model.dim})"
            )
        if vectors.shape[0] != sas.shape[0]:
            raise DetectionError("vectors and SAs disagree in length")
        if not np.isfinite(vectors).all():
            raise DetectionError("edge sets contain non-finite values")
        distances = self._distances_to_clusters(vectors)
        predicted = np.argmin(distances, axis=1)
        min_distance = distances[np.arange(distances.shape[0]), predicted]
        thresholds = self.model.max_distances[predicted]
        expected = np.array(
            [self.model.sa_to_cluster.get(int(sa), -1) for sa in sas], dtype=np.int64
        )
        return BatchDetection(
            expected_cluster=expected,
            predicted_cluster=predicted.astype(np.int64),
            min_distance=min_distance,
            slack=min_distance - thresholds,
            margin=self.margin,
            distances=distances,
        )

    def _distances_to_clusters(self, vectors: np.ndarray) -> np.ndarray:
        """Distance matrix (n, k) from each vector to each cluster."""
        distances = np.empty((vectors.shape[0], self.model.n_clusters))
        for index, cluster in enumerate(self.model.clusters):
            distances[:, index] = self._distances_to_cluster(vectors, cluster)
        return distances

    def _distances_to_cluster(
        self, vectors: np.ndarray, cluster: ClusterProfile
    ) -> np.ndarray:
        """Distances (n,) from each vector to one cluster."""
        if self.model.metric is Metric.MAHALANOBIS:
            return mahalanobis_distances(vectors, cluster.mean, cluster.inv_covariance)
        return euclidean_distances(vectors, cluster.mean)


@dataclass(frozen=True)
class BatchDetection:
    """Vectorised detection ingredients for a batch of messages.

    ``anomalies()`` reproduces Algorithm 3's decision for an arbitrary
    margin without re-computing distances, which makes the paper's
    margin-tuning procedure (scan for the best accuracy / F-score) cheap.
    """

    expected_cluster: np.ndarray  # (n,), -1 for unknown SA
    predicted_cluster: np.ndarray  # (n,)
    min_distance: np.ndarray  # (n,)
    slack: np.ndarray  # (n,)
    margin: float
    #: Message-to-cluster distances (n, k); set by ``classify_batch``.
    distances: np.ndarray | None = None

    def anomalies(self, margin: float | None = None) -> np.ndarray:
        """Boolean anomaly flags at ``margin`` (default: detector margin)."""
        if margin is None:
            margin = self.margin
        unknown = self.expected_cluster < 0
        mismatch = self.expected_cluster != self.predicted_cluster
        exceeded = self.slack > margin
        return unknown | mismatch | exceeded

    @property
    def hard_anomalies(self) -> np.ndarray:
        """Flags that no margin can suppress (unknown SA / mismatch)."""
        return (self.expected_cluster < 0) | (
            self.expected_cluster != self.predicted_cluster
        )
