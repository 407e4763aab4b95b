"""Online model update — Algorithm 4 of the paper (Section 5.3).

Environmental drift (temperature, battery voltage) slowly shifts the bus
voltage.  Instead of retraining from scratch, Algorithm 4 folds new,
verified-legitimate edge sets into the existing model: the per-cluster
edge-set count, mean, (inverse) covariance — via eq. (5.1) — and the
max-distance threshold are all updated in place.

The paper cautions that updates lose leverage as the count ``N_n``
grows, and recommends retraining once ``N_n`` reaches an upper bound
``M``; :class:`OnlineUpdater` enforces that bound per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.distances import mahalanobis_distance, _sherman_morrison_cov_update
from repro.core.edge_extraction import ExtractedEdgeSet
from repro.core.model import Metric, VProfileModel
from repro.errors import DetectionError, TrainingError
from repro.obs.spans import stage_timer


@dataclass
class UpdateReport:
    """What one batch update did.

    Attributes
    ----------
    updated:
        Edge sets folded in, per cluster name.
    saturated:
        Clusters that hit the retrain bound ``M`` during the batch (their
        remaining edge sets were skipped).
    skipped_unknown_sa:
        Edge sets whose SA is not in the model LUT (Algorithm 4 assumes
        no new SAs; these are surfaced instead of silently dropped).
    """

    updated: dict[str, int] = field(default_factory=dict)
    saturated: list[str] = field(default_factory=list)
    skipped_unknown_sa: int = 0


class OnlineUpdater:
    """Applies Algorithm 4 to a Mahalanobis :class:`VProfileModel`.

    Parameters
    ----------
    model:
        The model to update *in place*.
    retrain_bound:
        The upper bound ``M`` on a cluster's edge-set count; once
        reached, further updates to that cluster are refused and the
        caller should retrain.  ``None`` disables the bound.
    observer:
        Optional ``(source_address, accepted)`` callback invoked for
        every edge set offered to the updater — ``accepted`` is True
        when the sample was folded in, False when it was refused
        (saturated cluster or unknown SA).  The profile-health monitor
        hangs off this hook to track update-acceptance rates.
    """

    def __init__(
        self,
        model: VProfileModel,
        retrain_bound: int | None = None,
        observer: Callable[[int, bool], None] | None = None,
    ):
        if model.metric is not Metric.MAHALANOBIS:
            raise DetectionError(
                "Algorithm 4 updates covariances; it requires a Mahalanobis model"
            )
        if retrain_bound is not None and retrain_bound < 2:
            raise TrainingError("retrain bound M must be at least 2")
        self.model = model
        self.retrain_bound = retrain_bound
        self.observer = observer

    def needs_retrain(self, cluster_index: int) -> bool:
        """True when the cluster's count has reached the bound ``M``."""
        if self.retrain_bound is None:
            return False
        return self.model.clusters[cluster_index].count >= self.retrain_bound

    def update(self, edge_sets: Sequence[ExtractedEdgeSet]) -> UpdateReport:
        """UpdateModel from Algorithm 4: fold a batch of new edge sets in.

        Edge sets are grouped by cluster through the model's SA LUT and
        applied one at a time (count, mean, inverse covariance, max
        distance), exactly following the pseudocode.

        Observability: each call times into
        ``vprofile_stage_seconds{stage="update"}`` when a metrics
        registry is enabled.
        """
        with stage_timer("update"):
            return self._update(edge_sets)

    def _update(self, edge_sets: Sequence[ExtractedEdgeSet]) -> UpdateReport:
        report = UpdateReport()
        for edge_set in edge_sets:
            cluster_index = self.model.cluster_of_sa(edge_set.source_address)
            if cluster_index is None:
                report.skipped_unknown_sa += 1
                if self.observer is not None:
                    self.observer(edge_set.source_address, False)
                continue
            name = self.model.clusters[cluster_index].name
            if self.needs_retrain(cluster_index):
                if name not in report.saturated:
                    report.saturated.append(name)
                if self.observer is not None:
                    self.observer(edge_set.source_address, False)
                continue
            self._update_cluster(cluster_index, edge_set.vector)
            report.updated[name] = report.updated.get(name, 0) + 1
            if self.observer is not None:
                self.observer(edge_set.source_address, True)
        return report

    def _update_cluster(self, cluster_index: int, x: np.ndarray) -> None:
        """Apply one edge set to one cluster (the body of Algorithm 4)."""
        cluster = self.model.clusters[cluster_index]
        x = np.asarray(x, dtype=float)
        if x.shape != cluster.mean.shape:
            raise TrainingError(
                f"edge set has shape {x.shape}, model expects {cluster.mean.shape}"
            )
        if not np.isfinite(x).all():
            # One NaN folded in would poison the cluster for good.
            raise TrainingError("edge set contains non-finite values")
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
