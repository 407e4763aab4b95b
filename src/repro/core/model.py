"""The vProfile model: what training produces and detection consumes.

Per Section 3.2.2 the model holds, for every cluster (= physical ECU):
its mean edge set, its maximum observed training distance (the detection
threshold), and a lookup table mapping valid source addresses to their
cluster.  With the Mahalanobis metric (Section 4.2.2) each cluster
additionally stores its covariance and inverse covariance, and Algorithm
4 (online update) needs the per-cluster edge-set count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.errors import DetectionError, TrainingError


class Metric(str, Enum):
    """Distance metric selector (paper Section 2.2.2)."""

    EUCLIDEAN = "euclidean"
    MAHALANOBIS = "mahalanobis"


class _Stacked:
    """A :class:`ClusterProfile` field that lives in its model's store.

    A standalone profile keeps the value as given.  Once a model owns the
    profile, reading returns the profile's row of the model's stacked
    array (a writable view; a float for ``max_distance``) and assigning
    copies the value into that row.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, profile: "ClusterProfile | None", owner: type | None = None) -> Any:
        if profile is None:
            return self
        if profile._store is None:
            return profile.__dict__[self.name]
        stack = profile._store[self.name]
        if stack is None:
            return None
        return float(stack[profile._row]) if stack.ndim == 1 else stack[profile._row]

    def __set__(self, profile: "ClusterProfile", value: Any) -> None:
        if profile._store is None:
            profile.__dict__[self.name] = value
            return
        stack = profile._store[self.name]
        shape = None if value is None else np.shape(value)
        if stack is None or shape != stack.shape[1:]:
            raise TrainingError(
                f"cannot store a {self.name} of shape {shape} in a model "
                f"that holds {'none' if stack is None else stack.shape[1:]}"
            )
        stack[profile._row] = value


class ClusterProfile:
    """Trained statistics of one cluster / ECU.

    Inside a :class:`VProfileModel`, ``mean``, ``max_distance``,
    ``covariance`` and ``inv_covariance`` are the profile's rows of the
    model's stacked arrays: reading one gives a view, assigning one
    writes into the row.

    Attributes
    ----------
    name:
        Cluster label (the ECU name when a LUT was supplied, otherwise a
        generated ``cluster<N>`` label).
    mean:
        Mean edge set, shape (d,).
    covariance / inv_covariance:
        Cluster covariance and its inverse; ``None`` under the Euclidean
        metric.
    max_distance:
        Largest training-set distance from the mean — the per-cluster
        detection threshold of Algorithm 2.
    count:
        Number of training edge sets (``N_n`` in eq. 5.1).
    """

    mean = _Stacked()
    max_distance = _Stacked()
    covariance = _Stacked()
    inv_covariance = _Stacked()

    def __init__(
        self,
        name: str,
        mean: np.ndarray,
        max_distance: float,
        count: int,
        covariance: np.ndarray | None = None,
        inv_covariance: np.ndarray | None = None,
    ):
        self._store: dict[str, np.ndarray | None] | None = None
        self._row = 0
        self.name = name
        self.mean = mean
        self.max_distance = max_distance
        self.count = count
        self.covariance = covariance
        self.inv_covariance = inv_covariance

    def __repr__(self) -> str:
        return (
            f"ClusterProfile(name={self.name!r}, count={self.count}, "
            f"max_distance={self.max_distance!r})"
        )


#: The profile fields a model stacks, one row per cluster.
_STACKED = ("mean", "max_distance", "covariance", "inv_covariance")


@dataclass
class VProfileModel:
    """A complete trained vProfile model.

    The model owns its profile store: stacked ``means`` (k, d),
    ``max_distances`` (k,) and, under Mahalanobis, covariances and
    inverse covariances (k, d, d), copied from the clusters it is built
    from.  ``clusters`` are the model's own profiles over those rows, so
    two models never share state and Algorithm 4 folds into the rows in
    place.

    Attributes
    ----------
    metric:
        Which distance the model was trained with.
    clusters:
        Per-cluster statistics, indexed by cluster id.
    sa_to_cluster:
        The cluster-SA lookup table: valid SA -> cluster index.
    """

    metric: Metric
    clusters: list[ClusterProfile]
    sa_to_cluster: dict[int, int] = field(default_factory=dict)
    #: Writable stacked arrays by profile field; Algorithm 4 folds here.
    _store: dict[str, np.ndarray | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise TrainingError("a model needs at least one cluster")
        k = len(self.clusters)
        for sa, cluster in self.sa_to_cluster.items():
            if not 0 <= cluster < k:
                raise TrainingError(
                    f"SA 0x{sa:02X} maps to cluster {cluster}, but the model "
                    f"has {k} clusters"
                )
        dims = {np.shape(c.mean) for c in self.clusters}
        if len(dims) != 1:
            raise TrainingError(f"inconsistent edge-set dimensions: {dims}")
        if self.metric is Metric.MAHALANOBIS:
            missing = [c.name for c in self.clusters if c.inv_covariance is None]
            if missing:
                raise TrainingError(
                    f"Mahalanobis model lacks inverse covariances for {missing}"
                )
        self._store = {}
        for name in _STACKED:
            values = [getattr(c, name) for c in self.clusters]
            if all(value is None for value in values):
                self._store[name] = None
            elif any(value is None for value in values):
                raise TrainingError(f"only some clusters carry a {name}")
            else:
                self._store[name] = np.array(values, dtype=float)
        self.clusters = [self._own(c, row) for row, c in enumerate(self.clusters)]

    def _own(self, cluster: ClusterProfile, row: int) -> ClusterProfile:
        """A profile over row ``row`` of this model's store."""
        profile = ClusterProfile.__new__(ClusterProfile)
        profile.name = cluster.name
        profile.count = cluster.count
        profile._store = self._store
        profile._row = row
        return profile

    @property
    def dim(self) -> int:
        """Edge-set dimensionality."""
        return int(self._stacked("mean").shape[1])

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def known_sas(self) -> set[int]:
        """All source addresses the model considers legitimate."""
        return set(self.sa_to_cluster)

    def cluster_of_sa(self, sa: int) -> int | None:
        """The expected cluster for a claimed SA, or None if unknown."""
        return self.sa_to_cluster.get(sa)

    def cluster_named(self, name: str) -> ClusterProfile:
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise DetectionError(f"no cluster named {name!r}")

    def _stacked(self, name: str) -> np.ndarray:
        """The writable stacked array of one profile field.

        Algorithm 4 (:mod:`repro.core.online_update`) folds through
        this; everything else reads the read-only properties below.
        """
        stack = self._store[name]
        if stack is None:
            raise DetectionError(f"this model stores no {name}")
        return stack

    @property
    def means(self) -> np.ndarray:
        """Stacked cluster means, shape (k, d); a read-only view of the store."""
        return _read_only(self._stacked("mean"))

    @property
    def max_distances(self) -> np.ndarray:
        """Per-cluster thresholds, shape (k,); a read-only view of the store."""
        return _read_only(self._stacked("max_distance"))

    @property
    def inv_covariances(self) -> np.ndarray:
        """Stacked inverse covariances, shape (k, d, d); a read-only view."""
        if self.metric is not Metric.MAHALANOBIS:
            raise DetectionError("Euclidean models have no covariances")
        return _read_only(self._stacked("inv_covariance"))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: "str | Path | IO[bytes]") -> None:
        """Serialise to an ``.npz`` archive (path or binary file object).

        Accepting file objects lets callers move models over sockets
        (the fleet gateway registers tenants from uploaded bytes)
        without a temporary file.
        """
        if not hasattr(path, "write"):
            path = Path(path)
        arrays: dict[str, np.ndarray] = {
            "metric": np.array(self.metric.value),
            "names": np.array([c.name for c in self.clusters]),
            "means": self.means,
            "max_distances": self.max_distances,
            "counts": np.array([c.count for c in self.clusters]),
            "sa_keys": np.array(sorted(self.sa_to_cluster), dtype=np.int64),
            "sa_values": np.array(
                [self.sa_to_cluster[sa] for sa in sorted(self.sa_to_cluster)],
                dtype=np.int64,
            ),
        }
        if self.metric is Metric.MAHALANOBIS:
            arrays["covariances"] = self._stacked("covariance")
            arrays["inv_covariances"] = self.inv_covariances
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: "str | Path | IO[bytes]") -> "VProfileModel":
        """Load a model previously stored with :meth:`save`."""
        source = path if hasattr(path, "read") else Path(path)
        with np.load(source, allow_pickle=False) as archive:
            metric = Metric(str(archive["metric"]))
            names = [str(n) for n in archive["names"]]
            means = archive["means"]
            max_distances = archive["max_distances"]
            counts = archive["counts"]
            covs = archive["covariances"] if "covariances" in archive else None
            inv_covs = archive["inv_covariances"] if "inv_covariances" in archive else None
            sa_map = {
                int(k): int(v)
                for k, v in zip(archive["sa_keys"], archive["sa_values"])
            }
        clusters = [
            ClusterProfile(
                name=names[i],
                mean=means[i],
                max_distance=float(max_distances[i]),
                count=int(counts[i]),
                covariance=None if covs is None else covs[i],
                inv_covariance=None if inv_covs is None else inv_covs[i],
            )
            for i in range(len(names))
        ]
        return cls(metric=metric, clusters=clusters, sa_to_cluster=sa_map)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses writes but sees the owner's."""
    view = array.view()
    view.flags.writeable = False
    return view
