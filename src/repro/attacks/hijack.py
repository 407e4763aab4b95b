"""Hijack-intruder simulation (threat model, Section 3.1).

A hijack intruder controls an existing, legitimate ECU and sends crafted
messages under another ECU's source address.  The analog waveform still
comes from the *compromised* ECU's transceiver — only the claimed SA
lies.  The paper simulates this by replaying recorded traffic and
rewriting each message's SA in software with 20 % probability to an SA
belonging to a different cluster (Section 4.1); we do the same at the
edge-set level: over a whole replay (:func:`apply_hijack`, for the paper
tables) and per message in flight (:class:`InFlightHijack`, for the
streaming runtime).  They draw differently, so they stay separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.edge_extraction import ExtractedEdgeSet
from repro.errors import DatasetError


@dataclass(frozen=True)
class LabelledEdgeSet:
    """An edge set with its attack ground truth.

    Attributes
    ----------
    edge_set:
        The (possibly SA-rewritten) edge set handed to the detector.
    is_attack:
        True when the claimed SA does not match the true sender.
    true_sender:
        Ground-truth ECU name.
    """

    edge_set: ExtractedEdgeSet
    is_attack: bool
    true_sender: str


def apply_hijack(
    edge_sets: Sequence[ExtractedEdgeSet],
    sa_clusters: Mapping[int, str],
    *,
    probability: float = 0.2,
    rng: np.random.Generator | None = None,
) -> list[LabelledEdgeSet]:
    """Rewrite SAs with ``probability`` to one of a *different* cluster.

    This reproduces the paper's hijack imitation test "where every ECU
    can imitate every other ECU": the replacement SA is drawn uniformly
    from the SAs belonging to other clusters.

    Parameters
    ----------
    edge_sets:
        Clean replay data (extraction results with true SAs).
    sa_clusters:
        SA -> ECU name map defining which SAs share a cluster.
    probability:
        Chance that any given message is attacked (paper: 20 %).
    rng:
        Random source; a deterministic seed-0 generator when omitted, so
        repeated runs attack the same messages (VPL102 forbids the old
        OS-entropy fallback).
    """
    if not 0.0 <= probability <= 1.0:
        raise DatasetError(f"probability must be in [0, 1], got {probability}")
    if rng is None:
        rng = np.random.default_rng(0)

    sas_by_cluster: dict[str, list[int]] = {}
    for sa, name in sa_clusters.items():
        sas_by_cluster.setdefault(name, []).append(sa)
    if len(sas_by_cluster) < 2:
        raise DatasetError("hijack needs at least two clusters to imitate across")

    labelled: list[LabelledEdgeSet] = []
    for edge_set in edge_sets:
        sender = edge_set.metadata.get("sender", "?")
        own_cluster = sa_clusters.get(edge_set.source_address)
        if own_cluster is not None and rng.uniform() < probability:
            foreign_sas = [
                sa
                for name, sas in sas_by_cluster.items()
                if name != own_cluster
                for sa in sas
            ]
            forged_sa = int(foreign_sas[rng.integers(len(foreign_sas))])
            forged = replace(edge_set, source_address=forged_sa)
            labelled.append(LabelledEdgeSet(forged, is_attack=True, true_sender=sender))
        else:
            labelled.append(LabelledEdgeSet(edge_set, is_attack=False, true_sender=sender))
    return labelled


@dataclass
class InFlightHijack:
    """Per-message SA rewrite in flight; rewritten seqs collect in ``injected``.

    Message ``seq`` draws from ``default_rng([seed, seq])``, not from a
    shared stream, so a resumed run injects exactly the attacks the
    uninterrupted run would have.  The forged SA is drawn uniformly from
    the SAs of *other* clusters, in ``sa_to_cluster`` order.
    """

    sa_to_cluster: Mapping[int, int]
    probability: float
    seed: int = 0
    injected: list[int] = field(default_factory=list)

    def __call__(self, seq: int, edge_set: ExtractedEdgeSet) -> ExtractedEdgeSet:
        rng = np.random.default_rng([self.seed, seq])
        if rng.random() >= self.probability:
            return edge_set
        own_cluster = self.sa_to_cluster.get(edge_set.source_address)
        candidates = [
            sa for sa, cluster in self.sa_to_cluster.items() if cluster != own_cluster
        ]
        if not candidates:
            return edge_set
        self.injected.append(seq)
        forged = int(candidates[int(rng.integers(len(candidates)))])
        return replace(edge_set, source_address=forged)
