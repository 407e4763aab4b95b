"""Checkpoint/resume for the streaming runtime.

A checkpoint is a directory with three files:

* ``model.npz`` — the (possibly online-updated) profile store, written
  with :meth:`VProfileModel.save`;
* ``extractor.npz`` — the incremental segmenter/extractor state: the
  rolling sample buffer, burst bookkeeping, pending emissions and the
  ingest counters;
* ``meta.json`` — format version, the next chunk to ingest, the next
  message sequence number, the detection margin, and the Algorithm 1
  extraction constants.

Checkpoints are only taken at chunk boundaries, after every message
extracted so far has been classified, so resuming re-ingests nothing and re-classifies nothing: the resumed run's verdict sequence
continues exactly where the interrupted one stopped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.edge_extraction import ExtractionConfig, FrameFormat
from repro.core.model import VProfileModel
from repro.errors import StreamError

#: Checkpoint format version.
CHECKPOINT_VERSION = 1

_MODEL_FILE = "model.npz"
_EXTRACTOR_FILE = "extractor.npz"
_META_FILE = "meta.json"


@dataclass(frozen=True)
class Checkpoint:
    """Everything needed to continue an interrupted streaming run."""

    model: VProfileModel
    extraction: ExtractionConfig | None
    extractor_state: dict[str, Any] | None
    next_chunk: int
    next_seq: int
    margin: float


def save_checkpoint(
    path: str | Path,
    *,
    model: VProfileModel,
    extraction: ExtractionConfig | None,
    extractor_state: dict[str, Any] | None,
    next_chunk: int,
    next_seq: int,
    margin: float = 0.0,
) -> None:
    """Write a checkpoint directory (created if missing, overwritten)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    model.save(directory / _MODEL_FILE)
    if extractor_state is not None:
        np.savez_compressed(directory / _EXTRACTOR_FILE, **extractor_state)
    elif (directory / _EXTRACTOR_FILE).exists():
        (directory / _EXTRACTOR_FILE).unlink()
    meta: dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "next_chunk": int(next_chunk),
        "next_seq": int(next_seq),
        "margin": float(margin),
        "extraction": None,
    }
    if extraction is not None:
        meta["extraction"] = {
            "bit_width": extraction.bit_width,
            "threshold": extraction.threshold,
            "prefix_len": extraction.prefix_len,
            "suffix_len": extraction.suffix_len,
            "n_edge_sets": extraction.n_edge_sets,
            "edge_set_spacing": extraction.edge_set_spacing,
            "frame_format": extraction.frame_format.value,
        }
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint directory written by :func:`save_checkpoint`."""
    directory = Path(path)
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise StreamError(f"not a checkpoint directory: {directory}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise StreamError(f"corrupt checkpoint metadata: {exc}") from exc
    version = int(meta.get("version", -1))
    if version != CHECKPOINT_VERSION:
        raise StreamError(
            f"checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    model = VProfileModel.load(directory / _MODEL_FILE)
    extraction = None
    if meta.get("extraction"):
        fields = meta["extraction"]
        extraction = ExtractionConfig(
            bit_width=float(fields["bit_width"]),
            threshold=float(fields["threshold"]),
            prefix_len=int(fields["prefix_len"]),
            suffix_len=int(fields["suffix_len"]),
            n_edge_sets=int(fields["n_edge_sets"]),
            edge_set_spacing=int(fields["edge_set_spacing"]),
            frame_format=FrameFormat(fields["frame_format"]),
        )
    extractor_state: dict[str, Any] | None = None
    extractor_path = directory / _EXTRACTOR_FILE
    if extractor_path.exists():
        with np.load(extractor_path, allow_pickle=False) as archive:
            extractor_state = {key: archive[key] for key in archive.files}
    return Checkpoint(
        model=model,
        extraction=extraction,
        extractor_state=extractor_state,
        next_chunk=int(meta["next_chunk"]),
        next_seq=int(meta["next_seq"]),
        margin=float(meta["margin"]),
    )
