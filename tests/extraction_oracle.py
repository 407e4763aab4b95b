"""Scalar reference walker for Algorithm 1 — the extraction test oracle.

A direct, sample-at-a-time transcription of the paper's pseudocode: the
production walkers in :mod:`repro.core.edge_extraction` (per-message
edge-index and columnar block) must reproduce its edge sets byte for
byte and its :class:`~repro.errors.ExtractionError` messages word for
word.  It is ~3x slower than the per-message walker, so it lives here
and serves only the equivalence properties and the legacy baseline of
the engine benchmark gate (``benchmarks/test_perf.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acquisition.trace import VoltageTrace
from repro.core.edge_extraction import (
    ExtractedEdgeSet,
    ExtractionConfig,
    _decode_identity,
    _window,
)
from repro.errors import ExtractionError


def extract_edge_set(trace: VoltageTrace, config: ExtractionConfig) -> ExtractedEdgeSet:
    """Run Algorithm 1 on one trace, one sample at a time."""
    samples = np.asarray(trace.counts, dtype=float)
    # The bit walker touches samples one at a time; plain-float list
    # indexing is several times cheaper than NumPy scalar indexing, and
    # tolist() yields the exact same float64 values.
    values = samples.tolist()
    n_values = len(values)
    threshold = config.threshold
    bit_width = config.bit_width
    half_bit = bit_width / 2.0
    id_last_bit = config.frame_format.id_last_bit
    first_stable_bit = config.frame_format.first_stable_bit

    sof = _find_sof(samples, threshold)
    pos = sof + half_bit
    bit_values: list[int] = [_value_at(values, pos, threshold)]
    if bit_values[0] != 0:
        raise ExtractionError("sample at SOF centre is not dominant")

    prev_bit = 0
    run_length = 1
    bit_count = 0  # counts logical bits appended after SOF
    source_address: int | None = None
    extraction_start: float | None = None

    while pos + bit_width < n_values:
        pos += bit_width
        # Inline _value_at: this loop runs once per wire bit and
        # dominates extraction time.
        index = int(round(pos))
        if index >= n_values:
            raise ExtractionError(f"bit walk ran off the trace at sample {index}")
        bit = 0 if values[index] >= threshold else 1
        is_stuff = False
        if bit != prev_bit:
            # Re-centre on the observed edge to hold synchronisation.
            crossing = _align_to_edge_center(values, pos, threshold, bit_width)
            pos = crossing + half_bit
            if run_length == 5:
                # After five identical bits the opposite-polarity bit is
                # a stuff bit: consume it but keep it out of the logical
                # stream.  It still seeds the next run (ISO 11898-1).
                is_stuff = True
            run_length = 1
            prev_bit = bit
        else:
            run_length += 1
            if run_length == 6:
                raise ExtractionError(
                    f"stuff violation near sample {int(pos)}: six identical bits"
                )
        if is_stuff:
            continue
        bit_values.append(bit)
        bit_count += 1
        if bit_count == id_last_bit:
            source_address = _decode_identity(bit_values, config.frame_format)
        elif bit_count == first_stable_bit:
            extraction_start = pos
            break

    if source_address is None or extraction_start is None:
        raise ExtractionError(
            f"trace ended after {bit_count} logical bits; need "
            f"{config.frame_format.first_stable_bit} plus an edge set"
        )

    windows = []
    start = extraction_start
    for k in range(config.n_edge_sets):
        windows.append(_extract_window_pair(samples, values, start, config))
        start = extraction_start + (k + 1) * config.edge_set_spacing
    vector = np.mean(windows, axis=0) if len(windows) > 1 else windows[0]

    return ExtractedEdgeSet(
        source_address=source_address,
        vector=np.asarray(vector, dtype=float),
        metadata=dict(trace.metadata),
    )


def extract_many(
    traces: Sequence[VoltageTrace], config: ExtractionConfig
) -> list[ExtractedEdgeSet]:
    """The scalar walker over many traces; the first failure raises."""
    return [extract_edge_set(trace, config) for trace in traces]


def _value_at(values: list[float], pos: float, threshold: float) -> int:
    index = int(round(pos))
    if index < 0 or index >= len(values):
        raise ExtractionError(f"bit walk ran off the trace at sample {index}")
    return 0 if values[index] >= threshold else 1


def _find_sof(samples: np.ndarray, threshold: float) -> int:
    """First sample at or above the threshold: start of the dominant SOF."""
    above = np.nonzero(samples >= threshold)[0]
    if above.size == 0:
        raise ExtractionError("no start-of-frame found (trace never dominant)")
    return int(above[0])


def _align_to_edge_center(
    values: list[float], pos: float, threshold: float, bit_width: float
) -> float:
    """Locate the threshold crossing behind ``pos`` (AlignToEdgeCenter).

    The walker detected a polarity change between the previous bit centre
    and ``pos``, so the crossing lies within the last ``bit_width``
    samples.  Scan backwards while the polarity still matches the new
    bit.
    """
    index = int(round(pos))
    floor = max(0, int(round(pos - bit_width)))
    j = index
    if values[index] >= threshold:  # new bit is dominant (decodes as 0)
        while j > floor and values[j - 1] >= threshold:
            j -= 1
    else:
        while j > floor and values[j - 1] < threshold:
            j -= 1
    return float(j)


def _extract_window_pair(
    samples: np.ndarray, values: list[float], start: float, config: ExtractionConfig
) -> np.ndarray:
    """ExtractEdgeSet from Algorithm 1: windows at the next two crossings.

    From ``start`` (inside or before a dominant region): skip any
    recessive run, skip the dominant run to its falling crossing, window
    it; advance half a bit, find the next rising crossing, window it.
    """
    threshold = config.threshold
    n = len(values)
    pos = int(round(start))

    while pos < n and values[pos] < threshold:   # reach dominant
        pos += 1
    if pos >= n:
        raise ExtractionError("edge search ran off the end of the trace")
    while pos < n and values[pos] >= threshold:  # falling crossing
        pos += 1
    if pos >= n:
        raise ExtractionError("edge search ran off the end of the trace")
    falling = _window(samples, pos, config)
    pos = int(round(pos + config.bit_width / 2.0))
    while pos < n and values[pos] < threshold:   # rising crossing
        pos += 1
    if pos >= n:
        raise ExtractionError("edge search ran off the end of the trace")
    rising = _window(samples, pos, config)
    return np.concatenate([falling, rising])
