"""Edge-set extraction — Algorithm 1 of the paper.

Walks the sampled voltage of one CAN message, staying bit-synchronised by
re-centering on every observed edge, skips stuff bits, decodes the J1939
source address from logical bits 24-31, and — once past the arbitration
field (bit 33) — extracts the first *edge set*: a fixed number of samples
around the next falling and rising threshold crossings.

Naming note: the thesis prose says "iterate until the first rising edge
... then find the falling edge", but its pseudocode (and the fact that
bit 33, the r1 reserved bit, is always dominant) means the first crossing
encountered is the *falling* one.  We follow the pseudocode: the edge set
is [falling-edge window, rising-edge window].  The ordering is irrelevant
to the classifier as long as it is consistent.

Two Chapter 5 enhancements live here as options:

* per-cluster extraction thresholds (Section 5.1), computed as the mean
  of the max and min of the first half of a message;
* multi-edge-set averaging (Section 5.2): extract several edge sets
  spaced a fixed number of samples apart and use their mean.

Two production walkers implement the algorithm, and the batch size picks
between them (:func:`extract_many_indexed`): the per-message edge-index
walker (:func:`extract_edge_set`, used by the stream path) and the
columnar block walker (:func:`extract_edge_sets_batch`, used for whole
captures).  Both are byte-identical — edge sets and error messages — to
the sample-at-a-time transcription of the pseudocode that the test suite
keeps as its reference oracle (the "scalar walker" of the comments
below).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from enum import Enum

from repro.acquisition.adc import AdcConfig
from repro.acquisition.trace import VoltageTrace
from repro.errors import ExtractionError
from repro.obs.spans import stage_timer

#: Logical bit positions in an extended frame (SOF = bit 0, stuff bits
#: excluded): the J1939 SA occupies bits 24-31 and bit 33 is the first
#: bit after the arbitration field (paper Section 3.2.1).
SA_FIRST_BIT = 24
SA_LAST_BIT = 31
FIRST_STABLE_BIT = 33

#: The same landmarks for standard (CAN 2.0A) frames — the paper's
#: Section 6.1 future-work adaptation.  The whole 11-bit identifier is
#: the sender identity (bits 1-11); the arbitration field ends with the
#: RTR bit at position 12, so bit 13 (IDE) is the first stable bit.
STD_ID_FIRST_BIT = 1
STD_ID_LAST_BIT = 11
STD_FIRST_STABLE_BIT = 13


class FrameFormat(str, Enum):
    """Which CAN frame layout the extractor walks."""

    EXTENDED = "extended"   # CAN 2.0B / J1939 (the paper's vehicles)
    STANDARD = "standard"   # CAN 2.0A (Section 6.1 future work)

    @property
    def id_first_bit(self) -> int:
        return SA_FIRST_BIT if self is FrameFormat.EXTENDED else STD_ID_FIRST_BIT

    @property
    def id_last_bit(self) -> int:
        return SA_LAST_BIT if self is FrameFormat.EXTENDED else STD_ID_LAST_BIT

    @property
    def first_stable_bit(self) -> int:
        return (
            FIRST_STABLE_BIT
            if self is FrameFormat.EXTENDED
            else STD_FIRST_STABLE_BIT
        )

#: Paper constants for a 10 MS/s capture of a 250 kb/s bus.
REFERENCE_PREFIX_S = 0.2e-6   # 2 samples at 10 MS/s
REFERENCE_SUFFIX_S = 1.4e-6   # 14 samples at 10 MS/s
REFERENCE_EDGE_SET_SPACING_S = 25e-6  # 250 samples at 10 MS/s
#: The extraction threshold should horizontally bisect an edge; half the
#: nominal 2 V dominant differential.
REFERENCE_THRESHOLD_V = 1.0


@dataclass(frozen=True)
class ExtractionConfig:
    """Constants of Algorithm 1 (paper Section 3.2.1).

    Attributes
    ----------
    bit_width:
        Samples per bus bit (40 at 10 MS/s on a 250 kb/s bus).
    threshold:
        ADC-count value bisecting the rising edge ("38,000 is a good
        starting point" for 16-bit captures).
    prefix_len / suffix_len:
        Samples kept before / after each threshold crossing.
    n_edge_sets:
        How many edge sets to extract and average (Section 5.2; 1 in the
        base algorithm).
    edge_set_spacing:
        Sample distance between the starting points of consecutive edge
        sets when ``n_edge_sets > 1``.
    frame_format:
        Extended (J1939, the paper's vehicles) or standard frames
        (Section 6.1 future work).  Selects the identity-field bit
        positions and the first stable bit.
    """

    bit_width: float
    threshold: float
    prefix_len: int = 2
    suffix_len: int = 14
    n_edge_sets: int = 1
    edge_set_spacing: int = 250
    frame_format: FrameFormat = FrameFormat.EXTENDED

    def __post_init__(self) -> None:
        if self.bit_width < 4:
            raise ExtractionError(
                f"bit width {self.bit_width} too small to synchronise on"
            )
        if self.prefix_len < 0 or self.suffix_len < 1:
            raise ExtractionError("prefix must be >= 0 and suffix >= 1")
        if self.n_edge_sets < 1:
            raise ExtractionError("n_edge_sets must be at least 1")
        if self.n_edge_sets > 1 and self.edge_set_spacing < 1:
            raise ExtractionError("edge_set_spacing must be positive")

    @property
    def edge_set_length(self) -> int:
        """Dimensionality of one extracted edge set (two edge windows)."""
        return 2 * (self.prefix_len + self.suffix_len)

    @classmethod
    def for_trace(
        cls,
        trace: VoltageTrace,
        *,
        threshold: float | None = None,
        n_edge_sets: int = 1,
        frame_format: FrameFormat = FrameFormat.EXTENDED,
    ) -> "ExtractionConfig":
        """Derive constants for a trace's rate / resolution.

        Scales the paper's 10 MS/s reference constants (prefix 2, suffix
        14, 250-sample spacing) with the actual sample rate, and places
        the threshold at 1 V on the trace's ADC code axis.
        """
        fs = trace.sample_rate
        if threshold is None:
            adc = AdcConfig(resolution_bits=trace.resolution_bits)
            threshold = adc.volts_to_counts(REFERENCE_THRESHOLD_V)
        prefix = max(1, round(REFERENCE_PREFIX_S * fs))
        suffix = max(2, round(REFERENCE_SUFFIX_S * fs))
        spacing = max(1, round(REFERENCE_EDGE_SET_SPACING_S * fs))
        return cls(
            bit_width=trace.samples_per_bit,
            threshold=float(threshold),
            prefix_len=prefix,
            suffix_len=suffix,
            n_edge_sets=n_edge_sets,
            edge_set_spacing=spacing,
            frame_format=frame_format,
        )

    def with_threshold(self, threshold: float) -> "ExtractionConfig":
        """Copy with a different edge threshold (Section 5.1)."""
        return replace(self, threshold=float(threshold))


@dataclass(frozen=True)
class ExtractedEdgeSet:
    """Result of Algorithm 1 for one message.

    Attributes
    ----------
    source_address:
        J1939 SA decoded from logical bits 24-31.
    vector:
        The edge-set feature vector (mean of ``n_edge_sets`` windows).
    metadata:
        Ground-truth annotations copied from the trace.
    """

    source_address: int
    vector: np.ndarray
    metadata: dict[str, Any]

    @property
    def identity(self) -> int:
        """Generic sender-identity key.

        Equals the J1939 SA for extended frames and the 11-bit CAN
        identifier for standard frames (Section 6.1 adaptation).
        """
        return self.source_address


def get_bit_value(sample: float, threshold: float) -> int:
    """GetBitValue from Algorithm 1: dominant (high voltage) decodes as 0."""
    return 0 if sample >= threshold else 1


def extract_edge_set(trace: VoltageTrace, config: ExtractionConfig) -> ExtractedEdgeSet:
    """Run Algorithm 1 on one trace.

    Observability: times into ``vprofile_stage_seconds{stage="extract"}``
    when a metrics registry is enabled (no-op otherwise).

    Raises
    ------
    ExtractionError
        If the trace is too short, no SOF is found, or a stuff violation
        is encountered.
    """
    with stage_timer("extract"):
        return _extract_edge_set_vector(trace, config)


def _extract_edge_set_vector(
    trace: VoltageTrace, config: ExtractionConfig
) -> ExtractedEdgeSet:
    """Edge-index walker: byte-identical to the scalar reference walker.

    The scalar walker touches the trace one sample at a time — a
    per-sample backward scan at every observed edge and three per-sample
    forward scans per edge window.  This implementation thresholds the
    whole trace once, locates every polarity change with one
    ``flatnonzero`` pass, and replaces all sample scans with O(log E)
    lookups into that edge index array.  The bit walk itself (run
    lengths, stuff-bit bookkeeping, SA decoding) is unchanged: each bit
    centre samples the same thresholded value the scalar walker would,
    and re-centering lands on the same crossing (the start of the
    polarity run containing the sampled index, clamped to the scalar
    scan's ``floor`` guard).

    A NaN sample compares false against the threshold both ways, so the
    scalar scans treat it as neither dominant nor recessive.  Traces with
    NaN samples get a second edge index over "not strictly recessive"
    (dominant or NaN), which the scans for a dominant sample and the
    backward scan over recessive samples use; for every other trace the
    two indexes are the same object.
    """
    # No float copy of the whole trace: comparing against a float64
    # threshold casts each sample exactly as a float64 copy would, and
    # the edge windows are converted on their own.
    samples = np.asarray(trace.counts)
    n_values = samples.size
    threshold = np.float64(config.threshold)
    bit_width = config.bit_width
    half_bit = bit_width / 2.0
    id_last_bit = config.frame_format.id_last_bit
    first_stable_bit = config.frame_format.first_stable_bit

    above, edges = _edge_index(samples >= threshold)
    if above[:1] == b"\x01":
        sof = 0
    elif edges:
        sof = edges[0]  # the first run is recessive, so its end is the SOF
    else:
        raise ExtractionError("no start-of-frame found (trace never dominant)")
    if trace.counts.dtype.kind == "f" and np.isnan(samples).any():
        stop, stop_edges = _edge_index(~(samples < threshold))
    else:
        stop, stop_edges = above, edges

    pos = sof + half_bit
    index = int(round(pos))
    if index < 0 or index >= n_values:
        raise ExtractionError(f"bit walk ran off the trace at sample {index}")
    bit_values: list[int] = [0 if above[index] else 1]
    if bit_values[0] != 0:
        raise ExtractionError("sample at SOF centre is not dominant")

    prev_bit = 0
    run_length = 1
    bit_count = 0
    source_address: int | None = None
    extraction_start: float | None = None

    while pos + bit_width < n_values:
        pos += bit_width
        index = int(round(pos))
        if index >= n_values:
            raise ExtractionError(f"bit walk ran off the trace at sample {index}")
        bit = 0 if above[index] else 1
        is_stuff = False
        if bit != prev_bit:
            # Re-centre on the observed edge: back over the run of
            # new-polarity samples ending just before `index`, clamped to
            # the scalar scan's floor.  For a dominant bit that is the
            # start of the polarity run containing `index`.
            floor = max(0, int(round(pos - bit_width)))
            if bit == 0:
                k = bisect_right(edges, index)
                run_start = edges[k - 1] if k else 0
            elif index and not stop[index - 1]:
                k = bisect_right(stop_edges, index - 1)
                run_start = stop_edges[k - 1] if k else 0
            else:
                run_start = index
            pos = float(max(run_start, floor)) + half_bit
            if run_length == 5:
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
        windows.append(
            _extract_window_pair_vector(
                samples, (above, edges), (stop, stop_edges), start, config
            )
        )
        start = extraction_start + (k + 1) * config.edge_set_spacing
    vector = np.mean(windows, axis=0) if len(windows) > 1 else windows[0]

    return ExtractedEdgeSet(
        source_address=source_address,
        vector=np.asarray(vector, dtype=float),
        metadata=dict(trace.metadata),
    )


#: Target padded working-set size (samples + run tables) of one columnar
#: extraction block; the row count per block is derived from the longest
#: trace so short traces amortise per-op numpy dispatch over more rows.
_COLUMNAR_BLOCK_BUDGET = 8_000_000  # elements, ~64 MB of float64
_COLUMNAR_BLOCK_MIN = 256
_COLUMNAR_BLOCK_MAX = 4096

# Error codes carried per-row through the columnar walker; formatted into
# the exact scalar-walker message strings by _format_columnar_error.
_ERR_NO_SOF = 1
_ERR_SOF_NOT_DOMINANT = 2
_ERR_RAN_OFF = 3
_ERR_STUFF = 4
_ERR_ENDED = 5
_ERR_EDGE_SEARCH = 6
_ERR_WINDOW = 7


def extract_edge_sets_batch(
    traces: Sequence[VoltageTrace], config: ExtractionConfig
) -> list[ExtractedEdgeSet | ExtractionError]:
    """Columnar Algorithm 1: walk every trace of a batch in lockstep.

    Returns one outcome per input trace, in order: the extracted edge set,
    or the exact :class:`ExtractionError` the scalar walker would have
    raised for that trace.  All traces advance one wire bit per loop
    iteration as numpy row vectors (position, run length, bit count,
    decoded identity), so the Python-level loop runs ~45 times per *batch*
    instead of ~45 times per *message*.  Rows that finish or fail are
    frozen by masks; outputs are byte-identical to the scalar walker.
    """
    if not traces:
        return []
    longest = max(np.asarray(t.counts).size for t in traces)
    block_rows = max(
        _COLUMNAR_BLOCK_MIN,
        min(_COLUMNAR_BLOCK_MAX, _COLUMNAR_BLOCK_BUDGET // max(1, longest)),
    )
    out: list[ExtractedEdgeSet | ExtractionError] = []
    for lo in range(0, len(traces), block_rows):
        block = list(traces[lo : lo + block_rows])
        with stage_timer("extract"):
            out.extend(_extract_columnar_block(block, config))
    return out


def _extract_columnar_block(
    traces: list[VoltageTrace], config: ExtractionConfig
) -> list[ExtractedEdgeSet | ExtractionError]:
    n_rows = len(traces)
    counts = [np.asarray(t.counts) for t in traces]
    lengths = np.array([c.size for c in counts], dtype=np.int64)
    s_max = int(lengths.max()) if n_rows else 0
    first_stable = config.frame_format.first_stable_bit
    if s_max == 0:
        return [
            ExtractionError("no start-of-frame found (trace never dominant)")
            for _ in traces
        ]

    # Padding is -inf: it thresholds to recessive for any finite
    # threshold, so no separate validity mask is needed, and the padding
    # boundary of a dominant-ending trace shows up as a polarity change —
    # the window scans fail there exactly like the scalar walker's
    # off-the-end checks, because positions >= length always fail.
    if int(lengths.min()) == s_max:
        # Equal-length block (the engine's common case): no padding to
        # write, so one stacked conversion replaces the per-row fills.
        samples = np.stack(counts).astype(np.float64)
    else:
        samples = np.full((n_rows, s_max), -np.inf)
        for g, row in enumerate(counts):
            samples[g, : row.size] = row

    threshold = config.threshold
    bit_width = config.bit_width
    half_bit = bit_width / 2.0
    id_first = config.frame_format.id_first_bit
    id_last = config.frame_format.id_last_bit

    big = s_max + 1
    above = samples >= threshold
    run_start, next_change = _run_tables(above, big)
    # NaN is neither dominant nor recessive to the scalar scans: see
    # _extract_edge_set_vector.  `stop` marks the samples that are not
    # strictly recessive; without NaN it is `above`.
    if any(c.dtype.kind == "f" for c in counts) and np.isnan(samples).any():
        stop = ~(samples < threshold)
        stop_run_start, stop_next_change = _run_tables(stop, big)
    else:
        stop, stop_run_start, stop_next_change = above, run_start, next_change

    rows = np.arange(n_rows)
    flat_base = rows.astype(np.int64) * s_max
    above_flat = above.reshape(-1)
    run_start_flat = run_start.reshape(-1)
    stop_flat = stop.reshape(-1)
    stop_run_start_flat = stop_run_start.reshape(-1)
    err = np.zeros(n_rows, dtype=np.int8)
    e1 = np.zeros(n_rows, dtype=np.int64)
    e2 = np.zeros(n_rows, dtype=np.int64)

    # --- SOF ---------------------------------------------------------
    sof = above.argmax(axis=1)
    has_sof = above_flat.take(flat_base + sof)
    err[~has_sof] = _ERR_NO_SOF
    pos = sof.astype(np.float64) + half_bit
    index = np.rint(pos).astype(np.int64)
    oob = has_sof & ((index < 0) | (index >= lengths))
    err[oob] = _ERR_RAN_OFF
    e1[oob] = index[oob]
    ok = has_sof & ~oob
    idx_safe = np.minimum(index, s_max - 1)
    np.maximum(idx_safe, 0, out=idx_safe)
    recessive_sof = ok & ~above_flat.take(flat_base + idx_safe)
    err[recessive_sof] = _ERR_SOF_NOT_DOMINANT
    active = ok & ~recessive_sof

    # --- bit walk ----------------------------------------------------
    # prev_bit is the *thresholded polarity* (True = recessive), matching
    # the scalar walker's 0/1 bits through the invert in `bit`.
    prev_bit = np.zeros(n_rows, dtype=bool)
    run_length = np.ones(n_rows, dtype=np.int64)
    bit_count = np.zeros(n_rows, dtype=np.int64)
    identity = np.zeros(n_rows, dtype=np.int64)
    ext_start = np.zeros(n_rows, dtype=np.float64)
    done = np.zeros(n_rows, dtype=bool)

    while True:
        advanced = pos + bit_width
        ended = active & ~(advanced < lengths)
        if ended.any():
            err[ended] = _ERR_ENDED
            e1[ended] = bit_count[ended]
            active &= ~ended
        if not active.any():
            break
        pos = np.where(active, advanced, pos)
        index = np.rint(pos).astype(np.int64)
        ran_off = active & (index >= lengths)
        if ran_off.any():
            err[ran_off] = _ERR_RAN_OFF
            e1[ran_off] = index[ran_off]
            active &= ~ran_off
        np.minimum(index, s_max - 1, out=index)
        flat = flat_base + index
        # bit: True = recessive (decodes as 1), False = dominant.
        bit = ~above_flat.take(flat)
        changed = active & (bit != prev_bit)

        # Changed rows re-centre, clamped to the scalar floor: dominant
        # rows on the start of the run containing `index`, recessive rows
        # back over the strictly recessive samples ending before it.
        if changed.any():
            floor = np.rint(pos - bit_width).astype(np.int64)
            np.maximum(floor, 0, out=floor)
            before = flat - (index > 0)
            recessive_start = np.where(
                stop_flat.take(before), index, stop_run_start_flat.take(before)
            )
            crossing = np.where(bit, recessive_start, run_start_flat.take(flat))
            np.maximum(crossing, floor, out=crossing)
            pos = np.where(changed, crossing + half_bit, pos)
        is_stuff = changed & (run_length == 5)
        same = active ^ changed          # changed is a subset of active
        run_length += same               # bool adds 1 where polarity held
        run_length[changed] = 1
        # Inactive rows are never read again, so a global rebind is safe
        # and active-same rows already satisfy prev_bit == bit.
        prev_bit = bit
        violation = same & (run_length == 6)
        if violation.any():
            err[violation] = _ERR_STUFF
            e1[violation] = pos[violation].astype(np.int64)
            active &= ~violation

        append = active & ~is_stuff
        bit_count += append
        in_id = append & (bit_count >= id_first) & (bit_count <= id_last)
        if in_id.any():
            identity[in_id] = identity[in_id] * 2 + bit[in_id]
        finished = append & (bit_count == first_stable)
        if finished.any():
            ext_start[finished] = pos[finished]
            done |= finished
            active &= ~finished

    # --- edge windows ------------------------------------------------
    samples_flat = samples.reshape(-1)
    next_change_flat = next_change.reshape(-1)
    stop_next_change_flat = stop_next_change.reshape(-1)

    def _advance(p: np.ndarray, want_above: bool) -> tuple[np.ndarray, np.ndarray]:
        """First index >= p of the wanted polarity, per row (or `big`).

        If ``p`` already matches it is returned unchanged; otherwise the
        run containing ``p`` has the wrong polarity, and because runs
        alternate the first change strictly after ``p`` starts the
        wanted run.  Any answer at or past the row's real length fails —
        the scalar scans would have run off the trace there.
        """
        # Like the scalar scans, a search for a dominant sample stops at
        # any sample that is not strictly recessive (NaN included).
        if want_above:
            flags_flat, changes_flat = stop_flat, stop_next_change_flat
        else:
            flags_flat, changes_flat = above_flat, next_change_flat
        p_safe = np.minimum(p, s_max - 1)
        np.maximum(p_safe, 0, out=p_safe)
        direct = (p < lengths) & (flags_flat.take(flat_base + p_safe) == want_above)
        after = np.minimum(p + 1, s_max - 1)
        np.maximum(after, 0, out=after)
        nxt = np.where(p + 1 < s_max, changes_flat.take(flat_base + after), big)
        new_p = np.where(direct, p, nxt)
        return new_p, new_p >= lengths

    prefix, suffix = config.prefix_len, config.suffix_len
    window_offsets = np.arange(-prefix, suffix, dtype=np.int64)
    ok_window = done.copy()
    window_sets: list[np.ndarray] = []
    for k in range(config.n_edge_sets):
        p = np.rint(ext_start + k * config.edge_set_spacing).astype(np.int64)
        p, fail = _advance(p, True)                      # reach dominant
        bad = ok_window & fail
        err[bad] = _ERR_EDGE_SEARCH
        ok_window &= ~fail
        p, fail = _advance(p, False)                     # falling crossing
        bad = ok_window & fail
        err[bad] = _ERR_EDGE_SEARCH
        ok_window &= ~fail
        lo_f = p - prefix
        hi_f = p + suffix
        bad = ok_window & ((lo_f < 0) | (hi_f > lengths))
        err[bad] = _ERR_WINDOW
        e1[bad] = lo_f[bad]
        e2[bad] = hi_f[bad]
        ok_window &= ~bad
        gather = flat_base[:, None] + np.clip(
            p[:, None] + window_offsets[None, :], 0, s_max - 1
        )
        falling = samples_flat.take(gather)
        p = np.rint(p + half_bit).astype(np.int64)
        p, fail = _advance(p, True)                      # rising crossing
        bad = ok_window & fail
        err[bad] = _ERR_EDGE_SEARCH
        ok_window &= ~fail
        lo_r = p - prefix
        hi_r = p + suffix
        bad = ok_window & ((lo_r < 0) | (hi_r > lengths))
        err[bad] = _ERR_WINDOW
        e1[bad] = lo_r[bad]
        e2[bad] = hi_r[bad]
        ok_window &= ~bad
        gather = flat_base[:, None] + np.clip(
            p[:, None] + window_offsets[None, :], 0, s_max - 1
        )
        rising = samples_flat.take(gather)
        window_sets.append(np.concatenate([falling, rising], axis=1))

    if config.n_edge_sets > 1:
        # Axis-0 reduce over the stacked sets adds the slabs in the same
        # sequential order as the scalar walker's np.mean over (k, W).
        vectors = np.mean(np.stack(window_sets, axis=0), axis=0)
    else:
        vectors = window_sets[0]

    out: list[ExtractedEdgeSet | ExtractionError] = []
    for g, trace in enumerate(traces):
        if err[g]:
            out.append(
                ExtractionError(
                    _format_columnar_error(
                        int(err[g]), int(e1[g]), int(e2[g]),
                        int(lengths[g]), first_stable,
                    )
                )
            )
        else:
            out.append(
                ExtractedEdgeSet(
                    source_address=int(identity[g]),
                    vector=vectors[g].copy(),
                    metadata=dict(trace.metadata),
                )
            )
    return out


def _run_tables(flags: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample run tables of a thresholded ``(rows, samples)`` block.

    ``run_start[g, i]`` is the first sample of the run containing ``i`` —
    exactly where the scalar backward scan stops (before its floor
    clamp).  ``next_change[g, i]`` is the smallest run start ``>= i``, or
    ``big``; it replaces the scalar forward sample scans: runs alternate,
    so the first change after a wrong-polarity position starts the
    wanted run.
    """
    # change[g, i]: a run starts at sample i (i >= 1).
    change = np.zeros(flags.shape, dtype=bool)
    change[:, 1:] = flags[:, 1:] != flags[:, :-1]
    cols = np.arange(flags.shape[1], dtype=np.int32)
    run_start = np.where(change, cols[None, :], np.int32(0))
    np.maximum.accumulate(run_start, axis=1, out=run_start)
    # The suffix-min runs over a contiguous reversed copy — accumulating
    # through a negative-stride view hits the slow path.
    rev = np.flip(np.where(change, cols[None, :], np.int32(big)), axis=1).copy()
    np.minimum.accumulate(rev, axis=1, out=rev)
    return run_start, np.flip(rev, axis=1).copy()


def _format_columnar_error(
    code: int, a: int, b: int, n: int, first_stable: int
) -> str:
    """The exact scalar-walker message for a columnar per-row error code."""
    if code == _ERR_NO_SOF:
        return "no start-of-frame found (trace never dominant)"
    if code == _ERR_SOF_NOT_DOMINANT:
        return "sample at SOF centre is not dominant"
    if code == _ERR_RAN_OFF:
        return f"bit walk ran off the trace at sample {a}"
    if code == _ERR_STUFF:
        return f"stuff violation near sample {a}: six identical bits"
    if code == _ERR_ENDED:
        return (
            f"trace ended after {a} logical bits; need "
            f"{first_stable} plus an edge set"
        )
    if code == _ERR_EDGE_SEARCH:
        return "edge search ran off the end of the trace"
    return f"edge window [{a}, {b}) exceeds the trace ({n} samples)"


def extract_many(
    traces: Sequence[VoltageTrace],
    config: ExtractionConfig | None = None,
    *,
    skip_failures: bool = False,
    index_base: int = 0,
) -> list[ExtractedEdgeSet]:
    """Extract edge sets from many traces.

    A single config derived from the first trace is reused when none is
    given.  With ``skip_failures`` unextractable traces are dropped
    (useful for noisy scenario sweeps); otherwise the first failure
    raises, annotated with the failing message's index (offset by
    ``index_base`` so parallel chunks report run-global positions) and
    its sample offset in the capture.
    """
    results, skipped = extract_many_indexed(
        traces,
        config,
        skip_failures=skip_failures,
        index_base=index_base,
    )
    if skipped:
        from repro.obs import get_registry

        get_registry().counter(
            "vprofile_extraction_skipped_total",
            help="Traces dropped by extract_many(skip_failures=True)",
        ).inc(len(skipped))
    return results


def extract_many_indexed(
    traces: Sequence[VoltageTrace],
    config: ExtractionConfig | None = None,
    *,
    skip_failures: bool = False,
    index_base: int = 0,
) -> tuple[list[ExtractedEdgeSet], list[tuple[int, str]]]:
    """:func:`extract_many` plus the skip ledger, without counting.

    Returns ``(results, skipped)`` where ``skipped`` lists
    ``(global_message_index, reason)`` for every dropped trace.  Worker
    processes use this instead of :func:`extract_many` so skip counts
    survive the process boundary: the parent folds the ledgers into the
    ``vprofile_extraction_skipped_total`` counter exactly once.
    """
    if not traces:
        return [], []
    if config is None:
        config = ExtractionConfig.for_trace(traces[0])
    outcomes: list[ExtractedEdgeSet | ExtractionError]
    if len(traces) > 1:
        # The batch size picks the walker.  The columnar walker pays its
        # numpy set-up once per block, so a block of one costs 2.6 ms/msg
        # on Vehicle A traces against 87 us/msg for the per-message walker
        # (stream chunks complete 0 or 1 messages each); over a whole
        # capture it wins instead: batch-detect runs ~1390 msg/s columnar
        # and ~1240 msg/s per-message (2-core host).
        outcomes = extract_edge_sets_batch(traces, config)
    else:
        try:
            outcomes = [extract_edge_set(traces[0], config)]
        except ExtractionError as exc:
            outcomes = [exc]
    results: list[ExtractedEdgeSet] = []
    skipped: list[tuple[int, str]] = []
    for offset, outcome in enumerate(outcomes):
        if isinstance(outcome, ExtractionError):
            if not skip_failures:
                trace = traces[offset]
                raise ExtractionError(
                    f"message {index_base + offset} "
                    f"(sample offset {int(round(trace.start_s * trace.sample_rate))})"
                    f": {outcome}"
                ) from outcome
            skipped.append((index_base + offset, str(outcome)))
        else:
            results.append(outcome)
    return results, skipped


def cluster_threshold(trace: VoltageTrace) -> float:
    """Per-cluster extraction threshold (Section 5.1).

    The mean of the maximum and minimum of the *first half* of the
    message — the second half is excluded because the ACK slot voltage,
    driven by a different ECU, can deviate significantly.
    """
    samples = np.asarray(trace.counts, dtype=float)
    half = samples[: max(1, samples.size // 2)]
    return float((half.max() + half.min()) / 2.0)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _decode_identity(bit_values: list[int], frame_format: FrameFormat) -> int:
    """Decode the sender-identity field (MSB first).

    The J1939 SA (bits 24-31) for extended frames, or the whole 11-bit
    identifier (bits 1-11) for standard frames.
    """
    first, last = frame_format.id_first_bit, frame_format.id_last_bit
    id_bits = bit_values[first : last + 1]
    if len(id_bits) != last - first + 1:
        raise ExtractionError("not enough bits decoded to recover the sender id")
    value = 0
    for bit in id_bits:
        value = (value << 1) | bit
    return value


def _advance_to_polarity(
    above: bytes, edges: list[int], pos: int, want_above: bool
) -> int:
    """First index ``>= pos`` whose thresholded polarity is ``want_above``.

    Replays the scalar walker's forward sample scan over the edge index:
    if ``pos`` already matches it is returned unchanged, otherwise the
    next polarity run of the wanted sign starts at one of the following
    edges (runs alternate, so at most two are inspected).  Raises the
    scan's off-the-end error when no such sample exists.
    """
    n = len(above)
    if pos < n and bool(above[pos]) == want_above:
        return pos
    k = bisect_right(edges, pos)
    while k < len(edges):
        edge = edges[k]
        if bool(above[edge]) == want_above:
            return edge
        k += 1
    raise ExtractionError("edge search ran off the end of the trace")


def _edge_index(flags: np.ndarray) -> tuple[bytes, list[int]]:
    """A thresholded trace as bytes, plus the first sample of every run.

    bytes indexing returns small ints at ~list speed without the O(n)
    float boxing of tolist(); ``edges[k]`` is the first sample of the
    k-th run (exactly where the scalar backward scan stops).
    """
    return flags.tobytes(), (np.flatnonzero(flags[:-1] != flags[1:]) + 1).tolist()


def _extract_window_pair_vector(
    samples: np.ndarray,
    dominant: tuple[bytes, list[int]],
    stop: tuple[bytes, list[int]],
    start: float,
    config: ExtractionConfig,
) -> np.ndarray:
    """ExtractEdgeSet from Algorithm 1: windows at the next two crossings.

    From ``start`` (inside or before a dominant region): skip any
    recessive run, skip the dominant run to its falling crossing, window
    it; advance half a bit, find the next rising crossing, window it.
    """
    n = samples.size
    pos = int(round(start))
    if pos >= n:
        raise ExtractionError("edge search ran off the end of the trace")
    pos = _advance_to_polarity(*stop, pos, True)           # reach dominant
    pos = _advance_to_polarity(*dominant, pos, False)      # falling crossing
    falling = _window(samples, pos, config)
    pos = int(round(pos + config.bit_width / 2.0))
    pos = _advance_to_polarity(*stop, pos, True)           # rising crossing
    rising = _window(samples, pos, config)
    return np.concatenate([falling, rising])


def _window(samples: np.ndarray, pos: int, config: ExtractionConfig) -> np.ndarray:
    lo = pos - config.prefix_len
    hi = pos + config.suffix_len
    if lo < 0 or hi > samples.size:
        raise ExtractionError(
            f"edge window [{lo}, {hi}) exceeds the trace ({samples.size} samples)"
        )
    return samples[lo:hi].astype(float)
