"""Incremental message segmentation across chunk boundaries.

:class:`StreamingSegmenter` is the online counterpart of
:func:`repro.acquisition.segmentation.segment_capture`: it consumes
:class:`SampleChunk` blocks and emits exactly the per-message traces the
batch segmenter would cut out of the concatenated stream — same
boundaries, same padding, same ``start_s``, same sample values.  The
chunk-boundary equivalence tests assert this byte for byte.

The carried state is small and checkpointable:

* a rolling buffer holding the open burst (plus the padding context a
  future burst may need) — everything older is discarded;
* the open burst's start and last-dominant absolute sample indices;
* bursts that are already closed but still waiting for their trailing
  padding samples to arrive.

A burst is *definitively* closed as soon as the recessive run after its
last dominant sample exceeds the idle window: any future dominant sample
would start a new message.  That rule makes emission latency one idle
window (plus trailing padding), independent of chunk size, and keeps
memory bounded by one frame plus two idle windows.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.acquisition.adc import AdcConfig
from repro.acquisition.segmentation import SegmentationConfig
from repro.acquisition.trace import VoltageTrace
from repro.errors import StreamError
from repro.stream.chunks import SampleChunk


def _peak(samples: np.ndarray) -> Any:
    """``samples.max()``, as a Python float for integer samples.

    An integer peak becomes the float64 that NumPy's comparison with the
    float threshold would make, and the Python comparison skips NumPy's
    scalar promotion (about 1.5 µs per chunk); other dtypes keep NumPy's
    rules, which compare a float32 peak in float32.
    """
    peak = samples.max()
    return float(peak) if samples.dtype.kind in "iu" else peak


class StreamingSegmenter:
    """Cut per-message traces out of a chunked sample stream.

    Parameters
    ----------
    config:
        Segmentation windows; when ``None`` the same default as
        :func:`segment_capture` is derived from the first chunk (1 V
        threshold on the stream's ADC code axis).
    metadata:
        Metadata attached to every emitted message trace (the batch
        segmenter inherits it from the stream trace).
    """

    def __init__(
        self,
        config: SegmentationConfig | None = None,
        *,
        metadata: dict[str, Any] | None = None,
    ):
        self.config = config
        self.metadata = dict(metadata or {})
        self._params: tuple[float, int, float] | None = None
        self._stream_start_s = 0.0
        self._min_idle = 0
        self._min_message = 0
        self._padding = 0
        # Rolling buffer: absolute sample index of buffer[0] is _offset.
        self._buffer = np.empty(0)
        self._offset = 0
        self._total = 0          # absolute samples consumed so far
        self._next_seq = 0       # expected chunk sequence number
        # Open burst (dominant activity not yet definitively closed).
        self._burst_start: int | None = None
        self._last_dominant = 0
        # Closed bursts waiting for their trailing padding samples.
        self._pending: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, chunk: SampleChunk) -> list[VoltageTrace]:
        """Consume one chunk; return every message completed by it."""
        # Validate before touching any state: a rejected chunk must leave
        # the segmenter ready for a corrected chunk with the same seq.
        samples = np.asarray(chunk.counts)
        if samples.ndim != 1:
            raise StreamError("chunk counts must be a 1-D sample vector")
        if chunk.seq != self._next_seq:
            raise StreamError(
                f"chunk {chunk.seq} arrived but chunk {self._next_seq} was "
                "expected; chunks must be contiguous and in order"
            )
        params = self._params
        if (
            params is None
            or chunk.sample_rate != params[0]
            or chunk.resolution_bits != params[1]
            or chunk.bitrate != params[2]
        ):
            self._adopt_params(chunk)
        self._next_seq += 1
        if samples.size == 0:
            return []

        config = self.config
        assert config is not None
        if (
            self._burst_start is None
            and not self._pending
            and _peak(samples) < config.threshold
        ):
            # Idle bus with nothing open: the chunk can neither open,
            # extend nor close a message.  One reduction decides that,
            # where the full path below makes four passes over the chunk.
            # Keep the padding tail ``_trim`` would (same values, same
            # dtype promotion), copied so the chunk itself is not pinned.
            self._total += samples.size
            tail = samples[max(samples.size - self._padding, 0):]
            if self._buffer.size and (
                tail.size < self._padding or self._buffer.dtype != tail.dtype
            ):
                tail = np.concatenate([self._buffer, tail])
                tail = tail[max(tail.size - self._padding, 0):]
            self._buffer = tail.copy()
            self._offset = self._total - self._buffer.size
            return []

        base = self._total
        if self._buffer.size:
            self._buffer = np.concatenate([self._buffer, samples])
        else:
            self._buffer = samples
            self._offset = base
        self._total = base + samples.size

        # Dominant runs from the polarity flips: three passes over the
        # chunk, then only run-sized arrays.  Two dominant samples are
        # more than the idle window apart only across a recessive run, so
        # grouping runs groups samples -- unless the window is zero
        # samples wide, when every dominant sample stands alone.
        above = samples >= config.threshold
        flips = np.flatnonzero(above[1:] != above[:-1]) + 1
        bounds = np.concatenate(([0], flips, [samples.size]))
        first = 0 if above[0] else 1
        run_starts = bounds[first:-1:2]
        run_ends = bounds[first + 1 :: 2] - 1
        if self._min_idle < 1:
            run_starts = run_ends = np.flatnonzero(above)
        if run_starts.size:
            cuts = np.flatnonzero(run_starts[1:] - run_ends[:-1] > self._min_idle)
            starts = np.concatenate([run_starts[:1], run_starts[cuts + 1]]) + base
            ends = np.concatenate([run_ends[cuts], run_ends[-1:]]) + base
            if self._burst_start is not None:
                if starts[0] - self._last_dominant > self._min_idle:
                    self._close(self._burst_start, self._last_dominant)
                else:
                    starts[0] = self._burst_start
            for s, e in zip(starts[:-1], ends[:-1]):
                self._close(int(s), int(e))
            self._burst_start = int(starts[-1])
            self._last_dominant = int(ends[-1])
        # The recessive tail may definitively close the open burst: the
        # next dominant sample (index >= _total) would open a new one.
        if (
            self._burst_start is not None
            and self._total - self._last_dominant > self._min_idle
        ):
            self._close(self._burst_start, self._last_dominant)
            self._burst_start = None

        emitted = self._flush(final=False)
        self._trim()
        return emitted

    def finish(self) -> list[VoltageTrace]:
        """Flush end-of-stream state; the stream boundary clamps padding."""
        if self._burst_start is not None:
            self._close(self._burst_start, self._last_dominant)
            self._burst_start = None
        emitted = self._flush(final=True)
        self._buffer = np.empty(0)
        self._offset = self._total
        return emitted

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Serialisable snapshot of the carried segmentation state."""
        if self._params is None:
            raise StreamError("cannot checkpoint before the first chunk")
        assert self.config is not None
        return {
            "buffer": self._buffer.copy(),
            "offset": self._offset,
            "total": self._total,
            "next_seq": self._next_seq,
            "burst_start": -1 if self._burst_start is None else self._burst_start,
            "last_dominant": self._last_dominant,
            "pending": np.asarray(self._pending, dtype=np.int64).reshape(-1, 2),
            "sample_rate": self._params[0],
            "resolution_bits": self._params[1],
            "bitrate": self._params[2],
            "stream_start_s": self._stream_start_s,
            "threshold": self.config.threshold,
            "min_idle_bits": self.config.min_idle_bits,
            "min_message_bits": self.config.min_message_bits,
            "padding_bits": self.config.padding_bits,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.config = SegmentationConfig(
            threshold=float(state["threshold"]),
            min_idle_bits=float(state["min_idle_bits"]),
            min_message_bits=float(state["min_message_bits"]),
            padding_bits=float(state["padding_bits"]),
        )
        self._params = (
            float(state["sample_rate"]),
            int(state["resolution_bits"]),
            float(state["bitrate"]),
        )
        self._stream_start_s = float(state["stream_start_s"])
        self._derive_windows()
        self._buffer = np.asarray(state["buffer"])
        self._offset = int(state["offset"])
        self._total = int(state["total"])
        self._next_seq = int(state["next_seq"])
        burst_start = int(state["burst_start"])
        self._burst_start = None if burst_start < 0 else burst_start
        self._last_dominant = int(state["last_dominant"])
        self._pending = [
            (int(s), int(e)) for s, e in np.asarray(state["pending"]).reshape(-1, 2)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _adopt_params(self, chunk: SampleChunk) -> None:
        params = (chunk.sample_rate, chunk.resolution_bits, chunk.bitrate)
        if self._params is None:
            self._params = params
            self._stream_start_s = chunk.start_s
            if self.config is None:
                adc = AdcConfig(resolution_bits=chunk.resolution_bits)
                self.config = SegmentationConfig(threshold=adc.volts_to_counts(1.0))
            self._derive_windows()
        elif params != self._params:
            raise StreamError(
                f"chunk parameters changed mid-stream: {params} != {self._params}"
            )

    def _derive_windows(self) -> None:
        assert self.config is not None and self._params is not None
        spb = self._params[0] / self._params[2]
        self._min_idle = int(round(self.config.min_idle_bits * spb))
        self._min_message = int(round(self.config.min_message_bits * spb))
        self._padding = int(round(self.config.padding_bits * spb))

    def _close(self, start: int, end: int) -> None:
        if end - start < self._min_message:
            return  # glitch / partial frame, same rule as the batch cut
        self._pending.append((start, end))

    def _flush(self, *, final: bool) -> list[VoltageTrace]:
        emitted: list[VoltageTrace] = []
        while self._pending:
            start, end = self._pending[0]
            hi = end + self._padding + 1
            if hi > self._total:
                if not final:
                    break
                hi = self._total
            self._pending.pop(0)
            lo = max(0, start - self._padding)
            counts = self._buffer[lo - self._offset : hi - self._offset]
            sample_rate, resolution_bits, bitrate = self._params  # type: ignore[misc]
            emitted.append(
                VoltageTrace(
                    counts=counts.copy(),
                    sample_rate=sample_rate,
                    resolution_bits=resolution_bits,
                    bitrate=bitrate,
                    start_s=self._stream_start_s + lo / sample_rate,
                    metadata=dict(self.metadata),
                )
            )
        return emitted

    def _trim(self) -> None:
        """Drop buffer samples nothing can reference any more."""
        keep_from = self._total - self._padding
        if self._burst_start is not None:
            keep_from = min(keep_from, self._burst_start - self._padding)
        for start, _ in self._pending:
            keep_from = min(keep_from, start - self._padding)
        keep_from = max(keep_from, self._offset, 0)
        if keep_from > self._offset:
            self._buffer = self._buffer[keep_from - self._offset :]
            self._offset = keep_from
