"""Incremental edge-set extraction over a chunked stream.

:class:`StreamingExtractor` stacks Algorithm 1 on top of the
:class:`StreamingSegmenter`: chunks go in, and every time the recessive
gap after a frame confirms the message is complete, the frame's edge set
comes out — with the bus time of the message attached so downstream
alerting can reference when, not just what.

Equivalence contract: for any chunking of a capture, the emitted edge
sets are byte-identical to running the batch path
(``segment_capture`` then ``extract_many(..., skip_failures=True)``)
over the whole stream, including the derived-default extraction config
(taken from the first segmented message, exactly like the batch helper
derives it from its first trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.acquisition.segmentation import SegmentationConfig
from repro.acquisition.trace import VoltageTrace
from repro.core.edge_extraction import (
    ExtractedEdgeSet,
    ExtractionConfig,
    extract_edge_set,
)
from repro.errors import ExtractionError, StreamError
from repro.stream.chunks import SampleChunk
from repro.stream.segmenter import StreamingSegmenter


@dataclass(frozen=True)
class StreamMessage:
    """One fully-extracted message from the stream.

    Attributes
    ----------
    edge_set:
        Algorithm 1's output for the message.
    start_s:
        Bus time of the message trace's first (padded) sample.
    index:
        Position of the message in the stream (0-based, counts only
        successfully extracted messages).
    """

    edge_set: ExtractedEdgeSet
    start_s: float
    index: int


@dataclass
class ExtractorStats:
    """Counters accumulated by one extractor instance."""

    chunks: int = 0
    samples: int = 0
    messages: int = 0
    extraction_failures: int = 0


class StreamingExtractor:
    """Chunks in, edge sets out, with state carried across boundaries.

    Parameters
    ----------
    extraction:
        Algorithm 1 constants; derived from the first segmented message
        when ``None`` (matching :func:`extract_many`'s default).
    segmentation:
        Message-boundary windows; batch-equivalent default when ``None``.
    skip_failures:
        Drop unextractable messages (counted in ``stats``) instead of
        raising — a live runtime must survive a glitchy frame.
    metadata:
        Inherited by every segmented message trace.
    """

    def __init__(
        self,
        extraction: ExtractionConfig | None = None,
        segmentation: SegmentationConfig | None = None,
        *,
        skip_failures: bool = True,
        metadata: dict[str, Any] | None = None,
    ):
        self.extraction = extraction
        self.skip_failures = skip_failures
        self.segmenter = StreamingSegmenter(segmentation, metadata=metadata)
        self.stats = ExtractorStats()

    def push(self, chunk: SampleChunk) -> list[StreamMessage]:
        """Consume one chunk; return the messages it completed."""
        traces = self.segmenter.push(chunk)
        stats = self.stats
        stats.chunks += 1
        stats.samples += chunk.counts.size
        return self._extract(traces) if traces else []

    def finish(self) -> list[StreamMessage]:
        """Flush the end-of-stream remainder."""
        return self._extract(self.segmenter.finish())

    def _extract(self, traces: list[VoltageTrace]) -> list[StreamMessage]:
        messages: list[StreamMessage] = []
        for trace in traces:
            if self.extraction is None:
                self.extraction = ExtractionConfig.for_trace(trace)
            try:
                edge_set = extract_edge_set(trace, self.extraction)
            except ExtractionError:
                if not self.skip_failures:
                    raise
                self.stats.extraction_failures += 1
                continue
            messages.append(
                StreamMessage(
                    edge_set=edge_set,
                    start_s=trace.start_s,
                    index=self.stats.messages,
                )
            )
            self.stats.messages += 1
        return messages

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Snapshot: segmenter state plus the extractor counters."""
        state = self.segmenter.state_dict()
        state["stats"] = (
            self.stats.chunks,
            self.stats.samples,
            self.stats.messages,
            self.stats.extraction_failures,
        )
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        if "stats" not in state:
            raise StreamError("extractor state is missing its counters")
        self.segmenter.load_state(state)
        chunks, samples, messages, failures = (int(v) for v in state["stats"])
        self.stats = ExtractorStats(
            chunks=chunks,
            samples=samples,
            messages=messages,
            extraction_failures=failures,
        )
