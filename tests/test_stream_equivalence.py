"""Chunk-boundary equivalence: streaming extraction == batch extraction.

The incremental segmenter/extractor must produce *byte-identical* edge
sets to ``segment_capture`` + ``extract_many`` on the concatenated
stream, no matter where the chunk boundaries fall — sub-bit chunks,
chunks that split a frame, chunks spanning many frames, and irregular
random chunkings all land on the same cut points.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.acquisition.adc import AdcConfig
from repro.acquisition.segmentation import (
    SegmentationConfig,
    assemble_stream,
    segment_capture,
)
from repro.acquisition.trace import VoltageTrace
from repro.core.edge_extraction import extract_many
from repro.core.model import VProfileModel
from repro.errors import StreamError
from repro.fleet import CaptureParams, TenantEngine
from repro.fleet.tenant import ALLOWED_DTYPES
from repro.stream import (
    ReplaySource,
    SampleChunk,
    StreamingExtractor,
    StreamingSegmenter,
)


@pytest.fixture(scope="module")
def full_stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


@pytest.fixture(scope="module")
def short_stream(full_stream):
    """~10 frames' worth of samples, cheap enough for 1-sample chunks."""
    counts = full_stream.counts[:60_000]
    return VoltageTrace(
        counts=counts,
        sample_rate=full_stream.sample_rate,
        resolution_bits=full_stream.resolution_bits,
        bitrate=full_stream.bitrate,
        start_s=full_stream.start_s,
        metadata=dict(full_stream.metadata),
    )


def _batch_reference(stream):
    traces = segment_capture(stream)
    return extract_many(traces, None, skip_failures=True), traces


def _stream_messages(stream, chunk_sizes):
    """Push ``stream`` through a fresh extractor with the given cuts."""
    extractor = StreamingExtractor(metadata=dict(stream.metadata))
    messages = []
    position = 0
    for seq, size in enumerate(chunk_sizes):
        counts = stream.counts[position : position + size]
        messages.extend(
            extractor.push(
                SampleChunk(
                    counts=counts,
                    seq=seq,
                    start_s=stream.start_s + position / stream.sample_rate,
                    sample_rate=stream.sample_rate,
                    resolution_bits=stream.resolution_bits,
                    bitrate=stream.bitrate,
                )
            )
        )
        position += len(counts)
        if position >= len(stream):
            break
    messages.extend(extractor.finish())
    return messages


def _assert_equivalent(messages, reference):
    edge_sets, traces = reference
    assert len(messages) == len(edge_sets)
    for message, expected, trace in zip(messages, edge_sets, traces):
        assert message.edge_set.source_address == expected.source_address
        np.testing.assert_array_equal(message.edge_set.vector, expected.vector)
        assert message.start_s == pytest.approx(trace.start_s, abs=0.0)


@pytest.mark.parametrize("chunk_samples", [7, 40, 333, 4096, 100_000])
def test_fixed_chunk_sizes_match_batch(full_stream, chunk_samples):
    reference = _batch_reference(full_stream)
    n_chunks = -(-len(full_stream) // chunk_samples)
    messages = _stream_messages(full_stream, [chunk_samples] * n_chunks)
    _assert_equivalent(messages, reference)


def test_whole_stream_in_one_chunk(full_stream):
    reference = _batch_reference(full_stream)
    messages = _stream_messages(full_stream, [len(full_stream)])
    _assert_equivalent(messages, reference)


@pytest.mark.parametrize("chunk_samples", [1, 3])
def test_sub_sample_chunks_match_batch(short_stream, chunk_samples):
    """Even one-sample chunks reproduce the batch cut points."""
    reference = _batch_reference(short_stream)
    assert reference[0], "short stream must contain extractable frames"
    n_chunks = -(-len(short_stream) // chunk_samples)
    messages = _stream_messages(short_stream, [chunk_samples] * n_chunks)
    _assert_equivalent(messages, reference)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=59_999), max_size=12, unique=True
    )
)
def test_random_irregular_chunking_matches_batch(short_stream, cuts):
    """Property: any partition of the stream yields identical edge sets."""
    total = len(short_stream)
    bounds = [0, *sorted(cuts), total]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    reference = _batch_reference(short_stream)
    messages = _stream_messages(short_stream, sizes)
    _assert_equivalent(messages, reference)


# ----------------------------------------------------------------------
# Fleet eviction equivalence: an evicted-then-rehydrated tenant engine
# reproduces the uninterrupted verdict sequence byte-for-byte.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_chunks(short_stream):
    return list(ReplaySource(short_stream, 4096).chunks())


def _fresh_engine(stream_vehicle, stream_model_file):
    path, _extraction = stream_model_file
    return TenantEngine(
        "prop",
        vehicle="sterling",
        model=VProfileModel.load(path),
        params=CaptureParams.for_vehicle(stream_vehicle),
        margin=5.0,
        online_update=True,
    )


def _verdict_bytes(verdicts):
    return json.dumps(verdicts, sort_keys=True)


@pytest.fixture(scope="module")
def uninterrupted_verdicts(stream_vehicle, stream_model_file, fleet_chunks):
    engine = _fresh_engine(stream_vehicle, stream_model_file)
    verdicts = []
    for chunk in fleet_chunks:
        verdicts.extend(engine.process_chunk(chunk))
    assert verdicts, "reference run must produce verdicts"
    return _verdict_bytes(verdicts)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    evict_after=st.sets(
        st.integers(min_value=-1, max_value=13), min_size=1, max_size=4
    )
)
def test_eviction_is_invisible_in_the_verdict_stream(
    stream_vehicle, stream_model_file, fleet_chunks,
    uninterrupted_verdicts, evict_after,
):
    """Property: evicting (checkpoint + rehydrate) at any set of chunk
    boundaries — including before the first chunk (-1) — leaves the
    verdict sequence byte-identical to the uninterrupted run, online
    profile updates included."""
    engine = _fresh_engine(stream_vehicle, stream_model_file)
    verdicts = []
    with tempfile.TemporaryDirectory() as spill:
        if -1 in evict_after:
            engine.checkpoint(spill)
            engine = TenantEngine.rehydrate(spill)
        for index, chunk in enumerate(fleet_chunks):
            verdicts.extend(engine.process_chunk(chunk))
            if index in evict_after:
                engine.checkpoint(spill)
                engine = TenantEngine.rehydrate(spill)
    assert _verdict_bytes(verdicts) == uninterrupted_verdicts


def test_state_roundtrip_at_every_boundary(short_stream):
    """Serialising and restoring the extractor between every chunk is
    invisible in the output — the checkpoint/resume guarantee."""
    reference = _batch_reference(short_stream)
    chunk = 4096
    source = ReplaySource(short_stream, chunk)
    extractor = StreamingExtractor(metadata=dict(short_stream.metadata))
    messages = []
    for sample_chunk in source.chunks():
        if sample_chunk.seq > 0:  # checkpoints only exist after ingest begins
            state = extractor.state_dict()
            restored = StreamingExtractor(
                extractor.extraction, metadata=dict(short_stream.metadata)
            )
            restored.load_state(state)
            extractor = restored
        messages.extend(extractor.push(sample_chunk))
    messages.extend(extractor.finish())
    _assert_equivalent(messages, reference)


# ----------------------------------------------------------------------
# Idle-bus fast path: a chunk with no dominant sample, arriving while no
# burst is open or pending, only advances the stream and keeps the
# padding tail.  It must leave exactly the state the full path would.
# ----------------------------------------------------------------------
IDLE_GAP_SAMPLES = 10_000


def _chunk(counts, seq, *, start_s=0.0, sample_rate=2_000_000.0,
           resolution_bits=16, bitrate=250_000.0):
    return SampleChunk(
        counts=counts,
        seq=seq,
        start_s=start_s,
        sample_rate=sample_rate,
        resolution_bits=resolution_bits,
        bitrate=bitrate,
    )


@pytest.fixture(scope="module")
def idle_stream(stream_test_session):
    """A few frames spread out over long stretches of idle bus."""
    first = stream_test_session.traces[:4]
    rate = first[0].sample_rate
    spread = [
        replace(trace, start_s=index * IDLE_GAP_SAMPLES / rate)
        for index, trace in enumerate(first)
    ]
    return assemble_stream(spread)


def _padding_samples(stream):
    segmenter = StreamingSegmenter()
    segmenter.push(next(_stream_chunks(stream, [1])))
    return segmenter._padding


def _stream_chunks(stream, sizes):
    """Cut ``stream`` into chunks, cycling through ``sizes``."""
    position = 0
    for seq, size in enumerate(itertools.cycle(sizes)):
        if position >= len(stream):
            return
        yield _chunk(
            stream.counts[position : position + size],
            seq,
            start_s=stream.start_s + position / stream.sample_rate,
            sample_rate=stream.sample_rate,
            resolution_bits=stream.resolution_bits,
            bitrate=stream.bitrate,
        )
        position += size


def _assert_states_equal(restored, original):
    assert restored.keys() == original.keys()
    for key, value in original.items():
        if isinstance(value, np.ndarray):
            assert restored[key].dtype == value.dtype, key
            np.testing.assert_array_equal(restored[key], value)
        else:
            assert restored[key] == value, key


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_idle_stretches_match_batch_with_roundtrip_at_every_boundary(
    idle_stream, data
):
    """Property: chunk sizes below and above the padding, over a stream
    that is mostly idle bus, cut the same traces as ``segment_capture``
    and the state survives a checkpoint at every chunk boundary."""
    padding = _padding_samples(idle_stream)
    assert padding > 1
    below = data.draw(st.lists(st.integers(1, padding - 1), min_size=1, max_size=4))
    above = data.draw(st.lists(st.integers(padding, 2048), min_size=1, max_size=4))
    sizes = data.draw(st.permutations(below + above))

    segmenter = StreamingSegmenter(metadata=dict(idle_stream.metadata))
    traces = []
    for chunk in _stream_chunks(idle_stream, sizes):
        traces.extend(segmenter.push(chunk))
        state = segmenter.state_dict()
        segmenter = StreamingSegmenter(metadata=dict(idle_stream.metadata))
        segmenter.load_state(state)
        _assert_states_equal(segmenter.state_dict(), state)
    traces.extend(segmenter.finish())

    reference = segment_capture(idle_stream)
    assert len(reference) == 4
    assert len(traces) == len(reference)
    for trace, expected in zip(traces, reference):
        assert trace.counts.dtype == expected.counts.dtype
        np.testing.assert_array_equal(trace.counts, expected.counts)
        assert trace.start_s == expected.start_s
    edge_sets = extract_many(traces, None, skip_failures=True)
    expected_sets = extract_many(reference, None, skip_failures=True)
    assert len(edge_sets) == len(expected_sets)
    for edge_set, expected in zip(edge_sets, expected_sets):
        assert edge_set.source_address == expected.source_address
        np.testing.assert_array_equal(edge_set.vector, expected.vector)


@pytest.mark.parametrize("dtype", sorted(ALLOWED_DTYPES))
def test_short_idle_first_chunk_keeps_its_dtype(dtype):
    segmenter = StreamingSegmenter()
    segmenter.push(_chunk(np.zeros(5, dtype=dtype), 0))
    assert 5 < segmenter._padding
    assert segmenter.state_dict()["buffer"].dtype == np.dtype(dtype)
    segmenter.push(_chunk(np.zeros(3, dtype=dtype), 1))
    state = segmenter.state_dict()
    assert state["buffer"].dtype == np.dtype(dtype)
    assert state["buffer"].size == 8
    assert state["offset"] == 0 and state["total"] == 8


def test_idle_chunk_keeps_only_an_unpinned_padding_tail():
    segmenter = StreamingSegmenter()
    chunk = _chunk(np.zeros(4096, dtype=np.int32), 0)
    assert segmenter.push(chunk) == []
    buffer = segmenter._buffer
    assert buffer.size <= segmenter._padding
    assert not np.shares_memory(buffer, chunk.counts)
    state = segmenter.state_dict()
    assert state["offset"] + buffer.size == state["total"] == 4096


def test_rejected_chunk_leaves_the_sequence_intact():
    """A chunk refused for its shape must not consume its seq number, so
    the corrected chunk with the same seq is accepted."""
    segmenter = StreamingSegmenter()
    segmenter.push(_chunk(np.zeros(64, dtype=np.int32), 0))
    with pytest.raises(StreamError):
        segmenter.push(_chunk(np.zeros((2, 32), dtype=np.int32), 1))
    assert segmenter.push(_chunk(np.zeros(64, dtype=np.int32), 1)) == []
    assert segmenter.state_dict()["next_seq"] == 2


def test_rejected_first_chunk_adopts_no_parameters():
    segmenter = StreamingSegmenter()
    with pytest.raises(StreamError):
        segmenter.push(_chunk(np.zeros((2, 32), dtype=np.int32), 0, sample_rate=1e6))
    segmenter.push(_chunk(np.zeros(64, dtype=np.int32), 0))
    assert segmenter.state_dict()["sample_rate"] == 2_000_000.0


def test_idle_chunks_of_mixed_dtypes_promote_like_the_full_path():
    """The buffer dtype after a run of idle chunks is what concatenating
    every chunk would give, whatever the chunk sizes."""
    segmenter = StreamingSegmenter()
    segmenter.push(_chunk(np.zeros(4096, dtype=np.int32), 0))
    segmenter.push(_chunk(np.zeros(4096, dtype=np.int16), 1))
    assert segmenter.state_dict()["buffer"].dtype == np.int32
    segmenter.push(_chunk(np.zeros(3, dtype=np.int64), 2))
    assert segmenter.state_dict()["buffer"].dtype == np.int64


@pytest.mark.parametrize("min_idle_bits", [0.01, 1.0])
def test_narrow_idle_windows_match_batch(short_stream, min_idle_bits):
    """Idle windows of zero and of a few samples, where the grouping of
    dominant runs differs most from the grouping of dominant samples."""
    stream = replace(short_stream, counts=short_stream.counts[:6000])
    config = SegmentationConfig(
        threshold=AdcConfig(resolution_bits=stream.resolution_bits).volts_to_counts(1.0),
        min_idle_bits=min_idle_bits,
        min_message_bits=0.01,
        padding_bits=0.5,
    )
    reference = segment_capture(stream, config)
    assert len(reference) > 1
    segmenter = StreamingSegmenter(config, metadata=dict(stream.metadata))
    traces = []
    for chunk in _stream_chunks(stream, [97, 5, 1024]):
        traces.extend(segmenter.push(chunk))
    traces.extend(segmenter.finish())
    assert len(traces) == len(reference)
    for trace, expected in zip(traces, reference):
        np.testing.assert_array_equal(trace.counts, expected.counts)
        assert trace.start_s == expected.start_s
