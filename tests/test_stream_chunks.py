"""Chunk sources: replay partitioning, live synthesis, restartability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.archive import save_traces
from repro.acquisition.segmentation import assemble_stream
from repro.errors import StreamError
from repro.stream import ChunkSource, LiveSource, ReplaySource, SampleChunk


@pytest.fixture(scope="module")
def stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


class TestReplaySource:
    def test_implements_protocol(self, stream):
        assert isinstance(ReplaySource(stream), ChunkSource)

    def test_partitions_exactly(self, stream):
        source = ReplaySource(stream, 4096)
        chunks = list(source.chunks())
        assert len(chunks) == source.n_chunks
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        np.testing.assert_array_equal(
            np.concatenate([c.counts for c in chunks]), stream.counts
        )

    def test_chunk_timing_and_parameters(self, stream):
        source = ReplaySource(stream, 1000)
        chunk = next(iter(source.chunks()))
        assert isinstance(chunk, SampleChunk)
        assert len(chunk) == 1000
        assert chunk.start_s == stream.start_s
        assert chunk.sample_rate == stream.sample_rate
        assert chunk.resolution_bits == stream.resolution_bits
        assert chunk.bitrate == stream.bitrate

    def test_restart_from_chunk(self, stream):
        source = ReplaySource(stream, 4096)
        full = list(source.chunks())
        suffix = list(source.chunks(start_chunk=3))
        assert [c.seq for c in suffix] == [c.seq for c in full[3:]]
        for resumed, original in zip(suffix, full[3:]):
            np.testing.assert_array_equal(resumed.counts, original.counts)

    def test_from_traces_matches_assembled(self, stream_test_session, stream):
        source = ReplaySource.from_traces(stream_test_session.traces, 4096)
        np.testing.assert_array_equal(source.stream.counts, stream.counts)

    def test_from_archive(self, stream_test_session, stream, tmp_path):
        path = tmp_path / "capture.npz"
        save_traces(path, stream_test_session.traces)
        source = ReplaySource.from_archive(path, 4096)
        np.testing.assert_array_equal(source.stream.counts, stream.counts)

    def test_rejects_bad_chunk_size(self, stream):
        with pytest.raises(StreamError):
            ReplaySource(stream, 0)

    def test_start_past_the_end_raises(self, stream):
        source = ReplaySource(stream, 4096)
        n = source.n_chunks
        assert list(source.chunks(start_chunk=n)) == []
        with pytest.raises(StreamError, match=f"chunk {n + 1}: .* only {n} chunks"):
            list(source.chunks(start_chunk=n + 1))


class TestLiveSource:
    @pytest.fixture(scope="class")
    def source(self, stream_vehicle):
        return LiveSource(stream_vehicle, 0.25, chunk_samples=4096, seed=7)

    def test_implements_protocol(self, source):
        assert isinstance(source, ChunkSource)

    def test_emits_exact_duration(self, source, stream_vehicle):
        chunks = list(source.chunks())
        total = sum(len(c) for c in chunks)
        assert total == int(round(0.25 * stream_vehicle.sample_rate))
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        assert all(len(c) == 4096 for c in chunks[:-1])

    def test_deterministic(self, source):
        first = np.concatenate([c.counts for c in source.chunks()])
        second = np.concatenate([c.counts for c in source.chunks()])
        np.testing.assert_array_equal(first, second)

    def test_resume_discards_prefix_only(self, source):
        full = list(source.chunks())
        resumed = list(source.chunks(start_chunk=5))
        assert [c.seq for c in resumed] == [c.seq for c in full[5:]]
        for a, b in zip(resumed, full[5:]):
            np.testing.assert_array_equal(a.counts, b.counts)

    def test_start_past_the_end_raises(self, source):
        n = len(list(source.chunks()))
        assert list(source.chunks(start_chunk=n)) == []
        with pytest.raises(StreamError, match=f"chunk {n + 1}: .* only {n} chunks"):
            list(source.chunks(start_chunk=n + 1))

    def test_contains_traffic_not_just_idle(self, source):
        counts = np.concatenate([c.counts for c in source.chunks()])
        assert counts.max() > counts.min()  # dominant bits present

    def test_rejects_bad_parameters(self, stream_vehicle):
        with pytest.raises(StreamError):
            LiveSource(stream_vehicle, 0.0)
        with pytest.raises(StreamError):
            LiveSource(stream_vehicle, 1.0, chunk_samples=0)
