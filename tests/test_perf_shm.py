"""Zero-copy hand-off: descriptors, arena lifecycle, leak accounting.

These are the unit-level guarantees behind the engine's shared-memory
path: :func:`~repro.perf.shm.pack_arrays` round-trips bytes exactly,
:class:`~repro.perf.shm.SharedArena` closes every mapping it attaches
(and counts the ones it cannot), and the persistent worker pools hand
out one executor per worker count.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import PerfError
from repro.perf.parallel import get_pool, shutdown_pools
from repro.perf.shm import (
    SHM_BYTES_METRIC,
    SHM_LEAKED_METRIC,
    SHM_OPEN_METRIC,
    SHM_SEGMENTS_METRIC,
    SharedArena,
    ShmChunk,
    get_arena,
    pack_arrays,
)


class TestPackArrays:
    def test_round_trip_is_byte_identical(self):
        rows = [
            np.arange(17, dtype=np.int32),
            np.array([5], dtype=np.int32),
            np.arange(100, 140, dtype=np.int32),
        ]
        chunk = pack_arrays(rows)
        assert chunk.lengths == (17, 1, 40)
        assert chunk.nbytes == (17 + 1 + 40) * 4
        arena = SharedArena()
        views = arena.attach(chunk)
        assert len(views) == len(rows)
        for row, view in zip(rows, views):
            assert view.dtype == row.dtype
            assert np.array_equal(view, row)
        del views, view
        gc.collect()
        assert arena.open_segments == 0
        # The parked mapping is actually unmapped by the next sweep.
        assert arena.sweep() == 1

    def test_views_are_read_only(self):
        chunk = pack_arrays([np.arange(4, dtype=np.float64)])
        arena = SharedArena()
        (view,) = arena.attach(chunk)
        with pytest.raises(ValueError):
            view[0] = 1.0
        del view
        gc.collect()

    def test_empty_chunk_rejected(self):
        with pytest.raises(PerfError):
            pack_arrays([])

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(PerfError):
            pack_arrays([np.zeros(3, dtype=np.int32), np.zeros(3)])

    def test_multidimensional_rows_rejected(self):
        with pytest.raises(PerfError):
            pack_arrays([np.zeros((2, 2))])


class TestArenaLifecycle:
    def test_attach_counts_segments_and_bytes(self):
        registry = obs.MetricsRegistry()
        chunk = pack_arrays([np.arange(8, dtype=np.int64)])
        arena = SharedArena()
        with obs.use_registry(registry):
            views = arena.attach(chunk)
            assert registry.get(SHM_SEGMENTS_METRIC).value == 1
            assert registry.get(SHM_BYTES_METRIC).value == chunk.nbytes
            assert registry.get(SHM_OPEN_METRIC).value == 1
            del views
            gc.collect()
            assert registry.get(SHM_OPEN_METRIC).value == 0
        assert arena.open_segments == 0

    def test_close_with_live_views_counts_leak(self):
        registry = obs.MetricsRegistry()
        chunk = pack_arrays([np.arange(8, dtype=np.int64)])
        arena = SharedArena()
        with obs.use_registry(registry):
            views = arena.attach(chunk)
            # The buffer is still borrowed: close() cannot unmap it and
            # must account for the leak instead of failing.
            assert arena.close() == 1
            assert registry.get(SHM_LEAKED_METRIC).value == 1
            assert registry.get(SHM_OPEN_METRIC).value == 0
        assert np.array_equal(views[0], np.arange(8, dtype=np.int64))
        del views
        gc.collect()

    def test_close_without_views_is_clean(self):
        chunk = pack_arrays([np.arange(8, dtype=np.int64)])
        arena = SharedArena()
        views = arena.attach(chunk)
        del views
        gc.collect()
        assert arena.close() == 0

    def test_vanished_segment_raises(self):
        missing = ShmChunk(name="repro-no-such-segment", dtype="<i8", lengths=(4,))
        arena = SharedArena()
        with pytest.raises(PerfError, match="vanished"):
            arena.attach(missing)

    def test_double_attach_raises(self):
        # attach() unlinks the name immediately, so a second attach of
        # the same descriptor must fail loudly, not alias pages.
        chunk = pack_arrays([np.arange(8, dtype=np.int64)])
        arena = SharedArena()
        views = arena.attach(chunk)
        with pytest.raises(PerfError):
            arena.attach(chunk)
        del views
        gc.collect()

    def test_process_arena_is_shared(self):
        assert get_arena() is get_arena()

    def test_views_alive_at_exit_close_quietly(self):
        """A capture still referenced at interpreter exit leaks its
        segments into the counter, not a ``BufferError`` onto stderr."""
        # The CPU cap is lifted so the two chunks cross the worker
        # boundary (and come back over shared memory) on any host.
        script = textwrap.dedent(
            """
            import repro.perf.engine
            repro.perf.engine._usable_cpus = lambda: 2
            from repro.vehicles.dataset import capture_session
            from repro.vehicles.profiles import vehicle_a
            cap = capture_session(vehicle_a(), 2.0, seed=11, jobs=2)
            keep = lambda: cap
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "BufferError" not in run.stderr
        assert "Exception ignored" not in run.stderr


class TestPersistentPools:
    def test_same_worker_count_reuses_executor(self):
        try:
            assert get_pool(2) is get_pool(2)
            assert get_pool(2) is not get_pool(3)
        finally:
            shutdown_pools()

    def test_shutdown_clears_registry(self):
        first = get_pool(2)
        shutdown_pools()
        try:
            assert get_pool(2) is not first
        finally:
            shutdown_pools()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(PerfError):
            get_pool(0)
