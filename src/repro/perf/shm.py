"""Zero-copy chunk hand-off over POSIX shared memory.

:mod:`repro.perf.parallel` workers used to pickle whole
:class:`~repro.acquisition.trace.VoltageTrace` lists back to the parent —
every sample array serialized, copied through a pipe, and deserialized.
This module replaces that hand-off: a worker packs its chunk's sample
arrays into one :class:`multiprocessing.shared_memory.SharedMemory`
segment and returns only a tiny :class:`ShmChunk` descriptor (segment
name, dtype, per-array lengths).  The parent attaches the segment and
reassembles ``np.ndarray`` views without copying a byte.

Lifecycle (crash-safe by construction)
--------------------------------------
* The **worker** creates the segment, copies its rows in, closes its own
  mapping, and unregisters the name from its ``resource_tracker`` —
  ownership transfers to the descriptor.  If the worker dies *before*
  the unregister, its tracker unlinks the segment on exit.
* The **parent** attaches through :class:`SharedArena` which immediately
  ``unlink``\\ s the name: the kernel frees the pages as soon as the last
  mapping closes, so even ``SIGKILL`` leaves nothing behind in
  ``/dev/shm``.  When the last view dies, a ``weakref.finalize`` hook
  parks the mapping on the dead list (the hook runs *during* the view
  base's deallocation, while its buffer export is still alive, so
  closing there would always raise ``BufferError``); the next arena
  operation — :meth:`SharedArena.attach`, :meth:`SharedArena.sweep`,
  :meth:`SharedArena.close`, or the ``atexit`` sweep — unmaps it.
* Segments that cannot be closed (a view still borrows the buffer at
  interpreter shutdown) are counted in the leak metric rather than
  silently dropped, and their mapping is handed over to the views: it is
  unmapped when the last view dies, and ``SharedMemory.__del__`` never
  tries to close a buffer that is still exported.

All accounting is exported under literal ``vprofile_perf_shm_*`` metric
names (VPL401).
"""

from __future__ import annotations

import atexit
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

import numpy as np

from repro.errors import PerfError
from repro.obs import get_registry

#: Shared-memory hand-off counters/gauges, spelled as constants so the
#: metric namespace stays literal and grep-able (VPL401).
SHM_SEGMENTS_METRIC = "vprofile_perf_shm_segments_total"
SHM_BYTES_METRIC = "vprofile_perf_shm_bytes_total"
SHM_OPEN_METRIC = "vprofile_perf_shm_segments_open"
SHM_LEAKED_METRIC = "vprofile_perf_shm_segments_leaked_total"

@dataclass(frozen=True)
class ShmChunk:
    """Descriptor of one packed chunk: everything but the bytes.

    Attributes
    ----------
    name:
        Kernel name of the shared segment holding the concatenated rows.
    dtype:
        Numpy dtype string shared by every row.
    lengths:
        Element count of each row, in order; offsets are the prefix sums.
    """

    name: str
    dtype: str
    lengths: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(sum(self.lengths)) * np.dtype(self.dtype).itemsize


def pack_arrays(arrays: Sequence[np.ndarray]) -> ShmChunk:
    """Copy 1-D arrays of one dtype into a fresh shared segment.

    Called in the worker.  On return the worker holds no mapping and its
    resource tracker no longer knows the name: the returned descriptor
    is the sole owner, and the parent's :class:`SharedArena` must attach
    (and unlink) it exactly once.
    """
    if not arrays:
        raise PerfError("cannot pack an empty chunk")
    dtype = arrays[0].dtype
    for a in arrays:
        if a.ndim != 1:
            raise PerfError(f"only 1-D arrays can be packed, got shape {a.shape}")
        if a.dtype != dtype:
            raise PerfError(
                f"mixed dtypes in one chunk: {dtype} vs {a.dtype}"
            )
    lengths = tuple(int(a.size) for a in arrays)
    total = sum(lengths) * dtype.itemsize
    segment = shared_memory.SharedMemory(create=True, size=max(1, total))
    try:
        flat = np.frombuffer(segment.buf, dtype=dtype, count=sum(lengths))
        offset = 0
        for a in arrays:
            flat[offset : offset + a.size] = a
            offset += a.size
        del flat
        descriptor = ShmChunk(
            name=segment.name, dtype=dtype.str, lengths=lengths
        )
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    segment.close()
    # Ownership moves to the descriptor; without this the worker's
    # resource tracker would unlink the segment under the parent.
    resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    return descriptor


class SharedArena:
    """Parent-side lifecycle manager for attached segments.

    ``attach`` maps a descriptor, unlinks the kernel name right away
    (crash safety: the pages die with the last mapping), and returns
    zero-copy row views.  When the last view is garbage collected the
    mapping moves to the dead list and is unmapped by the next arena
    operation (:meth:`attach` sweeps on entry); :meth:`close`
    force-closes whatever remains and counts still-borrowed segments as
    leaks.  One process-wide instance (:func:`get_arena`) is swept at
    interpreter exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._dead: list[shared_memory.SharedMemory] = []

    def attach(self, chunk: ShmChunk) -> list[np.ndarray]:
        """Map a descriptor and return its rows as zero-copy views."""
        self.sweep()
        try:
            segment = shared_memory.SharedMemory(name=chunk.name)
        except FileNotFoundError as exc:
            raise PerfError(
                f"shared segment {chunk.name!r} has vanished (worker died "
                f"before hand-off, or the chunk was attached twice)"
            ) from exc
        registry = get_registry()
        registry.counter(
            SHM_SEGMENTS_METRIC, help="Shared-memory chunks handed off"
        ).inc()
        registry.counter(
            SHM_BYTES_METRIC, help="Bytes handed off through shared memory"
        ).inc(chunk.nbytes)
        with self._lock:
            self._segments[chunk.name] = segment
        self._set_open_gauge()
        # The name is not needed anymore: mappings keep the pages alive.
        segment.unlink()
        # The parent's resource tracker never owned this segment; the
        # attach above must not re-register it (Python >= 3.13 attaches
        # with track=False, older versions do not register on attach).
        total = sum(chunk.lengths)
        base = np.frombuffer(segment.buf, dtype=np.dtype(chunk.dtype), count=total)
        base.flags.writeable = False
        # Not at exit: weakref.finalize would otherwise fire the release
        # for views that are still alive, and the exit-time close() must
        # see those segments to count and hand them over.
        weakref.finalize(base, self._release, chunk.name).atexit = False
        views: list[np.ndarray] = []
        offset = 0
        for length in chunk.lengths:
            views.append(base[offset : offset + length])
            offset += length
        return views

    def _release(self, name: str) -> None:
        """Park one mapping once its last view has been collected.

        Runs as a ``weakref.finalize`` callback *during* the base
        array's deallocation — the buffer export it holds on the
        mapping is released only after the callback returns, so closing
        here would raise ``BufferError`` every time.  The segment moves
        to the dead list instead; :meth:`sweep` unmaps it.
        """
        with self._lock:
            segment = self._segments.pop(name, None)
            if segment is None:
                return
            self._dead.append(segment)
        self._set_open_gauge()

    def sweep(self) -> int:
        """Unmap segments whose last view has been collected.

        Returns how many mappings were closed.  A segment that still
        reports a borrowed buffer (its base array is mid-collection on
        another thread) stays parked for the next sweep.
        """
        with self._lock:
            dead, self._dead = self._dead, []
        closed = 0
        survivors: list[shared_memory.SharedMemory] = []
        for segment in dead:
            try:
                segment.close()
                closed += 1
            except BufferError:  # pragma: no cover - mid-collection race
                survivors.append(segment)
        if survivors:
            with self._lock:
                self._dead.extend(survivors)
        return closed

    def close(self) -> int:
        """Force-close every remaining mapping; returns the leak count.

        Dead-list segments are swept first.  Segments whose buffers are
        still borrowed by live views cannot be unmapped now — they are
        counted as leaked and handed over to their views
        (:func:`_hand_over`), which unmap them when the last view dies
        (every name was already unlinked at attach time, so nothing
        outlives the process either way).
        """
        self.sweep()
        with self._lock:
            segments = list(self._segments.items())
            self._segments.clear()
        leaked = 0
        for _name, segment in segments:
            try:
                segment.close()
            except BufferError:
                leaked += 1
                _hand_over(segment)
        if leaked:
            get_registry().counter(
                SHM_LEAKED_METRIC,
                help="Shared segments whose views outlived the arena",
            ).inc(leaked)
        self._set_open_gauge()
        return leaked

    @property
    def open_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def _set_open_gauge(self) -> None:
        get_registry().gauge(
            SHM_OPEN_METRIC, help="Shared segments currently mapped"
        ).set(self.open_segments)


def _hand_over(segment: shared_memory.SharedMemory) -> None:
    """Leave a still-borrowed mapping to the views that borrow it.

    The views' base array holds the segment's memoryview, which holds
    the mmap, so the pages stay mapped exactly as long as a view lives
    and are unmapped by the last one's deallocation.  Dropping the
    segment's own references turns its ``close()`` — and therefore its
    ``__del__``, which would otherwise raise ``BufferError`` against the
    exported buffer (at interpreter exit, every time) — into closing
    the file descriptor only.
    """
    segment._buf = None  # type: ignore[attr-defined]  # noqa: SLF001
    segment._mmap = None  # type: ignore[attr-defined]  # noqa: SLF001
    segment.close()


_ARENA = SharedArena()


def get_arena() -> SharedArena:
    """The process-wide arena used by the engine's parallel hand-off."""
    return _ARENA


@atexit.register
def _sweep_arena() -> None:  # pragma: no cover - interpreter shutdown
    _ARENA.close()


__all__ = [
    "ShmChunk",
    "SharedArena",
    "pack_arrays",
    "get_arena",
    "SHM_SEGMENTS_METRIC",
    "SHM_BYTES_METRIC",
    "SHM_OPEN_METRIC",
    "SHM_LEAKED_METRIC",
]
