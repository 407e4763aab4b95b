"""Deterministic process-parallel fan-out primitives.

Parallelism must never change results, so seeding is content-addressed:
message *i* of a run always draws from
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`` — the same
child NumPy's ``SeedSequence(seed).spawn(n)[i]`` would produce — no
matter which worker renders it or how the work is chunked.  Workers
therefore need only ``(seed, index range)`` to re-derive their
generators, and reassembling chunk results in submission order restores
the exact serial output.

``REPRO_JOBS`` provides the process-wide default for the CLI ``--jobs``
flag; an explicit flag always wins.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from functools import lru_cache
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import PerfError

#: Environment variable supplying the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int | None:
    """The ``REPRO_JOBS`` default for ``--jobs``, or ``None`` if unset."""
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None or raw.strip() == "":
        return None
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise PerfError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise PerfError(f"{JOBS_ENV_VAR} must be >= 1, got {jobs}")
    return jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit value, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        return default_jobs() or 1
    if jobs < 1:
        raise PerfError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


@lru_cache(maxsize=1 << 16)
def message_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` owned by message ``index``.

    Identical to ``SeedSequence(seed).spawn(n)[index]`` for any
    ``n > index``, but O(1): spawned children differ from their parent
    only by the appended ``spawn_key`` element.  That documented
    equivalence is why the hand-forged child below is waived from
    VPL202 — random access to message ``index`` must not spawn (and
    throw away) ``index`` siblings first.

    The cache is sound because :class:`~numpy.random.SeedSequence` is
    immutable and ``generate_state`` is pure — every ``default_rng``
    built from the shared instance sees the same entropy pool.  Repeat
    captures of one run seed (golden re-renders, cache-miss/hit pairs)
    skip the per-message entropy hashing entirely.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))  # vpl: ignore[VPL202]


def spawn_seeds(seed: int, n: int, start: int = 0) -> list[np.random.SeedSequence]:
    """Children ``start .. start+n`` of the run seed, one per message."""
    return [message_seed(seed, start + i) for i in range(n)]


def _apply_chunk(payload: tuple[Callable[[Any], Any], list[Any]]) -> list[Any]:
    func, chunk = payload
    return [func(item) for item in chunk]


def chunk_slices(n_items: int, jobs: int, chunk_size: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` work slices covering ``range(n_items)``.

    Chunks are a few per worker so a slow chunk cannot serialise the
    pool, while staying large enough to amortise pickling.
    """
    if n_items <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(n_items / (jobs * 4)))
    return [(lo, min(lo + chunk_size, n_items)) for lo in range(0, n_items, chunk_size)]


# Pools are warm state, not per-call scaffolding: forking workers costs
# tens of milliseconds, which would dwarf a zero-copy hand-off.  One
# executor per worker count lives for the process (or until
# shutdown_pools()), guarded by a lock for thread-safe laziness.
_POOL_LOCK = threading.Lock()
_POOLS: dict[int, ProcessPoolExecutor] = {}


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor for ``workers`` processes (lazily forked)."""
    if workers < 1:
        raise PerfError(f"workers must be >= 1, got {workers}")
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            # Workers render noise with scipy.signal.lfilter, and
            # scipy.signal imports scipy.optimize (~0.7 s).  Importing
            # that before the fork lets every fresh worker inherit it.
            # The rest of scipy.signal stays in the workers: here it
            # would add ~27 MiB to every process that starts a pool.
            import scipy.optimize  # noqa: F401

            pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Tear down every persistent pool (tests, or to reclaim workers)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    with _POOL_LOCK:
        for workers, known in list(_POOLS.items()):
            if known is pool:
                del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    func: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> list[Any]:
    """``[func(x) for x in items]`` fanned out over worker processes.

    ``func`` must be a module-level (picklable) callable.  Items are
    grouped into contiguous chunks, dispatched to a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` (workers stay warm
    across calls), and reassembled in submission order, so the result is
    exactly the serial list.  With ``jobs=1`` (or a single item)
    everything runs inline — no pool, no pickling.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(items) <= 1:
        return [func(item) for item in items]
    slices = chunk_slices(len(items), jobs, chunk_size)
    payloads = [(func, items[lo:hi]) for lo, hi in slices]
    pool = get_pool(min(jobs, len(payloads)))
    try:
        chunked = list(pool.map(_apply_chunk, payloads))
    except BrokenExecutor:
        # A dead worker poisons the whole executor; retire it and retry
        # once on a fresh pool before giving up.
        _drop_pool(pool)
        pool = get_pool(min(jobs, len(payloads)))
        chunked = list(pool.map(_apply_chunk, payloads))
    return [result for chunk in chunked for result in chunk]


def rngs_for_slice(
    seed: int, lo: int, hi: int
) -> list[np.random.Generator]:
    """Per-message generators for messages ``lo .. hi`` of a run."""
    return [np.random.default_rng(message_seed(seed, i)) for i in range(lo, hi)]


__all__ = [
    "JOBS_ENV_VAR",
    "default_jobs",
    "resolve_jobs",
    "message_seed",
    "spawn_seeds",
    "chunk_slices",
    "get_pool",
    "shutdown_pools",
    "parallel_map",
    "rngs_for_slice",
]
