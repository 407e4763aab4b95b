"""High-throughput capture→extraction engine.

Dataset generation — not classification — dominates wall-clock for every
table/figure benchmark: each message walks ``synthesize_waveform`` → ADC
→ ``extract_edge_set`` one at a time.  This package turns that path into
a fast, cached, parallel engine while keeping results reproducible:

* :mod:`repro.perf.batch` — render N same-sender messages in one
  vectorized NumPy pass, byte-identical to per-message synthesis;
* :mod:`repro.perf.parallel` — deterministic ``ProcessPoolExecutor``
  fan-out (chunked work, per-message ``SeedSequence`` children, ordered
  reassembly) plus ``REPRO_JOBS`` resolution for the CLI ``--jobs`` flag;
* :mod:`repro.perf.engine` — the capture/extraction entry points wired
  into datasets, the eval suite and the streaming pre-render path;
* :mod:`repro.perf.cache` — a content-addressed on-disk capture cache
  keyed by (vehicle, capture config, seed, schema version).

Determinism contract: for a fixed seed, every ``jobs`` value, the
pad-batched renderer and per-message rendering, and cache hits vs fresh
simulation all produce byte-identical traces — message *i* always draws from
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, independent
of how messages are grouped into batches or worker chunks.
"""

from __future__ import annotations

from repro.perf.batch import (
    synthesize_waveform_batch,
    synthesize_waveform_matrix,
)
from repro.perf.cache import (
    CACHE_SCHEMA_VERSION,
    CaptureCache,
    capture_cache_key,
    stable_digest,
)
from repro.perf.engine import (
    capture_and_extract,
    capture_session_engine,
    extract_many_parallel,
    render_transmissions,
)
from repro.perf.parallel import (
    default_jobs,
    message_seed,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)

__all__ = [
    "synthesize_waveform_batch",
    "synthesize_waveform_matrix",
    "CaptureCache",
    "CACHE_SCHEMA_VERSION",
    "capture_cache_key",
    "stable_digest",
    "capture_session_engine",
    "capture_and_extract",
    "extract_many_parallel",
    "render_transmissions",
    "parallel_map",
    "resolve_jobs",
    "default_jobs",
    "spawn_seeds",
    "message_seed",
]
