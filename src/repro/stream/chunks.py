"""Chunked sample ingestion: the front door of the streaming runtime.

A live voltage IDS never sees a whole capture at once — the digitizer
hands over fixed-size blocks of ADC samples and the detector must keep
up.  This module defines the :class:`SampleChunk` unit of ingestion, the
:class:`ChunkSource` protocol the runtime consumes, and two adapters:

* :class:`ReplaySource` — re-chunk a continuous capture (or a saved
  trace archive) so recorded sessions can be replayed through the
  streaming path, exactly like the paper replays its truck captures;
* :class:`LiveSource` — a simulated digitizer hanging off a synthetic
  vehicle's bus: frames are synthesised lazily, placed at their bus
  times, and the idle gaps are filled with the recessive level, so
  memory stays bounded no matter how long the session runs.

Sources are restartable: ``chunks(start_chunk=k)`` re-iterates from
chunk ``k``, which is what checkpoint/resume builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.acquisition.adc import AdcConfig
from repro.acquisition.archive import PathOrFile, load_traces
from repro.acquisition.segmentation import assemble_stream
from repro.acquisition.trace import VoltageTrace
from repro.analog.environment import NOMINAL_ENVIRONMENT, Environment
from repro.can.bus import CanBus
from repro.can.traffic import TrafficGenerator
from repro.errors import StreamError
from repro.vehicles.profiles import DEFAULT_TRUNCATE_BITS, VehicleConfig

#: Default ingestion unit: 4096 samples ≈ 102 bus bits at the paper's
#: 10 MS/s / 250 kb/s reference point — a little under one frame.
DEFAULT_CHUNK_SAMPLES = 4096


@dataclass(frozen=True)
class SampleChunk:
    """One block of contiguous digitizer samples.

    Attributes
    ----------
    counts:
        ADC codes, offset binary, 1-D.
    seq:
        Position of this chunk in the stream (0-based, contiguous).
    start_s:
        Bus time of the first sample.
    sample_rate / resolution_bits / bitrate:
        Capture parameters, constant across one stream.
    """

    counts: np.ndarray
    seq: int
    start_s: float
    sample_rate: float
    resolution_bits: int
    bitrate: float

    def __len__(self) -> int:
        return int(self.counts.size)


@runtime_checkable
class ChunkSource(Protocol):
    """Anything the streaming runtime can ingest from.

    Implementations expose the stream's capture parameters and a
    restartable chunk iterator; ``metadata`` is inherited by every
    message the extractor cuts out of the stream.
    """

    sample_rate: float
    resolution_bits: int
    bitrate: float
    metadata: dict[str, Any]

    def chunks(self, start_chunk: int = 0) -> Iterator[SampleChunk]:
        """Iterate chunks in order, starting at chunk ``start_chunk``.

        Raises :class:`StreamError` when ``start_chunk`` is past the
        source's last chunk; starting exactly at the end yields nothing.
        """
        ...


@dataclass
class ReplaySource:
    """Replay a continuous capture as a chunk stream.

    The replay adapter is the bridge between the batch world (archives,
    :func:`segment_capture`) and the streaming runtime: the same samples
    flow through either path, which is what the chunk-boundary
    equivalence tests pin down.
    """

    stream: VoltageTrace
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.chunk_samples < 1:
            raise StreamError(f"chunk_samples must be >= 1, got {self.chunk_samples}")
        if not self.metadata:
            self.metadata = dict(self.stream.metadata)

    @property
    def sample_rate(self) -> float:
        return self.stream.sample_rate

    @property
    def resolution_bits(self) -> int:
        return self.stream.resolution_bits

    @property
    def bitrate(self) -> float:
        return self.stream.bitrate

    @property
    def n_chunks(self) -> int:
        return -(-len(self.stream) // self.chunk_samples)

    @classmethod
    def from_traces(
        cls,
        traces: list[VoltageTrace],
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> "ReplaySource":
        """Assemble per-message traces into one stream and replay it."""
        return cls(assemble_stream(traces), chunk_samples)

    @classmethod
    def from_archive(
        cls, path: PathOrFile, chunk_samples: int = DEFAULT_CHUNK_SAMPLES
    ) -> "ReplaySource":
        """Replay a saved ``.npz`` trace archive (path or binary file)."""
        return cls.from_traces(load_traces(path), chunk_samples)

    def chunks(self, start_chunk: int = 0) -> Iterator[SampleChunk]:
        n_chunks = self.n_chunks
        _check_start(start_chunk, n_chunks)
        stream = self.stream
        samples, size = stream.counts, self.chunk_samples
        start_s, fs = stream.start_s, stream.sample_rate
        resolution_bits, bitrate = stream.resolution_bits, stream.bitrate
        for seq in range(start_chunk, n_chunks):
            lo = seq * size
            yield SampleChunk(
                counts=samples[lo : lo + size],
                seq=seq,
                start_s=start_s + lo / fs,
                sample_rate=fs,
                resolution_bits=resolution_bits,
                bitrate=bitrate,
            )


def _check_start(start_chunk: int, n_chunks: int) -> None:
    """Reject a resume past the end: it would stream nothing and look fine."""
    if start_chunk > n_chunks:
        raise StreamError(
            f"cannot start at chunk {start_chunk}: the source has only "
            f"{n_chunks} chunks"
        )


@dataclass
class LiveSource:
    """A simulated digitizer attached to a synthetic vehicle's bus.

    Traffic is scheduled through the shared :class:`CanBus`, each frame
    is rendered through its sender's transceiver and the vehicle's
    capture chain *on demand*, and the inter-frame gaps are filled with
    the recessive idle level — the source never materialises more than
    one pending frame plus one chunk of samples.

    ``jobs`` switches frame rendering to the :mod:`repro.perf` engine:
    all traces are pre-rendered (batched per sender, fanned out over
    workers with per-message seeding) before chunk assembly starts.
    That trades the lazy path's bounded memory for throughput, and —
    like the engine everywhere else — draws per-message seeds, so the
    sample stream differs from the lazy path's shared-generator stream
    but is itself reproducible for any job count.
    """

    vehicle: VehicleConfig
    duration_s: float
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES
    seed: int = 0
    env: Environment = NOMINAL_ENVIRONMENT
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS
    metadata: dict[str, Any] = field(default_factory=dict)
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise StreamError(f"duration must be positive, got {self.duration_s}")
        if self.chunk_samples < 1:
            raise StreamError(f"chunk_samples must be >= 1, got {self.chunk_samples}")
        if not self.metadata:
            self.metadata = {"vehicle": self.vehicle.name, "source": "live"}

    @property
    def sample_rate(self) -> float:
        return self.vehicle.sample_rate

    @property
    def resolution_bits(self) -> int:
        return self.vehicle.resolution_bits

    @property
    def bitrate(self) -> float:
        return self.vehicle.bitrate

    def chunks(self, start_chunk: int = 0) -> Iterator[SampleChunk]:
        """Synthesise the session and emit it chunk by chunk.

        Resume (``start_chunk > 0``) replays the deterministic
        simulation and discards the leading chunks: the sample stream is
        identical to the uninterrupted run because every random draw
        (payloads, jitter, channel noise) is seeded.
        """
        vehicle = self.vehicle
        fs = vehicle.sample_rate
        total_samples = int(round(self.duration_s * fs))
        _check_start(start_chunk, -(-total_samples // self.chunk_samples))
        rng = np.random.default_rng(self.seed)
        generator = TrafficGenerator(
            schedules=[
                (ecu.name, schedule)
                for ecu in vehicle.ecus
                for schedule in ecu.schedules
            ],
            seed=self.seed,
        )
        bus = CanBus(bitrate=vehicle.bitrate)
        transmissions = bus.schedule(generator.frames_until(self.duration_s))
        chain = vehicle.capture_chain(self.truncate_bits)
        transceivers = {ecu.name: ecu.transceiver for ecu in vehicle.ecus}

        prerendered: list[VoltageTrace] | None = None
        if self.jobs is not None:
            from repro.perf.engine import render_transmissions

            prerendered = render_transmissions(
                vehicle,
                transmissions,
                env=self.env,
                seed=self.seed,
                truncate_bits=self.truncate_bits,
                jobs=self.jobs,
            )

        idle_code = int(round(AdcConfig(
            resolution_bits=vehicle.resolution_bits
        ).volts_to_counts(0.0)))

        pending: list[np.ndarray] = []
        buffered = 0
        cursor = 0  # absolute index of the next sample to synthesise
        emitted_chunks = 0
        dtype = np.int32

        def flush() -> Iterator[SampleChunk]:
            nonlocal pending, buffered, emitted_chunks
            while buffered >= self.chunk_samples:
                block = np.concatenate(pending) if len(pending) > 1 else pending[0]
                counts = block[: self.chunk_samples]
                rest = block[self.chunk_samples :]
                pending = [rest] if rest.size else []
                buffered = int(rest.size)
                seq = emitted_chunks
                emitted_chunks += 1
                if seq >= start_chunk:
                    yield SampleChunk(
                        counts=counts,
                        seq=seq,
                        start_s=seq * self.chunk_samples / fs,
                        sample_rate=fs,
                        resolution_bits=vehicle.resolution_bits,
                        bitrate=vehicle.bitrate,
                    )

        for tx_index, tx in enumerate(transmissions):
            if prerendered is not None:
                trace = prerendered[tx_index]
            else:
                trace = chain.capture_frame(
                    tx.frame,
                    transceivers[tx.sender],
                    env=self.env,
                    rng=rng,
                    start_s=tx.start_s,
                )
            index = max(int(round(tx.start_s * fs)), cursor)
            if index >= total_samples:
                break
            dtype = trace.counts.dtype
            if index > cursor:
                pending.append(np.full(index - cursor, idle_code, dtype=dtype))
                buffered += index - cursor
            counts = trace.counts
            if index + counts.size > total_samples:
                counts = counts[: total_samples - index]
            pending.append(counts)
            buffered += counts.size
            cursor = index + counts.size
            yield from flush()

        if cursor < total_samples:
            pending.append(np.full(total_samples - cursor, idle_code, dtype=dtype))
            buffered += total_samples - cursor
            cursor = total_samples
        yield from flush()
        if buffered:  # final partial chunk
            block = np.concatenate(pending) if len(pending) > 1 else pending[0]
            seq = emitted_chunks
            if seq >= start_chunk:
                yield SampleChunk(
                    counts=block,
                    seq=seq,
                    start_s=seq * self.chunk_samples / fs,
                    sample_rate=fs,
                    resolution_bits=vehicle.resolution_bits,
                    bitrate=vehicle.bitrate,
                )
