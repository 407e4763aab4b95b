"""Labelled capture sessions from synthetic vehicles.

Drives the whole substrate stack — traffic generation, bus arbitration,
waveform synthesis, digitisation — to produce the voltage traces the
paper records from its trucks' OBD-II ports.  Ground-truth sender labels
ride along in trace metadata for the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acquisition.trace import VoltageTrace
from repro.analog.environment import NOMINAL_ENVIRONMENT, Environment
from repro.can.bus import CanBus
from repro.can.traffic import TrafficGenerator
from repro.errors import DatasetError
from repro.vehicles.profiles import DEFAULT_TRUNCATE_BITS, VehicleConfig


@dataclass(frozen=True)
class CaptureSession:
    """One recorded drive/idle session.

    Attributes
    ----------
    vehicle:
        The vehicle the session came from.
    traces:
        Digitized messages in bus order; each trace's metadata carries
        ``sender`` (ground truth) and ``frame``.
    environment:
        Conditions during the capture.
    """

    vehicle: VehicleConfig
    traces: list[VoltageTrace]
    environment: Environment

    def __len__(self) -> int:
        return len(self.traces)

    def senders(self) -> list[str]:
        """Ground-truth sender of every trace."""
        return [t.metadata["sender"] for t in self.traces]

    def split(self, train_fraction: float, seed: int = 0) -> tuple[list[VoltageTrace], list[VoltageTrace]]:
        """Random train/test split of the session's traces."""
        if not 0.0 < train_fraction < 1.0:
            raise DatasetError(f"train fraction must be in (0, 1), got {train_fraction}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.traces))
        cut = int(round(train_fraction * len(self.traces)))
        train = [self.traces[i] for i in order[:cut]]
        test = [self.traces[i] for i in order[cut:]]
        return train, test

    def split_time(self, train_fraction: float) -> tuple[list[VoltageTrace], list[VoltageTrace]]:
        """Chronological train/test split.

        Use this instead of :meth:`split` when the consumer cares about
        message timing (period monitors, clock-skew fingerprinting):
        a random split would punch holes into every periodic stream.
        """
        if not 0.0 < train_fraction < 1.0:
            raise DatasetError(f"train fraction must be in (0, 1), got {train_fraction}")
        cut = int(round(train_fraction * len(self.traces)))
        return list(self.traces[:cut]), list(self.traces[cut:])


def capture_session(
    vehicle: VehicleConfig,
    duration_s: float,
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    seed: int = 0,
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS,
    jobs: int | None = None,
    cache=None,
) -> CaptureSession:
    """Record ``duration_s`` of bus traffic under ``env``.

    Messages are released by each ECU's periodic schedule, serialised
    through bitwise arbitration, rendered through the sending ECU's
    transceiver and digitized by the vehicle's capture chain.

    ``jobs``/``cache`` opt into the :mod:`repro.perf` engine (batched
    rendering, worker fan-out, content-addressed caching).  The engine
    seeds each message from its own ``SeedSequence`` child, so its
    traces are reproducible across job counts and cache state but
    differ from this function's default sequential-RNG stream; leave
    both unset to keep legacy seed-pinned captures byte-stable.
    """
    if duration_s <= 0:
        raise DatasetError(f"duration must be positive, got {duration_s}")
    if jobs is not None or cache is not None:
        from repro.perf.engine import capture_session_engine

        return capture_session_engine(
            vehicle,
            duration_s,
            env=env,
            seed=seed,
            truncate_bits=truncate_bits,
            jobs=jobs,
            cache=cache,
        )
    rng = np.random.default_rng(seed)
    generator = TrafficGenerator(
        schedules=[
            (ecu.name, schedule)
            for ecu in vehicle.ecus
            for schedule in ecu.schedules
        ],
        seed=seed,
    )
    bus = CanBus(bitrate=vehicle.bitrate)
    transmissions = bus.schedule(generator.frames_until(duration_s))
    chain = vehicle.capture_chain(truncate_bits)
    transceivers = {ecu.name: ecu.transceiver for ecu in vehicle.ecus}
    traces = [
        chain.capture_frame(
            tx.frame,
            transceivers[tx.sender],
            env=env,
            rng=rng,
            start_s=tx.start_s,
        )
        for tx in transmissions
    ]
    return CaptureSession(vehicle=vehicle, traces=traces, environment=env)


def capture_balanced(
    vehicle: VehicleConfig,
    messages_per_schedule: int,
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    seed: int = 0,
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS,
) -> CaptureSession:
    """Capture a fixed number of messages per schedule, skipping bus timing.

    Controlled experiments (distance tables, enhancement studies) need
    balanced per-ECU counts more than realistic interleaving; this
    bypasses the bus scheduler and synthesises each schedule's frames
    directly, which is also considerably faster.
    """
    if messages_per_schedule < 1:
        raise DatasetError("messages_per_schedule must be at least 1")
    rng = np.random.default_rng(seed)
    chain = vehicle.capture_chain(truncate_bits)
    traces: list[VoltageTrace] = []
    for ecu in vehicle.ecus:
        generator = TrafficGenerator(
            schedules=[(ecu.name, s) for s in ecu.schedules],
            seed=seed + hash(ecu.name) % 10_000,
        )
        horizon = max(s.period_s for s in ecu.schedules) * (messages_per_schedule + 1)
        released = generator.frames_until(horizon)
        per_schedule: dict[int, int] = {}
        for scheduled in released:
            key = scheduled.frame.can_id
            if per_schedule.get(key, 0) >= messages_per_schedule:
                continue
            per_schedule[key] = per_schedule.get(key, 0) + 1
            traces.append(
                chain.capture_frame(
                    scheduled.frame,
                    ecu.transceiver,
                    env=env,
                    rng=rng,
                    start_s=scheduled.release_s,
                )
            )
    return CaptureSession(vehicle=vehicle, traces=traces, environment=env)
