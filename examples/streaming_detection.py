"""Online streaming detection, interrupted and resumed mid-stream.

A deployed voltage IDS never sees a whole capture: the digitizer hands
over fixed-size sample chunks and the detector has to keep up, survive
restarts, and keep its alert sequence consistent across them.  This
example:

1. trains a pipeline on a clean capture of the two-ECU Sterling twin;
2. streams fresh traffic through the runtime with in-flight
   hijack injection, printing the alerts as they come out;
3. kills the run partway through, then resumes from the checkpoint and
   shows the combined run reproduces the uninterrupted one exactly.
"""

import itertools
import tempfile
from dataclasses import replace

from repro.core import PipelineConfig, VProfilePipeline
from repro.stream import ReplaySource, StreamConfig, StreamRuntime
from repro.vehicles import capture_session, sterling_acterra
from repro.acquisition import assemble_stream


class InterruptedSource:
    """Wrap a source but stop after ``n`` chunks — a simulated crash."""

    def __init__(self, inner, n):
        self.inner, self.n = inner, n

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def chunks(self, start_chunk=0):
        return itertools.islice(
            self.inner.chunks(start_chunk), max(0, self.n - start_chunk)
        )


def main() -> None:
    # Reduced sample rate keeps the example quick; the runtime is
    # rate-agnostic.
    vehicle = replace(sterling_acterra(), sample_rate=2_000_000.0)

    print(f"Training on 4 s of clean {vehicle.name} traffic...")
    pipeline = VProfilePipeline(
        PipelineConfig(margin=5.0, sa_clusters=vehicle.sa_clusters)
    )
    pipeline.train(capture_session(vehicle, 4.0, seed=1).traces)

    stream = assemble_stream(capture_session(vehicle, 2.0, seed=2).traces)
    source = ReplaySource(stream, chunk_samples=4096)
    attack = dict(hijack_probability=0.25, hijack_seed=7)

    print(f"\nStreaming {source.n_chunks} chunks with SA-hijack injection...")
    full = pipeline.stream(source, StreamConfig(**attack))
    for alert in full.alerts.alerts[:5]:
        print(f"  ALERT t={alert.timestamp_s:.4f}s SA 0x{alert.can_id:02X} "
              f"{alert.reason}")
    print(f"  ... {len(full.alerts)} alerts total, "
          f"{full.messages} messages at {full.frames_per_s:.0f} frames/s")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        cut = source.n_chunks // 2
        print(f"\nRe-running, 'crashing' after chunk {cut}, checkpointing "
              f"every 50 chunks...")
        part = StreamRuntime(
            _fresh(pipeline), StreamConfig(
                checkpoint_dir=checkpoint_dir,
                checkpoint_every_chunks=50, **attack,
            )
        ).run(InterruptedSource(source, cut))
        print(f"  interrupted after {part.messages} messages "
              f"({part.checkpoints} checkpoints)")

        rest = StreamRuntime(
            _fresh(pipeline), StreamConfig(**attack)
        ).run(source, resume=checkpoint_dir)
        print(f"  resumed: {rest.messages} more messages")

    combined = part.verdicts + rest.verdicts
    identical = len(combined) == full.messages and all(
        a.seq == b.seq and a.result == b.result
        for a, b in zip(combined, full.verdicts)
    )
    print(f"\ninterrupted+resumed == uninterrupted: {identical}")
    assert identical


def _fresh(trained: VProfilePipeline) -> VProfilePipeline:
    """An untrained pipeline with the same config (the resume target)."""
    pipeline = VProfilePipeline(trained.config)
    if trained.model is not None:
        pipeline.load_model(trained.model, trained.extraction)
    return pipeline


if __name__ == "__main__":
    main()
