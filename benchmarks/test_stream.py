"""Streaming vs batch throughput.

The streaming runtime exists to keep up with a live digitizer, so its
figure of merit is end-to-end classified frames per second compared to
the offline batch path (segment the whole capture, extract everything,
classify one big vectorised batch).  This benchmark replays one
continuous capture through both paths and reports the ratio, plus the
verdict agreement that makes the comparison honest.

Marked ``slow``: it captures ~20 s of traffic and runs several full
detection passes, so it stays out of the tier-1 suite.
"""

import pytest

from benchmarks.conftest import report, report_json
from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.core.edge_extraction import extract_many
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.stream import ReplaySource, StreamConfig
from repro.vehicles.dataset import capture_session

from time import perf_counter

MARGIN = 5.0


@pytest.fixture(scope="module")
def trained(veh_a):
    train = capture_session(veh_a, 10.0, seed=2000)
    test = capture_session(veh_a, 10.0, seed=2001)
    pipeline = VProfilePipeline(
        PipelineConfig(margin=MARGIN, sa_clusters=veh_a.sa_clusters)
    )
    pipeline.train(train.traces)
    return pipeline, assemble_stream(test.traces)


def _batch_pass(pipeline, stream):
    t0 = perf_counter()
    traces = segment_capture(stream)
    edge_sets = extract_many(traces, pipeline.extraction, skip_failures=True)
    results = [pipeline.detector.classify(e) for e in edge_sets]
    return len(results), perf_counter() - t0, results


@pytest.mark.slow
def test_stream_vs_batch_throughput(trained, benchmark):
    pipeline, stream = trained

    n_batch, batch_s, batch_results = _batch_pass(pipeline, stream)
    batch_fps = n_batch / batch_s

    cfg = StreamConfig(batch_size=16)
    run = pipeline.stream(ReplaySource(stream, 8192), cfg)
    assert run.messages == n_batch
    agreement = all(v.result == r for v, r in zip(run.verdicts, batch_results))
    assert agreement, "streaming verdicts diverged from the batch path"
    fps = run.frames_per_s

    source = ReplaySource(stream, 8192)
    benchmark(lambda: pipeline.stream(source, cfg))

    text = "\n".join([
        "Streaming vs batch throughput (Vehicle A, ~10 s replay)",
        f"  batch : {batch_fps:8.0f} frames/s ({n_batch} messages)",
        f"  stream: {fps:8.0f} frames/s "
        f"({fps / batch_fps:5.2f}x batch, dropped={run.dropped})",
    ])
    report("stream_throughput", text)
    report_json(
        "stream_throughput",
        {
            "batch": {"frames_per_s": batch_fps, "messages": n_batch},
            "stream": [
                {
                    "frames_per_s": fps,
                    "messages": run.messages,
                    "dropped": run.dropped,
                    "speedup_vs_batch": fps / batch_fps,
                }
            ],
            "verdict_agreement": agreement,
        },
    )
