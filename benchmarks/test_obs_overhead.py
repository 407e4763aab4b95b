"""Telemetry overhead on the streaming hot path.

The longitudinal telemetry layer (time-series store + health monitor +
flight recorder) rides the same chunk loop that must keep up with a
live digitizer, so its figure of merit is the throughput it costs: the
acceptance bar for the layer is **< 5% frames/s loss** against an
identical run with telemetry disabled.

Marked ``slow``: several full replay passes per configuration, kept out
of the tier-1 suite.
"""

import pytest

from benchmarks.conftest import report, report_json
from repro.acquisition.segmentation import assemble_stream
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.stream import ReplaySource, StreamConfig, TelemetryConfig
from repro.vehicles.dataset import capture_session

MARGIN = 5.0
PASSES = 5  # best-of-N damps scheduler noise on shared runners
OVERHEAD_BUDGET = 0.05


@pytest.fixture(scope="module")
def trained(veh_a):
    train = capture_session(veh_a, 8.0, seed=2100)
    test = capture_session(veh_a, 8.0, seed=2101)
    pipeline = VProfilePipeline(
        PipelineConfig(margin=MARGIN, sa_clusters=veh_a.sa_clusters)
    )
    pipeline.train(train.traces)
    return pipeline, assemble_stream(test.traces)


def _best_fps(pipeline, stream, config):
    best = 0.0
    messages = 0
    for _ in range(PASSES):
        run = pipeline.stream(ReplaySource(stream, 8192), config)
        best = max(best, run.frames_per_s)
        messages = run.messages
    return best, messages


@pytest.mark.slow
def test_telemetry_overhead_under_budget(trained, tmp_path_factory):
    pipeline, stream = trained
    flight_dir = tmp_path_factory.mktemp("flight")

    plain = StreamConfig(batch_size=16)
    telemetered = StreamConfig(
        batch_size=16,
        telemetry=TelemetryConfig(flight_dir=flight_dir),
    )

    base_fps, messages = _best_fps(pipeline, stream, plain)
    telemetry_fps, _ = _best_fps(pipeline, stream, telemetered)

    overhead = 1.0 - telemetry_fps / base_fps

    lines = [
        "Streaming telemetry overhead (Vehicle A, ~8 s replay)",
        f"  plain     : {base_fps:8.0f} frames/s ({messages} messages)",
        f"  telemetry : {telemetry_fps:8.0f} frames/s "
        f"(timeseries + health + flight recorder)",
        f"  overhead  : {overhead * 100:+5.1f}%  (budget {OVERHEAD_BUDGET * 100:.0f}%)",
    ]
    report("obs_overhead", "\n".join(lines))
    report_json(
        "obs_overhead",
        {
            "plain_fps": base_fps,
            "telemetry_fps": telemetry_fps,
            "overhead": overhead,
            "budget": OVERHEAD_BUDGET,
            "messages": messages,
            "passes": PASSES,
        },
    )

    assert overhead < OVERHEAD_BUDGET, (
        f"telemetry costs {overhead * 100:.1f}% throughput "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )
