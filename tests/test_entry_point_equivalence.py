"""Every online entry point gives the same verdict bytes.

``VProfilePipeline.process`` (one trace at a time), the streaming
runtime and the fleet ``TenantEngine`` (both through ``ChunkEngine``,
in kernel calls of at most ``batch_size`` messages from one chunk) all
run Algorithm 3 then Algorithm 4 per message, in order, through
``Detector.classify_and_update``.  So for the same
capture they must agree byte for byte, ``min_distance`` and ``slack``
included, however the stream is chunked and batched and whether online
updates are on or off.

The profile store used here is the trained stream model with a decoy
cluster (no SA maps to it) placed beside ECU 0's profile and every
count cut to 3, so each accepted update moves a profile far enough to
flip the prediction of later messages in the same batch.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.core.detection import Detector
from repro.core.edge_extraction import extract_many
from repro.core.model import ClusterProfile, VProfileModel
from repro.core.online_update import OnlineUpdater
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import ExtractionError
from repro.fleet import CaptureParams, TenantEngine
from repro.stream import SampleChunk, StreamConfig

MARGIN = 5.0
#: Every cluster's edge-set count, so that one update moves a profile.
COUNT = 3


@pytest.fixture(scope="module")
def stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


@pytest.fixture(scope="module")
def model_bytes(stream_model_file):
    """The trained model plus a decoy beside cluster 0, counts cut."""
    path, _extraction = stream_model_file
    model = VProfileModel.load(path)
    for cluster in model.clusters:
        cluster.count = COUNT
    own = model.clusters[0]
    offset = 0.5 * np.sqrt(np.diag(own.covariance))
    decoy = ClusterProfile(
        name="decoy",
        mean=own.mean - offset,
        max_distance=own.max_distance,
        count=COUNT,
        covariance=own.covariance.copy(),
        inv_covariance=own.inv_covariance.copy(),
    )
    own.mean = own.mean + offset
    buffer = io.BytesIO()
    VProfileModel(model.metric, [*model.clusters, decoy], model.sa_to_cluster).save(
        buffer
    )
    return buffer.getvalue()


def _model(model_bytes):
    return VProfileModel.load(io.BytesIO(model_bytes))


def _pipeline(model_bytes, stream_vehicle, stream_model_file, online_update):
    pipeline = VProfilePipeline(
        PipelineConfig(
            margin=MARGIN,
            sa_clusters=stream_vehicle.sa_clusters,
            online_update=online_update,
        )
    )
    pipeline.load_model(_model(model_bytes), stream_model_file[1])
    return pipeline


def _result_bytes(result):
    return json.dumps(
        [
            result.source_address,
            result.verdict.value,
            result.reason.value if result.reason else None,
            result.expected_cluster,
            result.predicted_cluster,
            result.min_distance,
            result.slack,
        ]
    )


def _tenant_bytes(verdict):
    keys = ("sa", "verdict", "reason", "expected_cluster", "predicted_cluster",
            "min_distance", "slack")
    return json.dumps([verdict[key] for key in keys])


@pytest.fixture(scope="module")
def process_bytes(stream, model_bytes, stream_vehicle, stream_model_file):
    """``process`` verdicts for each ``online_update`` setting."""
    out = {}
    for online_update in (False, True):
        pipeline = _pipeline(
            model_bytes, stream_vehicle, stream_model_file, online_update
        )
        verdicts = []
        for trace in segment_capture(stream):
            try:
                verdicts.append(_result_bytes(pipeline.process(trace)))
            except ExtractionError:  # the stream path skips these too
                continue
        out[online_update] = verdicts
    return out


def _chunks(stream, sizes):
    chunks = []
    position = 0
    for seq, size in enumerate(sizes):
        if position >= len(stream):
            break
        if seq == len(sizes) - 1:
            size = len(stream) - position
        counts = stream.counts[position : position + size]
        chunks.append(
            SampleChunk(
                counts=counts,
                seq=seq,
                start_s=stream.start_s + position / stream.sample_rate,
                sample_rate=stream.sample_rate,
                resolution_bits=stream.resolution_bits,
                bitrate=stream.bitrate,
            )
        )
        position += len(counts)
    return chunks


class _ChunkList:
    """A chunk source over a pre-cut chunk list."""

    def __init__(self, stream, chunks):
        self.sample_rate = stream.sample_rate
        self.resolution_bits = stream.resolution_bits
        self.bitrate = stream.bitrate
        self.metadata = dict(stream.metadata)
        self._chunks = chunks

    def chunks(self, start_chunk=0):
        return iter(self._chunks[start_chunk:])


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.lists(st.integers(1_000, 1_500_000), min_size=1, max_size=8),
    batch_size=st.integers(1, 64),
    online_update=st.booleans(),
)
@example(sizes=[10**9], batch_size=64, online_update=True)
def test_every_entry_point_gives_the_same_verdict_bytes(
    stream, model_bytes, stream_vehicle, stream_model_file, process_bytes,
    sizes, batch_size, online_update,
):
    chunks = _chunks(stream, sizes)
    pipeline = _pipeline(model_bytes, stream_vehicle, stream_model_file, online_update)
    report = pipeline.stream(
        _ChunkList(stream, chunks), StreamConfig(batch_size=batch_size)
    )
    stream_bytes = [_result_bytes(v.result) for v in report.verdicts]

    engine = TenantEngine(
        "prop",
        vehicle="sterling",
        model=_model(model_bytes),
        params=CaptureParams.for_vehicle(stream_vehicle),
        margin=MARGIN,
        online_update=online_update,
    )
    tenant_bytes = [
        _tenant_bytes(verdict)
        for chunk in chunks
        for verdict in engine.process_chunk(chunk)
    ]

    expected = process_bytes[online_update]
    assert expected
    assert stream_bytes == expected
    # A tenant never sees end-of-stream, so the frame still open after
    # the last chunk gets no verdict.
    assert tenant_bytes == expected[: len(tenant_bytes)]
    assert len(tenant_bytes) >= len(expected) - 1


def test_an_update_flips_a_later_prediction_in_the_same_batch(
    stream, model_bytes, stream_model_file
):
    """The capture above exercises the in-batch update: classifying the
    whole capture as one batch against the model at its start, and
    updating only afterwards, predicts another cluster for some message
    than the sequential kernel does."""
    edge_sets = extract_many(
        segment_capture(stream), stream_model_file[1], skip_failures=True
    )
    vectors = np.stack([e.vector for e in edge_sets])
    sas = [e.source_address for e in edge_sets]

    model = _model(model_bytes)
    results, folded = Detector(model, MARGIN).classify_and_update(
        vectors, sas, OnlineUpdater(model)
    )
    stale = Detector(_model(model_bytes), MARGIN).classify_batch(vectors, sas)
    assert folded > 0
    assert any(
        result.predicted_cluster is not None
        and result.predicted_cluster != stale.predicted_cluster[row]
        for row, result in enumerate(results)
    )
