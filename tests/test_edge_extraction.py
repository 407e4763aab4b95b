"""Algorithm 1: edge-set extraction and SA decoding from waveforms."""

from dataclasses import replace

import numpy as np
import pytest

from repro.acquisition.adc import AdcConfig
from repro.acquisition.sampler import CaptureChain
from repro.acquisition.trace import VoltageTrace
from repro.analog.channel import QUIET_CHANNEL
from repro.analog.transceiver import EdgeDynamics, TransceiverParams
from repro.analog.waveform import SynthesisConfig
from repro.can.frame import CanFrame
from repro.can.j1939 import J1939Id
from repro.core.edge_extraction import (
    ExtractionConfig,
    cluster_threshold,
    extract_edge_set,
    extract_many,
    get_bit_value,
)
from repro.errors import ExtractionError
from tests import extraction_oracle as oracle

TRX = TransceiverParams(
    name="E",
    v_dominant=2.0,
    v_recessive=0.0,
    rise=EdgeDynamics(2.0e6, 0.7),
    fall=EdgeDynamics(1.1e6, 1.05),
)


def capture(frame: CanFrame, *, noise=QUIET_CHANNEL, seed=0, max_bits=60) -> VoltageTrace:
    chain = CaptureChain(
        synthesis=SynthesisConfig(max_frame_bits=max_bits),
        adc=AdcConfig(resolution_bits=16),
        noise=noise,
    )
    return chain.capture_frame(frame, TRX, rng=np.random.default_rng(seed))


def j1939_frame(sa: int, pgn: int = 0xF004, data: bytes = b"\x12\x34\x56\x78") -> CanFrame:
    can_id = J1939Id(priority=3, pgn=pgn, source_address=sa).to_can_id()
    return CanFrame(can_id=can_id, data=data)


class TestGetBitValue:
    def test_dominant_is_zero(self):
        assert get_bit_value(50_000, 39_000) == 0

    def test_recessive_is_one(self):
        assert get_bit_value(33_000, 39_000) == 1

    def test_threshold_is_dominant(self):
        assert get_bit_value(39_000, 39_000) == 0


class TestConfig:
    def test_for_trace_scales_with_rate(self):
        trace = VoltageTrace(
            counts=np.zeros(100, dtype=np.int32), sample_rate=20e6, resolution_bits=16
        )
        config = ExtractionConfig.for_trace(trace)
        assert config.bit_width == 80.0
        assert config.prefix_len == 4
        assert config.suffix_len == 28
        assert config.edge_set_length == 64

    def test_reference_constants_at_10ms(self):
        trace = VoltageTrace(
            counts=np.zeros(100, dtype=np.int32), sample_rate=10e6, resolution_bits=16
        )
        config = ExtractionConfig.for_trace(trace)
        assert (config.prefix_len, config.suffix_len) == (2, 14)
        assert config.edge_set_spacing == 250

    def test_threshold_from_resolution(self):
        trace = VoltageTrace(
            counts=np.zeros(10, dtype=np.int32), sample_rate=10e6, resolution_bits=12
        )
        config = ExtractionConfig.for_trace(trace)
        # 1 V on a 12-bit +/-5 V front end.
        assert config.threshold == pytest.approx(2457.0, abs=2)

    def test_with_threshold(self):
        trace = VoltageTrace(
            counts=np.zeros(10, dtype=np.int32), sample_rate=10e6, resolution_bits=16
        )
        config = ExtractionConfig.for_trace(trace).with_threshold(40_000)
        assert config.threshold == 40_000.0

    def test_rejects_tiny_bit_width(self):
        with pytest.raises(ExtractionError):
            ExtractionConfig(bit_width=2, threshold=100)

    def test_rejects_bad_windows(self):
        with pytest.raises(ExtractionError):
            ExtractionConfig(bit_width=40, threshold=100, suffix_len=0)


class TestExtraction:
    def test_sa_decoded_correctly(self):
        for sa in (0x00, 0x17, 0xA5, 0xFF):
            trace = capture(j1939_frame(sa))
            result = extract_edge_set(trace, ExtractionConfig.for_trace(trace))
            assert result.source_address == sa

    def test_sa_decoding_survives_stuffing(self):
        """SAs whose frames stuff bits inside the arbitration field."""
        # PGN 0 + priority 0 produces long dominant runs early in the id.
        for sa, pgn, priority in ((0x00, 0x0000, 0), (0xF0, 0x0000, 0), (0x0F, 0x3FF00, 7)):
            can_id = (priority << 26) | (pgn << 8) | sa
            trace = capture(CanFrame(can_id=can_id, data=b"\x00"))
            result = extract_edge_set(trace, ExtractionConfig.for_trace(trace))
            assert result.source_address == sa

    def test_vector_dimension(self):
        trace = capture(j1939_frame(0x10))
        config = ExtractionConfig.for_trace(trace)
        result = extract_edge_set(trace, config)
        assert result.vector.shape == (config.edge_set_length,)

    def test_vector_covers_both_polarities(self):
        """The edge set spans a falling and a rising edge."""
        trace = capture(j1939_frame(0x10))
        config = ExtractionConfig.for_trace(trace)
        vector = extract_edge_set(trace, config).vector
        assert vector.max() > config.threshold  # dominant samples present
        assert vector.min() < config.threshold  # recessive samples present

    def test_metadata_passthrough(self):
        trace = capture(j1939_frame(0x10))
        result = extract_edge_set(trace, ExtractionConfig.for_trace(trace))
        assert result.metadata["sender"] == "E"

    def test_noiseless_extraction_deterministic(self):
        frame = j1939_frame(0x42)
        chain = CaptureChain(
            synthesis=SynthesisConfig(max_frame_bits=60),
            adc=AdcConfig(resolution_bits=16),
            noise=None,
        )
        a = chain.capture_frame(frame, TRX)
        b = chain.capture_frame(frame, TRX)
        config = ExtractionConfig.for_trace(a)
        assert np.array_equal(
            extract_edge_set(a, config).vector, extract_edge_set(b, config).vector
        )

    def test_multi_edge_sets_average(self):
        trace = capture(j1939_frame(0x10), max_bits=90)
        single = ExtractionConfig.for_trace(trace)
        multi = ExtractionConfig.for_trace(trace, n_edge_sets=3)
        v1 = extract_edge_set(trace, single).vector
        v3 = extract_edge_set(trace, multi).vector
        assert v1.shape == v3.shape
        assert not np.array_equal(v1, v3)

    def test_too_short_trace_raises(self):
        trace = capture(j1939_frame(0x10), max_bits=20)
        with pytest.raises(ExtractionError):
            extract_edge_set(trace, ExtractionConfig.for_trace(trace))

    def test_all_recessive_raises(self):
        trace = VoltageTrace(
            counts=np.zeros(4000, dtype=np.int32), sample_rate=10e6, resolution_bits=16
        )
        with pytest.raises(ExtractionError):
            extract_edge_set(trace, ExtractionConfig.for_trace(trace))

    def test_empty_trace_raises(self):
        trace = VoltageTrace(
            counts=np.zeros(0, dtype=np.int32), sample_rate=10e6, resolution_bits=16
        )
        with pytest.raises(ExtractionError, match="never dominant"):
            extract_edge_set(trace, ExtractionConfig.for_trace(trace))

    @pytest.mark.parametrize("dtype", ["uint16", "int32", "int64", "float32", "float64"])
    def test_sample_dtype_does_not_change_the_edge_set(self, dtype):
        """Thresholds and windows see each sample as its float64 value."""
        trace = capture(j1939_frame(0x10))
        config = ExtractionConfig.for_trace(trace)
        reference = extract_edge_set(replace(trace, counts=trace.counts.astype(float)), config)
        result = extract_edge_set(replace(trace, counts=trace.counts.astype(dtype)), config)
        assert result.source_address == reference.source_address
        assert result.vector.dtype == reference.vector.dtype
        assert np.array_equal(result.vector, reference.vector)

    def test_float32_samples_compare_as_float64(self):
        """A float32 sample that rounds the threshold down is still below
        it: samples are compared at float64 precision, as if converted."""
        trace = VoltageTrace(
            counts=np.zeros(4000, dtype=np.float32), sample_rate=10e6, resolution_bits=16
        )
        config = ExtractionConfig.for_trace(trace).with_threshold(1000.00001)
        near = np.float32(config.threshold)
        assert float(near) < config.threshold
        trace.counts[100:400] = near
        with pytest.raises(ExtractionError, match="never dominant"):
            extract_edge_set(trace, config)

    def test_trace_starting_dominant_matches_scalar_walker(self):
        """The SOF can be the very first sample."""
        trace = capture(j1939_frame(0x10))
        config = ExtractionConfig.for_trace(trace)
        sof = int(np.argmax(trace.counts >= config.threshold))
        assert sof > 0
        clipped = replace(trace, counts=trace.counts[sof:])
        expected = oracle.extract_edge_set(clipped, config)
        result = extract_edge_set(clipped, config)
        assert result.source_address == expected.source_address
        assert np.array_equal(result.vector, expected.vector)

    def test_extract_many_shares_config(self):
        traces = [capture(j1939_frame(0x10), seed=s) for s in range(5)]
        results = extract_many(traces)
        assert len(results) == 5

    def test_extract_many_skip_failures(self):
        good = capture(j1939_frame(0x10))
        bad = capture(j1939_frame(0x10), max_bits=20)
        config = ExtractionConfig.for_trace(good)
        results = extract_many([good, bad], config, skip_failures=True)
        assert len(results) == 1
        with pytest.raises(ExtractionError):
            extract_many([good, bad], config)

    def test_empty_input(self):
        assert extract_many([]) == []


class TestClusterThreshold:
    def test_bisects_first_half(self):
        trace = capture(j1939_frame(0x10))
        threshold = cluster_threshold(trace)
        half = np.asarray(trace.counts[: len(trace) // 2], dtype=float)
        assert threshold == pytest.approx((half.max() + half.min()) / 2)

    def test_usable_for_extraction(self):
        trace = capture(j1939_frame(0x33))
        config = ExtractionConfig.for_trace(trace).with_threshold(cluster_threshold(trace))
        result = extract_edge_set(trace, config)
        assert result.source_address == 0x33
