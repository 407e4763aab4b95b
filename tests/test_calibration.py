"""Fingerprint estimation: the inverse problem must close the loop."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.acquisition.adc import AdcConfig
from repro.acquisition.sampler import CaptureChain
from repro.analog.calibration import (
    estimate_fingerprint,
    estimate_levels,
    fit_edge_dynamics,
)
from repro.analog.channel import ChannelNoise
from repro.analog.transceiver import EdgeDynamics, TransceiverParams
from repro.analog.waveform import SynthesisConfig
from repro.can.frame import CanFrame
from repro.can.j1939 import J1939Id
from repro.errors import WaveformError

TRUTH = TransceiverParams(
    name="truth",
    v_dominant=2.05,
    v_recessive=0.015,
    rise=EdgeDynamics(1.8e6, 0.70),
    fall=EdgeDynamics(1.1e6, 1.05),
)


def captures(n, *, noise=None, seed=0, sample_rate=20e6):
    chain = CaptureChain(
        synthesis=SynthesisConfig(sample_rate=sample_rate, max_frame_bits=70),
        adc=AdcConfig(resolution_bits=16),
        noise=noise,
    )
    rng = np.random.default_rng(seed)
    traces = []
    for k in range(n):
        can_id = J1939Id(priority=3, pgn=0xF004, source_address=0x42).to_can_id()
        payload = bytes([(3 * k) % 256, (7 * k) % 256] + [0x6A] * 4)
        frame = CanFrame(can_id=can_id, data=payload)
        traces.append(chain.capture_frame(frame, TRUTH, rng=rng))
    return traces


class TestLevels:
    def test_noiseless_levels_exact(self):
        trace = captures(1)[0]
        estimate = estimate_levels(trace.to_volts())
        assert estimate.v_dominant == pytest.approx(2.05, abs=2e-3)
        assert estimate.v_recessive == pytest.approx(0.015, abs=2e-3)

    def test_noisy_levels_unbiased(self):
        noise = ChannelNoise(white_sigma_v=0.01, baseline_sigma_v=0.0, ar_sigma_v=0.0)
        traces = captures(30, noise=noise, seed=1)
        doms = [estimate_levels(t.to_volts()).v_dominant for t in traces]
        assert np.mean(doms) == pytest.approx(2.05, abs=5e-3)

    def test_flat_input_rejected(self):
        with pytest.raises(WaveformError):
            estimate_levels(np.zeros(1000))


class TestEdgeFit:
    def test_recovers_rise_dynamics(self):
        traces = captures(10)
        fit = fit_edge_dynamics(
            traces, rising=True, v_start=0.015, v_target=2.05
        )
        assert fit.dynamics.natural_freq_hz == pytest.approx(1.8e6, rel=0.10)
        assert fit.dynamics.damping == pytest.approx(0.70, abs=0.08)
        assert fit.n_edges >= 10

    def test_recovers_fall_dynamics(self):
        traces = captures(10)
        fit = fit_edge_dynamics(
            traces, rising=False, v_start=2.05, v_target=0.015
        )
        assert fit.dynamics.natural_freq_hz == pytest.approx(1.1e6, rel=0.12)
        assert fit.dynamics.damping == pytest.approx(1.05, abs=0.15)

    def test_noise_tolerated(self):
        noise = ChannelNoise(white_sigma_v=0.006, baseline_sigma_v=0.008)
        traces = captures(40, noise=noise, seed=2)
        fit = fit_edge_dynamics(
            traces, rising=True, v_start=0.015, v_target=2.05
        )
        assert fit.dynamics.natural_freq_hz == pytest.approx(1.8e6, rel=0.2)

    def test_empty_rejected(self):
        with pytest.raises(WaveformError):
            fit_edge_dynamics([], rising=True, v_start=0.0, v_target=2.0)


class TestRoundTrip:
    def test_fingerprint_round_trip(self):
        """params -> waveform -> params closes within tolerance."""
        traces = captures(15, seed=3)
        estimated = estimate_fingerprint(traces, "estimated")
        assert estimated.v_dominant == pytest.approx(TRUTH.v_dominant, abs=5e-3)
        assert estimated.v_recessive == pytest.approx(TRUTH.v_recessive, abs=5e-3)
        assert estimated.rise.natural_freq_hz == pytest.approx(
            TRUTH.rise.natural_freq_hz, rel=0.15
        )
        assert estimated.fall.natural_freq_hz == pytest.approx(
            TRUTH.fall.natural_freq_hz, rel=0.15
        )

    def test_estimated_fingerprint_is_usable(self):
        """A model trained on the estimate must classify the real ECU."""
        from repro.core.edge_extraction import ExtractionConfig, extract_many
        from repro.core.distances import euclidean_distance

        traces = captures(15, seed=4)
        estimated = estimate_fingerprint(traces, "estimated")
        chain = CaptureChain(
            synthesis=SynthesisConfig(sample_rate=20e6, max_frame_bits=70),
            adc=AdcConfig(resolution_bits=16),
        )
        frame = CanFrame(
            can_id=J1939Id(priority=3, pgn=0xF004, source_address=0x42).to_can_id(),
            data=b"\x01\x02\x6a\x6a\x6a\x6a",
        )
        real = chain.capture_frame(frame, TRUTH)
        synthetic = chain.capture_frame(frame, estimated)
        config = ExtractionConfig.for_trace(real)
        real_set, synth_set = extract_many([real, synthetic], config)
        distance = euclidean_distance(real_set.vector, synth_set.vector)
        swing = 2.05 / 10 * 65535  # full dominant swing in counts
        assert distance < 0.1 * swing  # within 10 % of the swing overall


def test_cli_import_leaves_scipy_optimize_unloaded():
    """The least-squares solver is imported by the fit, not by the package.

    ``repro.cli`` reaches this module through ``repro.acquisition``; an
    eager import made every command pay ~0.6 s for ``scipy.optimize``.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
