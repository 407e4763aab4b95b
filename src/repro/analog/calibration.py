"""Fingerprint estimation: fit transceiver parameters from traces.

The forward model (:mod:`repro.analog.waveform`) turns a
:class:`~repro.analog.transceiver.TransceiverParams` into voltages; this
module solves the inverse problem — estimating an ECU's electrical
fingerprint from digitized captures.  Two uses:

* building a synthetic vehicle from *real* captures, so the simulator
  can stand in for hardware a lab no longer has access to;
* sanity-checking the physical plausibility of a synthetic vehicle
  (the round trip ``params -> waveform -> params`` should close).

Levels come from trimmed plateau means; edge dynamics from a
least-squares fit of the second-order step response to the averaged,
sub-sample-aligned rising and falling edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acquisition.trace import VoltageTrace
from repro.analog.transceiver import EdgeDynamics, TransceiverParams
from repro.analog.waveform import step_response
from repro.errors import WaveformError


@dataclass(frozen=True)
class LevelEstimate:
    """Plateau-level estimates of one capture."""

    v_dominant: float
    v_recessive: float
    n_dominant_samples: int
    n_recessive_samples: int


def estimate_levels(
    volts: np.ndarray, *, threshold_v: float = 1.0, settle_samples: int = 12
) -> LevelEstimate:
    """Estimate dominant/recessive levels from one message's voltages.

    Samples within ``settle_samples`` of any threshold crossing are
    discarded so edges, ringing and slow relaxation tails do not bias
    the plateau means.  Size the guard to cover the slowest edge's
    settling time (~0.5 us, i.e. ~12 samples at 20 MS/s).
    """
    volts = np.asarray(volts, dtype=float)
    above = volts >= threshold_v
    crossings = np.nonzero(np.diff(above.astype(np.int8)) != 0)[0]
    mask = np.ones(volts.size, dtype=bool)
    for crossing in crossings:
        lo = max(0, crossing - settle_samples)
        hi = min(volts.size, crossing + settle_samples + 2)
        mask[lo:hi] = False
    dominant = volts[above & mask]
    recessive = volts[~above & mask]
    if dominant.size == 0 or recessive.size == 0:
        raise WaveformError("capture lacks settled dominant/recessive plateaus")
    return LevelEstimate(
        v_dominant=float(dominant.mean()),
        v_recessive=float(recessive.mean()),
        n_dominant_samples=int(dominant.size),
        n_recessive_samples=int(recessive.size),
    )


def _collect_edges(
    volts: np.ndarray,
    *,
    rising: bool,
    threshold_v: float,
    pre: int,
    post: int,
    guard: int,
) -> list[np.ndarray]:
    """Edge windows with a settled run before and after the crossing."""
    above = volts >= threshold_v
    windows = []
    deltas = np.diff(above.astype(np.int8))
    wanted = 1 if rising else -1
    for crossing in np.nonzero(deltas == wanted)[0]:
        lo = crossing + 1 - pre
        hi = crossing + 1 + post
        if lo < guard or hi + guard > volts.size:
            continue
        before = above[crossing + 1 - guard : crossing + 1]
        after = above[crossing + 1 : crossing + 1 + guard]
        if rising and (before.any() or not after.all()):
            continue
        if not rising and (not before.all() or after.any()):
            continue
        windows.append(volts[lo:hi].copy())
    return windows


@dataclass(frozen=True)
class EdgeFit:
    """Fitted dynamics of one transition direction."""

    dynamics: EdgeDynamics
    residual_rms_v: float
    n_edges: int


def fit_edge_dynamics(
    traces: list[VoltageTrace],
    *,
    rising: bool,
    v_start: float,
    v_target: float,
    threshold_v: float = 1.0,
    max_edges: int = 400,
) -> EdgeFit:
    """Fit (natural frequency, damping) of one edge direction.

    Pools sub-sample-aligned edge windows from many messages and solves
    a bounded least-squares problem against the second-order step
    response, with the exact crossing time as a nuisance parameter.
    """
    from scipy.optimize import least_squares

    if not traces:
        raise WaveformError("no traces supplied")
    sample_rate = traces[0].sample_rate
    dt = 1.0 / sample_rate
    pre, post, guard = 2, 14, 6

    samples_t: list[np.ndarray] = []
    samples_v: list[np.ndarray] = []
    collected = 0
    for trace in traces:
        volts = trace.to_volts()
        for window in _collect_edges(
            volts, rising=rising, threshold_v=threshold_v, pre=pre, post=post, guard=guard
        ):
            # Sub-sample crossing time by linear interpolation around the
            # threshold inside the window (crossing is at index `pre`).
            v0, v1 = window[pre - 1], window[pre]
            if v1 == v0:
                frac = 0.0
            else:
                frac = (threshold_v - v0) / (v1 - v0)
            t_cross = (pre - 1 + frac) * dt
            times = np.arange(window.size) * dt - t_cross
            keep = times >= 0
            samples_t.append(times[keep])
            samples_v.append(window[keep])
            collected += 1
            if collected >= max_edges:
                break
        if collected >= max_edges:
            break
    if collected < 3:
        raise WaveformError("too few clean edges found to fit dynamics")

    t = np.concatenate(samples_t)
    v = np.concatenate(samples_v)

    # The threshold crossing is not the transition start; solve for the
    # lead time `t0 >= 0` between bit boundary and crossing jointly with
    # the dynamics.
    def residuals(params):
        freq, zeta, lead = params
        model = step_response(t + lead, v_start, v_target, EdgeDynamics(freq, zeta))
        return model - v

    swing = abs(v_target - v_start)
    guess_freq = 1.0e6
    result = least_squares(
        residuals,
        x0=[guess_freq, 0.8, 2.0 * dt],
        bounds=([1e4, 0.2, 0.0], [5e7, 3.0, 20.0 * dt]),
        xtol=1e-12,
        ftol=1e-12,
    )
    freq, zeta, _ = result.x
    rms = float(np.sqrt(np.mean(result.fun**2)))
    if rms > 0.5 * swing:
        raise WaveformError("edge fit did not converge to a plausible response")
    return EdgeFit(
        dynamics=EdgeDynamics(float(freq), float(zeta)),
        residual_rms_v=rms,
        n_edges=collected,
    )


def estimate_fingerprint(
    traces: list[VoltageTrace],
    name: str,
    *,
    threshold_v: float = 1.0,
) -> TransceiverParams:
    """Estimate a full :class:`TransceiverParams` from captures of one ECU.

    Environment coefficients cannot be observed from a single operating
    point and are returned as zero; sweep the environment and difference
    the levels to calibrate them.
    """
    if not traces:
        raise WaveformError("no traces supplied")
    settle = max(4, round(0.6e-6 * traces[0].sample_rate))
    levels = [
        estimate_levels(
            t.to_volts(), threshold_v=threshold_v, settle_samples=settle
        )
        for t in traces
    ]
    v_dom = float(np.median([l.v_dominant for l in levels]))
    v_rec = float(np.median([l.v_recessive for l in levels]))
    rise = fit_edge_dynamics(
        traces, rising=True, v_start=v_rec, v_target=v_dom, threshold_v=threshold_v
    )
    fall = fit_edge_dynamics(
        traces, rising=False, v_start=v_dom, v_target=v_rec, threshold_v=threshold_v
    )
    return TransceiverParams(
        name=name,
        v_dominant=v_dom,
        v_recessive=v_rec,
        rise=rise.dynamics,
        fall=fall.dynamics,
    )
