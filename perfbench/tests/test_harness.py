"""Smoke tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import batch_detect, common, fleet_gateway, stream_replay
from perfbench.common import ROOT, percentile
from perfbench.tracing import Tracer

E2E = {"msgs_per_s", "chunk_latency_p50_ms", "chunk_latency_p99_ms", "setup_s", "peak_rss_mb"}


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Owner:
    @classmethod
    def make(cls) -> str:
        return cls.__name__


def test_tracer_self_time_excludes_children_and_unwraps():
    module = types.SimpleNamespace()
    module.inner = lambda: _busy(0.02)

    def outer():
        _busy(0.02)
        module.inner()

    module.outer = outer
    original_inner, original_make = module.inner, Owner.__dict__["make"]
    with Tracer({"outer": [(module, "outer")], "inner": [(module, "inner")],
                 "make": [(Owner, "make")]}) as tracer:
        module.outer()
        assert Owner.make() == "Owner"
    spans = tracer.snapshot()
    assert spans["outer"].total_s >= 0.04
    assert 0.015 < spans["outer"].self_s < 0.035
    assert 0.015 < spans["inner"].cpu_s < 0.035
    assert spans["make"].calls == 1
    assert module.inner is original_inner
    assert Owner.__dict__["make"] is original_make


def test_tracer_times_coroutines_only_while_running():
    async def step():
        _busy(0.02)
        await asyncio.sleep(0.1)
        return 7

    module = types.SimpleNamespace(step=step)

    async def caller():
        return await module.step()

    with Tracer({"step": [(module, "step")]}) as tracer:
        assert asyncio.run(caller()) == 7
    stats = tracer.snapshot()["step"]
    assert stats.calls == 1
    assert 0.015 < stats.self_s < 0.06


@pytest.mark.parametrize("size", [0, 5, 125, 126, 1000, 70_000])
def test_premasked_frame_matches_protocol_codec(size):
    from repro.fleet.protocol import encode_ws_frame

    payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
    key = b"\x12\x34\xab\xcd"
    cut = size // 3
    frame = (
        fleet_gateway.ws_head(size, key)
        + fleet_gateway.mask(payload[:cut], key)
        + fleet_gateway.mask(payload[cut:], key, cut)
    )
    assert frame == encode_ws_frame(payload, mask_key=key)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(range(101), 99) == 99.0
    assert percentile([5.0], 99) == 5.0


def test_peak_rss_resets_to_current():
    block = np.ones(5_000_000)  # 40 MB, freed before the reset
    del block
    before = common.peak_rss_mb()
    common.reset_peak_rss()
    assert common.peak_rss_mb() < before - 20


def test_stop_processes_reaps_orphaned_grandchildren():
    script = (
        "import subprocess\n"
        "from perfbench.common import adopt_orphans, child_pids, stop_processes\n"
        "adopt_orphans()\n"
        "print(subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "                     capture_output=True, text=True).stdout.strip())\n"
        "stop_processes(grace_s=0.2)\n"
        "print(len(child_pids()))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    grandchild, left = done.stdout.split()
    assert left == "0"
    assert not (Path("/proc") / grandchild).exists()


def _check(outcome, keys):
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert set(outcome.metrics) == keys
    assert all(value > 0 for value, _ in outcome.metrics.values())


def test_batch_detect_tiny(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(batch_detect, "CAPTURE_S", 0.2)
    _check(batch_detect.measure(3, 0.1), E2E)


def test_stream_replay_tiny(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(stream_replay, "REPLAY_S", 0.2)
    _check(stream_replay.measure(3, 0.1), E2E)


def test_fleet_gateway_tiny(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(fleet_gateway, "TRAIN_S", 1.0)
    monkeypatch.setattr(fleet_gateway, "CAPTURE_S", 0.5)
    monkeypatch.setattr(fleet_gateway, "MAX_CHUNKS", 200)
    outcome = fleet_gateway.measure(3, 0.5)
    _check(outcome, E2E)
    details = outcome.details["fleet-gateway"]
    assert details["chunks"]["ws"] > 0 and details["chunks"]["rest"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
