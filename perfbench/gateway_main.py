"""Run one fleet gateway in this process, for the fleet-gateway workload.

    python3 perfbench/gateway_main.py --state-dir DIR [--trace]

The gateway keeps at most ``fleet_gateway.MAX_RESIDENT`` tenants
resident.  Once listening it prints ``{"port": N}``.  It then reads
commands from stdin, one a line: ``reset`` zeroes the span totals and
the peak-RSS high-water mark and answers ``ok``; ``stop`` (or the end
of stdin) stops the gateway and prints the final report, one JSON line
with the peak RSS of this process since the last ``reset``, the span
totals of the traced layers and the supervisor's eviction counters.

With ``--trace`` the gateway's layer entry points are wrapped for the
whole life of the process, at the names the gateway looks them up by.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import peak_rss_mb, reset_peak_rss  # noqa: E402
from perfbench.fleet_gateway import MAX_RESIDENT  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def gateway_tracer() -> Tracer:
    from repro.fleet import gateway
    from repro.fleet.tenant import TenantEngine

    return Tracer(
        {
            "fleet.ws_read": [(gateway, "read_ws_frame")],
            "fleet.http_read": [(gateway, "read_http_request")],
            "fleet.decode": [(gateway, "decode_chunk")],
            "fleet.process": [(TenantEngine, "process_chunk")],
            "fleet.checkpoint": [(TenantEngine, "checkpoint")],
            "fleet.rehydrate": [(TenantEngine, "rehydrate")],
        }
    )


def serve(state_dir: str, tracer: Tracer | None) -> dict:
    from repro.fleet.gateway import FleetGateway, GatewayConfig

    loop = asyncio.new_event_loop()
    gateway = FleetGateway(GatewayConfig(state_dir=state_dir, max_resident=MAX_RESIDENT))
    loop.run_until_complete(gateway.start())
    print(json.dumps({"port": gateway.port}), flush=True)

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "reset":
                if tracer is not None:
                    tracer.reset()
                reset_peak_rss()
                print("ok", flush=True)
        loop.call_soon_threadsafe(loop.stop)

    threading.Thread(target=commands, name="gateway-commands", daemon=True).start()
    try:
        loop.run_forever()
        loop.run_until_complete(gateway.stop())
    finally:
        loop.close()
    spans = tracer.snapshot() if tracer is not None else {}
    return {
        "peak_rss_mb": peak_rss_mb(),
        "supervisor": gateway.supervisor.stats(),
        "spans": {name: vars(stats) for name, stats in spans.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = gateway_tracer() if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        report = serve(args.state_dir, tracer)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
