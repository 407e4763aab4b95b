"""``repro fleet`` subcommands: ``serve`` and ``bench``.

``serve`` runs the gateway in the foreground until SIGTERM/SIGINT, then
drains gracefully: in-flight chunks finish and every resident tenant is
flushed to its checkpoint before the process exits, so a restart picks
up exactly where the fleet left off.

``bench`` drives the deterministic load generator against a gateway —
its own in-process one by default, or ``--address HOST:PORT`` for a
running ``serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any

from repro.fleet.gateway import FleetGateway, GatewayConfig, GatewayThread
from repro.fleet.loadgen import LoadgenConfig, format_report, run_loadgen
from repro.obs.registry import MetricsRegistry
from repro.obs.server import parse_host_port


def add_fleet_parser(commands: Any) -> None:
    """Attach the ``fleet`` subcommand tree to the main CLI."""
    fleet = commands.add_parser(
        "fleet",
        help="multi-tenant detection gateway (serve many vehicles at once)",
    )
    actions = fleet.add_subparsers(dest="fleet_command", required=True)

    serve = actions.add_parser(
        "serve", help="run the gateway until SIGTERM, then drain gracefully"
    )
    serve.add_argument("--address", metavar="HOST:PORT",
                       default="127.0.0.1:0",
                       help="bind address (port 0 picks a free port)")
    serve.add_argument("--state-dir", metavar="DIR", default=None,
                       help="checkpoint directory for evicted tenants "
                            "(required for eviction and graceful drain)")
    serve.add_argument("--max-resident", type=int, default=64,
                       help="resident-tenant budget before LRU eviction")
    serve.add_argument("--executor-workers", type=int, default=None,
                       metavar="N",
                       help="thread-pool size for model upload, training, "
                            "checkpoint and rehydrate")
    serve.set_defaults(handler=cmd_fleet_serve)

    bench = actions.add_parser(
        "bench", help="run the deterministic fleet load generator"
    )
    bench.add_argument("--address", metavar="HOST:PORT", default=None,
                       help="benchmark a running gateway instead of an "
                            "in-process one")
    bench.add_argument("--tenants", type=int, default=8,
                       help="simulated vehicles streaming concurrently")
    bench.add_argument("--duration", type=float, default=0.25,
                       help="simulated bus seconds streamed per tenant")
    bench.add_argument("--chunk-samples", type=int, default=32768,
                       help="digitizer chunk size each tenant sends")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--train-duration", type=float, default=4.0,
                       help="length of the one shared training capture")
    bench.add_argument("--ws-fraction", type=float, default=0.5,
                       help="fraction of tenants on the WebSocket path")
    bench.add_argument("--max-resident", type=int, default=64,
                       help="residency budget of the in-process gateway")
    bench.add_argument("--no-rehydration-check", action="store_true",
                       help="skip the evict/rehydrate equivalence check")
    bench.add_argument("--json", action="store_true",
                       help="print the raw report as JSON")
    bench.set_defaults(handler=cmd_fleet_bench)


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    host, port = parse_host_port(args.address)
    config = GatewayConfig(
        host=host,
        port=port,
        state_dir=args.state_dir,
        max_resident=args.max_resident,
        executor_workers=args.executor_workers,
    )
    return asyncio.run(_serve(config))


async def _serve(config: GatewayConfig) -> int:
    gateway = FleetGateway(config, MetricsRegistry())
    await gateway.start()
    print(f"fleet gateway on {gateway.url} "
          f"(max {config.max_resident} resident tenants"
          + (f", state in {config.state_dir}" if config.state_dir else "")
          + ")")
    print("routes: /tenants /fleet /metrics  (SIGTERM drains gracefully)")
    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, shutdown.set)
    await shutdown.wait()
    print("draining fleet gateway ...", file=sys.stderr)
    flushed = await gateway.drain()
    await gateway.stop()
    print(f"drained: {flushed} tenant checkpoint"
          f"{'' if flushed == 1 else 's'} flushed", file=sys.stderr)
    return 0


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    config = LoadgenConfig(
        tenants=args.tenants,
        duration_s=args.duration,
        chunk_samples=args.chunk_samples,
        seed=args.seed,
        train_duration_s=args.train_duration,
        ws_fraction=args.ws_fraction,
        check_rehydration=not args.no_rehydration_check,
    )
    if args.address:
        host, port = parse_host_port(args.address)
        report = run_loadgen(host, port, config)
    else:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as state_dir:
            with GatewayThread(
                GatewayConfig(
                    state_dir=state_dir, max_resident=args.max_resident
                ),
                MetricsRegistry(),
            ) as server:
                report = run_loadgen(server.host, server.port, config)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report), end="")
    rehydration = report.get("rehydration")
    if rehydration is not None and not rehydration["identical"]:
        print("error: rehydrated verdict sequence diverged", file=sys.stderr)
        return 2
    return 0


__all__ = ["add_fleet_parser", "cmd_fleet_bench", "cmd_fleet_serve"]
