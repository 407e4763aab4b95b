"""Capture→verdict benchmark of the vProfile reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload batch-detect --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of the named workload.
``--trace 1`` prints every per-layer metric: the named workload is
traced for ``--seconds``, the other workloads for a quarter of that, so
each layer is measured on the workload that exercises it.  The last
stdout line is the JSON result; the line before it carries the run
environment, sample counts and verdict digests.  See README.md for the
workloads and what every metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("batch-detect", "stream-replay", "fleet-gateway")


def _modules():
    from perfbench import batch_detect, fleet_gateway, stream_replay

    return {
        "batch-detect": batch_detect,
        "stream-replay": stream_replay,
        "fleet-gateway": fleet_gateway,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import repro
    except ImportError as exc:
        print(f"error: the repro package is not importable from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: repro was imported from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from perfbench.common import Outcome, adopt_orphans, environment, stop_processes

    # Every process started from here on, and every orphan of one, is
    # stopped and waited for before the result is printed; SIGTERM takes
    # the same way out.
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    modules = _modules()
    outcome = Outcome()
    try:
        if args.trace:
            for name in WORKLOADS:
                seconds = args.seconds if name == args.workload else max(2.0, args.seconds / 4)
                outcome.absorb(modules[name].trace(args.seed, seconds))
            outcome.metrics["failed_ratio"] = (outcome.failed / outcome.attempted, "ratio")
        else:
            outcome.absorb(modules[args.workload].measure(args.seed, args.seconds))
    finally:
        stop_processes()
    print(json.dumps({"environment": environment(), "details": outcome.details},
                     sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
