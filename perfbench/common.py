"""Shared pieces of the capture→verdict benchmark: statistics, the run
environment, stopping the processes a run started, and the shape every
workload reports in."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (gateway state, nothing else).
WORK_DIR = ROOT / ".perfbench_work"

#: Worker processes the capture engine fans out to (``repro detect
#: --jobs 2``); the usable core count is recorded with every result.
JOBS = 2
#: Detection margin used by every workload (the CLI's explicit-margin path).
MARGIN = 5.0
#: How often set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload pass measured.

    ``attempted``/``failed`` count the workload's operations (messages
    for batch-detect and stream-replay, chunks for fleet-gateway).
    ``metrics`` maps a metric name to ``(value, unit)``.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.metrics.update(other.metrics)
        self.details.update(other.details)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def clear_warm_state() -> None:
    """Forget the plan memo and per-message seeds, as a new process would."""
    from repro.perf.engine import clear_plan_memo
    from repro.perf.parallel import message_seed

    clear_plan_memo()
    message_seed.cache_clear()


def timed_setup(
    setup: Callable[[int], T], seed: int, release: Callable[[T], Any] = lambda state: None
) -> tuple[T, float]:
    """Run ``setup(seed)`` ``SETUP_REPEATS`` times, each from a cold
    process state with the worker pools stopped; returns the last state
    and the median time.  ``release`` frees each state but the last."""
    from repro.perf.parallel import shutdown_pools

    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            release(state)
        state = None  # drop the previous state before building the next
        shutdown_pools()
        clear_warm_state()
        started = perf_counter()
        state = setup(seed)
        times.append(perf_counter() - started)
    return state, median(times)


def reset_peak_rss(pids: Iterable[int | str] = ("self",)) -> None:
    """Restart each process's peak-RSS high-water mark at its current RSS,
    so a later ``peak_rss_mb`` sees only what ran in between."""
    for pid in pids:
        Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pids: Iterable[int | str] = ("self",)) -> float:
    """Summed peak resident set (``VmHWM``) of the processes, in MiB."""
    total_kib = 0
    for pid in pids:
        status = Path(f"/proc/{pid}/status").read_text()
        line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        total_kib += int(line.split()[1])
    return total_kib / 1024.0


#: ``PR_SET_CHILD_SUBREAPER`` from ``<linux/prctl.h>``.
_PR_SET_CHILD_SUBREAPER = 36
#: How long leftover processes get to exit by themselves, and then
#: after SIGTERM, before SIGKILL.
STOP_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    Processes the benchmark starts indirectly can outlive their parents:
    every pool worker that creates shared memory starts its own
    ``multiprocessing`` resource tracker, which lives on for a moment
    after the worker exits.  Without this such orphans would be
    re-parented outside the benchmark, where ``stop_processes`` cannot
    wait for them.
    """
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def child_pids() -> list[int]:
    """Children of this process, adopted orphans and zombies included."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:  # the thread ended meanwhile
            pass
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:  # reaped elsewhere
        return True


def _release_resource_tracker() -> None:
    """Close this process's pipe to its ``multiprocessing`` resource
    tracker.  The tracker is started to outlive its parent; it exits once
    no process holds the pipe, and ``stop_processes`` reaps it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker  # noqa: SLF001
    with tracker._lock:  # noqa: SLF001
        if tracker._fd is not None:  # noqa: SLF001
            os.close(tracker._fd)  # noqa: SLF001
            tracker._fd = None  # noqa: SLF001
            tracker._pid = None  # noqa: SLF001


def stop_processes(grace_s: float = STOP_GRACE_S) -> None:
    """Stop every process this one started, directly or not, and wait
    until each has ended.

    The worker pools shut down and the resource tracker is released, so
    both end by themselves.  Whatever still runs after ``grace_s`` gets
    SIGTERM, and SIGKILL after another ``grace_s``.  Grandchildren are
    reached only after ``adopt_orphans``.
    """
    parallel = sys.modules.get("repro.perf.parallel")
    if parallel is not None:
        parallel.shutdown_pools()
    _release_resource_tracker()
    started = perf_counter()
    terminated: set[int] = set()
    while live := [pid for pid in child_pids() if not _reaped(pid)]:
        waited = perf_counter() - started
        for pid in live:
            try:
                if waited > 2 * grace_s:
                    os.kill(pid, signal.SIGKILL)
                elif waited > grace_s and pid not in terminated:
                    os.kill(pid, signal.SIGTERM)
                    terminated.add(pid)
            except ProcessLookupError:
                pass
        sleep(0.02)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict[str, Any]:
    """Facts every result is recorded with; nothing here is assumed."""
    import numpy

    return {
        "cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "repro"),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a clone: git would report an enclosing repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _tree_digest(package: Path) -> str:
    """Content digest of the package source, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
