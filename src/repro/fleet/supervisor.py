"""Tenant residency supervision for the fleet gateway.

The gateway can serve far more registered vehicles than it can afford to
keep resident: every resident tenant pins a profile store, an extractor
sample buffer and a health monitor.  :class:`FleetSupervisor` enforces a
``max_resident`` budget — when a registration or an ingest would exceed
it, the least-recently-active idle tenant is evicted to a
:mod:`repro.stream.checkpoint` directory and its memory released.  The
next request for that tenant rehydrates it from disk; the checkpoint
round-trip is byte-identical, so eviction is invisible in the verdict
stream (pinned by the equivalence property tests).

Concurrency model: all bookkeeping (the tenant table, LRU ordering,
eviction choice) happens on the event loop, so it needs no locks.
Checkpoint serialisation and rehydration touch files, so they run in
the gateway's thread executor while the tenant's own
:class:`asyncio.Lock` is held, which serialises each tenant's pipeline
without blocking the loop or other tenants.  Chunk classification runs
on the loop itself, under the same lock (see :mod:`repro.fleet.gateway`).
"""

from __future__ import annotations

import asyncio
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.errors import FleetError
from repro.fleet.tenant import TENANT_META_FILE, TenantEngine
from repro.obs.clock import monotonic
from repro.obs.registry import MetricsRegistry

#: Registered tenants by residency state (gauge, label ``state``).
TENANTS_METRIC = "vprofile_fleet_tenants"
#: Tenants checkpointed out to disk to respect the residency budget.
EVICTIONS_METRIC = "vprofile_fleet_evictions_total"
#: Tenants restored from a checkpoint on demand.
REHYDRATIONS_METRIC = "vprofile_fleet_rehydrations_total"

_T = TypeVar("_T")


class TenantRecord:
    """Book-keeping for one registered tenant."""

    __slots__ = ("tenant_id", "engine", "lock", "last_active", "evicted")

    def __init__(self, tenant_id: str, engine: TenantEngine | None):
        self.tenant_id = tenant_id
        self.engine: TenantEngine | None = engine
        self.lock = asyncio.Lock()
        self.last_active = monotonic()
        self.evicted = False

    @property
    def resident(self) -> bool:
        return self.engine is not None

    def touch(self) -> None:
        self.last_active = monotonic()


class FleetSupervisor:
    """Owns the tenant table and the residency budget.

    Parameters
    ----------
    registry:
        Metrics registry the fleet gauges/counters live in.
    state_dir:
        Directory holding one checkpoint subdirectory per evicted
        tenant.  Required for eviction; with ``None`` the supervisor
        refuses to evict (every tenant stays resident).
    max_resident:
        Upper bound on simultaneously resident tenants.
    executor:
        Thread pool the blocking work (classify, checkpoint, rehydrate)
        is pushed onto.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        state_dir: str | Path | None = None,
        max_resident: int = 64,
        executor: ThreadPoolExecutor | None = None,
    ):
        if max_resident < 1:
            raise FleetError(f"max_resident must be >= 1, got {max_resident}")
        self.registry = registry
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.max_resident = int(max_resident)
        self.executor = executor
        self.tenants: dict[str, TenantRecord] = {}
        self.evictions = 0
        self.rehydrations = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    async def _run(self, fn: Callable[[], _T]) -> _T:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn)

    def _checkpoint_dir(self, tenant_id: str) -> Path:
        if self.state_dir is None:
            raise FleetError(
                "no state directory configured: cannot evict or rehydrate"
            )
        return self.state_dir / tenant_id

    def _publish(self) -> None:
        if not self.registry.enabled:
            return
        resident = sum(1 for r in self.tenants.values() if r.resident)
        self.registry.gauge(
            TENANTS_METRIC, help="Registered tenants by residency state",
            state="resident",
        ).set(resident)
        self.registry.gauge(
            TENANTS_METRIC, help="Registered tenants by residency state",
            state="evicted",
        ).set(len(self.tenants) - resident)

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def adopt_checkpoints(self) -> list[str]:
        """Re-list tenants left in the state directory by a drained run.

        Each subdirectory carrying a tenant sidecar becomes an evicted
        record; the engine itself is only rehydrated when the tenant's
        next request arrives, so adopting a large fleet is cheap.
        """
        if self.state_dir is None or not self.state_dir.is_dir():
            return []
        adopted: list[str] = []
        for entry in sorted(self.state_dir.iterdir()):
            if not (entry / TENANT_META_FILE).is_file():
                continue
            tenant_id = entry.name
            if tenant_id in self.tenants:
                continue
            record = TenantRecord(tenant_id, engine=None)
            record.evicted = True
            self.tenants[tenant_id] = record
            adopted.append(tenant_id)
        if adopted:
            self._publish()
        return adopted

    def record(self, tenant_id: str) -> TenantRecord:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise FleetError(f"unknown tenant: {tenant_id!r}") from None

    async def register(self, tenant_id: str, engine: TenantEngine) -> TenantRecord:
        """Admit a new tenant, evicting others if over budget."""
        if tenant_id in self.tenants:
            raise FleetError(f"tenant already registered: {tenant_id!r}")
        record = TenantRecord(tenant_id, engine)
        self.tenants[tenant_id] = record
        await self._enforce_budget(keep=record)
        self._publish()
        return record

    async def resident_engine(self, record: TenantRecord) -> TenantEngine:
        """The tenant's engine, rehydrated from disk if evicted.

        Must be called with ``record.lock`` held: the lock is what keeps
        a concurrent evictor's hands off the engine while it is in use.
        """
        record.touch()
        if record.engine is None:
            directory = self._checkpoint_dir(record.tenant_id)
            record.engine = await self._run(
                lambda: TenantEngine.rehydrate(directory)
            )
            record.evicted = False
            self.rehydrations += 1
            if self.registry.enabled:
                self.registry.counter(
                    REHYDRATIONS_METRIC,
                    help="Tenants restored from an eviction checkpoint",
                ).inc()
            await self._enforce_budget(keep=record)
            self._publish()
        return record.engine

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _resident_records(self) -> list[TenantRecord]:
        return [r for r in self.tenants.values() if r.resident]

    async def _enforce_budget(self, keep: TenantRecord | None = None) -> None:
        """Evict LRU idle tenants until the budget holds."""
        if self.state_dir is None:
            return  # no spill target: the budget is advisory
        while True:
            resident = self._resident_records()
            if len(resident) <= self.max_resident:
                return
            victims = [
                r for r in resident if r is not keep and not r.lock.locked()
            ]
            if not victims:
                return  # everything else is mid-request; try again later
            victim = min(victims, key=lambda r: r.last_active)
            await self.evict(victim)

    async def evict(self, record: TenantRecord) -> None:
        """Checkpoint one tenant to disk and release its memory."""
        async with record.lock:
            engine = record.engine
            if engine is None:
                return  # already evicted
            directory = self._checkpoint_dir(record.tenant_id)
            await self._run(lambda: engine.checkpoint(directory))
            record.engine = None
            record.evicted = True
            self.evictions += 1
            if self.registry.enabled:
                self.registry.counter(
                    EVICTIONS_METRIC,
                    help="Tenants checkpointed out by the residency budget",
                ).inc()
        self._publish()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> int:
        """Checkpoint every resident tenant (graceful shutdown).

        Returns the number of tenants flushed.  With no state directory
        there is nowhere to flush to; the in-memory verdict state is
        simply dropped, as for any in-memory service.
        """
        if self.state_dir is None:
            return 0
        flushed = 0
        for record in list(self.tenants.values()):
            if record.resident:
                await self.evict(record)
                flushed += 1
        return flushed

    async def remove(self, tenant_id: str) -> None:
        """Forget a tenant entirely, including its checkpoint."""
        record = self.record(tenant_id)
        async with record.lock:
            record.engine = None
            del self.tenants[tenant_id]
        if self.state_dir is not None:
            directory = self.state_dir / tenant_id
            if directory.exists():
                await self._run(lambda: shutil.rmtree(directory))
        self._publish()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        resident = self._resident_records()
        return {
            "tenants": len(self.tenants),
            "resident": len(resident),
            "evicted_now": len(self.tenants) - len(resident),
            "max_resident": self.max_resident,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
        }


__all__ = [
    "EVICTIONS_METRIC",
    "FleetSupervisor",
    "REHYDRATIONS_METRIC",
    "TENANTS_METRIC",
    "TenantRecord",
]
