"""Span tracing from outside the program under test.

A :class:`Tracer` replaces public functions and methods with timing
wrappers for the length of a ``with`` block and restores the originals
afterwards, so ``src/`` stays untouched.  A function is wrapped where its
caller looks it up: ``from x import f`` binds ``f`` into the importing
module, so ``repro.perf.engine.plan_transmissions`` is a different slot
from ``repro.perf.engine``'s source module attribute.

Every span records its total time and its self time: the total minus
the time of traced spans called inside it on the same thread.  Threads
keep separate span stacks.  Self time is kept twice: on the wall clock,
and on the calling thread's CPU clock.  Where layers run on several
threads at once (the stream runtime's worker, the gateway's executor)
their wall spans overlap and include waits for the interpreter lock, so
the CPU clock is the one that adds up.  Coroutine functions record only
the time their coroutine spends running on the event loop, not the time
it sits suspended waiting for bytes, so an ``await read_frame(...)``
span measures parsing, not the peer's think time.
"""

from __future__ import annotations

import functools
import inspect
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Any, Callable, Iterable


@dataclass
class SpanStats:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Self time on the calling thread's CPU clock.
    cpu_s: float = 0.0


class Tracer:
    """Collects per-layer span totals for the wrapped call sites.

    ``sites`` maps a layer name to the ``(owner, attribute)`` slots to
    wrap; an owner is a module or a class.  A layer may wrap several
    slots (one function imported into two modules); their spans share
    the layer's totals.
    """

    def __init__(self, sites: dict[str, Iterable[tuple[Any, str]]]):
        self.sites = {name: list(slots) for name, slots in sites.items()}
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name in sites}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for name, slots in self.sites.items():
                for owner, attr in slots:
                    self._wrap(name, owner, attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def reset(self) -> None:
        with self._lock:
            self.stats = {name: SpanStats() for name in self.sites}

    def snapshot(self) -> dict[str, SpanStats]:
        with self._lock:
            return {
                name: SpanStats(s.calls, s.total_s, s.self_s, s.cpu_s)
                for name, s in self.stats.items()
            }

    # ------------------------------------------------------------------
    def _record(self, name: str, total: float, self_time: float, cpu: float) -> None:
        with self._lock:
            stats = self.stats[name]
            stats.calls += 1
            stats.total_s += total
            stats.self_s += self_time
            stats.cpu_s += cpu

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, owner: Any, attr: str) -> None:
        # Class attributes are read raw so classmethods stay classmethods.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.iscoroutinefunction(func):
            wrapper = self._async_wrapper(name, func)
        else:
            wrapper = self._sync_wrapper(name, func)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _sync_wrapper(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            children = [0.0, 0.0]  # wall, CPU of traced spans inside
            stack.append(children)
            started = perf_counter()
            cpu_started = thread_time()
            try:
                return func(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu_started
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += cpu
                tracer._record(name, elapsed, elapsed - children[0], cpu - children[1])

        return traced

    def _async_wrapper(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> "_BusyAwaitable":
            return _BusyAwaitable(func(*args, **kwargs), tracer, name)

        return traced


class _BusyAwaitable:
    """Drive a coroutine, timing only the steps it runs on the loop."""

    __slots__ = ("_coro", "_tracer", "_name")

    def __init__(self, coro: Any, tracer: Tracer, name: str):
        self._coro = coro
        self._tracer = tracer
        self._name = name

    def __await__(self) -> Any:
        coro = self._coro
        busy = cpu = 0.0
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                started = perf_counter()
                cpu_started = thread_time()
                try:
                    if error is None:
                        pending = coro.send(value)
                    else:
                        pending = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += perf_counter() - started
                    cpu += thread_time() - cpu_started
                try:
                    value, error = (yield pending), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
        finally:
            self._tracer._record(self._name, busy, busy, cpu)
