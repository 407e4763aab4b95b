"""Bounded queues with explicit backpressure policies.

A streaming IDS that cannot keep up has to choose what to sacrifice:
latency (block the producer — fine for replay, fatal for a live tap),
the newest data, or the oldest.  :class:`BoundedQueue` makes that choice
explicit per queue instead of burying it in an unbounded buffer that
slowly eats the process.

The queue keeps its own counters (puts, gets, drops, high watermark) so
the runtime can export queue gauges without reaching into deque
internals.
"""

from __future__ import annotations

import threading
from collections import deque
from enum import Enum
from typing import Callable, Generic, TypeVar

from repro.errors import StreamError

T = TypeVar("T")


class OverflowPolicy(str, Enum):
    """What a full queue does with the next item."""

    BLOCK = "block"             # producer waits: lossless, adds latency
    DROP_NEWEST = "drop-newest"  # reject the incoming item
    DROP_OLDEST = "drop-oldest"  # evict the head to make room


class QueueClosed(StreamError):
    """Raised by :meth:`BoundedQueue.get_batch` after close + drain."""


class BoundedQueue(Generic[T]):
    """A thread-safe FIFO with a hard capacity and an overflow policy."""

    def __init__(
        self,
        capacity: int,
        policy: OverflowPolicy | str = OverflowPolicy.BLOCK,
        name: str = "",
    ):
        if capacity < 1:
            raise StreamError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.policy = OverflowPolicy(policy)
        self.name = name
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.puts = 0
        self.gets = 0
        self.dropped = 0
        self.high_watermark = 0

    # ------------------------------------------------------------------
    def put(self, item: T) -> bool:
        """Enqueue ``item``; returns False when the policy dropped it.

        Under ``BLOCK`` the call waits for space (or for the queue to be
        closed, which raises).  Under the drop policies it never waits.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed(f"queue {self.name!r} is closed")
            if len(self._items) >= self.capacity:
                if self.policy is OverflowPolicy.BLOCK:
                    while len(self._items) >= self.capacity and not self._closed:
                        self._not_full.wait()
                    if self._closed:
                        raise QueueClosed(f"queue {self.name!r} is closed")
                elif self.policy is OverflowPolicy.DROP_NEWEST:
                    self.dropped += 1
                    return False
                else:  # DROP_OLDEST
                    self._items.popleft()
                    self.dropped += 1
            self._items.append(item)
            self.puts += 1
            if len(self._items) > self.high_watermark:
                self.high_watermark = len(self._items)
            self._not_empty.notify()
            return True

    def get_batch(
        self,
        max_items: int,
        timeout: float | None = None,
        on_batch: Callable[[int], None] | None = None,
    ) -> list[T]:
        """Dequeue 1..``max_items`` items, waiting for the first.

        Blocks until at least one item is available, then drains up to
        ``max_items`` without waiting further — the natural shape for a
        worker that classifies in vectorised batches.  Raises
        :class:`QueueClosed` once the queue is closed *and* empty;
        returns ``[]`` only on timeout.

        ``on_batch(n)``, when given, runs under the queue lock just
        before the batch is returned — consumers use it to publish an
        in-flight count atomically with the dequeue, so an observer
        never sees items vanish from the queue without appearing as
        in-flight work.
        """
        if max_items < 1:
            raise StreamError(f"max_items must be >= 1, got {max_items}")
        with self._lock:
            while not self._items:
                if self._closed:
                    raise QueueClosed(f"queue {self.name!r} is closed")
                if not self._not_empty.wait(timeout):
                    return []
            batch: list[T] = []
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            self.gets += len(batch)
            if on_batch is not None:
                on_batch(len(batch))
            self._not_full.notify(len(batch))
            return batch

    def close(self) -> None:
        """Mark end-of-stream; wakes every waiting producer/consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
