"""Minimal discrete-event engine.

Time is a float in nanoseconds.  Events are callbacks ordered by
(time, sequence) in a binary heap; the sequence number makes
simultaneous events FIFO and keeps runs deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..obs import get_recorder


class EventLoop:
    """A deterministic event queue (binary heap)."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        #: Number of schedule() calls whose requested time was in the
        #: past and was clamped forward to ``now``.  A high count means
        #: a component is computing stale timestamps.
        self.schedule_clamped = 0
        self._stop = False

    def stop(self) -> None:
        """Ask :meth:`run` to return after the current event."""
        self._stop = True

    def schedule(self, time_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``time_ns`` (clamped to now)."""
        if time_ns < self.now:
            time_ns = self.now
            self.schedule_clamped += 1
        heapq.heappush(self._queue, (time_ns, self._seq, callback))
        self._seq += 1

    def schedule_in(self, delay_ns: float,
                    callback: Callable[[], None]) -> None:
        """Schedule relative to the current time."""
        self.schedule(self.now + max(0.0, delay_ns), callback)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def run(self, until_ns: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Process events until the queue drains (or a bound is hit)."""
        processed = 0
        self._stop = False
        queue = self._queue
        pop = heapq.heappop
        # Hot loop: the queue, the pop, and the bound checks are all
        # locals; each event is popped exactly once (no peek-then-pop
        # double touch) unless an ``until_ns`` bound forces a peek of
        # the head timestamp.
        if until_ns is None:
            while queue:
                if self._stop:
                    break
                if max_events is not None and processed >= max_events:
                    break
                time_ns, _, callback = pop(queue)
                self.now = time_ns
                callback()
                processed += 1
        else:
            while queue:
                if self._stop:
                    break
                if max_events is not None and processed >= max_events:
                    break
                if queue[0][0] > until_ns:
                    break
                time_ns, _, callback = pop(queue)
                self.now = time_ns
                callback()
                processed += 1
        self.events_processed += processed
        # One recorder touch per run() call, never per event — the
        # NullRecorder default keeps the hot loop untouched.
        if processed:
            rec = get_recorder()
            if rec.enabled:
                rec.counter("engine", "events_processed", processed,
                            kind="heap")
