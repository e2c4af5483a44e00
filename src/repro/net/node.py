"""Simulated processing nodes with a serial CPU service model.

Every broker and client machine in the paper's testbed is a real
computer whose CPU saturates: Figure 4's peak-throughput numbers and
Figure 8's CPU-idle plots are direct consequences of that.  This module
reproduces the effect with the simplest queueing model that yields it:

* each :class:`Node` owns one logical CPU served in FIFO order,
* work is submitted as ``(cost_ms, callback)`` pairs,
* the callback runs when its *service completes*, so queueing delay and
  service time both contribute to latency,
* busy time is accounted into a :class:`~repro.util.rate.BusyTracker`
  so experiments can sample CPU idle exactly the way the paper plots it.

Crash-stop failures: :meth:`Node.crash` discards all queued work and
makes the node reject submissions; :meth:`Node.recover` brings it back
with an empty queue (volatile state is the owner's problem — brokers
re-initialize from their persistent stores, Section 4.1).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..util.errors import NodeDownError
from ..util.rate import BusyTracker
from .simtime import Scheduler

#: Marker held in ``_in_service`` while a job's completion is posted.
#: Completions are fire-and-forget (:meth:`Scheduler.post`) — a crash
#: does not cancel them, it bumps the epoch so they return unheeded.
_BUSY = object()


class Node:
    """A named machine with one FIFO-served CPU and crash semantics."""

    def __init__(self, scheduler: Scheduler, name: str, speed: float = 1.0) -> None:
        """``speed`` scales service costs: 2.0 halves every CPU cost.

        The paper's brokers ran on 6-way SMP boxes; rather than model
        parallelism we fold aggregate capacity into ``speed``.

        ``math.inf`` means the substrate's own execution time is the
        service time: every modelled cost scales to 0, and the node
        *drains* — one scheduled turn serves the whole FIFO queue,
        including jobs submitted during the drain, back to back (see
        :meth:`_drain`).  A crash still drops the rest of the queue.  A
        real-time broker uses it, since its CPU is real (see
        ``adapters.rt.broker_main``).
        """
        if not speed > 0:  # also rejects nan, which would poison deadlines
            raise ValueError(f"speed must be > 0, got {speed!r}")
        self.scheduler = scheduler
        self.name = name
        self.speed = speed
        self.busy = BusyTracker()
        self._queue: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._in_service: Optional[object] = None
        self._down = False
        self._epoch = 0  # bumped on crash; stale completions are ignored
        self._crash_listeners: List[Callable[[], None]] = []
        self._recover_listeners: List[Callable[[], None]] = []
        # Optional external stall source (models e.g. the JVM GC pauses
        # that produce the periodic dips in Figure 6): while stalled, the
        # CPU finishes its current item but starts nothing new.
        self._stalled_until = 0.0
        if speed == math.inf:
            # Bound per instance, so finite-speed nodes pay no per-job test.
            self._start_next = self._start_drain  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        return self._down

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for service (excludes the one in service)."""
        return len(self._queue)

    def on_crash(self, fn: Callable[[], None]) -> None:
        """Register a callback fired when the node crashes."""
        self._crash_listeners.append(fn)

    def on_recover(self, fn: Callable[[], None]) -> None:
        """Register a callback fired when the node recovers."""
        self._recover_listeners.append(fn)

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def submit(self, cost_ms: float, fn: Callable[[], None]) -> None:
        """Queue ``fn`` to run after ``cost_ms / speed`` of CPU service.

        Raises :class:`NodeDownError` if the node is crashed; network
        links catch this and silently drop deliveries, matching the
        behaviour of messages sent to a dead TCP endpoint.
        """
        if self._down:
            raise NodeDownError(f"node {self.name} is down")
        if cost_ms < 0:
            raise ValueError("cost must be non-negative")
        self._queue.append((cost_ms / self.speed, fn))
        if self._in_service is None:
            self._start_next()

    def try_submit(self, cost_ms: float, fn: Callable[[], None]) -> bool:
        """Like :meth:`submit` but returns False instead of raising."""
        if self._down:
            return False
        self.submit(cost_ms, fn)
        return True

    def stall(self, duration_ms: float) -> None:
        """Pause the CPU for ``duration_ms`` (models GC pauses etc.).

        The item currently in service finishes normally; the next item
        does not begin until the stall expires.
        """
        self._stalled_until = max(self._stalled_until, self.scheduler.now + duration_ms)
        # If the CPU is idle right now, arrange to start work when the
        # stall expires (new submissions would also trigger a start, but
        # queued work must not be forgotten).
        if self._in_service is None and self._queue:
            self._resume_after_stall()

    def _resume_after_stall(self) -> None:
        epoch = self._epoch
        self.scheduler.at(
            self._stalled_until,
            lambda: self._start_next() if epoch == self._epoch and self._in_service is None else None,
        )

    def _start_next(self) -> None:
        if self._down or not self._queue:
            return
        now = self.scheduler.now
        if now < self._stalled_until:
            self._resume_after_stall()
            return
        cost, fn = self._queue.popleft()
        epoch = self._epoch
        self.busy.add_busy(cost)
        self._in_service = _BUSY
        self.scheduler.post(now + cost, self._complete, epoch, fn)

    def _complete(self, epoch: int, fn: Callable[[], None]) -> None:
        if epoch != self._epoch:
            return  # the node crashed while this job was in service
        self._in_service = None
        try:
            fn()
        finally:
            if self._in_service is None:
                self._start_next()

    def _start_drain(self) -> None:
        """``_start_next`` of a ``speed=math.inf`` node: post one drain."""
        if self._down or not self._queue:
            return
        now = self.scheduler.now
        if now < self._stalled_until:
            self._resume_after_stall()
            return
        self._in_service = _BUSY
        self.scheduler.post(now, self._drain, self._epoch, now)

    def _drain(self, epoch: int, posted_ms: float) -> None:
        """Serve the queue until it is empty, in one scheduled turn.

        A job submitted by a job lands behind the rest of the queue and
        runs in this same drain.  The epoch is checked between jobs: a
        job that crashes the node (which clears the queue) ends the
        drain, and so does one that crashes *and recovers* it, whose
        fresh queue belongs to the new epoch's own drain.  A stall
        begun since the drain was posted ends it too.  If a job raises,
        ``finally`` posts a new drain for the jobs behind it.
        """
        queue = self._queue
        try:
            while queue and epoch == self._epoch and self._stalled_until <= posted_ms:
                queue.popleft()[1]()
        finally:
            if epoch == self._epoch:
                self._in_service = None
                self._start_next()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop: lose all queued and in-service work immediately."""
        if self._down:
            return
        self._down = True
        self._epoch += 1
        self._queue.clear()
        # The posted completion (if any) will fire with a stale epoch
        # and return without running the job.
        self._in_service = None
        for fn in list(self._crash_listeners):
            fn()

    def recover(self) -> None:
        """Bring the node back with an empty queue."""
        if not self._down:
            return
        self._down = False
        self._stalled_until = 0.0
        for fn in list(self._recover_listeners):
            fn()

    def fail_for(self, duration_ms: float) -> None:
        """Crash now and recover after ``duration_ms`` of virtual time."""
        self.crash()
        self.scheduler.after(duration_ms, self.recover)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self._down else "up"
        return f"<Node {self.name} {state} q={len(self._queue)}>"
