"""Synchronization and queuing primitives on top of the event engine.

These are the building blocks the network and runtime layers use:

* :class:`Channel` — an unbounded FIFO mailbox (message delivery).
* :class:`Resource` — a counted FIFO resource (CPUs, link capacity).
* :class:`CPU` — a single-server resource with an ``execute(seconds)``
  convenience used to charge compute and protocol-overhead time.
* :class:`Barrier` — rendezvous for a fixed number of parties.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from . import engine as _engine
from .engine import Event, SimulationError, Simulator, fire

__all__ = ["Channel", "Resource", "CPU", "Barrier"]


class Channel:
    """Unbounded FIFO channel; ``get()`` blocks until an item is available."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # skip interrupted/cancelled getters
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: an item or ``None``."""
        if self._items:
            return self._items.popleft()
        return None


class Resource(_engine.Resource):
    """A counted resource with FIFO granting per priority level.

    Two priority levels: 0 (urgent — protocol/interrupt work) and 1
    (background — application compute).  Level-0 waiters are always
    granted before level-1 waiters; within a level the order is FIFO.
    This mirrors interrupt-driven message handling preempting user
    compute between quanta on a real node.

    Usage from a process::

        grant = yield resource.request()
        ...
        resource.release()

    The queues, the busy-time accounting, :meth:`release` and the charge
    path live in the engine tier (``_pyengine.Resource``, or its C
    transcription in ``_ccore.c``); the methods here stay plain Python
    functions so profilers can count calls into them by name.
    """

    __slots__ = ()

    def request(self, priority: int = 0) -> Event:
        """Ask for one slot; the returned event fires when granted."""
        return self._request(priority)

    def occupy(self, seconds: float, priority: int = 0,
               on_release: Optional[Callable[[float, int], None]] = None
               ) -> Event:
        """One-shot request/hold/release; returns the completion event.

        The event-minimizing counterpart of the request/timeout/release
        process pattern.  When a slot is free the grant is synchronous
        and the hold is a single heap entry — no generator, no
        :class:`~.engine.Process`.  When the resource is contended the
        request joins the same FIFO (per priority level) as
        :meth:`request`, so charges and requests interleave with
        identical semantics.

        The completion event is *posted* after the release (not at the
        hold's expiry itself), so a waiter resumes one dispatch later —
        the same position a process-based request/timeout/release
        caller resumes at, after the slot has been handed to the next
        waiter.

        Dispatch-order parity: when other events are pending at the
        current instant, the request and grant go through the heap at
        the same dispatch depths the process pattern used (request one
        dispatch after the call, hold scheduled one dispatch after the
        grant), so same-instant races — a release racing a fresh
        arrival, holds on different resources expiring together —
        linearize identically.  When nothing else is scheduled at this
        instant the deferrals are unobservable and are elided: one heap
        entry, zero intermediate dispatches.

        ``on_release(t0, qdepth)`` runs right after the release, before
        the completion: ``t0`` is the grant time and ``qdepth`` the
        queue this charge joined, counting itself, sampled at request
        time.  The fabric's ``link.busy`` and ``gw.forward`` trace
        records read them.
        """
        return self._occupy(seconds, priority, on_release)


class CPU(Resource):
    """A single-server CPU; ``execute`` charges busy time FIFO.

    All compute *and* per-message protocol overhead on a node goes through
    its CPU, so a node flooded with incoming messages genuinely loses
    compute throughput — the mechanism behind RA's WAN collapse.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=1, name=name)

    def execute(self, seconds: float, priority: int = 0) -> Generator:
        """Process-style: occupy the CPU for ``seconds`` of virtual time.

        ``priority=0`` (default) is protocol/interrupt work; application
        compute quanta use ``priority=1`` so message handling preempts
        them at quantum boundaries."""
        if seconds < 0:
            raise SimulationError(f"negative execute time: {seconds}")
        yield self.request(priority)
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.release()

    def execute_ev(self, seconds: float, priority: int = 0) -> Event:
        """One-shot ``execute``: returns the completion event directly.

        Exactly :meth:`execute`'s virtual-time semantics without the
        generator — uncontended charges schedule a single timeout (see
        :meth:`Resource.occupy`).  The hot path for per-message protocol
        overhead in the fabric and the Orca runtime.
        """
        return self._occupy(seconds, priority, None)


class Barrier:
    """A reusable barrier for a fixed number of parties.

    The last arriver completes the episode analytically: at a quiet
    instant (nothing else scheduled *now*) the gate is fired inline,
    resuming every earlier arriver immediately instead of one dispatch
    later.  The last arriver itself then waits on an already-processed
    gate, which costs the usual recycled kick event — so the heap sees
    exactly one entry per episode either way and
    ``Simulator.stats()['events_processed']`` is unchanged.  At busy
    instants the gate is posted through the heap (counted as a
    fallback), so same-instant races linearize in order.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1: {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._arrived = 0
        self._gate = Event(sim)
        self.generation = 0

    def wait(self) -> Event:
        """Return an event that fires when all parties have arrived."""
        self._arrived += 1
        gate = self._gate
        if self._arrived == self.parties:
            sim = self.sim
            self._arrived = 0
            self._gate = Event(sim)
            self.generation += 1
            if sim.idle_at_now():
                fire(gate, self.generation)  # fire() counts the completion
            else:
                sim._n_fallback += 1
                gate.succeed(self.generation)
        return gate
