"""The deterministic ``sim`` runtime: the network as one event heap.

Every interaction in the simulated network — a message delivery, a timer, a
garbage-collection sweep — is an *event* due at a simulated time.
:class:`SimTransport` keeps them all on a single heap of
``(time, sequence, item)`` entries, where the item is the in-flight
:class:`~repro.net.messages.Envelope` itself or a timer.  Envelopes and
timers draw their sequence numbers from one counter, so events pop in time
order with ties broken by scheduling order, and two runs with the same seed
take the same decisions in the same order.  This is the test/oracle harness
behind the transport-neutral :class:`~repro.net.runtime.Transport`
contract; the engine (:mod:`repro.core.engine`) drains it between tuple
publications.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.net.messages import Envelope
from repro.net.runtime import DeliverCallback, EventHandle, Transport, _ScheduledEvent

#: A heap entry: due time, scheduling sequence, then the envelope or timer.
_Entry = Tuple[float, int, Union[Envelope, _ScheduledEvent]]


class SimTransport(Transport):
    """Deterministic discrete-event runtime behind the :class:`Transport` contract.

    A posted envelope goes on the heap as-is and reaches the bound delivery
    callback ``delay`` time units later.  Timers go on the same heap and
    return a cancellable :class:`~repro.net.runtime.EventHandle`; a
    cancelled timer stays on the heap and is skipped when popped.
    In-flight surgery filters the heap by destination.
    """

    name = "sim"

    #: Spans stay logical-clock-only here: wall time in a trace would make
    #: two reruns of the same seed produce different trace files.
    wall_clock_spans = False

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[_Entry] = []
        self._sequence = itertools.count()
        self._deliver: Optional[DeliverCallback] = None
        self._live_events = 0  # envelopes plus uncancelled, unfired timers
        self._events_processed = 0
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, deliver: DeliverCallback) -> None:
        """Install the delivery callback posted envelopes are handed to."""
        self._deliver = deliver

    def register_address(self, address: str) -> None:
        """No per-address state: the heap routes by envelope destination."""

    def unregister_address(self, address: str) -> None:
        """No per-address state to tear down."""

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without processing events.

        Used by the engine to model wall-clock gaps between tuple
        publications.  Pending events due before ``time`` are *not*
        skipped: the next :meth:`drain` processes them at their own
        timestamps; the clock simply never moves backwards.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move the clock backwards from {self._now} to {time}"
            )
        self._now = time

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Put the envelope on the heap, due ``delay`` time units from now."""
        if self._closed:
            raise SimulationError("transport is shut down; post() refused")
        if self._deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), envelope))
        self._live_events += 1

    def cancel_inbound(self, address: str) -> int:
        """Destroy the undelivered envelopes addressed to ``address``."""
        return len(self._take_inbound(address))

    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take the undelivered envelopes addressed to ``address`` off the
        heap, in scheduling order."""
        return self._take_inbound(address)

    def _take_inbound(self, address: str) -> List[Envelope]:
        taken: List[Tuple[float, int, Envelope]] = []
        kept: List[_Entry] = []
        for entry in self._heap:
            item = entry[2]
            if isinstance(item, Envelope) and item.destination == address:
                taken.append((entry[0], entry[1], item))
            else:
                kept.append(entry)
        if taken:
            heapq.heapify(kept)
            self._heap[:] = kept
            self._live_events -= len(taken)
            taken.sort()
        return [envelope for _, _, envelope in taken]

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        timer = _ScheduledEvent(
            time=time, sequence=next(self._sequence), callback=callback, args=args
        )
        heapq.heappush(self._heap, (time, timer.sequence, timer))
        self._live_events += 1
        return EventHandle(timer, self)

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event; return False when none remain.

        Event-level control for tests on the ``sim`` runtime; :meth:`drain`
        is this in a loop.
        """
        heap = self._heap
        while heap:
            time, _, item = heapq.heappop(heap)
            if isinstance(item, _ScheduledEvent) and item.cancelled:
                continue
            if time > self._now:
                self._now = time
            self._events_processed += 1
            self._live_events -= 1
            if isinstance(item, Envelope):
                deliver = self._deliver
                assert deliver is not None  # post() requires bind()
                deliver(item)
            else:
                item.fired = True
                item.callback(*item.args)
            return True
        return False

    def drain(self, max_events: Optional[int] = None) -> int:
        """Process events until the heap is empty; returns the number processed."""
        if self._draining:
            raise SimulationError("drain() is not re-entrant")
        if self._closed:
            raise SimulationError("transport is shut down; cannot drain")
        self._draining = True
        processed = 0
        try:
            while self.step():
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded the maximum of {max_events} events"
                    )
        finally:
            self._draining = False
        return processed

    @property
    def is_draining(self) -> bool:
        """Whether :meth:`drain` is currently executing."""
        return self._draining

    @property
    def pending_events(self) -> int:
        """Undelivered envelopes plus uncancelled pending timers; O(1)."""
        return self._live_events

    @property
    def events_processed(self) -> int:
        """Total deliveries and timer firings since construction."""
        return self._events_processed

    def shutdown(self) -> None:
        """Drain remaining events and refuse further posts.  Idempotent.

        The heap holds no external resources, so shutdown only needs to
        honour the contract: outstanding work completes, then the transport
        goes inert.
        """
        if self._closed:
            return
        if not self._draining and self._live_events:
            self.drain()
        self._closed = True

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`shutdown` has completed."""
        return self._closed
