"""Tests for the ``sim`` runtime's event heap: what only it guarantees.

The transport contract both runtimes share lives in
``test_transport_conformance.py``; this module covers the deterministic
extras — one (time, scheduling) order across envelopes and timers, exact
clock values, :meth:`SimTransport.step` and the live-event counter.
"""

import pytest

from repro.net.messages import Envelope, Message
from repro.net.simulator import SimTransport


def envelope(destination: str = "node-1") -> Envelope:
    return Envelope(message=Message(), sender="node-0", destination=destination)


@pytest.fixture
def fired():
    """Everything the transport fired, in order: envelopes and timer tags."""
    return []


@pytest.fixture
def transport(fired):
    runtime = SimTransport()
    runtime.bind(fired.append)
    return runtime


class TestOneOrder:
    def test_timer_scheduled_first_fires_before_envelope_due_together(
        self, transport, fired
    ):
        transport.schedule_at(9.0, fired.append, "late timer")
        transport.schedule_at(1.0, fired.append, "timer")
        env = envelope()
        transport.post(env, 1.0)
        transport.drain()
        assert fired == ["timer", env, "late timer"]

    def test_envelope_posted_first_fires_before_timer_due_together(
        self, transport, fired
    ):
        late, env = envelope(), envelope()
        transport.post(late, 9.0)
        transport.post(env, 1.0)
        transport.schedule_at(1.0, fired.append, "timer")
        transport.drain()
        assert fired == [env, "timer", late]

    def test_extract_returns_due_order_and_keeps_the_rest_ordered(
        self, transport, fired
    ):
        slow, fast, other = envelope(), envelope(), envelope("node-2")
        transport.post(slow, 3.0)
        transport.post(other, 2.0)
        transport.post(fast, 1.0)
        transport.schedule_at(2.0, fired.append, "timer")
        assert transport.extract_inbound("node-1") == [fast, slow]
        assert transport.pending_events == 2
        transport.drain()
        assert fired == [other, "timer"]

    def test_cancel_inbound_mid_drain_keeps_the_order(self, transport, fired):
        # A crash fired from inside a drain filters the heap under the loop.
        first, lost, also_lost, last = (
            envelope(),
            envelope("node-2"),
            envelope("node-2"),
            envelope(),
        )

        def crash_node_2(env):
            fired.append(env)
            if env is first:
                assert transport.cancel_inbound("node-2") == 2

        transport.bind(crash_node_2)
        transport.post(last, 3.0)
        transport.post(lost, 2.0)
        transport.post(first, 1.0)
        transport.post(also_lost, 2.0)
        assert transport.drain() == 2
        assert fired == [first, last]
        assert transport.pending_events == 0


class TestClock:
    def test_clock_reads_each_event_time_exactly(self, transport):
        transport.advance_to(10.0)
        seen = []

        def first():
            seen.append(transport.now)
            transport.schedule_in(1.0, lambda: seen.append(transport.now))

        transport.schedule_in(2.5, first)
        transport.drain()
        assert seen == [12.5, 13.5]
        assert transport.now == 13.5

    def test_delivery_happens_at_the_envelope_due_time(self, transport):
        seen = []
        transport.bind(lambda env: seen.append(transport.now))
        transport.advance_to(4.0)
        transport.post(envelope(), 2.0)
        transport.drain()
        assert seen == [6.0]


class TestStep:
    def test_step_processes_one_event_at_a_time(self, transport, fired):
        env = envelope()
        transport.post(env, 1.0)
        transport.schedule_at(2.0, fired.append, "timer")
        assert transport.step() is True
        assert fired == [env]
        assert transport.pending_events == 1
        assert transport.step() is True
        assert transport.step() is False
        assert fired == [env, "timer"]
        assert transport.events_processed == 2

    def test_step_skips_cancelled_timers(self, transport, fired):
        transport.schedule_at(1.0, fired.append, "dropped").cancel()
        transport.schedule_at(2.0, fired.append, "kept")
        assert transport.step() is True
        assert fired == ["kept"]
        assert transport.step() is False
        assert transport.events_processed == 1

    def test_cancel_after_fire_keeps_counter_consistent(self, transport):
        handle = transport.schedule_at(1.0, lambda: None)
        transport.schedule_at(2.0, lambda: None)
        transport.step()
        handle.cancel()  # no-op: the timer already fired
        assert transport.pending_events == 1
        transport.drain()
        assert transport.pending_events == 0


class TestPendingEventsCounter:
    def test_pending_events_is_tracked_incrementally(self, transport):
        handles = [transport.schedule_at(float(i), lambda: None) for i in range(5)]
        for _ in range(3):
            transport.post(envelope(), 1.0)
        assert transport.pending_events == 8
        handles[0].cancel()
        handles[0].cancel()  # double cancel must not double count
        assert transport.pending_events == 7
        assert transport.cancel_inbound("node-1") == 3
        assert transport.pending_events == 4
        transport.drain()
        assert transport.pending_events == 0
