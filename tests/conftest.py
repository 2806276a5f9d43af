"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import signal
from typing import Optional

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.protocol import AnswerMessage
from repro.data.schema import Catalog
from repro.net.messages import Envelope
from repro.net.simulator import SimTransport
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(autouse=True)
def _hard_timeout(request):
    """Hard per-test timeout guard, opt-in via ``@pytest.mark.hard_timeout(s)``.

    The concurrent-runtime tests drive a real event loop; a bug there hangs
    instead of failing.  pytest-timeout is not part of the CI image, so the
    guard is a plain SIGALRM: the marked test gets ``seconds`` (default 60)
    of wall clock before a ``TimeoutError`` aborts it with a stack trace.
    No-op on platforms without SIGALRM.
    """
    marker = request.node.get_closest_marker("hard_timeout")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.args[0]) if marker.args else 60

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded the hard {seconds}s timeout (likely a hang in "
            "the concurrent runtime)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_catalog() -> Catalog:
    """A three-relation catalog used by most engine-level tests."""
    catalog = Catalog()
    catalog.add_relation("R", ["a", "b"])
    catalog.add_relation("S", ["c", "d"])
    catalog.add_relation("T", ["e", "f"])
    return catalog


@pytest.fixture
def engine(small_catalog) -> RJoinEngine:
    """A small deterministic engine over the three-relation catalog."""
    eng = RJoinEngine(RJoinConfig(num_nodes=16, seed=7), catalog=small_catalog)
    return eng


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator."""
    return random.Random(1234)


def make_engine(catalog: Catalog, **config_overrides) -> RJoinEngine:
    """Helper used by tests that need custom engine configurations."""
    params = {"num_nodes": 16, "seed": 7}
    params.update(config_overrides)
    return RJoinEngine(RJoinConfig(**params), catalog=catalog)


def answer_in_flight(
    engine: RJoinEngine, generator: WorkloadGenerator
) -> Optional[Envelope]:
    """Publish up to 60 generated tuples, stepping the ``sim`` transport one
    event at a time, until an answer is in flight towards a remote owner
    that is still on the ring; returns its envelope (``None`` if the
    workload never produced one).  Tests crash the owner next."""
    transport = engine.transport
    assert isinstance(transport, SimTransport)
    for generated in generator.generate_tuples(60):
        engine.publish(generated.relation, generated.values, process=False)
        while transport.pending_events:
            for _, _, item in transport._heap:
                if (
                    isinstance(item, Envelope)
                    and isinstance(item.message, AnswerMessage)
                    and item.sender != item.destination
                    and item.destination in engine.nodes
                ):
                    return item
            transport.step()
    return None
