"""Chord-based Distributed Hash Table substrate.

The paper layers RJoin on top of an existing DHT and only uses the standard
lookup API (Section 2); Chord is used in the examples and experiments.  This
subpackage implements that substrate:

* :mod:`repro.dht.hashing` — the m-bit identifier space, consistent hashing
  via SHA-1 and circular-interval arithmetic,
* :mod:`repro.dht.ring` — the sorted identifier ring (successor queries),
* :mod:`repro.dht.chord` — Chord nodes, finger tables, greedy O(log N)
  lookup-path computation, node join/leave and id movement,
* :mod:`repro.dht.api` — the messaging API of the paper:
  ``send(msg, id)``, ``multiSend(M, I)`` and ``sendDirect(msg, addr)``, with
  hop-accurate traffic accounting on the runtime transport,
* :mod:`repro.dht.loadbalance` — the id-movement load balancer used by the
  lower-layer experiment of Figure 9.
"""

from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordNode, ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.dht.loadbalance import IdMovementBalancer
from repro.dht.ring import RingMap

__all__ = [
    "ChordNode",
    "ChordRing",
    "DHTMessagingService",
    "IdMovementBalancer",
    "IdentifierSpace",
    "RingMap",
]
