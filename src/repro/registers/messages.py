"""Wire messages of the quorum register protocol.

Four message kinds, matching the two round trips of the algorithm in
Section 4: a read is a (ReadQuery, ReadReply) exchange with each quorum
member, a write a (WriteUpdate, WriteAck) exchange.  Messages carry the
register name so one server can host replicas of many registers.

Each of the four also carries a trailing ``view`` id for dynamic
membership (``repro.membership``): requests are stamped with the
client's view, replies with the server's, and a server nacks a request
stamped with an older view (:class:`StaleViewNack`) so the client
refreshes and re-dispatches.  Static deployments leave it at 0, which
``repr`` omits, so membership-free traces show no stamp.

Messages are frozen tuples (:class:`typing.NamedTuple`), allocated on
every quorum round; immutability lets
:meth:`~repro.sim.network.Network.broadcast` share one instance across a
whole quorum.  Each class precomputes its stats label as a class-level
``kind``, so the network never falls back to ``type(message).__name__``.
"""

from typing import Any, NamedTuple

from repro.core.timestamps import Timestamp


def _stamp(view: int) -> str:
    return f", view={view}" if view else ""


class ReadQuery(NamedTuple):
    """Client -> server: request the server's replica of a register."""

    register: str
    op_id: int
    view: int = 0

    kind = "read_query"

    def __repr__(self) -> str:
        return f"ReadQuery({self.register!r}, op={self.op_id}{_stamp(self.view)})"


class ReadReply(NamedTuple):
    """Server -> client: the replica's current value and timestamp."""

    register: str
    op_id: int
    value: Any
    timestamp: Timestamp
    view: int = 0

    kind = "read_reply"

    def __repr__(self) -> str:
        return (
            f"ReadReply({self.register!r}, op={self.op_id}, v={self.value!r}, "
            f"ts={self.timestamp.seq}{_stamp(self.view)})"
        )


class WriteUpdate(NamedTuple):
    """Client -> server: install a value if its timestamp is newer."""

    register: str
    op_id: int
    value: Any
    timestamp: Timestamp
    view: int = 0

    kind = "write_update"

    def __repr__(self) -> str:
        return (
            f"WriteUpdate({self.register!r}, op={self.op_id}, v={self.value!r}, "
            f"ts={self.timestamp.seq}{_stamp(self.view)})"
        )


class WriteAck(NamedTuple):
    """Server -> client: acknowledge a WriteUpdate."""

    register: str
    op_id: int
    view: int = 0

    kind = "write_ack"

    def __repr__(self) -> str:
        return f"WriteAck({self.register!r}, op={self.op_id}{_stamp(self.view)})"


class StaleViewNack(NamedTuple):
    """Server -> client: request refused, stamped view is out of date.

    ``view`` is the server's *current* view id; the client refreshes to
    it and re-dispatches the operation under the new view's quorum.
    """

    register: str
    op_id: int
    view: int

    kind = "stale_view_nack"

    def __repr__(self) -> str:
        return f"StaleViewNack({self.register!r}, op={self.op_id}, view={self.view})"


class StateRequest(NamedTuple):
    """Joiner -> old-view member: request the member's replica state."""

    transfer_id: int
    view: int

    kind = "state_request"

    def __repr__(self) -> str:
        return f"StateRequest(transfer={self.transfer_id}, view={self.view})"


class StateReply(NamedTuple):
    """Old-view member -> joiner: every materialised replica entry.

    ``entries`` is a tuple of ``(register, timestamp, value)`` triples;
    registers the member never touched stay at their declared initial
    values, which the joiner's lazy replica probe supplies on demand.
    """

    transfer_id: int
    view: int
    entries: Any

    kind = "state_reply"

    def __repr__(self) -> str:
        return (
            f"StateReply(transfer={self.transfer_id}, view={self.view}, "
            f"entries={len(self.entries)})"
        )
