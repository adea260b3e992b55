"""Datagram model for the simulated network.

All Triad communications use UDP (per the paper §IV), so the network layer
moves self-contained datagrams with no delivery, ordering, or duplication
guarantees. A datagram's payload is opaque to the network: a message
sealed under a link key (:class:`~repro.net.crypto.SealedMessage`), or the
raw bytes an attacker forges. The network (and the adversary embedded in
it) sees only sizes, addresses, and timing. That is precisely the paper's
attacker model: the attacker cannot read the requested TA waittime ``s``,
but can observe and correlate traffic timing to infer it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.crypto import SealedMessage

#: Process-wide datagram id counter (diagnostics only; never protocol-visible).
_datagram_ids = itertools.count(1)


@dataclass(frozen=True)
class Address:
    """A network address: host name plus port."""

    host: str
    port: int = 0

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class Datagram:
    """One UDP datagram in flight."""

    source: Address
    destination: Address
    payload: SealedMessage | bytes
    sent_at_ns: int
    datagram_id: int = field(default_factory=lambda: next(_datagram_ids))

    @property
    def size_bytes(self) -> int:
        """Wire size visible to any on-path observer."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Datagram #{self.datagram_id} {self.source} -> {self.destination}"
            f" {self.size_bytes}B @ {self.sent_at_ns}>"
        )
