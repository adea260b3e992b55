"""Plaintext protocol messages exchanged by Triad participants.

These dataclasses are what goes *inside* a sealed message
(:class:`~repro.net.crypto.SealedMessage`); the network and the adversary
never see their fields, only a fixed wire size per type. Two sub-protocols
exist, matching the paper (§III-B):

* **Node ↔ Time Authority**: :class:`TimeRequest` carries the requested
  waittime ``sleep_ns`` (the secret ``s`` of the calibration protocol);
  :class:`TimeResponse` returns the TA's reference clock reading. The
  response also carries NTP-style receive/transmit timestamps — the base
  Triad protocol ignores them, the hardened protocol (§V) uses them for
  proper offset/delay estimation.
* **Node ↔ Node (peers)**: after an AEX a tainted node broadcasts
  :class:`PeerTimeRequest`; peers that are not themselves tainted answer
  with :class:`PeerTimeResponse` carrying their current trusted timestamp.

``request_id`` correlates responses with requests at the protocol layer
(UDP has no sessions); ids are generated per node and never reused.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimeRequest:
    """Ask the Time Authority for a reference timestamp.

    ``sleep_ns`` asks the TA to wait that long before replying — the probe
    mechanism of Triad's TSC-rate calibration. ``sleep_ns=0`` requests an
    immediate response (used for reference/offset calibration).
    """

    request_id: int
    sleep_ns: int = 0


@dataclass(frozen=True)
class TimeResponse:
    """The Time Authority's reply.

    ``reference_time_ns`` is the TA clock at transmission. ``receive_time_ns``
    and ``transmit_time_ns`` expose the NTP-style T2/T3 pair; with the
    client's send/receive instants they allow offset and path-delay
    estimation (used by the hardened protocol only).
    """

    request_id: int
    reference_time_ns: int
    sleep_ns: int
    receive_time_ns: int
    transmit_time_ns: int


@dataclass(frozen=True)
class PeerTimeRequest:
    """Broadcast by a tainted node asking peers for a fresh timestamp."""

    request_id: int


@dataclass(frozen=True)
class PeerTimeResponse:
    """A peer's current trusted timestamp (only sent when not tainted).

    ``error_bound_ns`` is the responding node's own estimate of its clock
    error; the base protocol sends zero and ignores it, the hardened
    protocol uses it for Marzullo-style consistency checks.
    """

    request_id: int
    timestamp_ns: int
    error_bound_ns: int = 0
