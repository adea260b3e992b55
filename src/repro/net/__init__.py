"""Simulated UDP network with sealed payloads and on-path adversaries.

The layering mirrors the paper's implementation: UDP datagrams, all
payloads encrypted and authenticated (the paper uses AES-256-GCM; we model
what it guarantees, see :mod:`repro.net.crypto`), and an attacker whose
power over traffic is exactly observe/delay/drop.
"""

from repro.net.adversary import (
    Interference,
    NetworkAdversary,
    Observation,
    PASS,
    RuleBasedAdversary,
)
from repro.net.channel import Network, Socket
from repro.net.crypto import SecureChannelKey, derive_key
from repro.net.delays import (
    ConstantDelay,
    DelayModel,
    LogNormalDelay,
    UniformDelay,
    paper_lan_delay,
)
from repro.net.message import Address, Datagram
from repro.net.transport import Envelope, PeerLink, SecureEndpoint

__all__ = [
    "Address",
    "ConstantDelay",
    "Datagram",
    "DelayModel",
    "Envelope",
    "Interference",
    "LogNormalDelay",
    "Network",
    "NetworkAdversary",
    "Observation",
    "PASS",
    "PeerLink",
    "RuleBasedAdversary",
    "SecureChannelKey",
    "SecureEndpoint",
    "Socket",
    "UniformDelay",
    "derive_key",
    "paper_lan_delay",
]
