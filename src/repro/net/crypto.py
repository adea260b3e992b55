"""The secure channel: link keys and sealed protocol messages.

The paper encrypts all protocol traffic with AES-256-GCM. The protocol
analysis needs two properties of it, and this module models each by the
capability it grants rather than by bytes:

* **Confidentiality** — the attacker cannot read the requested TA waittime
  ``s`` and must infer it from timing (§III-C). No simulated party other
  than the receiver reads a payload: adversaries are handed only an
  :class:`~repro.net.adversary.Observation` (addresses, wire size, timing).
  So :meth:`SecureChannelKey.seal` holds the message by reference.
* **Integrity** — :meth:`SecureChannelKey.open` applies AEAD's acceptance
  rule: a sealed message verifies only under the key it was sealed with,
  and forged bytes never verify. The attacker is limited to delaying,
  dropping, reordering and replaying.

The wire size, the one payload property an observer sees, is fixed per
message type (:data:`WIRE_BYTES`), as for the paper's fixed-size C++
structs, so sizes never leak field values.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.errors import CryptoError
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest, TimeResponse

#: Byte length of symmetric keys (matches AES-256).
KEY_BYTES = 32

#: Wire size of each sealed message type: 12-B GCM IV + fixed-size struct
#: (128 B; 256 B for the TA's five-field reply) + 16-B tag.
WIRE_BYTES: dict[type, int] = {
    TimeRequest: 156,
    TimeResponse: 284,
    PeerTimeRequest: 156,
    PeerTimeResponse: 156,
}


def derive_key(*labels: str) -> bytes:
    """Derive a deterministic 32-byte key from string labels.

    Experiments pre-share keys between protocol participants (the paper
    provisions keys at enclave attestation time, which is out of scope of
    the time protocol itself). Deriving keys from participant names keeps
    runs reproducible without modelling a key exchange.
    """
    if not labels:
        raise CryptoError("key derivation requires at least one label")
    material = "\x1f".join(labels).encode("utf-8")
    return hashlib.sha256(b"repro-triad-key-v1:" + material).digest()


def derive_epoch_secret(epoch: int, *labels: str) -> bytes:
    """Per-epoch group secret distributed by a membership controller.

    The secret itself never travels on the simulated wire: the controller
    hands it to every *member* endpoint, which folds it into each link key
    (:meth:`SecureChannelKey.rekey`). A node the controller withholds the
    secret from keeps sealing with its previous epoch key, and every
    member rejects those messages at :meth:`SecureChannelKey.open` — the
    cryptographic cut that makes quarantine enforceable.
    """
    if epoch < 0:
        raise CryptoError(f"epoch must be non-negative, got {epoch}")
    return derive_key("membership-epoch", str(epoch), *labels)


@dataclass(frozen=True, slots=True)
class SealedMessage:
    """A protocol message sealed under a link key; ``len()`` is its wire size."""

    key: bytes
    message: Any

    def __len__(self) -> int:
        return WIRE_BYTES[type(self.message)]


class SecureChannelKey:
    """The symmetric key of one link, rotated per membership epoch.

    Both ends of a channel may hold the same object in simulation; real
    deployments would split directions, which does not affect the analysis.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_BYTES:
            raise CryptoError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
        #: The attestation-time base key; epoch rotation always derives
        #: from this, never from the previous epoch key, so a node that
        #: missed epochs re-keys to the current one in a single step.
        self._base_key = key
        self._key = key
        self.epoch = 0

    @classmethod
    def between(cls, party_a: str, party_b: str) -> "SecureChannelKey":
        """Key shared by two named parties (order-independent)."""
        return cls(derive_key(*sorted((party_a, party_b))))

    def rekey(self, epoch_secret: bytes, epoch: int) -> None:
        """Rotate to the key for ``epoch``, derived from the base key.

        Both ends of a link hold the same base key, so feeding them the
        same epoch secret yields interoperating keys without any wire
        exchange. Messages sealed under any other epoch's key fail
        :meth:`open` — "old-epoch messages rejected" is a consequence of
        the key check, not an extra code path. Epoch 0 restores the base
        key exactly (useful for tests and symmetry).
        """
        if epoch < 0:
            raise CryptoError(f"epoch must be non-negative, got {epoch}")
        if epoch == 0:
            self._key = self._base_key
        else:
            self._key = hmac.new(
                epoch_secret, b"rekey:" + self._base_key, hashlib.sha256
            ).digest()
        self.epoch = epoch

    def seal(self, message: Any) -> SealedMessage:
        """Seal a protocol message under this link's current key."""
        if type(message) not in WIRE_BYTES:
            raise CryptoError(f"cannot seal {type(message).__name__}: not a protocol message")
        return SealedMessage(self._key, message)

    def open(self, sealed: Any) -> Any:
        """The message of ``sealed`` if it was sealed under the current key;
        anything else (forged bytes, another key) raises :class:`CryptoError`."""
        if type(sealed) is not SealedMessage or sealed.key != self._key:
            raise CryptoError("authentication tag mismatch (tampered or wrong key)")
        return sealed.message
