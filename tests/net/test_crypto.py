"""Tests for the secure channel: key handling, sealing, the key check, and
where confidentiality lives (the adversary's observation boundary)."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import repro.attacks
from repro.errors import CryptoError
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest, TimeResponse
from repro.net.adversary import NetworkAdversary, Observation
from repro.net.crypto import (
    KEY_BYTES,
    WIRE_BYTES,
    SealedMessage,
    SecureChannelKey,
    derive_key,
)


@pytest.fixture
def key():
    return SecureChannelKey.between("alice", "bob")


class TestKeyDerivation:
    def test_deterministic(self):
        assert derive_key("a", "b") == derive_key("a", "b")

    def test_label_sensitive(self):
        assert derive_key("a", "b") != derive_key("a", "c")
        assert derive_key("a", "b") != derive_key("ab")

    def test_key_length(self):
        assert len(derive_key("x")) == KEY_BYTES

    def test_between_is_order_independent(self):
        a = SecureChannelKey.between("alice", "bob")
        b = SecureChannelKey.between("bob", "alice")
        assert b.open(a.seal(PeerTimeRequest(request_id=1))) == PeerTimeRequest(request_id=1)

    def test_no_labels_rejected(self):
        with pytest.raises(CryptoError):
            derive_key()

    def test_wrong_key_length_rejected(self):
        with pytest.raises(CryptoError):
            SecureChannelKey(b"short")


class TestRoundTrip:
    def test_seal_open_round_trip(self, key):
        message = TimeRequest(request_id=3, sleep_ns=1_000_000_000)
        assert key.open(key.seal(message)) == message

    def test_arbitrary_python_objects(self, key):
        message = TimeRequest(request_id=7, sleep_ns=5)
        assert key.open(key.seal(message)) == message

    @pytest.mark.parametrize("message", [{"sleep_ns": 5}, "hello", 7, None, b"raw"])
    def test_only_protocol_messages_can_be_sealed(self, key, message):
        with pytest.raises(CryptoError, match="not a protocol message"):
            key.seal(message)

    def test_wire_sizes_are_the_fixed_structs(self, key):
        """Today's sizes: 12-B IV + 128-B (256-B for the TA reply) struct + 16-B tag."""
        assert len(key.seal(TimeRequest(request_id=1))) == 156
        assert len(key.seal(PeerTimeRequest(request_id=1))) == 156
        assert len(key.seal(PeerTimeResponse(request_id=1, timestamp_ns=2))) == 156
        assert len(key.seal(TimeResponse(1, 2, 3, 4, 5))) == 284
        assert set(WIRE_BYTES) == {TimeRequest, TimeResponse, PeerTimeRequest, PeerTimeResponse}


class TestIntegrity:
    def test_every_flipped_bit_detected(self, key):
        """A seal forged under any key one bit away from the link key fails."""
        message = TimeRequest(request_id=1, sleep_ns=5)
        link_key = key.seal(message).key
        for position in range(KEY_BYTES):
            for bit in range(8):
                forged = bytearray(link_key)
                forged[position] ^= 1 << bit
                with pytest.raises(CryptoError, match="tag mismatch"):
                    key.open(SealedMessage(bytes(forged), message))

    def test_truncation_detected(self, key):
        """Raw bytes never verify, at the wire length or one byte short of it."""
        wire = len(key.seal(TimeRequest(request_id=1)))
        for length in (wire, wire - 1):
            with pytest.raises(CryptoError, match="tag mismatch"):
                key.open(b"\x00" * length)

    def test_too_short_blob_rejected(self, key):
        with pytest.raises(CryptoError):
            key.open(b"x")

    def test_unsealed_message_rejected(self, key):
        with pytest.raises(CryptoError, match="tag mismatch"):
            key.open(TimeRequest(request_id=1))

    def test_wrong_key_rejected(self, key):
        other = SecureChannelKey.between("alice", "carol")
        with pytest.raises(CryptoError):
            other.open(key.seal(TimeRequest(request_id=1)))


def _attack_adversaries():
    """Every NetworkAdversary subclass defined anywhere in :mod:`repro.attacks`."""
    found = set()
    for info in pkgutil.walk_packages(repro.attacks.__path__, "repro.attacks."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, NetworkAdversary) and cls.__module__ == module.__name__:
                found.add(cls)
    return found


class TestConfidentiality:
    def test_plaintext_not_in_ciphertext(self, key):
        """What an adversary records of a sealed datagram holds no message field."""
        from repro.net.channel import Network
        from repro.net.message import Address
        from repro.sim import Simulator

        secret = 987_654_321_123
        sim = Simulator(seed=1)
        network = Network(sim)
        spy = NetworkAdversary(sim)
        network.add_adversary(spy)
        sender = network.attach(Address("alice"))
        network.attach(Address("bob"))
        sender.send(Address("bob"), key.seal(TimeRequest(request_id=4, sleep_ns=secret)))
        sim.run()
        (observation,) = spy.observations
        values = dataclasses.astuple(observation)
        assert secret not in values
        assert str(secret) not in repr(observation)
        assert observation.size_bytes == 156

    def test_sleep_value_not_recoverable_from_bytes(self, key):
        """The attacker's blindness to s — the premise of the F± attacks."""
        blob_zero = key.seal(TimeRequest(request_id=1, sleep_ns=0))
        blob_one = key.seal(TimeRequest(request_id=2, sleep_ns=1_000_000_000))
        # Identical sizes: size side-channel closed; only timing remains.
        assert len(blob_zero) == len(blob_one)

    def test_observation_holds_only_metadata(self):
        """The observation boundary is what keeps payloads from attackers."""
        assert [field.name for field in dataclasses.fields(Observation)] == [
            "time_ns",
            "source_host",
            "destination_host",
            "size_bytes",
            "datagram_id",
        ]

    def test_no_attack_receives_the_datagram(self):
        """Only ``observe`` (and the ``in_scope`` filter it calls) is handed
        the Datagram, and with it the sealed message; no attack may
        override either to look inside."""
        adversaries = _attack_adversaries()
        assert adversaries, "repro.attacks defines no NetworkAdversary subclass"
        for cls in adversaries:
            for method in ("observe", "in_scope"):
                assert getattr(cls, method) is getattr(NetworkAdversary, method), (
                    f"{cls.__qualname__}.{method}"
                )
