"""Tests for secure endpoints: sealing, routing, authentication drops."""

import pytest

from repro.errors import ConfigurationError
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest
from repro.net.channel import Network
from repro.net.crypto import SecureChannelKey
from repro.net.delays import ConstantDelay
from repro.net.transport import SecureEndpoint
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=7)


@pytest.fixture
def net(sim):
    return Network(sim, default_delay=ConstantDelay(units.milliseconds(1)))


@pytest.fixture
def pair(sim, net):
    alice = SecureEndpoint(sim, net, "alice")
    bob = SecureEndpoint(sim, net, "bob")
    alice.register_peer(bob)
    bob.register_peer(alice)
    return alice, bob


class TestMessaging:
    def test_round_trip_message(self, sim, pair):
        alice, bob = pair
        inbox = []

        def bob_loop():
            envelope = yield bob.recv()
            inbox.append(envelope)

        sim.process(bob_loop())
        alice.send("bob", TimeRequest(request_id=1, sleep_ns=5))
        sim.run()
        assert inbox[0].sender == "alice"
        assert inbox[0].message == TimeRequest(request_id=1, sleep_ns=5)
        assert inbox[0].received_at_ns == units.milliseconds(1)

    def test_bidirectional_conversation(self, sim, pair):
        alice, bob = pair
        transcript = []

        def bob_loop():
            envelope = yield bob.recv()
            transcript.append(envelope.message)
            bob.send("alice", PeerTimeResponse(request_id=1, timestamp_ns=2))

        def alice_loop():
            alice.send("bob", PeerTimeRequest(request_id=1))
            envelope = yield alice.recv()
            transcript.append(envelope.message)

        sim.process(bob_loop())
        sim.process(alice_loop())
        sim.run()
        assert transcript == [
            PeerTimeRequest(request_id=1),
            PeerTimeResponse(request_id=1, timestamp_ns=2),
        ]

    def test_drain_returns_queued_messages(self, sim, pair):
        alice, bob = pair
        for i in range(3):
            alice.send("bob", PeerTimeRequest(request_id=i))
        sim.run()
        assert [envelope.message.request_id for envelope in bob.drain()] == [0, 1, 2]
        assert bob.drain() == []

    def test_send_to_unknown_peer_rejected(self, pair):
        alice, _ = pair
        with pytest.raises(ConfigurationError):
            alice.send("mallory", PeerTimeRequest(request_id=1))

    def test_cannot_peer_with_self(self, sim, net):
        endpoint = SecureEndpoint(sim, net, "solo")
        with pytest.raises(ConfigurationError):
            endpoint.add_peer("solo", endpoint.address, SecureChannelKey.between("a", "b"))

    def test_duplicate_peer_rejected(self, pair):
        alice, bob = pair
        with pytest.raises(ConfigurationError):
            alice.register_peer(bob)


class TestAuthentication:
    def test_unknown_sender_dropped(self, sim, net, pair):
        alice, bob = pair
        mallory = SecureEndpoint(sim, net, "mallory")
        mallory.add_peer("bob", bob.address, SecureChannelKey.between("mallory", "bob"))
        mallory.send("bob", PeerTimeRequest(request_id=1))
        sim.run()
        assert bob.unknown_sender_drops == 1
        assert bob.drain() == []

    def test_spoofed_source_fails_authentication(self, sim, net, pair):
        """Mallory spoofs Alice's address but lacks the alice-bob key."""
        alice, bob = pair
        wrong_key = SecureChannelKey.between("mallory", "bob")
        net.send(alice.address, bob.address, wrong_key.seal(PeerTimeRequest(request_id=1)))
        sim.run()
        assert bob.auth_failures == 1
        assert bob.drain() == []

    def test_tampered_datagram_dropped(self, sim, net, pair):
        """Forged bytes from a registered source count as auth failures."""
        alice, bob = pair
        net.send(alice.address, bob.address, b"\xff" * 156)
        sim.run()
        assert bob.auth_failures == 1
        assert bob.drain() == []

    def test_replayed_datagram_is_accepted_by_base_protocol(self, sim, net, pair):
        """The channel itself does not prevent replay — documents the
        model honestly: replay defenses live at the protocol layer
        (request ids), not the crypto layer."""
        alice, bob = pair
        key = SecureChannelKey.between("alice", "bob")
        message = PeerTimeRequest(request_id=1)
        sealed = key.seal(message)
        net.send(alice.address, bob.address, sealed)
        net.send(alice.address, bob.address, sealed)
        sim.run()
        assert [envelope.message for envelope in bob.drain()] == [message, message]


class TestHandlerDelivery:
    def test_handler_replaces_the_queue(self, sim, pair):
        alice, bob = pair
        handled = []
        bob.handler = handled.append
        alice.send("bob", PeerTimeRequest(request_id=4))
        sim.run()
        assert [(e.sender, e.message, e.received_at_ns) for e in handled] == [
            ("alice", PeerTimeRequest(request_id=4), units.milliseconds(1))
        ]
        assert bob.drain() == []

    def test_one_kernel_event_per_datagram(self, sim, pair):
        """Ping-pong over a constant delay: each handler runs inside the
        delivery timeout of its datagram, with no kernel event between
        ``send`` and the handler."""
        alice, bob = pair
        legs = 10
        processed = []
        sim.add_trace_hook(processed.append)
        seen = []

        def responder(endpoint, peer):
            def handle(envelope):
                seen.append((len(processed), sim.now, envelope.sender))
                request_id = envelope.message.request_id
                if request_id < legs:
                    endpoint.send(peer, PeerTimeRequest(request_id=request_id + 1))

            return handle

        alice.handler = responder(alice, "bob")
        bob.handler = responder(bob, "alice")
        alice.send("bob", PeerTimeRequest(request_id=1))
        sim.run()
        assert len(processed) == legs
        assert seen == [
            (leg, (leg + 1) * units.milliseconds(1), "alice" if leg % 2 == 0 else "bob")
            for leg in range(legs)
        ]
