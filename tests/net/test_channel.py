"""Tests for the network: delivery, delays, drops, reordering, adversaries."""

import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import Interference, NetworkAdversary, RuleBasedAdversary
from repro.net.channel import Network
from repro.net.delays import ConstantDelay, UniformDelay
from repro.net.message import Address
from repro.sim import Simulator, units


@pytest.fixture
def sim():
    return Simulator(seed=6)


@pytest.fixture
def net(sim):
    return Network(sim, default_delay=ConstantDelay(units.milliseconds(1)))


def recv_all(sim, socket, count):
    received = []

    def receiver():
        for _ in range(count):
            datagram = yield socket.recv()
            received.append((sim.now, datagram))

    sim.process(receiver())
    return received


class TestDelivery:
    def test_datagram_arrives_after_link_delay(self, sim, net):
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        received = recv_all(sim, b, 1)
        a.send(b.address, b"hello")
        sim.run()
        assert received[0][0] == units.milliseconds(1)
        assert received[0][1].payload == b"hello"

    def test_recv_before_send_blocks_until_arrival(self, sim, net):
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        received = recv_all(sim, b, 1)

        def sender():
            yield sim.timeout(units.SECOND)
            a.send(b.address, b"later")

        sim.process(sender())
        sim.run()
        assert received[0][0] == units.SECOND + units.milliseconds(1)

    def test_queued_datagrams_drained_in_order(self, sim, net):
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        for payload in (b"1", b"2", b"3"):
            a.send(b.address, payload)
        sim.run()
        received = recv_all(sim, b, 3)
        sim.run()
        assert [d.payload for _, d in received] == [b"1", b"2", b"3"]

    def test_unbound_destination_counts_as_dropped(self, sim, net):
        a = net.attach(Address("a"))
        a.send(Address("ghost"), b"void")
        sim.run()
        assert len(net.dropped) == 1

    def test_duplicate_address_rejected(self, net):
        net.attach(Address("a"))
        with pytest.raises(ConfigurationError):
            net.attach(Address("a"))

    def test_per_link_delay_override(self, sim, net):
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        net.set_link_delay("a", "b", ConstantDelay(units.SECOND))
        received = recv_all(sim, b, 1)
        a.send(b.address, b"slow")
        sim.run()
        assert received[0][0] == units.SECOND

    def test_reordering_possible_with_jittery_delays(self, sim):
        net = Network(sim, default_delay=UniformDelay(0, units.SECOND))
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        for i in range(30):
            a.send(b.address, bytes([i]))
        received = recv_all(sim, b, 30)
        sim.run()
        order = [d.payload[0] for _, d in received]
        assert sorted(order) == list(range(30))
        assert order != list(range(30))  # at least one inversion expected


class TestDrops:
    def test_drop_probability_loses_datagrams(self, sim):
        net = Network(sim, default_delay=ConstantDelay(1), drop_probability=0.5)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        for _ in range(200):
            a.send(b.address, b"x")
        sim.run()
        assert 40 < len(net.dropped) < 160
        assert b.received_count == 200 - len(net.dropped)

    def test_invalid_drop_probability_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            Network(sim, drop_probability=1.0)

    def test_dropped_ledger_is_bounded_while_counts_stay_exact(self, sim, net):
        from repro.net.channel import DROPPED_RING_SIZE

        a = net.attach(Address("a"))
        total = DROPPED_RING_SIZE + 500
        for _ in range(total):
            a.send(Address("ghost"), b"void")
        sim.run()
        # The ring keeps only the most recent datagrams (memory bound for
        # long loss campaigns), but the counters never lose a drop.
        assert len(net.dropped) == DROPPED_RING_SIZE
        assert net.dropped_count == total
        assert sum(net.drop_counts.values()) == total


class TestAdversaryIntegration:
    def test_adversary_sees_metadata_not_plaintext(self, sim, net):
        observed = []

        class Spy(NetworkAdversary):
            def interfere(self, observation):
                observed.append(observation)
                return Interference()

        net.add_adversary(Spy(sim))
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"ciphertext-bytes")
        sim.run()
        assert len(observed) == 1
        assert observed[0].source_host == "a"
        assert observed[0].size_bytes == len(b"ciphertext-bytes")
        assert not hasattr(observed[0], "payload")

    def test_adversary_delay_adds_to_base(self, sim, net):
        adversary = RuleBasedAdversary(sim)
        adversary.delay_flow("a", "b", units.milliseconds(100))
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        received = recv_all(sim, b, 1)
        a.send(b.address, b"delayed")
        sim.run()
        assert received[0][0] == units.milliseconds(101)

    def test_adversary_drop(self, sim, net):
        adversary = RuleBasedAdversary(sim)
        adversary.drop_flow("a", "b")
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"lost")
        a.send(Address("a"), b"kept")  # different flow: untouched... to self
        sim.run()
        assert len(net.dropped) == 1
        assert len(adversary.interferences) == 1

    def test_scoped_adversary_ignores_other_hosts(self, sim, net):
        adversary = RuleBasedAdversary(sim, scope_hosts={"c"})
        adversary.add_rule(lambda obs: True, Interference(drop=True))
        net.add_adversary(adversary)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        a.send(b.address, b"unseen")
        sim.run()
        assert b.received_count == 1
        assert adversary.observations == []

    def test_negative_adversary_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Interference(extra_delay_ns=-1)


class TestBatchedDelayDraws:
    """The network pre-draws lognormal delays in batches; every delay and
    loss draw must still equal what per-datagram scalar draws from the
    same stream give."""

    SEED = 31

    def test_batched_delays_equal_scalar_draws(self):
        from repro.net.delays import LogNormalDelay
        from repro.sim.rng import RngRegistry

        sim = Simulator(seed=self.SEED)
        base = LogNormalDelay(median_ns=150_000, sigma=0.35, floor_ns=20_000)
        other = LogNormalDelay(median_ns=400_000, sigma=0.5)
        uniform = UniformDelay(10_000, 90_000)
        net = Network(sim, default_delay=base)
        a = net.attach(Address("a"))
        b = net.attach(Address("b"))
        arrivals = {}
        a.handler = b.handler = lambda d: arrivals.__setitem__(d.payload, sim.now - d.sent_at_ns)

        # (source socket, destination, model of that link, drop probability)
        script = []

        def send(source, destination, count, model, loss=0.0):
            for _ in range(count):
                script.append((model, loss))
                source.send(destination.address, len(script))

        send(a, b, 10, base)  # part of the first batch
        net.set_drop_probability(0.3)
        send(a, b, 12, base, loss=0.3)  # rewinds halfway through the batch
        net.set_drop_probability(0.0)
        send(a, b, 5, base)
        net.set_link_delay("a", "b", other)
        for _ in range(4):  # alternates two batched models
            send(a, b, 2, other)
            send(b, a, 1, base)
        net.set_link_delay("a", "b", uniform)
        for _ in range(4):  # an unbatched model between batched draws
            send(a, b, 1, uniform)
            send(b, a, 2, base)
        send(b, a, 150, base)  # crosses several batch boundaries
        sim.run()

        reference = RngRegistry(seed=self.SEED).stream("network")
        expected = {}
        for payload, (model, loss) in enumerate(script, start=1):
            delay = model.sample(reference)
            if loss and reference.random() < loss:
                continue
            expected[payload] = delay
        assert arrivals == expected
        assert len(expected) < len(script)  # the loss window dropped some
