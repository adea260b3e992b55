"""Tests for named deterministic random streams."""

import numpy as np

from repro.sim import RngRegistry
from repro.sim.rng import DrawBatch


class TestStreamIdentity:
    def test_same_name_returns_same_generator(self):
        registry = RngRegistry(seed=1)
        assert registry.stream("x") is registry.stream("x")

    def test_contains(self):
        registry = RngRegistry(seed=1)
        assert "x" not in registry
        registry.stream("x")
        assert "x" in registry


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RngRegistry(seed=5).stream("node-1/aex")
        b = RngRegistry(seed=5).stream("node-1/aex")
        assert list(a.integers(0, 1_000_000, 16)) == list(b.integers(0, 1_000_000, 16))

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=5).stream("s")
        b = RngRegistry(seed=6).stream("s")
        assert list(a.integers(0, 1_000_000, 16)) != list(b.integers(0, 1_000_000, 16))

    def test_different_names_independent(self):
        registry = RngRegistry(seed=5)
        a = registry.stream("alpha")
        b = registry.stream("beta")
        assert list(a.integers(0, 1_000_000, 16)) != list(b.integers(0, 1_000_000, 16))


class TestStreamIsolation:
    def test_new_stream_does_not_perturb_existing(self):
        """Adding a consumer must not change other streams' draws.

        This is the property that keeps experiments comparable when an
        attacker (a new randomness consumer) is added to a scenario.
        """
        registry_a = RngRegistry(seed=9)
        draws_before = list(registry_a.stream("core").integers(0, 100, 8))

        registry_b = RngRegistry(seed=9)
        registry_b.stream("attacker")  # extra stream created first
        draws_after = list(registry_b.stream("core").integers(0, 100, 8))

        assert draws_before == draws_after

    def test_unicode_names_accepted(self):
        registry = RngRegistry(seed=0)
        stream = registry.stream("node-ä/ユニット")
        assert stream.random() is not None


class TestStreamSnapshots:
    """Pinned seed→draw-sequence snapshots per named stream.

    These freeze exact values so a kernel or scheduler refactor that
    reorders, interleaves, or re-derives stream state fails loudly here
    instead of as silent golden-trace drift. If one of these snapshots
    ever has to change, every committed trace is invalid with it.
    """

    def test_integers_snapshot(self):
        stream = RngRegistry(seed=2024).stream("node-1/aex")
        assert list(stream.integers(0, 1000, 8)) == [135, 701, 845, 510, 540, 229, 393, 494]

    def test_random_snapshot(self):
        stream = RngRegistry(seed=2024).stream("net/delay")
        draws = [round(float(x), 12) for x in stream.random(4)]
        assert draws == [0.294802859709, 0.288470109014, 0.723607096103, 0.463138730898]

    def test_choice_snapshot(self):
        """The AEX-source draw shape: choice over the paper's three delays."""
        stream = RngRegistry(seed=7).stream("machine/aex/core0")
        delays = (10_000_000, 532_000_000, 1_590_000_000)
        draws = [int(stream.choice(delays)) for _ in range(6)]
        assert draws == [
            532_000_000,
            10_000_000,
            1_590_000_000,
            1_590_000_000,
            532_000_000,
            532_000_000,
        ]

    def test_exponential_snapshot(self):
        stream = RngRegistry(seed=7).stream("machine/aex/core1")
        draws = [int(stream.exponential(1e9)) for _ in range(4)]
        assert draws == [1_288_796_586, 212_802_002, 1_031_731_006, 5_373_904_131]


class TestBatchedDrawStability:
    """Batched draws must equal sequential draws, values AND end state.

    The batched AEX sources (``repro.hardware.aex``) pre-draw inter-arrival
    delays with one size-n numpy call and rely on the stream afterwards
    being indistinguishable from n single-draw calls — both the produced
    values and the bit-generator state (so later consumers of the stream
    see identical randomness either way).
    """

    def _pair(self, seed=13, name="s"):
        return RngRegistry(seed=seed).stream(name), RngRegistry(seed=seed).stream(name)

    def test_choice_batch_matches_sequential(self):
        sequential, batched = self._pair()
        delays = (10_000_000, 532_000_000, 1_590_000_000)
        expected = [int(sequential.choice(delays)) for _ in range(257)]
        got = [int(x) for x in batched.choice(delays, size=257)]
        assert got == expected
        assert sequential.bit_generator.state == batched.bit_generator.state

    def test_exponential_batch_matches_sequential(self):
        sequential, batched = self._pair(seed=29)
        expected = [max(int(sequential.exponential(3.3e8)), 1) for _ in range(257)]
        got = [max(int(x), 1) for x in np.asarray(batched.exponential(3.3e8, size=257))]
        assert got == expected
        assert sequential.bit_generator.state == batched.bit_generator.state

    def test_lognormal_batch_matches_sequential(self):
        """The network delay draw shape (``LogNormalDelay``)."""
        sequential, batched = self._pair(seed=41, name="network")
        mean = np.log(150_000)
        expected = [sequential.lognormal(mean=mean, sigma=0.35) for _ in range(257)]
        got = batched.lognormal(mean=mean, sigma=0.35, size=257).tolist()
        assert got == expected
        assert sequential.bit_generator.state == batched.bit_generator.state


class TestDrawBatch:
    def test_rewind_mid_batch_leaves_the_scalar_stream_state(self):
        from repro.net.delays import LogNormalDelay

        model = LogNormalDelay(median_ns=150_000, sigma=0.35)
        scalar, batched = RngRegistry(seed=5).stream("s"), RngRegistry(seed=5).stream("s")
        draws = DrawBatch(batched, size=64)
        expected = [model.sample(scalar) for _ in range(100)]
        got = [draws.draw(model) for _ in range(100)]  # one refill, 36 used
        draws.rewind()
        assert got == expected
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_sampler_without_sample_batch_is_drawn_directly(self):
        class Uniform:
            def sample(self, rng):
                return int(rng.integers(0, 1000))

        scalar, batched = RngRegistry(seed=5).stream("s"), RngRegistry(seed=5).stream("s")
        draws = DrawBatch(batched)
        assert [draws.draw(Uniform()) for _ in range(5)] == [
            Uniform().sample(scalar) for _ in range(5)
        ]
        assert batched.bit_generator.state == scalar.bit_generator.state
