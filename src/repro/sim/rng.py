"""Deterministic, named random-number streams.

Reproducibility of the paper's experiments requires that adding a new source
of randomness (say, a second attacker) must not perturb the random draws of
existing components. A single shared generator cannot provide that, so the
registry derives an **independent stream per name** from the master seed
using :class:`numpy.random.SeedSequence` spawned with a stable hash of the
stream name.

Usage::

    registry = RngRegistry(seed=42)
    aex_rng = registry.stream("node-3/aex")
    delay = aex_rng.exponential(1.5)
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_to_entropy(name: str) -> list[int]:
    """Derive stable 32-bit words of entropy from a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RngRegistry:
    """Factory of independent, reproducible random streams keyed by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the same generator object,
        so a component that keeps drawing from its stream sees one
        continuous sequence.
        """
        generator = self._streams.get(name)
        if generator is None:
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(_name_to_entropy(name)))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"


class DrawBatch:
    """Values pre-drawn from one rng stream, returnable to the stream.

    A consumer that draws one value per use from a stream can call
    :meth:`draw` instead: a sampler with ``sample_batch(rng, n)`` is drawn
    ``size`` values at a time, amortizing numpy's per-call dispatch, and a
    sampler without one is drawn directly. Before the stream is used any
    other way the consumer calls :meth:`rewind`, which restores the
    bit-generator state of the last refill and replays only the values
    already handed out. Either way the stream holds exactly the state a
    draw-per-use consumer would hold, so batching never perturbs later
    randomness.

    This relies on ``sample_batch(rng, n)`` returning the same values and
    leaving the same bit-generator state as ``n`` ``sample`` calls
    (``tests/sim/test_rng.py::TestBatchedDrawStability``). A sampler that
    keeps its own replay position exposes it as ``cursor``; the refill
    checkpoint saves and restores it too.
    """

    __slots__ = ("rng", "size", "_sampler", "_values", "_index", "_state", "_cursor")

    def __init__(self, rng: np.random.Generator, size: int = 64) -> None:
        self.rng = rng
        self.size = size
        self._sampler = None
        self._values: list = []
        self._index = 0
        self._state: dict | None = None
        self._cursor: int | None = None

    def draw(self, sampler):
        """The next value of ``sampler``, as one ``sample`` call would give it."""
        index = self._index
        if sampler is self._sampler and index < len(self._values):
            self._index = index + 1
            return self._values[index]
        self.rewind()
        rng = self.rng
        sample_batch = getattr(sampler, "sample_batch", None)
        if sample_batch is None:
            return sampler.sample(rng)
        self._state = rng.bit_generator.state
        self._cursor = getattr(sampler, "cursor", None)
        self._sampler = sampler
        self._values = sample_batch(rng, self.size)
        self._index = 1
        return self._values[0]

    def rewind(self) -> None:
        """Give the unused pre-drawn values back to the stream."""
        sampler = self._sampler
        if sampler is None:
            return
        used = self._index
        if used < len(self._values):
            self.rng.bit_generator.state = self._state
            if self._cursor is not None:
                sampler.cursor = self._cursor
            if used:
                sampler.sample_batch(self.rng, used)
        self._sampler = None
        self._values = []
        self._index = 0
        self._state = None
