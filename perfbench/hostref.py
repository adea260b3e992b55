"""A fixed pure-Python reference workload that times the host, not the code.

The benchmark's host shares its cores with other tenants, and its speed
moves by up to 2x in phases of tens of seconds. Timing this workload right
after each experiment, in the same interpreter, measures the host's speed
at that moment; it uses nothing from ``repro``.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: What :func:`reference_s` takes on a quiet host: about its time on the
#: 2-vCPU Intel Xeon VM (Python 3.11.7) when no other tenant was busy.
#: Host timings are reported in seconds of a host running at this speed.
NOMINAL_S = 0.06


class _Event:
    __slots__ = ("due", "callback", "value")

    def __init__(self, due: float, callback, value: int) -> None:
        self.due = due
        self.callback = callback
        self.value = value


def reference_s() -> float:
    """Seconds this host takes for a toy event loop over a multi-MB table.

    The collector is paused so the figure does not depend on how many
    objects the experiment keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reference_s()
    finally:
        if collecting:
            gc.enable()


def _reference_s() -> float:
    started = time.perf_counter()
    rng = random.Random(7)
    table = {i: [i, str(i), (i, i)] for i in range(40_000)}
    heap: list = []
    total = 0

    def callback(value: int) -> None:
        nonlocal total
        row = table[value % 40_000]
        total += row[0] + len(row[1])

    for seq in range(20_000):
        heapq.heappush(heap, (rng.random(), seq, _Event(seq, callback, rng.randrange(1 << 20))))
        if len(heap) > 256:
            callback_event = heapq.heappop(heap)[2]
            callback_event.callback(callback_event.value)
    return time.perf_counter() - started
