"""EXT-FLEET — parallel sweep execution vs serial, same rows either way.

A 12-point attack-delay sweep run through the fleet pool at ``jobs=1``
and ``jobs=4``. Asserts the determinism contract (identical metric rows)
and records wall-clock plus sim-seconds/wall-second throughput for both
configurations. The speedup itself is hardware-dependent — on a
single-core box the parallel run can only lose (by its fork/pickle
overhead) — so it is printed alongside the visible core count, not
asserted.
"""

import multiprocessing
import os
import time

import pytest

from repro.analysis.report import format_table
from repro.attacks.delay import AttackMode
from repro.experiments.sweeps import attack_delay_sweep
from repro.fleet.pool import FleetPool
from repro.fleet.telemetry import FleetTelemetry
from repro.sim.units import MILLISECOND, SECOND

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: 12 delay points spanning the paper's 10–200 ms band.
DELAYS_NS = tuple((10 + 17 * i) * MILLISECOND for i in range(12))


#: Per-point span: long enough that worker fan-out beats fork overhead.
SETTLE_NS = 60 * SECOND
MEASURE_NS = 240 * SECOND


def _run(jobs):
    telemetry = FleetTelemetry()
    started = time.perf_counter()
    points = attack_delay_sweep(
        AttackMode.F_MINUS,
        delays_ns=DELAYS_NS,
        settle_ns=SETTLE_NS,
        measure_ns=MEASURE_NS,
        pool=FleetPool(jobs=jobs),
        telemetry=telemetry,
    )
    wall = time.perf_counter() - started
    return points, wall, telemetry


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_fleet_parallel_sweep_matches_serial(benchmark):
    serial_points, serial_wall, serial_telemetry = _run(jobs=1)
    parallel_points, parallel_wall, parallel_telemetry = benchmark.pedantic(
        lambda: _run(jobs=4), rounds=1, iterations=1
    )

    print()
    print(format_table(
        ["jobs", "points", "wall_s", "sim_s_per_wall_s"],
        [
            ["1", len(serial_points), f"{serial_wall:.2f}",
             f"{serial_telemetry.throughput():.0f}"],
            ["4", len(parallel_points), f"{parallel_wall:.2f}",
             f"{parallel_telemetry.throughput():.0f}"],
        ],
        title=(
            f"EXT-FLEET: 12-point sweep, speedup {serial_wall / parallel_wall:.2f}x "
            f"on {len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else os.cpu_count()} core(s)"
        ),
    ))

    # The determinism contract: byte-identical metric rows.
    assert [(p.value, p.metrics) for p in serial_points] == [
        (p.value, p.metrics) for p in parallel_points
    ]
    assert serial_telemetry.completed == parallel_telemetry.completed == 12
    assert parallel_telemetry.sim_ns == 12 * (SETTLE_NS + MEASURE_NS)
