"""Parameter sweeps: how the paper's effects scale beyond its set points.

The paper evaluates single parameter points (100 ms attacker delay, three
nodes, one network). These sweeps map the surrounding space — each returns
a list of :class:`SweepPoint` rows ready for tabulation:

* :func:`attack_delay_sweep` — F± tilt and drift rate vs injected delay
  (validates the closed form ``F_calib = F_tsc·(1 ± d/Δs)`` end-to-end);
* :func:`jitter_sweep` — honest calibration error vs network jitter (the
  mechanism behind the paper's ±30–220 ppm calibration band);
* :func:`cluster_size_sweep` — F− infection speed vs cluster size (the
  propagation cascade does not dilute with more honest nodes);
* :func:`aex_rate_sweep` — availability and drift exposure vs AEX rate
  (the availability/refresh-frequency trade-off of §IV-B).

A sweep point is built the way every run is: as spec dicts
(:mod:`repro.experiments.spec`), so any point replays with ``python -m
repro run-spec``. A ``*_grid`` function turns a grid into
:class:`GridPoint` s, each holding fleet ``spec`` tasks that name the
sweep's **metric function** (:data:`METRICS`); the metric reads the
finished experiment's drift recorder and node stats in the worker, and
the parent reduces a point's task metrics into its row (jitter's seeds
are one task each). :func:`run_grid` runs the tasks through one
:class:`~repro.fleet.pool.FleetPool`, so ``jobs=4`` fans the grid out over
worker processes while ``jobs=1`` (the default) runs in-process; either
way the rows are identical, because every spec builds its own simulator
from its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.stats import drift_rate_ms_per_s
from repro.attacks.delay import AttackMode
from repro.errors import FleetError
from repro.experiments.runner import Experiment
from repro.fleet.cache import ResultCache
from repro.fleet.pool import FleetPool
from repro.fleet.tasks import RunTask, spec_task
from repro.fleet.telemetry import FleetTelemetry
from repro.sim.units import MICROSECOND, MILLISECOND, MINUTE, SECOND

#: Default grids (module constants so the sweeps and the CLI agree).
DEFAULT_ATTACK_DELAYS_NS = (
    10 * MILLISECOND,
    50 * MILLISECOND,
    100 * MILLISECOND,
    200 * MILLISECOND,
)
DEFAULT_JITTER_SIGMAS = (0.05, 0.15, 0.35, 0.7)
DEFAULT_JITTER_SEEDS = tuple(range(420, 428))
DEFAULT_CLUSTER_SIZES = (3, 5, 7)
DEFAULT_AEX_MEANS_NS = (100 * MILLISECOND, SECOND, 10 * SECOND, 60 * SECOND)

#: The attack-delay sweep's victim (paper numbering).
_VICTIM = 3

#: Fast calibration, the protocol setting every sweep point starts from.
_FAST = {"calibration_rounds": 2, "monitor_calibration_samples": 4}


@dataclass
class SweepPoint:
    """One row of a sweep: the swept value plus measured metrics."""

    parameter: str
    value: float
    metrics: dict[str, float] = field(default_factory=dict)

    def row(self, metric_names: Sequence[str]) -> list:
        return [self.value] + [self.metrics.get(name, float("nan")) for name in metric_names]


def _only(metrics: list[dict]) -> dict:
    [row] = metrics
    return row


@dataclass(frozen=True)
class GridPoint:
    """One sweep row before it runs: the swept value and its spec tasks."""

    parameter: str
    value: float
    tasks: tuple[RunTask, ...]
    #: The tasks' metric dicts (in task order) -> the row's metrics.
    reduce: Callable[[list[dict]], dict] = _only

    @classmethod
    def from_specs(
        cls, parameter: str, value: float, specs: list[dict], metric: dict, **kw
    ) -> "GridPoint":
        """A point whose tasks run ``specs``, each measured by ``metric``."""
        return cls(parameter, value, tuple(spec_task(spec, metric=metric) for spec in specs), **kw)


def _spec(name: str, seed: int, duration_ns: int, **keys) -> dict:
    """A sweep spec: a 100 µs constant-delay LAN, no machine-wide
    interrupts, fast calibration, plus ``keys``."""
    return {
        "name": name,
        "seed": seed,
        "duration_s": duration_ns / SECOND,
        "machine_wide_mean_s": None,
        "link_delay": {"model": "constant", "delay_us": 100},
        "node_config": _FAST,
        **keys,
    }


def _as_mode(mode: AttackMode | str) -> AttackMode:
    return AttackMode[mode] if isinstance(mode, str) else mode


# -- grids: each point's specs ------------------------------------------------------


def attack_delay_grid(
    mode: AttackMode | str,
    delays_ns: Sequence[int] = DEFAULT_ATTACK_DELAYS_NS,
    seed: int = 400,
    settle_ns: int = 30 * SECOND,
    measure_ns: int = 60 * SECOND,
) -> list[GridPoint]:
    """An F± attacker at node 3 per delay; measured after ``settle_ns``."""
    mode = _as_mode(mode)
    attack_type = "fplus" if mode is AttackMode.F_PLUS else "fminus"
    return [
        GridPoint.from_specs(
            "attack_delay_ms",
            delay_ns / 1e6,
            [
                _spec(
                    f"attack-delay/{mode.name}/{delay_ns / 1e6:g}ms",
                    seed,
                    settle_ns + measure_ns,
                    attacks=[{"type": attack_type, "victim": _VICTIM, "delay_ms": delay_ns / 1e6}],
                )
            ],
            {"sweep": "attack-delay", "settle_ns": settle_ns},
        )
        for delay_ns in delays_ns
    ]


def _jitter_row(metrics: list[dict]) -> dict:
    errors_ppm = [m["error_ppm"] for m in metrics]
    return {
        "mean_abs_error_ppm": sum(abs(e) for e in errors_ppm) / len(errors_ppm),
        "error_spread_ppm": max(errors_ppm) - min(errors_ppm),
    }


def jitter_grid(
    sigmas: Sequence[float] = DEFAULT_JITTER_SIGMAS,
    median_ns: int = 150 * MICROSECOND,
    seeds: Sequence[int] = DEFAULT_JITTER_SEEDS,
    settle_ns: int = 30 * SECOND,
) -> list[GridPoint]:
    """One unattacked, unmonitored node per seed and log-normal jitter level."""
    return [
        GridPoint.from_specs(
            "jitter_sigma",
            sigma,
            [
                _spec(
                    f"jitter/sigma={sigma:g}/seed={seed}",
                    seed,
                    settle_ns,
                    nodes=1,
                    link_delay={
                        "model": "lognormal",
                        "median_us": median_ns / MICROSECOND,
                        "sigma": sigma,
                    },
                    node_config={**_FAST, "monitor_enabled": False},
                )
                for seed in seeds
            ],
            {"sweep": "jitter"},
            reduce=_jitter_row,
        )
        for sigma in sigmas
    ]


def cluster_size_grid(
    sizes: Sequence[int] = DEFAULT_CLUSTER_SIZES,
    seed: int = 440,
    duration_ns: int = 3 * MINUTE,
) -> list[GridPoint]:
    """Triad-like AEXs on every node, F− at the last one, per cluster size."""
    return [
        GridPoint.from_specs(
            "cluster_size",
            float(size),
            [
                _spec(
                    f"cluster-size/{size}",
                    seed,
                    duration_ns,
                    nodes=size,
                    environments={str(i): "triad-like" for i in range(1, size + 1)},
                    attacks=[{"type": "fminus", "victim": size}],
                )
            ],
            {"sweep": "cluster-size"},
        )
        for size in sizes
    ]


def aex_rate_grid(
    mean_delays_ns: Sequence[int] = DEFAULT_AEX_MEANS_NS,
    seed: int = 460,
    duration_ns: int = 5 * MINUTE,
) -> list[GridPoint]:
    """Exponential AEXs of one mean on every node, {0, 50 ms} calibration sleeps."""
    return [
        GridPoint.from_specs(
            "mean_inter_aex_s",
            mean_ns / SECOND,
            [
                _spec(
                    f"aex-rate/{mean_ns / SECOND:g}s",
                    seed,
                    duration_ns,
                    environments={
                        str(i): {"type": "exponential", "mean_s": mean_ns / SECOND}
                        for i in (1, 2, 3)
                    },
                    node_config={
                        **_FAST,
                        "calibration_sleeps_ms": [0, 50],
                        "calibration_max_attempts": 1000,
                    },
                )
            ],
            {"sweep": "aex-rate"},
        )
        for mean_ns in mean_delays_ns
    ]


# -- metric functions (run in the worker, on the finished experiment) ------------------


def attack_delay_metrics(experiment: Experiment, settle_ns: int) -> dict:
    """Victim F_calib skew (measured and closed form), drift rate after settling."""
    [attacker] = experiment.attackers
    sign = 1 if attacker.mode is AttackMode.F_PLUS else -1
    samples = [(t, d) for t, d in experiment.drift(_VICTIM).samples if t > settle_ns]
    frequency = experiment.node(_VICTIM).stats.latest_frequency_hz
    return {
        "skew_measured": frequency / experiment.cluster.machine.tsc.frequency_hz,
        "skew_predicted": 1 + sign * attacker.added_delay_ns / SECOND,
        "drift_ms_per_s": drift_rate_ms_per_s(samples),
    }


def jitter_metrics(experiment: Experiment) -> dict:
    """The single node's calibration error."""
    frequency = experiment.node(1).stats.latest_frequency_hz
    return {"error_ppm": (frequency / experiment.cluster.machine.tsc.frequency_hz - 1) * 1e6}


def cluster_size_metrics(experiment: Experiment) -> dict:
    """Honest nodes (all but the victim) past 1 s of drift, and when the last fell."""
    honest = experiment.cluster.nodes[:-1]
    infected_times = []
    for node in honest:
        series = experiment.recorder[node.name].samples
        first_infected = next((t for t, d in series if d > SECOND), None)
        if first_infected is not None:
            infected_times.append(first_infected)
    return {
        "honest_nodes": len(honest),
        "infected_fraction": len(infected_times) / len(honest),
        "last_infection_s": max(infected_times) / SECOND if infected_times else float("nan"),
    }


def aex_rate_metrics(experiment: Experiment) -> dict:
    """Node 1's availability and its AEX, peer-untaint and TA counts."""
    stats = experiment.node(1).stats
    return {
        "availability": experiment.availability(1),
        "aex_count": stats.aex_count,
        "peer_untaints": stats.peer_untaints,
        "ta_references": stats.ta_references,
    }


#: sweep name -> metric function (what a ``spec`` task's ``metric`` names).
#: A row's key order is its sweep table's column order.
METRICS: dict[str, Callable[..., dict]] = {
    "attack-delay": attack_delay_metrics,
    "jitter": jitter_metrics,
    "cluster-size": cluster_size_metrics,
    "aex-rate": aex_rate_metrics,
}


# -- the runner and the sweeps -------------------------------------------------------


def run_grid(
    points: Sequence[GridPoint],
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """Run every point's tasks through one pool; rows in grid order.

    Raises :class:`FleetError` if any task failed (sweeps are
    all-or-nothing: a table with silently missing rows would be worse
    than no table).
    """
    tasks = [task for point in points for task in point.tasks]
    pool = pool or FleetPool(jobs=jobs)
    results = pool.run(tasks, cache=cache, telemetry=telemetry)
    for task, result in zip(tasks, results):
        if not result.ok:
            raise FleetError(f"sweep task {task.name!r} failed: {result.error}")
    metrics = iter(result.value["metrics"] for result in results)
    return [
        SweepPoint(point.parameter, point.value, point.reduce([next(metrics) for _ in point.tasks]))
        for point in points
    ]


def attack_delay_sweep(
    mode: AttackMode | str,
    delays_ns: Sequence[int] = DEFAULT_ATTACK_DELAYS_NS,
    seed: int = 400,
    settle_ns: int = 30 * SECOND,
    measure_ns: int = 60 * SECOND,
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """Victim frequency skew and drift rate as a function of attack delay."""
    points = attack_delay_grid(mode, delays_ns, seed, settle_ns, measure_ns)
    return run_grid(points, jobs=jobs, pool=pool, cache=cache, telemetry=telemetry)


def jitter_sweep(
    sigmas: Sequence[float] = DEFAULT_JITTER_SIGMAS,
    median_ns: int = 150 * MICROSECOND,
    seeds: Sequence[int] = DEFAULT_JITTER_SEEDS,
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """Honest calibration error spread vs network jitter (no attacks)."""
    points = jitter_grid(sigmas, median_ns, seeds)
    return run_grid(points, jobs=jobs, pool=pool, cache=cache, telemetry=telemetry)


def cluster_size_sweep(
    sizes: Sequence[int] = DEFAULT_CLUSTER_SIZES,
    seed: int = 440,
    duration_ns: int = 3 * MINUTE,
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """F− infection of growing honest majorities.

    The original policy offers no herd immunity: however many honest
    nodes exist, each follows the fastest clock it hears. Measures the
    fraction of honest nodes infected (drift > 1 s) and the time until
    the last one fell.
    """
    points = cluster_size_grid(sizes, seed, duration_ns)
    return run_grid(points, jobs=jobs, pool=pool, cache=cache, telemetry=telemetry)


def aex_rate_sweep(
    mean_delays_ns: Sequence[int] = DEFAULT_AEX_MEANS_NS,
    seed: int = 460,
    duration_ns: int = 5 * MINUTE,
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """Availability and TA load vs AEX rate (exponential inter-AEX).

    Calibration exchanges must fit between AEXs: with a 100 ms mean
    inter-AEX delay, a 1 s-sleep exchange is never AEX-free (the paper's
    §III-C observation that inter-AEX delays bound the usable waittimes),
    so this sweep calibrates with {0, 50 ms} sleeps throughout.
    """
    points = aex_rate_grid(mean_delays_ns, seed, duration_ns)
    return run_grid(points, jobs=jobs, pool=pool, cache=cache, telemetry=telemetry)
