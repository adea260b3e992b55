"""One attack timeline: every timed input compiles to :class:`TimedEvent` s.

The paper's attacker (§III-A, §IV-B) has a handful of capabilities:
delay calibration traffic (F+/F−), suppress or flood AEXs, step or
rescale the TSC, and blackhole the TA; the fault plane adds crashes, TA
outages, partitions and loss bursts, and churn adds leave/join. A spec
states them in four formats — ``attacks`` entries, the ``schedule`` (the
hunt genome format), ``churn.schedule`` and ``faults.schedule`` — and
the canonical scenario builders wire the paper's setups. All of them
validate into one event form and go through one dispatcher,
:func:`apply_timeline`.

Two timing rules:

* an event with ``t_ns=None`` acts at build time, before any t=0 event:
  the F± attacker is built active and a suppression window pauses its
  AEX source right away (``attacks`` entries, the scenario builders);
* an event with an instant starts from a scheduled process
  (:func:`~repro.attacks.scheduler.at`), even at ``t_ns=0``.

A ``stop_ns`` closes the event's window (heals the fault). Events apply
in list order, so ties between processes at the same instant break in
that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.attacks.scheduler import at
from repro.attacks.tscattack import TscOffsetAttack, TscScaleAttack
from repro.core.cluster import node_name
from repro.errors import ConfigurationError
from repro.hardware.aex import ExponentialAexDelays
from repro.oracle.expectations import ANY_NODE, CASCADE
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment

#: A crashed node cold-boots after this long unless its entry says otherwise.
DEFAULT_DOWN_MS = 500.0


@dataclass(frozen=True)
class TimedEvent:
    """One validated, normalized timed input (params in cluster units, ns).

    ``t_ns=None`` acts at build time; ``stop_ns=None`` never closes.
    """

    t_ns: Optional[int]
    kind: str
    params: Mapping[str, Any]
    stop_ns: Optional[int] = None


# -- the one entry-shape check ------------------------------------------------------


def check_keys(
    where: str, entry: Any, required: Iterable[str], optional: Iterable[str] = (),
    what: str = "entry",
) -> dict:
    """Check that ``entry`` is an object with every required key and no other."""
    _require_object(where, entry, what)
    unknown = set(entry) - set(required) - set(optional)
    if unknown:
        raise ConfigurationError(f"{where}: {what} has unknown keys {sorted(unknown)}")
    missing = set(required) - set(entry)
    if missing:
        raise ConfigurationError(f"{where}: {what} missing keys {sorted(missing)}")
    return entry


def check_entry(
    where: str, entry: Any, kinds: Mapping[str, tuple], kind_key: str, *,
    base: Iterable[str] = (), noun: str = "kind",
) -> str:
    """Check a flat entry whose ``kind_key`` names one of ``kinds``; return it.

    ``kinds`` maps each kind to its (required, optional) keys; ``base``
    keys are required of every kind.
    """
    kind = _require_object(where, entry, "entry").get(kind_key)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(
            f"{where}: unknown {noun} {kind!r}; choose from {sorted(kinds)}"
        )
    required, optional = kinds[kind]
    check_keys(where, entry, {kind_key, *base, *required}, optional, what=kind)
    return kind


def _require_object(where: str, value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: {what} must be an object, got {type(value).__name__}")
    return value


def instant_ns(where: str, key: str, value: Any) -> int:
    """A non-negative instant in seconds, as simulated nanoseconds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
        raise ConfigurationError(
            f"{where}: {key} must be a non-negative number, got {value!r}"
        )
    return int(float(value) * SECOND)


def ms_ns(value: float) -> int:
    """A positive span in milliseconds, as at least one nanosecond."""
    return max(int(float(value) * MILLISECOND), 1)


# -- expectations and dispatch ------------------------------------------------------


def expected_violations(events: Iterable[TimedEvent]) -> set[tuple[str, str]]:
    """Oracle (node, invariant) pairs the events' attacks are built to cause.

    A calibration-delay victim free-runs on a skewed F_calib while its
    state reports OK; F− also propagates (its always-ahead timestamps win
    every peer untaint), so any node may break its bound. TSC manipulation
    hits the machine counter every node of the default shared host reads,
    so its allowance is cluster-wide too. A blackholed TA starves refresh:
    freshness deadlines fire for any node, never a correctness invariant.
    """
    pairs: set[tuple[str, str]] = set()
    for event in events:
        if event.kind == "net-delay":
            victim = node_name(event.params["victim"])
            pairs |= {(victim, "drift-bound"), (victim, "state-soundness")}
            if event.params["mode"] == "fminus":
                pairs |= CASCADE
        elif event.kind in ("tsc-offset", "tsc-scale"):
            pairs |= CASCADE
        elif event.kind == "ta-blackhole":
            pairs.add((ANY_NODE, "freshness"))
    return pairs


def apply_timeline(experiment: "Experiment", events: Iterable[TimedEvent]) -> None:
    """Wire each event onto a built experiment, in order."""
    sim = experiment.sim
    for event in events:
        start, stop = _actions(experiment, event)
        if start is not None:
            if event.t_ns is None:
                start()
            else:
                at(sim, event.t_ns, start, name=f"{event.kind}-start")
        if stop is not None and event.stop_ns is not None:
            at(sim, event.stop_ns, stop, name=f"{event.kind}-stop")


_Action = Optional[Callable[[], None]]


def _actions(experiment: "Experiment", event: TimedEvent) -> tuple[_Action, _Action]:
    """Build what an event needs now; return its (start, stop) actions."""
    sim = experiment.sim
    cluster = experiment.cluster
    kind, params = event.kind, event.params
    if kind in ("tsc-offset", "tsc-scale"):
        tsc = cluster.node_machines[params["victim"] - 1].tsc
        if kind == "tsc-offset":
            TscOffsetAttack(sim, tsc, at_ns=event.t_ns, offset_ticks=params["offset_ticks"])
        else:
            TscScaleAttack(sim, tsc, at_ns=event.t_ns, scale=params["scale"])
        return None, None
    if kind in ("net-delay", "ta-blackhole"):
        ta_host = cluster.tas[0].name
        if kind == "net-delay":
            adversary = CalibrationDelayAttacker(
                sim,
                victim_host=node_name(params["victim"]),
                ta_host=ta_host,
                mode=AttackMode.F_PLUS if params["mode"] == "fplus" else AttackMode.F_MINUS,
                added_delay_ns=params["delay_ns"],
                active=False,
            )
        else:
            victims = params["victims"]
            adversary = TaBlackholeAttack(
                sim,
                ta_host=ta_host,
                victims=None if victims is None else {node_name(v) for v in victims},
                start_ns=event.t_ns,
                stop_ns=event.stop_ns,
            )
        cluster.network.add_adversary(adversary)
        experiment.attackers.append(adversary)
        if kind == "ta-blackhole":  # gates itself on start_ns/stop_ns
            return None, None
        return adversary.enable, adversary.disable
    if kind in ("aex-suppress", "aex-flood"):
        return _aex_window(cluster, event)
    if kind in ("leave", "join"):
        index = params["node"]
        apply = cluster.leave if kind == "leave" else cluster.join
        return (lambda: apply(index)), None
    if kind == "node-crash":
        index = params["node"]
        return (lambda: cluster.crash_node(index)), (lambda: cluster.restart_node(index))
    if kind == "ta-outage":
        ta_index = params["ta"] - 1
        return (
            lambda: cluster.set_ta_down(True, ta_index=ta_index),
            lambda: cluster.set_ta_down(False, ta_index=ta_index),
        )
    if kind == "partition":
        name = params["name"]
        return (
            lambda: cluster.open_partition(name, params["island"]),
            lambda: cluster.heal_partition(name),
        )
    if kind == "loss-burst":
        # Restore whatever rate was in effect when the burst started (the
        # spec-configured base rate, normally zero). Bursts are validated
        # non-overlapping, so fire-time capture is sound.
        network = cluster.network
        saved: dict[str, float] = {}

        def start_burst() -> None:
            saved["previous"] = network.drop_probability
            network.set_drop_probability(params["drop_probability"])

        return start_burst, lambda: network.set_drop_probability(saved["previous"])
    raise ConfigurationError(f"unknown timeline event kind {kind!r}")


def _aex_window(cluster, event: TimedEvent) -> tuple[_Action, _Action]:
    """Suppress or flood a node's monitoring-core AEXs for the window.

    A build-time window steers the AEX source the node's ``triad-like``
    environment gave it, and its close starts that source (the fig6
    onset). A scheduled window on a node without a source attaches a
    silent one. Either way the close puts back the distribution and the
    enabled state the source had when the window was compiled.
    """
    index = event.params["node"]
    machine = cluster.node_machines[index - 1]
    core = cluster.monitoring_cores[index - 1]
    source = machine.aex_sources.get(core)
    if source is None:
        if event.t_ns is None:
            raise ConfigurationError(
                f"node {index} has no AEX source to control — give it the "
                f"'triad-like' environment in the spec"
            )
        source = machine.add_aex_source(
            core, ExponentialAexDelays(SECOND), cause="os", enabled=False
        )
    enabled = source.enabled or event.t_ns is None
    if event.kind == "aex-suppress":

        def close_suppression() -> None:
            if enabled:
                source.resume()

        return source.pause, close_suppression
    flood = ExponentialAexDelays(event.params["mean_ns"])
    distribution = source.distribution

    def start_flood() -> None:
        source.set_distribution(flood)
        source.resume()

    def stop_flood() -> None:
        source.set_distribution(distribution)
        if not enabled:
            source.pause()

    return start_flood, stop_flood
