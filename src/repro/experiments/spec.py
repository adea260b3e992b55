"""Declarative experiment specifications.

A reproduction is only useful if others can run *variations* without
editing code. :class:`ExperimentSpec` is a JSON-serializable description
of a full scenario — cluster shape, per-node AEX environments, protocol
variant, attacks, duration — that compiles into a wired
:class:`~repro.experiments.runner.Experiment`:

```json
{
  "name": "my-fminus-variant",
  "seed": 42,
  "duration_s": 300,
  "nodes": 3,
  "protocol": "hardened",
  "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
  "machine_wide_mean_s": 324,
  "attacks": [
    {"type": "fminus", "victim": 3, "delay_ms": 100},
    {"type": "aex-onset", "nodes": [1, 2], "at_s": 104}
  ]
}
```

``python -m repro run-spec my.json`` executes it and prints the standard
drift table. Unknown keys are rejected — a typo must fail loudly, not
silently run a different experiment.

Three build settings cover what the parameter sweeps and the §III-C
calibration ablation vary; each defaults to the cluster's own choice and
validates with errors naming the key (``link_delay.sigma: ...``):

* an ``environments`` value may also be ``{"type": "exponential",
  "mean_s": ...}`` — a generic OS-interrupt stream on the node's core,
  attached at build time like ``triad-like``;
* ``link_delay`` — every link's delay model, ``{"model": "constant",
  "delay_us": ...}`` or ``{"model": "lognormal", "median_us": ...,
  "sigma": ...}`` (unset: the paper LAN profile);
* ``node_config`` — overrides of the node protocol config, limited to
  :data:`NODE_CONFIG_KEYS`: ``calibration_rounds``,
  ``calibration_max_attempts``, ``calibration_sleeps_ms`` (a list),
  ``monitor_enabled``, ``monitor_calibration_samples``, and
  ``calibrator`` (``regression``, the default, or ``mean-only``).

Every timed input of a spec compiles to one attack timeline
(:mod:`repro.attacks.timeline`): a list of events, each an instant, a
kind, params and an optional stop/heal instant, applied by one
dispatcher. Four formats feed it, each validated at construction with
errors naming the entry (``attacks[1]: ...``, ``schedule[3]: ...``):

* ``attacks`` — scenario-level entries (:data:`ATTACK_TYPES`). They act
  at build time, before any t=0 event: the F± attacker is built active,
  and ``aex-onset``/``aex-suppress`` pause the nodes' AEX sources right
  away (an onset resumes them at ``at_s``).
* ``schedule`` — a timed attack schedule of ``{"t_ns": ..., "primitive":
  ..., "params": {...}}`` entries drawn from :data:`SCHEDULE_PRIMITIVES`.
  This is the serialization format of ``repro.hunt`` genomes — every
  synthesized finding replays from plain spec JSON — and handy for
  hand-scripted timelines at nanosecond resolution. Every entry fires
  from a scheduled process, even at ``t_ns=0``; a window closes back to
  the state it opened on.
* ``churn.schedule`` — see below.
* ``faults.schedule`` — the ``faults`` plane's fault plan.

:meth:`ExperimentSpec.build` applies them in that order (the faults
plane attaches last), so processes due at the same instant run in it.

A spec may also carry one block per *plane* (see :mod:`repro.planes`):
``service`` (client SLOs through quorum front-ends), ``membership``
(epoch verdicts and, in enforce mode, key rotation) and ``faults``
(crash/outage/partition schedules plus the recovery contract). Each
plane validates its own block with key-named errors
(``service.sessions: ...``) and wires it onto the built experiment.

Cluster churn is a scenario axis rather than a plane: a ``churn`` block
``{"absent": [indices], "schedule": [{"t_s": ..., "node": ...,
"action": "leave" | "join"}]}`` starts the ``absent`` nodes dormant and
off the fabric, and its schedule compiles to ``leave``/``join`` timeline
events that drive deterministic join/leave/rejoin at the given instants.
Caution: a node that leaves during its own (re)calibration window
black-holes its TA exchanges and the run fails with a calibration error —
schedules must keep departures clear of FullCalib windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

from repro.attacks.timeline import (
    DEFAULT_DOWN_MS,
    TimedEvent,
    apply_timeline,
    check_entry,
    check_keys,
    expected_violations,
    instant_ns,
    ms_ns,
)
from repro.core.calibration import MeanOnlyCalibrator
from repro.core.cluster import ClusterConfig, node_index
from repro.core.node import TriadNode, TriadNodeConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import Experiment
from repro.experiments.scenarios import AexEnvironment, build_experiment
from repro.hardened.node import HardenedNodeConfig, HardenedTriadNode
from repro.hardware.aex import ExponentialAexDelays
from repro.net.delays import ConstantDelay, DelayModel, LogNormalDelay
from repro.planes import carried_blocks
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

#: Recognized protocol variants.
PROTOCOLS = ("original", "hardened")

#: ``attacks`` entry types -> (required keys, optional keys); every entry
#: also carries its ``type``. Each compiles to the events of its schedule
#: twin: fplus/fminus to ``net-delay``, aex-onset/aex-suppress to one
#: build-time ``aex-suppress`` window per node.
ATTACK_TYPES = {
    "fplus": ({"victim"}, {"delay_ms"}),
    "fminus": ({"victim"}, {"delay_ms"}),
    "ta-blackhole": (set(), {"victims", "start_s", "stop_s"}),
    "tsc-scale": ({"scale", "at_s"}, {"victim"}),
    "tsc-offset": ({"offset_ticks", "at_s"}, {"victim"}),
    "aex-onset": ({"nodes", "at_s"}, set()),
    "aex-suppress": ({"nodes"}, set()),
}

#: Attack keys and schedule params that must be numbers (a JSON string
#: where a number belongs fails validation, naming the entry).
_NUMBER_KEYS = (
    "at_s",
    "delay_ms",
    "down_ms",
    "duration_ms",
    "mean_us",
    "offset_ticks",
    "scale",
    "start_s",
    "stop_s",
)

#: Timed-schedule primitives — the genome alphabet of ``repro.hunt``.
#: Maps primitive name -> (required param keys, optional param keys).
#: Every entry takes effect at its absolute ``t_ns``; primitives with a
#: ``duration_ms`` param revert when the window closes.
SCHEDULE_PRIMITIVES = {
    # Step the victim machine's TSC by a signed tick count.
    "tsc-offset": ({"offset_ticks"}, {"victim"}),
    # Multiply the victim machine's TSC rate.
    "tsc-scale": ({"scale"}, {"victim"}),
    # Isolate a node's monitoring core (no AEXs) for the window.
    "aex-suppress": ({"node"}, {"duration_ms"}),
    # Flood a node's monitoring core with exponential(mean_us) AEXs.
    "aex-flood": ({"node", "mean_us"}, {"duration_ms"}),
    # Drop all TA traffic (optionally only for listed victims).
    "ta-blackhole": (set(), {"duration_ms", "victims"}),
    # On-path F+/F- calibration delay against one victim.
    "net-delay": ({"victim", "mode"}, {"delay_ms", "duration_ms"}),
    # Crash a node's enclave (full TEE state loss); restart after down_ms.
    "node-crash": ({"node"}, {"down_ms"}),
    # Take the primary TA offline for the window.
    "ta-outage": ({"duration_ms"}, set()),
    # Cut one node off from the rest of the fabric for the window.
    "partition": ({"node"}, {"duration_ms"}),
}

#: Shape of a schedule entry (its params are checked per primitive).
_SCHEDULE_ENTRY = dict.fromkeys(SCHEDULE_PRIMITIVES, (set(), {"params"}))

#: Per-node AEX environments: the paper's two (Fig. 1) as names, plus a
#: generic exponential OS-interrupt stream as ``{"type": "exponential",
#: "mean_s": ...}``.
ENVIRONMENTS = {
    "triad-like": AexEnvironment.TRIAD_LIKE,
    "low-aex": AexEnvironment.LOW_AEX,
}
_ENVIRONMENT_TYPES = {"exponential": ({"mean_s"}, set())}

#: ``link_delay`` models -> (required, optional) keys besides ``model``.
LINK_DELAY_MODELS = {
    "constant": ({"delay_us"}, set()),
    "lognormal": ({"median_us", "sigma"}, set()),
}

#: Calibration estimators (§III-C); None is the node default, regression.
CALIBRATORS = {"regression": None, "mean-only": MeanOnlyCalibrator}

#: ``node_config`` keys (the protocol settings sweeps and the ablation
#: vary) -> what a valid value is.
NODE_CONFIG_KEYS = {
    "calibration_rounds": "a positive integer",
    "calibration_max_attempts": "a positive integer",
    "calibration_sleeps_ms": "a list of at least two distinct non-negative numbers",
    "monitor_enabled": "true or false",
    "monitor_calibration_samples": "a positive integer",
    "calibrator": f"one of {sorted(CALIBRATORS)}",
}

#: Keys :meth:`ExperimentSpec.to_json` writes only when set, so spec
#: files written before they existed round-trip byte for byte.
_UNSET_OMITTED = ("link_delay", "node_config")

_CHURN_KEYS = {"absent", "schedule"}
_CHURN_ENTRY_KEYS = {"t_s", "node", "action"}
_CHURN_ACTIONS = ("leave", "join")


@dataclass
class ExperimentSpec:
    """A validated, serializable experiment description."""

    name: str
    seed: int = 1
    duration_s: float = 300.0
    nodes: int = 3
    protocol: str = "original"
    #: node index (int) -> "triad-like" | "low-aex" | {"type":
    #: "exponential", "mean_s": ...}; unlisted: "low-aex".
    environments: dict[int, Any] = field(default_factory=dict)
    machine_wide_mean_s: Optional[float] = 324.0
    machine_wide_correlation: float = 0.95
    ta_count: int = 1
    #: Delay model of every link (None: the paper LAN profile):
    #: ``{"model": "constant", "delay_us": ...}`` or ``{"model":
    #: "lognormal", "median_us": ..., "sigma": ...}``.
    link_delay: Optional[dict[str, Any]] = None
    #: Overrides of the node protocol config (keys: :data:`NODE_CONFIG_KEYS`).
    node_config: Optional[dict[str, Any]] = None
    attacks: list[dict[str, Any]] = field(default_factory=list)
    #: Timed attack schedule: [{"t_ns": int, "primitive": str, "params": {...}}].
    schedule: list[dict[str, Any]] = field(default_factory=list)
    #: Plane blocks (see :mod:`repro.planes`; None = plane not attached).
    service: Optional[dict[str, Any]] = None
    membership: Optional[dict[str, Any]] = None
    #: Churn block: ``{"absent": [...], "schedule": [{"t_s", "node",
    #: "action"}]}`` — deterministic join/leave/rejoin over the run.
    churn: Optional[dict[str, Any]] = None
    faults: Optional[dict[str, Any]] = None

    # -- construction & validation -------------------------------------------

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("spec needs a name")
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration_s}")
        if self.nodes < 1:
            raise ConfigurationError(f"need at least one node, got {self.nodes}")
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        self.environments = {int(k): v for k, v in self.environments.items()}
        self._environments()
        self.timeline()  # validates attacks, schedule and churn
        self._cluster_config()  # validates link_delay and node_config
        for plane, block in carried_blocks(self):
            plane.validate(block, self)

    # -- the attack timeline ----------------------------------------------------------

    def timeline(self) -> tuple[TimedEvent, ...]:
        """Compile ``attacks``, ``schedule`` and ``churn`` into timeline events.

        Validates as it goes, naming the offending entry. The order is
        the one :meth:`build` applies the events in.
        """
        events: list[TimedEvent] = []
        for index, attack in enumerate(self.attacks):
            events += self._attack_events(f"attacks[{index}]", attack)
        for index, entry in enumerate(self.schedule):
            events.append(self._schedule_event(f"schedule[{index}]", entry))
        if self.churn is not None:
            events += self._churn_events(self.churn)
        return tuple(events)

    def _attack_events(self, where: str, attack: Any) -> list[TimedEvent]:
        kind = check_entry(where, attack, ATTACK_TYPES, "type", noun="attack type")
        self._check_params(where, attack)
        if kind in ("fplus", "fminus"):
            params = _event_params(where, "net-delay", {**attack, "mode": kind})
            return [TimedEvent(None, "net-delay", params)]
        if kind == "ta-blackhole":
            start_ns = instant_ns(where, "start_s", attack.get("start_s", 0))
            stop_ns = None
            if "stop_s" in attack:
                stop_ns = instant_ns(where, "stop_s", attack["stop_s"])
                if stop_ns <= start_ns:
                    raise ConfigurationError(f"{where}: stop_s must be after start_s")
            return [TimedEvent(start_ns, kind, _event_params(where, kind, attack), stop_ns)]
        at_ns = instant_ns(where, "at_s", attack["at_s"]) if "at_s" in attack else None
        if kind in ("tsc-scale", "tsc-offset"):
            return [TimedEvent(at_ns, kind, _event_params(where, kind, attack))]
        # aex-onset / aex-suppress: a build-time suppression window per
        # node, which an onset closes at at_s.
        return [
            TimedEvent(None, "aex-suppress", {"node": node}, at_ns)
            for node in attack["nodes"]
        ]

    def _schedule_event(self, where: str, entry: Any) -> TimedEvent:
        primitive = check_entry(
            where, entry, _SCHEDULE_ENTRY, "primitive", base={"t_ns"}, noun="primitive"
        )
        t_ns = entry["t_ns"]
        if isinstance(t_ns, bool) or not isinstance(t_ns, int) or t_ns < 0:
            raise ConfigurationError(
                f"{where}: t_ns must be a non-negative integer, got {t_ns!r}"
            )
        required, optional = SCHEDULE_PRIMITIVES[primitive]
        params = check_keys(
            where, entry.get("params", {}), required, optional, what=f"{primitive} params"
        )
        self._check_params(where, params)
        stop_ns = None
        if "duration_ms" in params:
            stop_ns = t_ns + ms_ns(params["duration_ms"])
        if primitive == "node-crash":
            stop_ns = t_ns + ms_ns(params.get("down_ms", DEFAULT_DOWN_MS))
        return TimedEvent(t_ns, primitive, _event_params(where, primitive, params), stop_ns)

    def _check_params(self, where: str, params: dict[str, Any]) -> None:
        """Value checks shared by ``attacks`` entries and schedule params."""
        for key in _NUMBER_KEYS:
            value = params.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{where}: {key} must be a number, got {value!r}")
        for key in ("victim", "node"):
            if key in params:
                node_index(where, key, params[key], self.nodes)
        if "victims" in params and not params["victims"]:
            raise ConfigurationError(f"{where}: victims must be a non-empty list")
        for key in ("nodes", "victims"):
            values = params.get(key, [])
            if not isinstance(values, list):
                raise ConfigurationError(
                    f"{where}: {key} must be a list of node indices, got {values!r}"
                )
            for value in values:
                node_index(where, key, value, self.nodes)
        if int(params.get("offset_ticks", 1)) == 0:
            raise ConfigurationError(f"{where}: offset_ticks must be non-zero")
        for key in ("scale", "mean_us", "delay_ms", "duration_ms", "down_ms"):
            if key in params and not params[key] > 0:
                raise ConfigurationError(
                    f"{where}: {key} must be positive, got {params[key]!r}"
                )
        if params.get("mode", "fplus") not in ("fplus", "fminus"):
            raise ConfigurationError(
                f"{where}: mode must be 'fplus' or 'fminus', got {params['mode']!r}"
            )

    def _churn_events(self, raw: Any) -> list[TimedEvent]:
        check_keys("churn", raw, (), _CHURN_KEYS, what="block")
        absent = raw.get("absent", [])
        if not isinstance(absent, list):
            raise ConfigurationError("churn.absent: must be a list of node indices")
        seen: set[int] = set()
        for value in absent:
            index = node_index("churn", "absent", value, self.nodes)
            if index in seen:
                raise ConfigurationError(f"churn.absent: duplicate node {index}")
            seen.add(index)
        if len(seen) >= self.nodes:
            raise ConfigurationError(
                "churn.absent: at least one node must be present at start"
            )
        schedule = raw.get("schedule", [])
        if not isinstance(schedule, list):
            raise ConfigurationError("churn.schedule: must be a list of entries")
        present = set(range(1, self.nodes + 1)) - seen
        events = []
        # Applied in time order (ties in list order); errors name positions
        # in that order.
        ordered = sorted(
            schedule, key=lambda entry: entry.get("t_s", 0) if isinstance(entry, dict) else 0
        )
        for position, entry in enumerate(ordered):
            where = f"churn.schedule[{position}]"
            check_keys(where, entry, _CHURN_ENTRY_KEYS)
            t_ns = instant_ns(where, "t_s", entry["t_s"])
            index = node_index(where, "node", entry["node"], self.nodes)
            action = entry["action"]
            if action not in _CHURN_ACTIONS:
                raise ConfigurationError(
                    f"{where}: unknown action {action!r}; choose from {_CHURN_ACTIONS}"
                )
            if (index in present) != (action == "leave"):
                state = "absent" if action == "leave" else "present"
                raise ConfigurationError(
                    f"{where}: node {index} is already {state} at t_s={entry['t_s']}"
                )
            present ^= {index}
            events.append(TimedEvent(t_ns, action, {"node": index}))
        return events

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentSpec":
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise ConfigurationError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("spec JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["environments"] = {str(k): v for k, v in self.environments.items()}
        for key in _UNSET_OMITTED:
            if raw[key] is None:
                del raw[key]
        return json.dumps(raw, indent=2)

    # -- compilation ------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        return int(self.duration_s * SECOND)

    def _environments(self) -> dict[int, Any]:
        """Node index -> :class:`AexEnvironment` or inter-AEX distribution."""
        compiled: dict[int, Any] = {}
        for index in range(1, self.nodes + 1):
            environment = self.environments.get(index, "low-aex")
            if isinstance(environment, dict):
                where = f"environments.{index}"
                check_entry(where, environment, _ENVIRONMENT_TYPES, "type", noun="environment")
                mean_ns = _positive_ns(where, "mean_s", environment["mean_s"], SECOND)
                compiled[index] = ExponentialAexDelays(mean_ns)
            elif isinstance(environment, str) and environment in ENVIRONMENTS:
                compiled[index] = ENVIRONMENTS[environment]
            else:
                raise ConfigurationError(f"unknown environment {environment!r}")
        unknown = set(self.environments) - set(compiled)
        if unknown:
            raise ConfigurationError(f"environment for unknown node {min(unknown)}")
        return compiled

    def _cluster_config(self) -> ClusterConfig:
        hardened = self.protocol == "hardened"
        node_config, calibrator = _node_config(
            self.node_config or {}, HardenedNodeConfig() if hardened else TriadNodeConfig()
        )
        initial_absent: tuple[int, ...] = ()
        if self.churn is not None:
            initial_absent = tuple(sorted(self.churn.get("absent", [])))
        return ClusterConfig(
            node_count=self.nodes,
            # Shared-host clusters pin one monitoring core per node; specs
            # may deploy hundreds of nodes, so the host grows beyond the
            # paper's 32 cores when needed.
            core_count=max(32, self.nodes),
            ta_count=self.ta_count,
            delay_model=_link_delay(self.link_delay),
            node_class=HardenedTriadNode if hardened else TriadNode,
            node_config=node_config,
            calibrators=None if calibrator is None else [calibrator() for _ in range(self.nodes)],
            initial_absent=initial_absent,
        )

    def build(self) -> Experiment:
        """Wire the experiment (does not run it)."""
        machine_wide_mean = (
            None
            if self.machine_wide_mean_s is None
            else int(self.machine_wide_mean_s * SECOND)
        )
        experiment = build_experiment(
            name=self.name,
            seed=self.seed,
            environments=self._environments(),
            machine_wide_mean_ns=machine_wide_mean,
            machine_wide_correlation=self.machine_wide_correlation,
            cluster_config=self._cluster_config(),
            notes=f"spec:{self.name}",
        )
        timeline = self.timeline()
        apply_timeline(experiment, timeline)
        experiment.expected_violations |= expected_violations(timeline)
        for plane, block in carried_blocks(self):
            plane.attach(experiment, block)
        return experiment

    def run(self) -> Experiment:
        """Build and run to the configured duration."""
        return self.build().run(self.duration_ns)


def _event_params(where: str, kind: str, raw: dict[str, Any]) -> dict[str, Any]:
    """An entry's params as a timeline event's, in cluster units (ns)."""
    if kind == "tsc-offset":
        return {"victim": raw.get("victim", 1), "offset_ticks": int(raw["offset_ticks"])}
    if kind == "tsc-scale":
        return {"victim": raw.get("victim", 1), "scale": float(raw["scale"])}
    if kind == "net-delay":
        delay_ns = ms_ns(raw.get("delay_ms", 100))
        return {"victim": raw["victim"], "mode": raw["mode"], "delay_ns": delay_ns}
    if kind == "aex-flood":
        mean_ns = max(int(float(raw["mean_us"]) * MICROSECOND), 1)
        return {"node": raw["node"], "mean_ns": mean_ns}
    if kind == "ta-blackhole":
        return {"victims": raw.get("victims")}
    if kind == "ta-outage":
        return {"ta": 1}
    if kind == "partition":
        return {"island": [raw["node"]], "name": f"{where}/partition"}
    return {"node": raw["node"]}  # aex-suppress, node-crash


def _positive(where: str, key: str, value: Any) -> float:
    if not _is_number(value) or not value > 0:
        raise ConfigurationError(f"{where}.{key}: must be a positive number, got {value!r}")
    return value


def _positive_ns(where: str, key: str, value: Any, unit: int) -> int:
    """A positive number of ``unit`` s, as whole nanoseconds."""
    return round(_positive(where, key, value) * unit)


def _link_delay(block: Optional[dict[str, Any]]) -> Optional[DelayModel]:
    """The ``link_delay`` block as a delay model (None: the cluster default)."""
    if block is None:
        return None
    model = check_entry("link_delay", block, LINK_DELAY_MODELS, "model", noun="delay model")
    if model == "constant":
        return ConstantDelay(_positive_ns("link_delay", "delay_us", block["delay_us"], MICROSECOND))
    return LogNormalDelay(
        median_ns=_positive_ns("link_delay", "median_us", block["median_us"], MICROSECOND),
        sigma=float(_positive("link_delay", "sigma", block["sigma"])),
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _valid_node_setting(key: str, value: Any) -> bool:
    if key == "calibrator":
        return isinstance(value, str) and value in CALIBRATORS
    if key == "monitor_enabled":
        return isinstance(value, bool)
    if key == "calibration_sleeps_ms":
        return (
            isinstance(value, list)
            and all(_is_number(sleep) and sleep >= 0 for sleep in value)
            and len(set(value)) >= 2
        )
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _node_config(
    block: dict[str, Any], base: TriadNodeConfig
) -> tuple[TriadNodeConfig, Optional[type]]:
    """``base`` with the ``node_config`` overrides, plus the calibrator class."""
    check_keys("node_config", block, (), NODE_CONFIG_KEYS, what="block")
    for key, value in block.items():
        if not _valid_node_setting(key, value):
            raise ConfigurationError(
                f"node_config.{key}: must be {NODE_CONFIG_KEYS[key]}, got {value!r}"
            )
    overrides = dict(block)
    calibrator = CALIBRATORS[overrides.pop("calibrator", "regression")]
    if "calibration_sleeps_ms" in overrides:
        sleeps = overrides.pop("calibration_sleeps_ms")
        overrides["calibration_sleeps_ns"] = tuple(round(s * MILLISECOND) for s in sleeps)
    return replace(base, **overrides), calibrator


_SPEC_KEYS = frozenset(f.name for f in fields(ExperimentSpec))
