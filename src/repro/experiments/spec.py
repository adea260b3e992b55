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

Besides the scenario-level ``attacks`` list, a spec may carry a *timed
attack schedule*: a list of ``{"t_ns": ..., "primitive": ...,
"params": {...}}`` entries drawn from :data:`SCHEDULE_PRIMITIVES`. This is
the serialization format of ``repro.hunt`` genomes — every synthesized
finding replays from plain spec JSON — but schedules are also handy for
hand-scripted timelines at nanosecond resolution. Validation errors name
the offending entry index (``schedule[3]: ...``).

A spec may also carry one block per *plane* (see :mod:`repro.planes`):
``service`` (client SLOs through quorum front-ends), ``membership``
(epoch verdicts and, in enforce mode, key rotation) and ``faults``
(crash/outage/partition schedules plus the recovery contract). Each
plane validates its own block with key-named errors
(``service.sessions: ...``) and wires it onto the built experiment.

Cluster churn is a scenario axis rather than a plane: a ``churn`` block
``{"absent": [indices], "schedule": [{"t_s": ..., "node": ...,
"action": "leave" | "join"}]}`` starts the ``absent`` nodes dormant and
off the fabric, and the schedule drives deterministic join/leave/rejoin
at the given instants. Caution: a node that leaves during its own
(re)calibration window black-holes its TA exchanges and the run fails
with a calibration error — schedules must keep departures clear of
FullCalib windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.attacks.scheduler import at
from repro.attacks.tscattack import TscOffsetAttack, TscScaleAttack
from repro.core.cluster import ClusterConfig, TA_NAME, node_index, node_name
from repro.errors import ConfigurationError
from repro.experiments.runner import Experiment
from repro.experiments.scenarios import AexEnvironment, build_experiment
from repro.hardened.node import HardenedNodeConfig, HardenedTriadNode
from repro.hardware.aex import ExponentialAexDelays
from repro.planes import carried_blocks
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

#: Recognized protocol variants.
PROTOCOLS = ("original", "hardened")

#: Recognized attack types and their required keys.
ATTACK_TYPES = {
    "fplus": {"victim"},
    "fminus": {"victim"},
    "ta-blackhole": set(),
    "tsc-scale": {"scale", "at_s"},
    "tsc-offset": {"offset_ticks", "at_s"},
    "aex-onset": {"nodes", "at_s"},
    "aex-suppress": {"nodes"},
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

#: TSC manipulation hits the machine's counter, which on the default
#: shared-host topology every node reads: any node's clock (and any
#: untaint sourced from it) may go out of bound before the monitor
#: catches the change, so the oracle allowance is cluster-wide.
_TSC_ATTACK_VIOLATIONS = {
    ("*", "drift-bound"),
    ("*", "state-soundness"),
    ("*", "untaint-safety"),
}

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

_SCHEDULE_ENTRY_KEYS = {"t_ns", "primitive", "params"}

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
    #: node index (int) -> "triad-like" | "low-aex"; unlisted: "low-aex".
    environments: dict[int, str] = field(default_factory=dict)
    machine_wide_mean_s: Optional[float] = 324.0
    machine_wide_correlation: float = 0.95
    ta_count: int = 1
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
        for index, environment in self.environments.items():
            if not 1 <= index <= self.nodes:
                raise ConfigurationError(f"environment for unknown node {index}")
            if environment not in ("triad-like", "low-aex"):
                raise ConfigurationError(f"unknown environment {environment!r}")
        for index, attack in enumerate(self.attacks):
            self._validate_attack(index, attack)
        for index, entry in enumerate(self.schedule):
            self._validate_schedule_entry(index, entry)
        if self.churn is not None:
            self._validate_churn(self.churn)
        for plane, block in carried_blocks(self):
            plane.validate(block, self)

    def _validate_churn(self, raw: dict[str, Any]) -> None:
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"churn: block must be an object, got {type(raw).__name__}"
            )
        unknown = set(raw) - _CHURN_KEYS
        if unknown:
            raise ConfigurationError(f"churn: unknown keys {sorted(unknown)}")
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
        for position, entry in enumerate(self._churn_entries(schedule)):
            where = f"churn.schedule[{position}]"
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{where}: entry must be an object, got {type(entry).__name__}"
                )
            unknown = set(entry) - _CHURN_ENTRY_KEYS
            if unknown:
                raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
            missing = _CHURN_ENTRY_KEYS - set(entry)
            if missing:
                raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")
            t_s = entry["t_s"]
            if isinstance(t_s, bool) or not isinstance(t_s, (int, float)) or t_s < 0:
                raise ConfigurationError(
                    f"{where}: t_s must be a non-negative number, got {t_s!r}"
                )
            index = node_index(where, "node", entry["node"], self.nodes)
            action = entry["action"]
            if action not in _CHURN_ACTIONS:
                raise ConfigurationError(
                    f"{where}: unknown action {action!r}; choose from {_CHURN_ACTIONS}"
                )
            if action == "leave":
                if index not in present:
                    raise ConfigurationError(
                        f"{where}: node {index} is already absent at t_s={t_s}"
                    )
                present.discard(index)
            else:
                if index in present:
                    raise ConfigurationError(
                        f"{where}: node {index} is already present at t_s={t_s}"
                    )
                present.add(index)

    @staticmethod
    def _churn_entries(schedule: list) -> list:
        """Schedule entries in application order (time, then list order)."""
        return sorted(
            schedule,
            key=lambda entry: (
                entry.get("t_s", 0) if isinstance(entry, dict) else 0
            ),
        )

    def _validate_attack(self, index: int, attack: Any) -> None:
        where = f"attacks[{index}]"
        if not isinstance(attack, dict):
            raise ConfigurationError(
                f"{where}: entry must be an object, got {type(attack).__name__}"
            )
        kind = attack.get("type")
        if kind not in ATTACK_TYPES:
            raise ConfigurationError(
                f"{where}: unknown attack type {kind!r}; choose from {sorted(ATTACK_TYPES)}"
            )
        missing = ATTACK_TYPES[kind] - set(attack)
        if missing:
            raise ConfigurationError(f"{where}: attack {kind!r} missing keys: {sorted(missing)}")
        _check_numbers(where, attack)
        if "victim" in attack:
            node_index(where, "victim", attack["victim"], self.nodes)
        for key in ("nodes", "victims"):
            if attack.get(key) is not None:
                self._validate_node_list(where, key, attack[key])

    def _validate_node_list(self, where: str, key: str, values: Any) -> None:
        if not isinstance(values, list):
            raise ConfigurationError(
                f"{where}: {key} must be a list of node indices, got {values!r}"
            )
        for value in values:
            node_index(where, key, value, self.nodes)

    def _validate_schedule_entry(self, index: int, entry: Any) -> None:
        where = f"schedule[{index}]"
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"{where}: entry must be an object, got {type(entry).__name__}"
            )
        unknown = set(entry) - _SCHEDULE_ENTRY_KEYS
        if unknown:
            raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
        missing = {"t_ns", "primitive"} - set(entry)
        if missing:
            raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")
        t_ns = entry["t_ns"]
        if isinstance(t_ns, bool) or not isinstance(t_ns, int) or t_ns < 0:
            raise ConfigurationError(
                f"{where}: t_ns must be a non-negative integer, got {t_ns!r}"
            )
        primitive = entry["primitive"]
        if primitive not in SCHEDULE_PRIMITIVES:
            raise ConfigurationError(
                f"{where}: unknown primitive {primitive!r}; "
                f"choose from {sorted(SCHEDULE_PRIMITIVES)}"
            )
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"{where}: params must be an object, got {type(params).__name__}"
            )
        required, optional = SCHEDULE_PRIMITIVES[primitive]
        missing = required - set(params)
        if missing:
            raise ConfigurationError(
                f"{where}: {primitive} params missing {sorted(missing)}"
            )
        unknown = set(params) - required - optional
        if unknown:
            raise ConfigurationError(
                f"{where}: {primitive} has unknown params {sorted(unknown)}"
            )
        self._validate_schedule_params(where, primitive, params)

    def _validate_schedule_params(
        self, where: str, primitive: str, params: dict[str, Any]
    ) -> None:
        _check_numbers(where, params)
        for key in ("victim", "node"):
            if key in params:
                node_index(where, key, params[key], self.nodes)
        if "victims" in params:
            if not params["victims"]:
                raise ConfigurationError(f"{where}: victims must be a non-empty list")
            self._validate_node_list(where, "victims", params["victims"])
        if primitive == "tsc-offset" and int(params["offset_ticks"]) == 0:
            raise ConfigurationError(f"{where}: offset_ticks must be non-zero")
        for key in ("scale", "mean_us", "delay_ms", "duration_ms", "down_ms"):
            if key in params and not params[key] > 0:
                raise ConfigurationError(
                    f"{where}: {key} must be positive, got {params[key]!r}"
                )
        if primitive == "net-delay" and params["mode"] not in ("fplus", "fminus"):
            raise ConfigurationError(
                f"{where}: mode must be 'fplus' or 'fminus', got {params['mode']!r}"
            )

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
        return json.dumps(raw, indent=2)

    # -- compilation ------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        return int(self.duration_s * SECOND)

    def build(self) -> Experiment:
        """Wire the experiment (does not run it)."""
        environments = {
            index: (
                AexEnvironment.TRIAD_LIKE
                if self.environments.get(index, "low-aex") == "triad-like"
                else AexEnvironment.LOW_AEX
            )
            for index in range(1, self.nodes + 1)
        }
        initial_absent: tuple[int, ...] = ()
        if self.churn is not None:
            initial_absent = tuple(sorted(self.churn.get("absent", [])))
        # Shared-host clusters pin one monitoring core per node; specs may
        # deploy hundreds of nodes, so the host grows beyond the paper's
        # 32 cores when needed (identical machine for nodes <= 32).
        core_count = max(32, self.nodes)
        if self.protocol == "hardened":
            cluster_config = ClusterConfig(
                node_count=self.nodes,
                core_count=core_count,
                ta_count=self.ta_count,
                node_class=HardenedTriadNode,
                node_config=HardenedNodeConfig(),
                initial_absent=initial_absent,
            )
        else:
            cluster_config = ClusterConfig(
                node_count=self.nodes,
                core_count=core_count,
                ta_count=self.ta_count,
                initial_absent=initial_absent,
            )

        machine_wide_mean = (
            None
            if self.machine_wide_mean_s is None
            else int(self.machine_wide_mean_s * SECOND)
        )
        experiment = build_experiment(
            name=self.name,
            seed=self.seed,
            environments=environments,
            machine_wide_mean_ns=machine_wide_mean,
            machine_wide_correlation=self.machine_wide_correlation,
            cluster_config=cluster_config,
            notes=f"spec:{self.name}",
        )
        for attack in self.attacks:
            self._apply_attack(experiment, attack)
        for index, entry in enumerate(self.schedule):
            self._apply_schedule_entry(experiment, index, entry)
        if self.churn is not None:
            self._apply_churn(experiment)
        for plane, block in carried_blocks(self):
            plane.attach(experiment, block)
        return experiment

    def _apply_churn(self, experiment: Experiment) -> None:
        cluster = experiment.cluster
        sim = experiment.sim
        for position, entry in enumerate(
            self._churn_entries(self.churn.get("schedule", []))
        ):
            t_ns = int(float(entry["t_s"]) * SECOND)
            index = int(entry["node"])
            action = entry["action"]
            apply = cluster.leave if action == "leave" else cluster.join

            def fire(apply=apply, index=index):
                apply(index)

            at(sim, t_ns, fire, name=f"churn[{position}]/{action}-node{index}")

    def run(self) -> Experiment:
        """Build and run to the configured duration."""
        return self.build().run(self.duration_ns)

    def _apply_attack(self, experiment: Experiment, attack: dict[str, Any]) -> None:
        kind = attack["type"]
        sim = experiment.sim
        cluster = experiment.cluster
        primary_ta = cluster.tas[0].name
        if kind in ("fplus", "fminus"):
            adversary = CalibrationDelayAttacker(
                sim,
                victim_host=node_name(int(attack["victim"])),
                ta_host=primary_ta,
                mode=AttackMode.F_PLUS if kind == "fplus" else AttackMode.F_MINUS,
                added_delay_ns=int(attack.get("delay_ms", 100)) * MILLISECOND,
            )
            cluster.network.add_adversary(adversary)
            experiment.attackers.append(adversary)
            experiment.expected_violations |= adversary.expected_violations()
        elif kind == "ta-blackhole":
            victims = attack.get("victims")
            adversary = TaBlackholeAttack(
                sim,
                ta_host=primary_ta,
                victims={node_name(int(v)) for v in victims} if victims else None,
                start_ns=int(attack.get("start_s", 0) * SECOND),
                stop_ns=(
                    int(attack["stop_s"] * SECOND) if "stop_s" in attack else None
                ),
            )
            cluster.network.add_adversary(adversary)
            experiment.attackers.append(adversary)
            experiment.expected_violations |= adversary.expected_violations()
        elif kind == "tsc-scale":
            machine = cluster.node_machines[int(attack.get("victim", 1)) - 1]
            TscScaleAttack(
                sim, machine.tsc, at_ns=int(attack["at_s"] * SECOND), scale=float(attack["scale"])
            )
            experiment.expected_violations |= _TSC_ATTACK_VIOLATIONS
        elif kind == "tsc-offset":
            machine = cluster.node_machines[int(attack.get("victim", 1)) - 1]
            TscOffsetAttack(
                sim,
                machine.tsc,
                at_ns=int(attack["at_s"] * SECOND),
                offset_ticks=int(attack["offset_ticks"]),
            )
            experiment.expected_violations |= _TSC_ATTACK_VIOLATIONS
        elif kind == "aex-onset":
            for index in attack["nodes"]:
                source = self._node_source(cluster, int(index))
                source.pause()
                at(sim, int(attack["at_s"] * SECOND), source.resume, name=f"onset-{index}")
        elif kind == "aex-suppress":
            for index in attack["nodes"]:
                self._node_source(cluster, int(index)).pause()

    @staticmethod
    def _node_source(cluster, index: int):
        machine = cluster.node_machines[index - 1]
        core = cluster.monitoring_cores[index - 1]
        source = machine.aex_sources.get(core)
        if source is None:
            raise ConfigurationError(
                f"node {index} has no AEX source to control — give it the "
                f"'triad-like' environment in the spec"
            )
        return source

    def _apply_schedule_entry(
        self, experiment: Experiment, index: int, entry: dict[str, Any]
    ) -> None:
        sim = experiment.sim
        cluster = experiment.cluster
        primary_ta = cluster.tas[0].name
        t_ns = int(entry["t_ns"])
        primitive = entry["primitive"]
        params = entry.get("params", {})
        tag = f"schedule[{index}]/{primitive}"
        stop_ns = None
        if "duration_ms" in params:
            stop_ns = t_ns + max(int(float(params["duration_ms"]) * MILLISECOND), 1)
        if primitive == "tsc-offset":
            machine = cluster.node_machines[int(params.get("victim", 1)) - 1]
            TscOffsetAttack(
                sim, machine.tsc, at_ns=t_ns, offset_ticks=int(params["offset_ticks"])
            )
            experiment.expected_violations |= _TSC_ATTACK_VIOLATIONS
        elif primitive == "tsc-scale":
            machine = cluster.node_machines[int(params.get("victim", 1)) - 1]
            TscScaleAttack(sim, machine.tsc, at_ns=t_ns, scale=float(params["scale"]))
            experiment.expected_violations |= _TSC_ATTACK_VIOLATIONS
        elif primitive == "aex-suppress":
            source = self._ensure_schedule_source(cluster, int(params["node"]))
            at(sim, t_ns, source.pause, name=f"{tag}-start")
            if stop_ns is not None:
                at(sim, stop_ns, source.resume, name=f"{tag}-stop")
        elif primitive == "aex-flood":
            source = self._ensure_schedule_source(cluster, int(params["node"]))
            flood = ExponentialAexDelays(
                max(int(float(params["mean_us"]) * MICROSECOND), 1)
            )
            previous_distribution = source.distribution
            previously_enabled = source.enabled

            def start_flood(source=source, flood=flood):
                source.set_distribution(flood)
                source.resume()

            at(sim, t_ns, start_flood, name=f"{tag}-start")
            if stop_ns is not None:

                def stop_flood(
                    source=source,
                    distribution=previous_distribution,
                    enabled=previously_enabled,
                ):
                    source.set_distribution(distribution)
                    if not enabled:
                        source.pause()

                at(sim, stop_ns, stop_flood, name=f"{tag}-stop")
        elif primitive == "ta-blackhole":
            victims = params.get("victims")
            adversary = TaBlackholeAttack(
                sim,
                ta_host=primary_ta,
                victims={node_name(int(v)) for v in victims} if victims else None,
                start_ns=t_ns,
                stop_ns=stop_ns,
            )
            cluster.network.add_adversary(adversary)
            experiment.attackers.append(adversary)
            experiment.expected_violations |= adversary.expected_violations()
        elif primitive == "net-delay":
            adversary = CalibrationDelayAttacker(
                sim,
                victim_host=node_name(int(params["victim"])),
                ta_host=primary_ta,
                mode=AttackMode.F_PLUS if params["mode"] == "fplus" else AttackMode.F_MINUS,
                added_delay_ns=int(float(params.get("delay_ms", 100)) * MILLISECOND),
                active=False,
            )
            cluster.network.add_adversary(adversary)
            experiment.attackers.append(adversary)
            experiment.expected_violations |= adversary.expected_violations()
            at(sim, t_ns, adversary.enable, name=f"{tag}-start")
            if stop_ns is not None:
                at(sim, stop_ns, adversary.disable, name=f"{tag}-stop")
        elif primitive in ("node-crash", "ta-outage", "partition"):
            from repro.faults.inject import schedule_fault
            from repro.faults.plan import FaultEvent

            if primitive == "node-crash":
                fault = {"node": int(params["node"])}
                stop_ns = t_ns + max(int(float(params.get("down_ms", 500)) * MILLISECOND), 1)
            elif primitive == "partition":
                fault = {"island": [int(params["node"])], "name": tag}
            else:
                fault = {}
            schedule_fault(experiment, FaultEvent(t_ns, primitive, fault, stop_ns), tag)

    @staticmethod
    def _ensure_schedule_source(cluster, index: int):
        """AEX source on a node's monitoring core, created paused if absent.

        Schedule primitives steer AEX pressure per node, but a ``low-aex``
        node has no source to steer — so compilation attaches a disabled
        one (it stays silent until an ``aex-flood`` window resumes it;
        suppressing it is the no-op it should be).
        """
        machine = cluster.node_machines[index - 1]
        core = cluster.monitoring_cores[index - 1]
        source = machine.aex_sources.get(core)
        if source is None:
            source = machine.add_aex_source(
                core, ExponentialAexDelays(SECOND), cause="os", enabled=False
            )
        return source


def _check_numbers(where: str, entry: dict[str, Any]) -> None:
    for key in _NUMBER_KEYS:
        value = entry.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{where}: {key} must be a number, got {value!r}")


_SPEC_KEYS = frozenset(f.name for f in fields(ExperimentSpec))
