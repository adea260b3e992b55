"""Validated fault plans: the ``faults`` block of an experiment spec.

A fault plan is deterministic data, not code: a timed schedule of fault
events, a recovery deadline, and (optionally) retry-policy overrides for
every node. Validation happens up front and names the offending entry
(``faults.schedule[2]: ...``) in the same strict style as the rest of
:mod:`repro.experiments.spec` — a typo must fail loudly before the run,
not silently inject a different outage.

Every fault in a plan heals: crashes restart after ``down_ms``, outages
and partitions close after ``duration_ms``. That totality is what makes
the recovery contract judgeable — the plan knows its *last heal instant*,
and the oracle's ``recovery`` invariant requires every node back in ``OK``
within ``recovery_deadline_s`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.attacks.timeline import DEFAULT_DOWN_MS, TimedEvent, check_entry, instant_ns, ms_ns
from repro.core.cluster import node_index
from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, SECOND

#: Fault kinds -> (required keys, optional keys). Entries are flat:
#: ``{"t_s": ..., "kind": ..., <params>}`` and compile to timeline events
#: (:class:`~repro.attacks.timeline.TimedEvent`) with a heal instant.
FAULT_KINDS = {
    # Enclave crash with full TEE state loss; cold restart after down_ms.
    "node-crash": ({"node"}, {"down_ms"}),
    # One Time Authority drops every request for the window.
    "ta-outage": ({"duration_ms"}, {"ta"}),
    # Named partition: the island only talks to itself for the window.
    "partition": ({"island", "duration_ms"}, {"name"}),
    # Uniform packet-loss burst across the whole fabric.
    "loss-burst": ({"drop_probability", "duration_ms"}, set()),
}

_PLAN_KEYS = {"schedule", "recovery_deadline_s", "retry"}

#: ``retry`` block keys -> (TriadNodeConfig field, converter). Converters
#: turn spec units (seconds / milliseconds) into config-native ones.
_RETRY_FIELDS = {
    "backoff_factor": ("retry_backoff_factor", float),
    "jitter": ("retry_jitter", float),
    "backoff_s": ("ta_retry_backoff_ns", lambda v: int(float(v) * SECOND)),
    "max_backoff_s": ("retry_backoff_max_ns", lambda v: int(float(v) * SECOND)),
    "calibration_backoff_ms": (
        "calibration_retry_backoff_ns",
        lambda v: int(float(v) * MILLISECOND),
    ),
    "attempt_budget": ("ta_fetch_attempt_budget", lambda v: None if v is None else int(v)),
}

#: Post-heal grace before the recovery invariant flags stragglers. Sized
#: for a cold FullCalib (monitor windows + two TA rounds) with slack.
DEFAULT_RECOVERY_DEADLINE_S = 15.0


@dataclass(frozen=True)
class FaultPlan:
    """A validated fault schedule plus its recovery contract."""

    #: Timeline events (:mod:`repro.attacks.timeline`); every one heals.
    events: tuple[TimedEvent, ...]
    recovery_deadline_ns: int
    #: TriadNodeConfig field overrides (already converted to config units).
    retry_overrides: Mapping[str, Any] = field(default_factory=dict)

    @property
    def last_heal_ns(self) -> int:
        """The instant the final fault heals (0 for an empty plan)."""
        return max((event.stop_ns for event in self.events), default=0)

    @classmethod
    def from_spec(
        cls,
        raw: Any,
        *,
        nodes: int,
        ta_count: int = 1,
        duration_s: Optional[float] = None,
    ) -> "FaultPlan":
        """Validate a spec ``faults`` block against the cluster shape.

        With ``duration_s``, also check that every fault heals in-run.
        """
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"faults: block must be an object, got {type(raw).__name__}"
            )
        unknown = set(raw) - _PLAN_KEYS
        if unknown:
            raise ConfigurationError(f"faults: unknown keys {sorted(unknown)}")

        deadline_s = raw.get("recovery_deadline_s", DEFAULT_RECOVERY_DEADLINE_S)
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or not deadline_s > 0
        ):
            raise ConfigurationError(
                f"faults.recovery_deadline_s: must be a positive number, got {deadline_s!r}"
            )

        schedule = raw.get("schedule", [])
        if not isinstance(schedule, list):
            raise ConfigurationError("faults.schedule: must be a list of entries")
        duration_ns = None if duration_s is None else int(duration_s * SECOND)
        events = []
        for index, entry in enumerate(schedule):
            events.append(
                _validate_entry(index, entry, nodes=nodes, ta_count=ta_count)
            )
        events.sort(key=lambda event: (event.t_ns, event.stop_ns, event.kind))
        _check_windows(events, duration_ns)

        return cls(
            events=tuple(events),
            recovery_deadline_ns=int(float(deadline_s) * SECOND),
            retry_overrides=_validate_retry(raw.get("retry", {})),
        )


def _validate_entry(index: int, entry: Any, *, nodes: int, ta_count: int) -> TimedEvent:
    where = f"faults.schedule[{index}]"
    kind = check_entry(where, entry, FAULT_KINDS, "kind", base={"t_s"})
    t_ns = instant_ns(where, "t_s", entry["t_s"])

    if kind == "node-crash":
        node = node_index(where, "node", entry["node"], nodes)
        down_ms = entry.get("down_ms", DEFAULT_DOWN_MS)
        down_ns = _window_ns(where, "down_ms", down_ms)
        return TimedEvent(t_ns, kind, {"node": node}, t_ns + down_ns)
    if kind == "ta-outage":
        ta = entry.get("ta", 1)
        if isinstance(ta, bool) or not isinstance(ta, int) or not 1 <= ta <= ta_count:
            raise ConfigurationError(
                f"{where}: ta must be an index in 1..{ta_count}, got {ta!r}"
            )
        duration_ns = _window_ns(where, "duration_ms", entry["duration_ms"])
        return TimedEvent(t_ns, kind, {"ta": ta}, t_ns + duration_ns)
    if kind == "partition":
        island = entry["island"]
        if not isinstance(island, list) or not island:
            raise ConfigurationError(
                f"{where}: island must be a non-empty list of node indices"
            )
        members = []
        for value in island:
            member = node_index(where, "island", value, nodes)
            if member in members:
                raise ConfigurationError(f"{where}: duplicate island node {member}")
            members.append(member)
        if len(members) >= nodes:
            raise ConfigurationError(
                f"{where}: island of {len(members)} node(s) leaves nobody outside "
                f"a cluster of {nodes}"
            )
        name = entry.get("name", f"fault-partition-{index}")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{where}: name must be a non-empty string")
        duration_ns = _window_ns(where, "duration_ms", entry["duration_ms"])
        params = {"island": tuple(sorted(members)), "name": name}
        return TimedEvent(t_ns, kind, params, t_ns + duration_ns)
    # loss-burst
    probability = entry["drop_probability"]
    if (
        isinstance(probability, bool)
        or not isinstance(probability, (int, float))
        or not 0.0 <= probability < 1.0
    ):
        raise ConfigurationError(
            f"{where}: drop_probability must be in [0, 1), got {probability!r}"
        )
    duration_ns = _window_ns(where, "duration_ms", entry["duration_ms"])
    params = {"drop_probability": float(probability)}
    return TimedEvent(t_ns, kind, params, t_ns + duration_ns)


def _window_ns(where: str, key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigurationError(
            f"{where}: {key} must be a positive number, got {value!r}"
        )
    return ms_ns(value)


def _check_windows(events: list[TimedEvent], duration_ns: Optional[int]) -> None:
    """Cross-entry checks: everything heals in-run, no impossible overlaps."""
    crash_windows: dict[int, tuple[int, int, int]] = {}
    burst_close_ns = -1
    partition_names: set[str] = set()
    for position, event in enumerate(events):
        where = f"faults.schedule[{position}]"
        if duration_ns is not None and event.stop_ns >= duration_ns:
            raise ConfigurationError(
                f"{where}: {event.kind} heals at {event.stop_ns / SECOND:.3f}s, "
                f"past the {duration_ns / SECOND:.3f}s run — every fault must "
                f"heal in-run for the recovery contract to be judgeable"
            )
        if event.kind == "node-crash":
            node = event.params["node"]
            previous = crash_windows.get(node)
            if previous is not None and event.t_ns <= previous[1]:
                raise ConfigurationError(
                    f"{where}: node {node} crashes at {event.t_ns / SECOND:.3f}s "
                    f"while still down from faults.schedule[{previous[2]}]"
                )
            crash_windows[node] = (event.t_ns, event.stop_ns, position)
        elif event.kind == "partition":
            name = event.params["name"]
            if name in partition_names:
                raise ConfigurationError(
                    f"{where}: duplicate partition name {name!r}"
                )
            partition_names.add(name)
        elif event.kind == "loss-burst":
            if event.t_ns <= burst_close_ns:
                raise ConfigurationError(
                    f"{where}: loss-burst windows must not overlap"
                )
            burst_close_ns = event.stop_ns


def _validate_retry(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"faults.retry: block must be an object, got {type(raw).__name__}"
        )
    unknown = set(raw) - set(_RETRY_FIELDS)
    if unknown:
        raise ConfigurationError(f"faults.retry: unknown keys {sorted(unknown)}")
    overrides: dict[str, Any] = {}
    for key, value in raw.items():
        field_name, convert = _RETRY_FIELDS[key]
        try:
            converted = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"faults.retry.{key}: {exc}") from exc
        overrides[field_name] = converted
    factor = overrides.get("retry_backoff_factor")
    if factor is not None and not factor >= 1.0:
        raise ConfigurationError(
            f"faults.retry.backoff_factor: must be >= 1, got {factor!r}"
        )
    jitter = overrides.get("retry_jitter")
    if jitter is not None and not 0.0 <= jitter <= 1.0:
        raise ConfigurationError(
            f"faults.retry.jitter: must be in [0, 1], got {jitter!r}"
        )
    base = overrides.get("ta_retry_backoff_ns")
    if base is not None and base <= 0:
        raise ConfigurationError("faults.retry.backoff_s: must be positive")
    cap = overrides.get("retry_backoff_max_ns")
    if cap is not None and cap <= 0:
        raise ConfigurationError("faults.retry.max_backoff_s: must be positive")
    if base is not None and cap is not None and cap < base:
        raise ConfigurationError(
            "faults.retry.max_backoff_s: cap below the base backoff"
        )
    calibration = overrides.get("calibration_retry_backoff_ns")
    if calibration is not None and calibration < 0:
        raise ConfigurationError(
            "faults.retry.calibration_backoff_ms: must be non-negative"
        )
    budget = overrides.get("ta_fetch_attempt_budget", 1)
    if budget is not None and budget < 1:
        raise ConfigurationError(
            "faults.retry.attempt_budget: must be at least 1 (or null for unbounded)"
        )
    return overrides
