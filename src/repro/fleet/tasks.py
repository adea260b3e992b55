"""Serializable run descriptions: the unit of work the fleet executes.

A :class:`RunTask` captures *what* to run — a declarative spec (a sweep
point is one or more), a canonical experiment — as plain JSON-able data,
never as live objects. That buys three things at once:

* **portability** — tasks pickle cheaply into worker processes;
* **addressability** — :meth:`RunTask.content_hash` is a stable digest of
  the task content plus the code version, so identical work is
  recognizable across runs (the key of :mod:`repro.fleet.cache`);
* **determinism** — a task carries its own seed and parameters, and its
  executor builds a fresh :class:`~repro.sim.kernel.Simulator` from
  nothing else, so the result is a pure function of the task.

Executors are registered per ``kind`` with :func:`register_runner`; the
built-in kinds are ``spec``, ``hunt-genome`` and ``experiment``. ``spec``
is the one kind that runs declarative specs: its value carries the report
of every plane the run attached (``service``, ``membership``, ``faults``;
see :mod:`repro.planes`), or, for a sweep point, the metrics its sweep's
metric function read off the run. An executor returns a JSON-able dict
(it must round-trip through ``json.dumps``/``loads`` unchanged — the
cache stores it that way) and should include a ``sim_ns`` entry so
telemetry can report simulated seconds per wall second.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

from repro.errors import FleetError


@dataclass
class RunTask:
    """One self-contained unit of work with a stable content hash."""

    kind: str
    name: str
    seed: Optional[int] = None
    duration_ns: Optional[int] = None
    payload: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunTask":
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise FleetError(f"unknown RunTask keys: {sorted(unknown)}")
        return cls(**raw)

    def content_hash(self) -> str:
        """Stable digest of the task content, salted with the code version.

        Bumping :data:`repro.__version__` therefore invalidates every
        cached result at once — a coarse but sound "code changed, redo
        the work" rule.
        """
        from repro import __version__

        blob = json.dumps(
            {"task": self.to_dict(), "code_version": __version__},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class TaskResult:
    """Outcome of one task: value or error, plus execution bookkeeping."""

    task_hash: str
    name: str
    ok: bool
    value: Any = None
    error: str = ""
    wall_s: float = 0.0
    sim_ns: int = 0
    attempts: int = 1
    from_cache: bool = False
    #: Oracle violation records (dicts) the task reported, if any.
    violations: list = field(default_factory=list)
    #: Peak resident-set size of the executing process (KiB; 0 when
    #: unknown, e.g. cache hits). In-process runs report the parent's
    #: peak, worker runs the worker's — either way a monotone high-water
    #: mark that makes memory growth over a long batch diagnosable.
    peak_rss_kb: int = 0


def peak_rss_kb() -> int:
    """Peak RSS of the current process in KiB (0 where unsupported).

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS; normalize so
    telemetry is comparable across platforms.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX platform
        return 0
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover — linux CI
        peak //= 1024
    return int(peak)


#: kind -> executor. Executors take a RunTask and return a JSON-able dict.
_RUNNERS: dict[str, Callable[[RunTask], dict]] = {}


def register_runner(kind: str) -> Callable:
    """Decorator registering an executor for a task ``kind``."""

    def decorate(fn: Callable[[RunTask], dict]) -> Callable[[RunTask], dict]:
        _RUNNERS[kind] = fn
        return fn

    return decorate


def runner_for(kind: str) -> Callable[[RunTask], dict]:
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise FleetError(
            f"no runner registered for task kind {kind!r}; known kinds: {sorted(_RUNNERS)}"
        ) from None


def execute_task(task: RunTask) -> dict:
    """Run a task in-process and return its JSON-able result value.

    The policies ``task.overrides`` names (``oracle``, ``membership``; see
    :mod:`repro.policy`) are installed for the duration of the run — this
    is how a mode crosses worker-process boundaries: it rides in the
    pickled task, not in inherited process state. Every oracle the run
    created is judged by :func:`repro.oracle.judge` under the task's name
    (in strict mode, unexpected violations raise
    :class:`~repro.errors.OracleViolationError`); their violations are
    appended to the result value under ``"violations"``.
    """
    from repro.oracle import judge
    from repro.policy import installed_policies

    with installed_policies(task.overrides) as created:
        value = runner_for(task.kind)(task)
    oracles = created.get("oracle", [])
    judge(oracles, name=task.name, strict=task.overrides.get("oracle") == "strict")
    violations = [v.to_dict() for oracle in oracles for v in oracle.violations]
    if isinstance(value, dict) and violations:
        value = {**value, "violations": violations}
    return value


def result_sim_ns(value: Any) -> int:
    """Simulated nanoseconds a result value reports (0 when unknown)."""
    if isinstance(value, dict):
        sim_ns = value.get("sim_ns", 0)
        if isinstance(sim_ns, (int, float)):
            return int(sim_ns)
    return 0


def result_violations(value: Any) -> list[dict]:
    """Oracle violation records a result value carries (empty when none)."""
    if isinstance(value, dict):
        violations = value.get("violations")
        if isinstance(violations, list):
            return [dict(item) for item in violations if isinstance(item, dict)]
    return []


# -- built-in task kinds ---------------------------------------------------------
#
# The imports below are deliberately lazy: repro.experiments.sweeps and
# repro.cli import this package at module level, so importing them here at
# import time would be circular. Executors only pay the import on first use
# (once per worker process).


def spec_result(spec, experiment) -> dict:
    """JSON-able value of a finished spec run: the drift table plus the
    report of every plane attached to it (``rendered`` shows both)."""
    from repro.experiments.figures import DriftFigureResult
    from repro.planes import attached_reports, render_reports

    result = DriftFigureResult(experiment=experiment, duration_ns=spec.duration_ns)
    reports = attached_reports(experiment)
    rendered = result.render(f"spec: {spec.name} ({spec.protocol}, {spec.duration_s:.0f}s)")
    return {
        "spec": spec.name,
        "rendered": "\n\n".join(filter(None, [rendered, render_reports(reports)])),
        "frequencies_mhz": result.frequencies_mhz(),
        "availability": result.availability(),
        "reports": reports,
        "sim_ns": spec.duration_ns,
    }


def spec_task(raw: dict, **payload: Any) -> RunTask:
    """A ``spec`` task running the spec dict ``raw``, validated now (before
    any worker runs); ``payload`` adds keys such as a sweep ``metric``."""
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(raw)
    return RunTask(
        kind="spec",
        name=spec.name,
        seed=spec.seed,
        duration_ns=spec.duration_ns,
        payload={"spec": raw, **payload},
    )


@register_runner("spec")
def _run_spec(task: RunTask) -> dict:
    """Execute a declarative experiment spec (``repro.experiments.spec``).

    A ``metric`` in the payload (``{"sweep": name, **args}``) names a sweep
    metric function (``repro.experiments.sweeps.METRICS``); the value then
    carries its ``metrics`` instead of the drift table.
    """
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(dict(task.payload["spec"]))
    if "metric" not in task.payload:
        return spec_result(spec, spec.run())
    from repro.experiments.sweeps import METRICS

    args = dict(task.payload["metric"])
    name = args.pop("sweep", None)
    if name not in METRICS:
        raise FleetError(f"unknown sweep metric {name!r}; choose from {sorted(METRICS)}")
    metrics = METRICS[name](spec.run(), **args)
    return {"spec": spec.name, "metrics": metrics, "sim_ns": spec.duration_ns}


@register_runner("hunt-genome")
def _run_hunt_genome(task: RunTask) -> dict:
    """Evaluate one attack-schedule genome (see ``repro.hunt``)."""
    from repro.hunt.evaluate import evaluate_genome_task

    return evaluate_genome_task(task)


@register_runner("experiment")
def _run_experiment(task: RunTask) -> dict:
    """Execute one canonical experiment from the figure registry."""
    from repro.experiments.figures import EXPERIMENTS, run_experiment

    name = task.payload.get("experiment")
    if name not in EXPERIMENTS:
        raise FleetError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    result, rendered = run_experiment(name, task.seed, task.duration_ns)
    sim_ns = getattr(result, "duration_ns", 0)
    return {"experiment": name, "rendered": rendered, "sim_ns": sim_ns}
