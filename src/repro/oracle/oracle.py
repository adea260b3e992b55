"""The online invariant oracle: runs judged against kernel ground truth.

:class:`InvariantOracle` watches a simulation as it executes and checks
every instrumented observation against the simulator's omniscient clock —
the one thing no protocol participant can see. It detects exactly the
failures the paper's analysis is about, including the ones the protocol
itself cannot notice (a node serving confidently wrong time is the
*silent* failure mode; PR 1's fuzzer found a schedule drifting 15.7 s
while state stayed ``OK``).

Invariants (see ``docs/oracle.md`` for the full table):

``monotonicity``
    Timestamps served by one node strictly increase.
``drift-bound``
    A calibrated clock's true offset ``|now_unchecked − sim.now|`` stays
    within the configured bound.
``freshness``
    A node refreshes (untaint or calibration) within the configured
    deadline — disabled by default, because the base protocol makes no
    freshness promise; DoS scenarios opt in.
``untaint-safety``
    A node never *adopts* a peer/clique reference whose true offset
    exceeds the drift bound — the propagation-attack signature.
``state-soundness``
    A node reporting ``OK`` actually has in-bound drift (the fuzz
    finding violates this: state ``OK``, drift ~15.7 s).

The oracle is purely observational. It subscribes to node
:class:`~repro.core.probes.ProbeHub` taps (zero simulated time) and to
the kernel's trace hook for interval-gated scans between probe activity;
it never schedules events, so a run's trace is byte-identical with the
oracle on or off.

Continuous conditions (drift, soundness, freshness) are **edge
triggered**: one violation when the condition starts holding, re-armed
when it stops. Discrete conditions (bad serve, bad untaint) are counted
per ``(node, invariant)`` with a cap so a hostile schedule cannot balloon
the record list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.probes import ProbeEvent
from repro.core.states import NodeState
from repro.errors import OracleViolationError
from repro.oracle.expectations import expected_for, is_expected
from repro.oracle.violations import Violation, violation_score
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class OracleConfig:
    """Check parameters of one oracle instance."""

    #: Allowed |true offset| of a calibrated clock. The default clears the
    #: benign worst case (fig3's 8 h low-AEX run peaks near 400 ms between
    #: refreshes) while catching every attack scenario by a wide margin.
    drift_bound_ns: int = 500 * MILLISECOND
    #: Deadline for a refresh (untaint/calibration) since the last one.
    #: ``None`` disables the check: base Triad promises no freshness (an
    #: unreachable TA costs availability, not correctness), so only
    #: DoS-style scenarios configure a deadline.
    freshness_deadline_ns: Optional[int] = None
    #: Minimum simulated time between kernel-hook scans. Probe-triggered
    #: checks still run at full rate; the scan only bounds the detection
    #: latency of violations that develop while a node is quiescent.
    check_interval_ns: int = SECOND
    #: Recorded violations per (node, invariant) before suppression.
    max_violations_per_key: int = 50


class InvariantOracle:
    """Online checker for one simulation run.

    Attach with :meth:`watch` per node (or :func:`watch_cluster`), run the
    simulation, then :meth:`finalize` (or :func:`judge`). ``name`` is the
    canonical scenario name used to look up expected violations; it may
    be set after construction (:func:`judge` names an unnamed oracle).
    """

    def __init__(
        self, sim: "Simulator", config: Optional[OracleConfig] = None, name: str = ""
    ) -> None:
        self.sim = sim
        self.config = config or OracleConfig()
        self.name = name
        self.violations: list[Violation] = []
        #: Violations dropped by the per-key cap (reported, not recorded).
        self.suppressed = 0
        #: Expected (node, invariant) pairs, frozen at first finalize.
        self.expected: Optional[frozenset] = None
        #: Pairs excused at runtime, on top of the expected set: the
        #: cluster's membership engine adds a node's pairs when it
        #: quarantines or evicts it (the cut node's clock is the
        #: containment working, not a finding).
        self.excused: set[tuple[str, str]] = set()
        self._nodes: dict[str, object] = {}
        self._last_served: dict[str, int] = {}
        self._last_refresh: dict[str, int] = {}
        #: Edge state: (node, invariant) pairs currently in violation.
        self._active: set[tuple[str, str]] = set()
        self._counts: dict[tuple[str, str], int] = {}
        self._last_scan_ns: Optional[int] = None
        self._hooked = False
        self._finalized = False
        #: Fault plan whose recovery contract is still to be judged (see
        #: :meth:`expect_recovery`).
        self._recovery_plan = None

    # -- attachment ---------------------------------------------------------------

    def watch(self, node) -> None:
        """Subscribe to ``node`` (anything with ``name`` and ``probes``)."""
        self._nodes[node.name] = node
        self._last_refresh.setdefault(node.name, self.sim.now)
        node.probes.subscribe(self._on_probe)
        if not self._hooked:
            self.sim.add_trace_hook(self._on_advance)
            self._last_scan_ns = self.sim.now
            self._hooked = True

    def detach(self) -> None:
        """Unsubscribe from all nodes and the kernel hook."""
        for node in self._nodes.values():
            node.probes.unsubscribe(self._on_probe)
        if self._hooked:
            self.sim.remove_trace_hook(self._on_advance)
            self._hooked = False

    @property
    def node_names(self) -> list[str]:
        """Watched node names, in attachment order."""
        return list(self._nodes)

    def expect_recovery(self, plan) -> None:
        """Install a fault plan's recovery contract.

        Once ``plan``'s deadline after its last heal passes, every node
        :func:`repro.faults.recovery.recovery_verdicts` judges and finds
        unrecovered gets one ``recovery`` violation. This is the liveness
        counterpart of the drift bound: a protocol that survives faults
        by staying dark forever has not recovered.
        """
        self._recovery_plan = plan

    # -- event intake --------------------------------------------------------------

    def _on_probe(self, event: ProbeEvent) -> None:
        if event.kind == "serve":
            self._check_monotonic(event)
            self._check_clock(self._nodes[event.node], event.time_ns)
        elif event.kind == "untaint":
            self._on_untaint(event)
        elif event.kind == "state":
            if event.data.get("state") is NodeState.OK:
                self._check_clock(self._nodes[event.node], event.time_ns)
        elif event.kind == "calibration":
            self._mark_refreshed(event.node, event.time_ns)
        elif event.kind == "crash":
            self._on_crash(event)

    def _on_crash(self, event: ProbeEvent) -> None:
        """An enclave crashed: its next lifetime starts from nothing.

        The served-timestamp floor is enclave state and died with the
        enclave, so the next lifetime's first serve must not be judged
        against it; the freshness clock restarts (the downtime window is
        the recovery invariant's business, not freshness's); and any
        active edges are cleared so post-restart breaches re-trigger.
        """
        self._last_served.pop(event.node, None)
        self._mark_refreshed(event.node, event.time_ns)
        self._active = {key for key in self._active if key[0] != event.node}

    def _on_advance(self, now_ns: int) -> None:
        if self._last_scan_ns is not None:
            if now_ns - self._last_scan_ns < self.config.check_interval_ns:
                return
        self._scan(now_ns)

    def _scan(self, now_ns: int) -> None:
        self._last_scan_ns = now_ns
        for node in self._nodes.values():
            self._check_clock(node, now_ns)
            self._check_freshness(node, now_ns)
        self._check_recovery(now_ns)

    # -- the invariants -------------------------------------------------------------

    def _check_monotonic(self, event: ProbeEvent) -> None:
        value = event.data["timestamp_ns"]
        last = self._last_served.get(event.node)
        if last is not None and value <= last:
            self._record(
                Violation(
                    time_ns=event.time_ns,
                    node=event.node,
                    invariant="monotonicity",
                    detail=f"served {value} after {last}",
                    measured_ns=value - last,
                )
            )
        self._last_served[event.node] = max(value, last) if last is not None else value

    def _check_clock(self, node, now_ns: int) -> None:
        """Drift-bound and state-soundness, edge triggered per node."""
        clock = getattr(node, "clock", None)
        if clock is None or not clock.calibrated:
            return
        drift = clock.now_unchecked() - now_ns
        bound = self.config.drift_bound_ns
        out_of_bound = abs(drift) > bound
        self._edge(
            node.name,
            "drift-bound",
            out_of_bound,
            now_ns,
            detail=f"true offset {drift / 1e9:+.3f}s exceeds bound",
            measured_ns=drift,
            bound_ns=bound,
        )
        state = getattr(node, "state", None)
        self._edge(
            node.name,
            "state-soundness",
            out_of_bound and state is NodeState.OK,
            now_ns,
            detail=f"state OK but true offset is {drift / 1e9:+.3f}s",
            measured_ns=drift,
            bound_ns=bound,
        )

    def _check_freshness(self, node, now_ns: int) -> None:
        deadline = self.config.freshness_deadline_ns
        if deadline is None:
            return
        age = now_ns - self._last_refresh[node.name]
        self._edge(
            node.name,
            "freshness",
            age > deadline,
            now_ns,
            detail=f"no refresh for {age / 1e9:.1f}s",
            measured_ns=age,
            bound_ns=deadline,
        )

    def _check_recovery(self, now_ns: int) -> None:
        """The recovery invariant, judged once when the deadline passes."""
        plan = self._recovery_plan
        if plan is None or now_ns < plan.last_heal_ns + plan.recovery_deadline_ns:
            return
        self._recovery_plan = None
        from repro.faults.recovery import recovery_verdicts

        heal_ns, deadline_ns = plan.last_heal_ns, plan.recovery_deadline_ns
        verdicts = recovery_verdicts(self._nodes.values(), plan)
        for name in sorted(verdicts):
            if verdicts[name] is not False:
                continue
            self._record(
                Violation(
                    time_ns=now_ns,
                    node=name,
                    invariant="recovery",
                    detail=(
                        f"not OK within {deadline_ns / 1e9:.1f}s of the last "
                        f"fault heal at t={heal_ns / 1e9:.1f}s"
                    ),
                    measured_ns=now_ns - heal_ns,
                    bound_ns=deadline_ns,
                )
            )

    def _on_untaint(self, event: ProbeEvent) -> None:
        outcome = event.data["outcome"]
        self._mark_refreshed(event.node, event.time_ns)
        source = outcome.source
        # Safety applies only where an external reference was *adopted*:
        # a slower peer's timestamp (no jump) was rejected by the policy,
        # and the TA/self-consistent paths are trust roots, not peers.
        adopted = source == "chimer-clique" or (
            source.startswith("peer:") and outcome.jumped_forward
        )
        reference = outcome.reference_time_ns
        if not adopted or reference is None:
            return
        offset = reference - event.time_ns
        if abs(offset) > self.config.drift_bound_ns:
            self._record(
                Violation(
                    time_ns=event.time_ns,
                    node=event.node,
                    invariant="untaint-safety",
                    detail=(
                        f"adopted {source} reference with true offset "
                        f"{offset / 1e9:+.3f}s"
                    ),
                    measured_ns=offset,
                    bound_ns=self.config.drift_bound_ns,
                )
            )

    # -- recording ---------------------------------------------------------------------

    def _mark_refreshed(self, node_name: str, time_ns: int) -> None:
        self._last_refresh[node_name] = time_ns
        self._active.discard((node_name, "freshness"))

    def _edge(
        self,
        node_name: str,
        invariant: str,
        broken: bool,
        now_ns: int,
        detail: str,
        measured_ns: Optional[int] = None,
        bound_ns: Optional[int] = None,
    ) -> None:
        key = (node_name, invariant)
        if not broken:
            self._active.discard(key)
            return
        if key in self._active:
            return
        self._active.add(key)
        self._record(
            Violation(
                time_ns=now_ns,
                node=node_name,
                invariant=invariant,
                detail=detail,
                measured_ns=measured_ns,
                bound_ns=bound_ns,
            )
        )

    def _record(self, violation: Violation) -> None:
        count = self._counts.get(violation.key, 0) + 1
        self._counts[violation.key] = count
        if count > self.config.max_violations_per_key:
            self.suppressed += 1
            return
        self.violations.append(violation)

    # -- results ---------------------------------------------------------------------------

    def finalize(self, expected: Optional[Iterable[tuple[str, str]]] = None) -> list[Violation]:
        """Run a last scan, freeze the expected set, return all violations.

        Idempotent: the first caller's ``expected`` wins (an
        :class:`~repro.experiments.runner.Experiment` finalizes with its
        scenario's expectations; :func:`judge` finalizing again must not
        overwrite them with a generic set).
        """
        if not self._finalized:
            self._scan(self.sim.now)
            self._finalized = True
        if expected is not None and self.expected is None:
            self.expected = frozenset(expected)
        return list(self.violations)

    def expected_keys(self) -> frozenset:
        """The governing expected set (frozen at finalize, else by name)
        plus the runtime-excused pairs."""
        expected = self.expected if self.expected is not None else expected_for(self.name)
        return expected | self.excused

    def violation_set(self) -> set[tuple[str, str]]:
        """Distinct (node, invariant) pairs observed."""
        return {violation.key for violation in self.violations}

    def unexpected_violations(self) -> list[Violation]:
        """Violations not covered by the governing expected set."""
        expected = self.expected_keys()
        return [v for v in self.violations if not is_expected(v.key, expected)]

    def score(self) -> float:
        """Severity-weighted fitness of the observed violations.

        The search engine's oracle hook (:mod:`repro.hunt.fitness`):
        delegates to :func:`~repro.oracle.violations.violation_score`
        over *all* violations, expected or not — expected-set filtering
        is the replay contract's concern, not the fitness landscape's.
        """
        return violation_score(self.violations)

    def render_report(self) -> str:
        """Human-readable summary for CLI output."""
        if not self.violations:
            return "oracle: no violations"
        lines = [
            f"oracle: {len(self.violations)} violation(s) "
            f"across {len(self.violation_set())} (node, invariant) pair(s)"
            + (f", {self.suppressed} suppressed by per-key cap" if self.suppressed else "")
        ]
        for violation in self.violations[:20]:
            marker = " " if is_expected(violation.key, self.expected_keys()) else "!"
            lines.append(
                f" {marker} t={violation.time_ns / 1e9:10.3f}s {violation.node:>8} "
                f"{violation.invariant:<16} [{violation.severity}] {violation.detail}"
            )
        if len(self.violations) > 20:
            lines.append(f"   … {len(self.violations) - 20} more")
        unexpected = self.unexpected_violations()
        if unexpected:
            lines.append(
                f"   {len(unexpected)} UNEXPECTED (marked '!') — strict mode fails this run"
            )
        return "\n".join(lines)


def judge(oracles: Iterable[InvariantOracle], *, name: str, strict: bool) -> list[Violation]:
    """The verdict on one run: the violations outside the expected sets.

    Finalizes every oracle (an expected set frozen by an earlier
    finalize, such as an :class:`~repro.experiments.runner.Experiment`'s
    own, wins) and names any unnamed one ``name``, so the registry
    expectations for that name apply. In ``strict`` mode any unexpected
    violation raises :class:`~repro.errors.OracleViolationError` naming
    the run and the offending ``node/invariant`` pairs.
    """
    unexpected: list[Violation] = []
    for oracle in oracles:
        if not oracle.name:
            oracle.name = name
        oracle.finalize()
        unexpected.extend(oracle.unexpected_violations())
    if strict and unexpected:
        pairs = sorted({f"{v.node}/{v.invariant}" for v in unexpected})
        raise OracleViolationError(
            f"run {name!r}: {len(unexpected)} unexpected invariant violation(s): "
            + ", ".join(pairs),
            violations=[v.to_dict() for v in unexpected],
        )
    return unexpected


def watch_cluster(
    sim: "Simulator",
    nodes: Iterable,
    config: Optional[OracleConfig] = None,
    name: str = "",
) -> InvariantOracle:
    """Create an oracle watching every probe-instrumented node in ``nodes``."""
    oracle = InvariantOracle(sim, config=config, name=name)
    for node in nodes:
        if getattr(node, "probes", None) is not None:
            oracle.watch(node)
    return oracle
