"""Experiment harness: a configured cluster plus probes, ready to run.

Every paper figure/table maps to a builder in
:mod:`repro.experiments.scenarios` returning an :class:`Experiment`; the
reductions to figure data live in :mod:`repro.experiments.figures`. The
split keeps scenario wiring (who gets which AEX environment, where the
attacker sits) separate from measurement post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.metrics import DriftRecorder, DriftSeries
from repro.core.cluster import TriadCluster
from repro.core.node import TriadNode
from repro.errors import ConfigurationError
from repro.net.adversary import NetworkAdversary
from repro.oracle.expectations import expected_for
from repro.oracle.oracle import InvariantOracle, judge
from repro.oracle.policy import current_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass
class Experiment:
    """A wired scenario: simulator, cluster, probes, optional attackers."""

    name: str
    sim: "Simulator"
    cluster: TriadCluster
    recorder: DriftRecorder
    attackers: list[NetworkAdversary] = field(default_factory=list)
    notes: str = ""
    duration_ns: int = 0
    #: (node, invariant) pairs this scenario is *supposed* to produce
    #: (attack experiments produce violations by design). Seeded from the
    #: scenario registry by name; attack wiring (e.g.
    #: :meth:`~repro.experiments.spec.ExperimentSpec`) may union more in.
    expected_violations: set = field(default_factory=set)
    #: Plane handles (see :mod:`repro.planes`), None when not attached:
    #: the :class:`~repro.service.TimeService`, the
    #: :class:`~repro.membership.MembershipController` (also bound from a
    #: policy-attached controller by the scenario builders), and the
    #: compiled :class:`~repro.faults.FaultPlan`.
    service: Optional[object] = None
    membership: Optional[object] = None
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        self.expected_violations |= expected_for(self.name)

    @property
    def oracle(self) -> Optional[InvariantOracle]:
        """The cluster's invariant oracle (None when the policy is off)."""
        return self.cluster.oracle

    def run(self, duration_ns: int) -> "Experiment":
        """Advance the simulation to ``duration_ns`` and return self.

        When an oracle is attached, finalizes it against this scenario's
        expected violation set and judges it with
        :func:`~repro.oracle.judge`: under a ``strict`` policy, any
        unexpected violation raises :class:`~repro.errors.OracleViolationError`.
        """
        if duration_ns <= self.sim.now:
            raise ConfigurationError(
                f"cannot run experiment {self.name!r} to duration_ns={duration_ns}: "
                f"the simulation clock is already at sim.now={self.sim.now} and "
                f"cannot rewind; pass a duration greater than {self.sim.now}"
            )
        self.sim.run(until=duration_ns)
        self.duration_ns = duration_ns
        if self.oracle is not None:
            self.oracle.finalize(self.expected_violations)
            judge([self.oracle], name=self.name, strict=current_policy().strict)
        return self

    # -- post-run accessors ------------------------------------------------------

    def node(self, index: int) -> TriadNode:
        """The index-th node (1-based, paper numbering)."""
        return self.cluster.node(index)

    def drift(self, index: int) -> DriftSeries:
        """Drift series of the index-th node."""
        return self.recorder[self.cluster.node(index).name]

    def frequency_mhz(self, index: int) -> float:
        """Latest calibrated F_calib of the index-th node, in MHz."""
        frequency = self.node(index).stats.latest_frequency_hz
        if frequency is None:
            raise ConfigurationError(f"node {index} never completed calibration")
        return frequency / 1e6

    def availability(self, index: int) -> float:
        """State-timeline availability of the index-th node over the run."""
        if not self.duration_ns:
            raise ConfigurationError("experiment has not been run yet")
        return self.node(index).timeline.availability(self.duration_ns)
