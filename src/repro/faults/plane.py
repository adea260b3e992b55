"""The ``faults`` plane: recovery of a spec run from injected faults.

A spec's ``faults`` block (see :class:`repro.faults.FaultPlan`) schedules
crashes, TA outages, partitions and loss bursts and arms the oracle's
``recovery`` invariant; the report is the run's MTTR / recovery summary
(:func:`repro.faults.recovery_report`). The compiled plan is the
plane's handle on the experiment (``experiment.faults``).
"""

from __future__ import annotations

from repro.faults.inject import apply_fault_plan
from repro.faults.plan import FaultPlan
from repro.faults.recovery import recovery_report, render_recovery_report


class FaultsPlane:
    def validate(self, block, spec) -> None:
        FaultPlan.from_spec(
            block, nodes=spec.nodes, ta_count=spec.ta_count, duration_s=spec.duration_s
        )

    def attach(self, experiment, block) -> None:
        cluster = experiment.cluster
        plan = FaultPlan.from_spec(block, nodes=len(cluster.nodes), ta_count=len(cluster.tas))
        apply_fault_plan(experiment, plan)
        experiment.faults = plan

    def report(self, experiment) -> dict:
        return recovery_report(experiment, experiment.faults)

    def render(self, report) -> str:
        return render_recovery_report(report)


PLANE = FaultsPlane()
