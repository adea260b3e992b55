"""The ``faults`` plane: recovery of a spec run from injected faults.

A spec's ``faults`` block (see :class:`repro.faults.FaultPlan`) schedules
crashes, TA outages, partitions and loss bursts as timeline events
(:mod:`repro.attacks.timeline`: pure scheduling, no randomness) and arms
the oracle's ``recovery`` invariant: after the plan's last heal, every
node that was ``OK`` before the first fault must be ``OK`` again within
the deadline (see :func:`repro.faults.recovery.recovery_verdicts`). The
report is the run's MTTR / recovery summary
(:func:`repro.faults.recovery_report`). The compiled plan is the
plane's handle on the experiment (``experiment.faults``).
"""

from __future__ import annotations

import dataclasses

from repro.attacks.timeline import apply_timeline
from repro.faults.plan import FaultPlan
from repro.faults.recovery import recovery_report, render_recovery_report


class FaultsPlane:
    def validate(self, block, spec) -> None:
        FaultPlan.from_spec(
            block, nodes=spec.nodes, ta_count=spec.ta_count, duration_s=spec.duration_s
        )

    def attach(self, experiment, block) -> None:
        """Apply the retry overrides, schedule the faults, arm the recovery contract."""
        cluster = experiment.cluster
        plan = FaultPlan.from_spec(block, nodes=len(cluster.nodes), ta_count=len(cluster.tas))
        if plan.retry_overrides:
            for node in cluster.nodes:
                node.config = dataclasses.replace(node.config, **plan.retry_overrides)
        apply_timeline(experiment, plan.events)
        if cluster.oracle is not None:
            cluster.oracle.expect_recovery(plan)
        experiment.faults = plan

    def report(self, experiment) -> dict:
        return recovery_report(experiment, experiment.faults)

    def render(self, report) -> str:
        return render_recovery_report(report)


PLANE = FaultsPlane()
