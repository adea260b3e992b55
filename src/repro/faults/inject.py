"""Compile a :class:`FaultPlan` onto a built experiment.

Injection is pure scheduling: every fault becomes a pair of
:func:`repro.attacks.scheduler.at` processes (inject, heal) driving the
cluster's fault hooks — :meth:`Cluster.crash_node` / ``restart_node``,
``set_ta_down``, ``open_partition`` / ``heal_partition`` — or the
network's runtime loss knob. Nothing here draws randomness, so a plan
perturbs the simulation only through the faults themselves; two runs of
the same spec remain byte-identical.

If the cluster has an oracle attached, injection also arms the
``recovery`` invariant: after the plan's last heal instant, every node
that was ``OK`` before the first fault must report ``OK`` within the
plan's deadline (see :func:`repro.faults.recovery.recovery_verdicts`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.attacks.scheduler import at
from repro.faults.plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment


def apply_fault_plan(experiment: "Experiment", plan: FaultPlan) -> None:
    """Schedule the plan's faults and arm the recovery contract."""
    cluster = experiment.cluster
    for node in cluster.nodes:
        if plan.retry_overrides:
            node.config = dataclasses.replace(node.config, **plan.retry_overrides)
    for position, event in enumerate(plan.events):
        schedule_fault(experiment, event, f"faults[{position}]/{event.kind}")
    if cluster.oracle is not None:
        cluster.oracle.expect_recovery(plan)


def schedule_fault(experiment: "Experiment", event: FaultEvent, tag: str) -> None:
    """Schedule one fault's inject and heal (no heal if ``heal_ns`` is None).

    Also compiles the spec schedule's fault primitives (``node-crash``,
    ``ta-outage``, ``partition``), which is why a heal may be absent.
    """
    cluster = experiment.cluster
    network = cluster.network
    params = event.params
    if event.kind == "node-crash":
        index = params["node"]
        inject = (lambda: cluster.crash_node(index), f"{tag}-node{index}")
        heal = (lambda: cluster.restart_node(index), f"{tag}-restart-node{index}")
    elif event.kind == "ta-outage":
        ta_index = params.get("ta", 1) - 1
        inject = (lambda: cluster.set_ta_down(True, ta_index=ta_index), f"{tag}-down")
        heal = (lambda: cluster.set_ta_down(False, ta_index=ta_index), f"{tag}-up")
    elif event.kind == "partition":
        name = params["name"]
        inject = (lambda: cluster.open_partition(name, params["island"]), f"{tag}-open")
        heal = (lambda: cluster.heal_partition(name), f"{tag}-heal")
    else:  # loss-burst
        # Restore whatever rate was in effect when the burst started (the
        # spec-configured base rate, normally zero). Bursts are validated
        # non-overlapping, so fire-time capture is sound.
        saved: dict[str, float] = {}

        def start_burst() -> None:
            saved["previous"] = network.drop_probability
            network.set_drop_probability(params["drop_probability"])

        inject = (start_burst, f"{tag}-start")
        heal = (lambda: network.set_drop_probability(saved["previous"]), f"{tag}-stop")
    at(experiment.sim, event.t_ns, inject[0], name=inject[1])
    if event.heal_ns is not None:
        at(experiment.sim, event.heal_ns, heal[0], name=heal[1])
