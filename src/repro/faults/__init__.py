"""Deterministic fault-injection plane (crash/restart, TA outage, partitions).

The paper's security analysis asks how Triad behaves under an *adversary*;
this package asks the complementary robustness question: how does the
protocol behave under ordinary infrastructure faults — an enclave that
crashes and cold-boots with full TEE state loss, a Time Authority that
goes dark or flaps, a network that partitions or sheds packets — and how
quickly does it *recover* once the faults heal?

Three pieces:

* :class:`FaultPlan` (``plan.py``) — a validated, JSON-serializable fault
  schedule plus the recovery contract (deadline) and retry-policy
  overrides. Specs carry it as the ``faults`` block.
* the ``faults`` plane (``plane.py``) — attaches a plan to a built
  experiment: retry-policy overrides on every node, the faults as
  timeline events (:mod:`repro.attacks.timeline`: crash/restart, TA
  down/up, partition open/heal, loss-burst windows), and the oracle's
  ``recovery`` invariant armed at the last heal instant.
* :func:`recovery_report` (``recovery.py``) — the deterministic MTTR /
  recovery summary read off the cluster's fault journal and per-node
  state timelines after the run.
"""

from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.faults.recovery import recovery_report, render_recovery_report

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "recovery_report",
    "render_recovery_report",
]
