"""The three canonical workloads: spec builders, output checks and digests.

Nothing here imports ``repro`` at module level, so a child interpreter can
import this file before it starts the set-up clock (see ``child.py``).
Every function that inspects a run takes the built
:class:`repro.experiments.runner.Experiment` as an argument.

A run of one workload simulates ``Workload.subseeds`` independent
experiments whose seeds derive from the benchmark's ``--seed``
(:func:`subseeds`). Sub-seed 0
is ``--seed`` itself, so the committed digest of a workload's default seed
(``digests.json``) is checked whenever a run is started with that seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

#: Seed whose output digest per workload is committed in ``digests.json``.
DEFAULT_SEED = 1
#: Distance between the sub-seeds of one run (keeps them apart from the
#: small seeds a user is likely to pass on the command line).
SUBSEED_STRIDE = 1000
#: Node 3 is the F− victim in the containment race (paper numbering).
VICTIM = 3

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """A run's simulated output broke a workload invariant or its digest."""


def _triad_like(nodes: int) -> dict[str, str]:
    return {str(i): "triad-like" for i in range(1, nodes + 1)}


def benign_20(seed: int) -> dict[str, Any]:
    """20 honest Triad-like nodes: all-to-all sealed peer-untaint traffic."""
    return {
        "name": "perfbench-benign-20",
        "seed": seed,
        "duration_s": 40.0,
        "nodes": 20,
        "environments": _triad_like(20),
    }


def service_1m(seed: int) -> dict[str, Any]:
    """3 honest nodes serving 1M open-loop sessions through quorum-3 clients."""
    return {
        "name": "perfbench-service-1m",
        "seed": seed,
        "duration_s": 300.0,
        "nodes": 3,
        "environments": _triad_like(3),
        "service": {"sessions": 1_000_000, "arrival": "open", "quorum": 3},
    }


def containment_10(seed: int) -> dict[str, Any]:
    """The F− propagation race on 10 nodes under enforce-mode membership.

    Node 3's first calibration is skewed by an on-path F− attacker; the
    honest nodes' AEX streams start at 3 s (the fig6 timeline), and node 7
    leaves and rejoins once. The run executes under the strict oracle.
    """
    nodes = 10
    return {
        "name": "perfbench-containment-10",
        "seed": seed,
        "duration_s": 90.0,
        "nodes": nodes,
        "environments": _triad_like(nodes),
        "attacks": [
            {"type": "fminus", "victim": VICTIM, "delay_ms": 100},
            {
                "type": "aex-onset",
                "nodes": [i for i in range(1, nodes + 1) if i != VICTIM],
                "at_s": 3,
            },
        ],
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "churn": {
            "schedule": [
                {"t_s": 45.0, "node": 7, "action": "leave"},
                {"t_s": 54.0, "node": 7, "action": "join"},
            ]
        },
    }


def _check_benign(experiment) -> None:
    cluster = experiment.cluster
    failures = sum(endpoint.auth_failures for endpoint in _endpoints(experiment))
    unknown = sum(endpoint.unknown_sender_drops for endpoint in _endpoints(experiment))
    if failures or unknown:
        raise CheckFailed(f"{failures} auth failure(s), {unknown} unknown-sender drop(s)")
    if cluster.network.dropped_count:
        raise CheckFailed(f"{cluster.network.dropped_count} datagram(s) dropped")
    uncalibrated = [node.name for node in cluster.nodes if not node.clock.calibrated]
    if uncalibrated:
        raise CheckFailed(f"nodes never calibrated: {uncalibrated}")


def _check_service(experiment) -> None:
    report = experiment.service.report()
    settled = report.served + report.refused + report.shed + report.expired
    if settled != report.requests or report.requests <= 0:
        raise CheckFailed(
            f"served+refused+shed+expired={settled} != requests={report.requests}"
        )


def _check_containment(experiment) -> None:
    verdict = experiment.membership.verdict(experiment.node(VICTIM).name).value
    if verdict not in ("quarantined", "evicted"):
        raise CheckFailed(f"F− victim node-{VICTIM} ends {verdict}, not contained")
    oracle = experiment.oracle
    if oracle is None:
        raise CheckFailed("strict oracle was not attached")
    unexpected = oracle.unexpected_violations()
    if unexpected:
        raise CheckFailed(f"{len(unexpected)} unexpected strict-oracle violation(s)")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build it and what must hold after it."""

    name: str
    spec: Callable[[int], dict[str, Any]]
    check: Callable[[Any], None]
    #: Independent experiments simulated per benchmark run.
    subseeds: int
    #: Oracle policy the run executes under.
    oracle: str = "off"
    #: Node indices the attack scenario compromises (excluded from the
    #: honest-node metrics).
    compromised: tuple[int, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("benign-20", benign_20, _check_benign, subseeds=3),
        Workload("service-1m", service_1m, _check_service, subseeds=5),
        Workload(
            "containment-10",
            containment_10,
            _check_containment,
            subseeds=8,
            oracle="strict",
            compromised=(VICTIM,),
        ),
    )
}


def subseeds(workload: Workload, seed: int) -> list[int]:
    """The experiment seeds one run of ``workload`` simulates."""
    return [seed + SUBSEED_STRIDE * k for k in range(workload.subseeds)]


def _endpoints(experiment) -> list:
    cluster = experiment.cluster
    return [node.endpoint for node in cluster.nodes] + [ta.endpoint for ta in cluster.tas]


def _stat_counts(stats) -> dict[str, int]:
    """Integer counters of a stats dataclass; list fields count their entries."""
    counts = {}
    for field in fields(stats):
        value = getattr(stats, field.name)
        counts[field.name] = len(value) if isinstance(value, list) else value
    return counts


def outputs(experiment) -> dict[str, Any]:
    """Everything the run simulated that a speed-only change must not move."""
    cluster = experiment.cluster
    result: dict[str, Any] = {
        "drift": {
            name: series.samples for name, series in sorted(experiment.recorder.series.items())
        },
        "timelines": {
            node.name: [(change.time_ns, change.state.value) for change in node.timeline.changes]
            for node in cluster.nodes
        },
        "node_stats": {node.name: _stat_counts(node.stats) for node in cluster.nodes},
        "ta_stats": {ta.name: _stat_counts(ta.stats) for ta in cluster.tas},
        "datagrams": len(cluster.network.log),
    }
    if experiment.membership is not None:
        result["membership"] = experiment.membership.report()
    if experiment.service is not None:
        result["service"] = experiment.service.report().to_dict()
    if experiment.oracle is not None:
        result["oracle"] = [violation.to_dict() for violation in experiment.oracle.violations]
    return result


def digest(experiment) -> str:
    """SHA-256 of the canonical JSON of :func:`outputs`."""
    canonical = json.dumps(outputs(experiment), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def committed_digests(workload: Workload) -> dict[int, str]:
    """Committed output digest per seed: the workload's default seed."""
    return {DEFAULT_SEED: json.loads(DIGESTS_PATH.read_text())[workload.name]}


def simulated_metrics(workload: Workload, experiment) -> dict[str, float]:
    """Exact-per-seed model outcomes of one run.

    ``honest_drift_max_ms`` is the largest |drift| any honest node showed
    on the :class:`~repro.analysis.metrics.DriftRecorder` grid;
    ``node_availability`` is the mean time-in-OK share of honest nodes.
    The client figures are 0 on workloads without a service plane.
    """
    duration_ns = experiment.duration_ns
    honest = [
        node
        for index, node in enumerate(experiment.cluster.nodes, start=1)
        if index not in workload.compromised
    ]
    drifts = [
        experiment.recorder[node.name].max_abs_drift_ns()
        for node in honest
        if experiment.recorder[node.name].samples
    ]
    metrics = {
        "honest_drift_max_ms": max(drifts) / 1e6 if drifts else 0.0,
        "node_availability": statistics.fmean(
            node.timeline.availability(duration_ns) for node in honest
        ),
        "client_error_p99_ms": 0.0,
        "client_availability": 0.0,
    }
    if experiment.service is not None:
        report = experiment.service.report()
        metrics["client_error_p99_ms"] = report.error_p99_ns / 1e6
        metrics["client_availability"] = report.availability
    return metrics


def layer_counters(experiment) -> dict[str, float]:
    """Per-layer counts the simulated layers already expose."""
    cluster = experiment.cluster
    nodes = cluster.nodes
    stats = [node.stats for node in nodes]
    peer = sum(s.peer_untaints for s in stats)
    ta = sum(s.authority_untaints for s in stats)
    served = sum(s.peer_requests_served for s in stats)
    ignored = sum(s.peer_requests_ignored_tainted for s in stats)
    endpoints = _endpoints(experiment)
    network = cluster.network
    sent = len(network.log)
    delivered = sum(endpoint.socket.received_count for endpoint in endpoints)
    counters = {
        "core.full_calibrations": sum(len(s.full_calibrations) for s in stats),
        "core.calibration.samples_discarded": sum(
            s.calibration_samples_discarded for s in stats
        ),
        "core.untaints.peer": peer,
        "core.untaints.ta": ta,
        "core.peer_untaint_share": peer / (peer + ta) if peer + ta else 0.0,
        "core.peer_requests.served": served,
        "core.peer_requests.useful_ratio": served / (served + ignored) if served + ignored else 0.0,
        "authority.requests": sum(t.stats.requests_received for t in cluster.tas),
        "authority.requests_dropped": sum(t.stats.requests_dropped_down for t in cluster.tas),
        "net.transport.auth_failures": sum(e.auth_failures for e in endpoints),
        "net.transport.unknown_sender_drops": sum(e.unknown_sender_drops for e in endpoints),
        "net.channel.delivered": delivered,
        "net.channel.dropped": network.dropped_count,
        "net.channel.delivery_ratio": delivered / sent if sent else 0.0,
        "net.channel.log_len": sent,
        "service.requests": 0,
        "service.served_ratio": 0.0,
        "membership.rotations": 0,
        "oracle.violations": 0,
        "analysis.drift_samples": sum(
            len(series.samples) for series in experiment.recorder.series.values()
        ),
    }
    if experiment.service is not None:
        report = experiment.service.report()
        counters["service.requests"] = report.requests
        counters["service.served_ratio"] = report.served / report.requests
    if experiment.membership is not None:
        counters["membership.rotations"] = experiment.membership.rotations
    if experiment.oracle is not None:
        counters["oracle.violations"] = len(experiment.oracle.violations)
    return counters
