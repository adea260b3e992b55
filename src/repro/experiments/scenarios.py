"""Canonical scenario builders — one per paper experiment.

Each builder wires a :class:`~repro.experiments.runner.Experiment` matching
one of the paper's setups (§IV): three Triad nodes plus the TA on one SGX2
machine, per-node AEX environments ("Triad-like" Fig. 1a vs low-AEX
Fig. 1b), residual machine-wide OS interrupts, and — for the attack
scenarios — an F+/F− adversary at Node 3.

Node numbering follows the paper: Nodes 1 and 2 are always honest; Node 3
is the compromised one in attack scenarios.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Union

from repro.analysis.metrics import DriftRecorder
from repro.attacks.timeline import TimedEvent, apply_timeline
from repro.core.cluster import ClusterConfig, TriadCluster
from repro.errors import ConfigurationError
from repro.experiments.runner import Experiment
from repro.hardened.node import HardenedNodeConfig, HardenedTriadNode
from repro.hardware.aex import ExponentialAexDelays, InterAexDistribution, TriadLikeAexDelays
from repro.sim.kernel import Simulator
from repro.sim.units import MILLISECOND, SECOND

#: Mean spacing of residual machine-wide OS interrupts: the 5.4 minutes of
#: the paper's Fig. 1b isolated-core environment.
MACHINE_WIDE_MEAN_NS: int = int(5.4 * 60 * SECOND)


class AexEnvironment(enum.Enum):
    """Per-node interruption environment (paper Fig. 1)."""

    #: Fig. 1a — simulated rdmsr AEXs at {10 ms, 532 ms, 1.59 s}.
    TRIAD_LIKE = "triad-like"
    #: Fig. 1b — only residual machine-wide interrupts reach the core.
    LOW_AEX = "low-aex"


def build_experiment(
    name: str,
    seed: int,
    environments: Mapping[int, Union[AexEnvironment, InterAexDistribution]],
    machine_wide_mean_ns: Optional[int] = MACHINE_WIDE_MEAN_NS,
    machine_wide_correlation: float = 0.95,
    drift_interval_ns: int = SECOND,
    cluster_config: Optional[ClusterConfig] = None,
    notes: str = "",
) -> Experiment:
    """Assemble a three-node experiment with per-node AEX environments.

    ``environments`` maps node index (1-based) to its environment — an
    :class:`AexEnvironment`, or an inter-AEX distribution driving a generic
    OS-interrupt stream on the node's core; every index in the cluster
    must be covered. ``machine_wide_mean_ns=None`` disables residual OS
    interrupts entirely.
    """
    sim = Simulator(seed=seed)
    cluster = TriadCluster(sim, cluster_config)
    if set(environments) != set(range(1, len(cluster.nodes) + 1)):
        raise ConfigurationError(
            f"environments must cover nodes 1..{len(cluster.nodes)}, got {sorted(environments)}"
        )
    for index, environment in environments.items():
        core = cluster.monitoring_cores[index - 1]
        if environment is AexEnvironment.TRIAD_LIKE:
            cluster.machine.add_aex_source(core, TriadLikeAexDelays(), cause="rdmsr-sim")
        elif not isinstance(environment, AexEnvironment):
            cluster.machine.add_aex_source(core, environment)
    if machine_wide_mean_ns is not None:
        cluster.machine.add_machine_wide_interrupts(
            ExponentialAexDelays(machine_wide_mean_ns),
            core_indices=cluster.monitoring_cores,
            correlation_probability=machine_wide_correlation,
        )
    recorder = DriftRecorder(sim, cluster.nodes, interval_ns=drift_interval_ns)
    return Experiment(
        name=name,
        sim=sim,
        cluster=cluster,
        recorder=recorder,
        notes=notes,
        membership=cluster.membership,
    )


# -- fault-free scenarios (paper §IV-A) ---------------------------------------------


def fault_free_triad_like(seed: int = 2, drift_interval_ns: int = SECOND) -> Experiment:
    """Fig. 2 setup: all nodes under Triad-like AEXs, no attacker.

    Machine-wide interrupts are mostly correlated, so all nodes taint
    simultaneously every few minutes and must contact the TA — producing
    Fig. 2a's sawtooth drift and Fig. 2b's growing TA message counts.
    """
    return build_experiment(
        name="fig2-fault-free-triad-like",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.TRIAD_LIKE},
        machine_wide_correlation=0.95,
        drift_interval_ns=drift_interval_ns,
        notes="30-minute fault-free run; availability >98% expected",
    )


def fault_free_low_aex(seed: int = 3, drift_interval_ns: int = 5 * SECOND) -> Experiment:
    """Fig. 3 setup: all nodes in the low-AEX (isolated-core) environment.

    Interrupts arrive minutes apart and are only sometimes simultaneous:
    solo AEXs untaint via peers (forward jumps to the fastest clock,
    Fig. 3a), simultaneous ones force TA reference calibrations. A single
    FullCalib at the start is expected (Fig. 3b).
    """
    return build_experiment(
        name="fig3-fault-free-low-aex",
        seed=seed,
        environments={1: AexEnvironment.LOW_AEX, 2: AexEnvironment.LOW_AEX, 3: AexEnvironment.LOW_AEX},
        machine_wide_correlation=0.5,
        drift_interval_ns=drift_interval_ns,
        notes="8-hour fault-free run; 99.9% availability expected",
    )


# -- attack scenarios (paper §IV-B) ----------------------------------------------------


def _calibration_attack(mode: str) -> TimedEvent:
    """The paper's on-path attacker at Node 3: +100 ms, active from build.

    Canonical scenarios take their expected violations from the registry
    (:mod:`repro.oracle.expectations`), so none are derived from this.
    """
    params = {"victim": 3, "mode": mode, "delay_ns": 100 * MILLISECOND}
    return TimedEvent(None, "net-delay", params)


def _honest_onset(switch_at_ns: int) -> list[TimedEvent]:
    """Nodes 1 and 2's AEX sources paused from build until the switch."""
    return [TimedEvent(None, "aex-suppress", {"node": index}, switch_at_ns) for index in (1, 2)]


def fplus_low_aex(seed: int = 4, drift_interval_ns: int = SECOND) -> Experiment:
    """Fig. 4 setup: F+ on Node 3, which the attacker keeps in low-AEX.

    Expected: F₃ᶜᵃˡ ≈ 1.1 × F_tsc ≈ 3190 MHz, Node 3 drifting at
    ≈ −91 ms/s, corrected only by the rare correlated TA calibrations;
    honest nodes unaffected.
    """
    experiment = build_experiment(
        name="fig4-fplus-low-aex",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.LOW_AEX},
        machine_wide_correlation=0.95,
        drift_interval_ns=drift_interval_ns,
        notes="F+ attack; victim isolated from AEXs to let the slow clock free-run",
    )
    apply_timeline(experiment, [_calibration_attack("fplus")])
    return experiment


def fplus_triad_like(seed: int = 5, drift_interval_ns: int = SECOND) -> Experiment:
    """Fig. 5 setup: F+ on Node 3 with all nodes under Triad-like AEXs.

    Expected: Node 3's drift oscillates between its peers' drift (peer
    untaints after every AEX) and ≈ −150 ms reached between AEXs on its
    own slow clock; the attack does not propagate.
    """
    experiment = build_experiment(
        name="fig5-fplus-triad-like",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.TRIAD_LIKE},
        machine_wide_correlation=0.95,
        drift_interval_ns=drift_interval_ns,
        notes="F+ attack with frequent AEXs: bounded oscillating drift",
    )
    apply_timeline(experiment, [_calibration_attack("fplus")])
    return experiment


def fminus_propagation(
    seed: int = 6,
    switch_at_ns: int = 104 * SECOND,
    drift_interval_ns: int = SECOND,
) -> Experiment:
    """Fig. 6 setup: F− on Node 3; honest nodes switch to Triad-like AEXs.

    Nodes 1 and 2 start with (almost) no AEXs; at ``switch_at_ns`` (the
    paper's dashed red line at t = 104 s) their Triad-like AEX streams
    start. Expected: Node 3 drifts at ≈ +113 ms/s from the start; once
    honest nodes experience AEXs they adopt its (always-ahead) timestamps,
    jump forward by tens of ms, and keep following — the propagation
    cascade.
    """
    experiment = build_experiment(
        name="fig6-fminus-propagation",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.TRIAD_LIKE},
        machine_wide_mean_ns=None,
        drift_interval_ns=drift_interval_ns,
        notes="F- attack with delayed honest-node AEX onset (paper's t=104s switch)",
    )
    apply_timeline(experiment, [*_honest_onset(switch_at_ns), _calibration_attack("fminus")])
    return experiment


def ta_blackhole_dos(
    seed: int = 8,
    start_ns: int = 30 * SECOND,
    machine_wide_mean_ns: int = 30 * SECOND,
    drift_interval_ns: int = SECOND,
) -> Experiment:
    """TA blackhole DoS: fail-closed starvation, no wrong time.

    All nodes sit in the low-AEX environment with fully correlated
    machine-wide interrupts every ~30 s: when one fires, every node taints
    at once, peers cannot answer each other, and the whole cluster falls
    back to the (blackholed) TA. Expected: after the outage begins, no
    node ever refreshes again — availability collapses while drift stays
    in bound. This is the golden-trace scenario for the oracle's
    ``freshness`` invariant: with a deadline configured, every node
    violates it; no correctness invariant fires.
    """
    experiment = build_experiment(
        name="dos-ta-blackhole",
        seed=seed,
        environments={1: AexEnvironment.LOW_AEX, 2: AexEnvironment.LOW_AEX, 3: AexEnvironment.LOW_AEX},
        machine_wide_mean_ns=machine_wide_mean_ns,
        machine_wide_correlation=1.0,
        drift_interval_ns=drift_interval_ns,
        notes="fail-closed under TA DoS: refresh starves, correctness holds",
    )
    apply_timeline(experiment, [TimedEvent(start_ns, "ta-blackhole", {"victims": None})])
    return experiment


# -- hardened-protocol scenarios (paper §V) ----------------------------------------------


def hardened_cluster_config() -> ClusterConfig:
    """Cluster config deploying :class:`HardenedTriadNode` on every node."""
    return ClusterConfig(node_class=HardenedTriadNode, node_config=HardenedNodeConfig())


def hardened_fminus_propagation(
    seed: int = 6,
    switch_at_ns: int = 104 * SECOND,
    drift_interval_ns: int = SECOND,
) -> Experiment:
    """Fig. 6's scenario replayed against the hardened protocol.

    Expected: honest nodes reject the infected node's readings via the
    true-chimer check and stay near zero drift; Node 3's own drift is
    bounded by clique corrections and NTP discipline.
    """
    experiment = build_experiment(
        name="hardened-fminus-propagation",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.TRIAD_LIKE},
        machine_wide_mean_ns=None,
        drift_interval_ns=drift_interval_ns,
        cluster_config=hardened_cluster_config(),
        notes="S5 hardening vs the F- propagation attack",
    )
    apply_timeline(experiment, [*_honest_onset(switch_at_ns), _calibration_attack("fminus")])
    return experiment


def hardened_fplus_suppressed_aex(seed: int = 7, drift_interval_ns: int = SECOND) -> Experiment:
    """§V deadline ablation: F+ victim with AEXs fully suppressed.

    Against the base protocol this is the worst case — no AEXs means no
    refresh, ever, so the −91 ms/s drift runs unbounded. The hardened
    node's TSC-deadline discipline loop corrects it regardless.
    """
    experiment = build_experiment(
        name="hardened-fplus-suppressed-aex",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.LOW_AEX},
        machine_wide_mean_ns=None,
        drift_interval_ns=drift_interval_ns,
        cluster_config=hardened_cluster_config(),
        notes="in-TCB deadlines bound free-running miscalibration",
    )
    apply_timeline(experiment, [_calibration_attack("fplus")])
    return experiment


def baseline_fplus_suppressed_aex(seed: int = 7, drift_interval_ns: int = SECOND) -> Experiment:
    """Control for :func:`hardened_fplus_suppressed_aex`: base protocol."""
    experiment = build_experiment(
        name="baseline-fplus-suppressed-aex",
        seed=seed,
        environments={1: AexEnvironment.TRIAD_LIKE, 2: AexEnvironment.TRIAD_LIKE, 3: AexEnvironment.LOW_AEX},
        machine_wide_mean_ns=None,
        drift_interval_ns=drift_interval_ns,
        notes="unbounded F+ drift when AEXs are suppressed",
    )
    apply_timeline(experiment, [_calibration_attack("fplus")])
    return experiment
