"""The ``--oracle`` policy (a :class:`~repro.policy.ScopedPolicy`).

Modes: ``off`` attaches no oracle (the default); ``warn`` collects and
reports violations, exit status unchanged; ``strict`` also raises
:class:`~repro.errors.OracleViolationError` (nonzero CLI exit) on any
violation outside the scenario's expected set.
"""

from __future__ import annotations

from repro.oracle.oracle import OracleConfig, watch_cluster
from repro.policy import ScopedPolicy

#: Valid oracle modes, in escalation order.
ORACLE_MODES = ("off", "warn", "strict")

POLICY = ScopedPolicy(
    "oracle",
    ORACLE_MODES,
    OracleConfig,
    lambda policy, sim, nodes: watch_cluster(sim, nodes, config=policy.config),
)

current_policy = POLICY.current
install_oracle_policy = POLICY.install
clear_oracle_policy = POLICY.clear
oracle_policy = POLICY.scoped
drain_created_oracles = POLICY.drain
#: ``attach_from_policy(sim, nodes)``, called by every new cluster.
attach_from_policy = POLICY.attach
