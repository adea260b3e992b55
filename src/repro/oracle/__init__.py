"""repro.oracle — online invariant checking against kernel ground truth.

The oracle subsystem verifies simulation runs event-by-event: every
instrumented observation (timestamps served, untaints applied, state
transitions) is judged against the simulator's omniscient clock, catching
both loud failures (drift out of bound) and silent ones (a node serving
wrong time while reporting ``OK``). See ``docs/oracle.md``.
"""

from repro.oracle.expectations import (
    ANY_NODE,
    EXPECTED_VIOLATIONS,
    expected_for,
    is_expected,
    unexpected_keys,
)
from repro.oracle.oracle import InvariantOracle, OracleConfig, judge, watch_cluster
from repro.oracle.policy import (
    ORACLE_MODES,
    attach_from_policy,
    clear_oracle_policy,
    current_policy,
    drain_created_oracles,
    install_oracle_policy,
    oracle_policy,
)
from repro.oracle.violations import (
    INVARIANTS,
    SEVERITIES,
    SEVERITY_WEIGHTS,
    Violation,
    violation_score,
    violation_set,
)

__all__ = [
    "ANY_NODE",
    "EXPECTED_VIOLATIONS",
    "INVARIANTS",
    "InvariantOracle",
    "ORACLE_MODES",
    "OracleConfig",
    "SEVERITIES",
    "SEVERITY_WEIGHTS",
    "Violation",
    "attach_from_policy",
    "clear_oracle_policy",
    "current_policy",
    "drain_created_oracles",
    "expected_for",
    "install_oracle_policy",
    "is_expected",
    "judge",
    "oracle_policy",
    "unexpected_keys",
    "violation_score",
    "violation_set",
    "watch_cluster",
]
