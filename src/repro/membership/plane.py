"""The ``membership`` plane and the ``--membership`` policy.

A spec's ``membership`` block — ``{"mode": "observe" | "enforce"}`` plus
any :class:`repro.membership.MembershipConfig` keys — attaches an epoch
membership engine to the cluster. Runs that build no spec get the same
engine from :data:`POLICY` (a :class:`~repro.policy.ScopedPolicy`); a
spec block replaces a policy-attached engine. Either way the report is
the engine's verdict journal. Modes: ``observe`` computes verdicts
without intervening; ``enforce`` also rotates the epoch key so
quarantined nodes are cryptographically cut off.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.membership.config import MembershipConfig
from repro.membership.engine import CONTROLLER_MODES, MembershipController, render_report
from repro.policy import ScopedPolicy

#: Valid ``--membership`` policy modes, in escalation order.
MEMBERSHIP_MODES = ("off",) + CONTROLLER_MODES


def _split(block) -> tuple[str, MembershipConfig]:
    """(mode, config) of a block, validated with key-named errors."""
    if not isinstance(block, dict):
        raise ConfigurationError(
            f"membership: block must be an object, got {type(block).__name__}"
        )
    mode = block.get("mode", "observe")
    if mode not in CONTROLLER_MODES:
        raise ConfigurationError(
            f"membership.mode: unknown mode {mode!r}; choose from {CONTROLLER_MODES}"
        )
    return mode, MembershipConfig.from_dict({k: v for k, v in block.items() if k != "mode"})


class MembershipPlane:
    def validate(self, block, spec) -> None:
        _split(block)

    def attach(self, experiment, block) -> None:
        mode, config = _split(block)
        MembershipController.attach(experiment, config=config, mode=mode)

    def report(self, experiment) -> dict:
        return experiment.membership.report()

    def render(self, report) -> str:
        return render_report(report)


PLANE = MembershipPlane()

POLICY = ScopedPolicy(
    "membership",
    MEMBERSHIP_MODES,
    MembershipConfig,
    lambda policy, cluster: MembershipController(
        cluster, config=policy.config, mode=policy.mode
    ),
)
