"""Denial-of-service against the Time Authority path.

The paper's attacker "can delay or drop any message between the TEE and
other devices" (§III-A). Dropping everything to/from the TA is the
bluntest use of that power: it cannot corrupt time (references simply
never arrive) but it starves RefCalib, so a node whose peers are all
tainted stays unavailable for as long as the blackhole lasts.

This attack exists to validate the protocol's *fail-closed* property —
under TA DoS the system loses availability, never correctness — and to
measure how availability degrades and recovers. It composes with the F±
attacks (e.g. blackholing the TA after poisoning calibration keeps a
victim from ever re-anchoring).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.net.adversary import Interference, NetworkAdversary, Observation, PASS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class TaBlackholeAttack(NetworkAdversary):
    """Drop all traffic between selected hosts and the Time Authority.

    ``victims=None`` blackholes every node's TA path (a network-level
    attacker); otherwise only the listed compromised hosts' paths are cut
    (an OS-level attacker). ``start_ns``/``stop_ns`` bound the outage.
    """

    def __init__(
        self,
        sim: "Simulator",
        ta_host: str,
        victims: Optional[set[str]] = None,
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
    ) -> None:
        if stop_ns is not None and stop_ns <= start_ns:
            raise ConfigurationError("blackhole must stop after it starts")
        super().__init__(sim, scope_hosts=None)
        self.ta_host = ta_host
        self.victims = victims
        self.start_ns = start_ns
        self.stop_ns = stop_ns
        self.dropped_count = 0

    def _active(self) -> bool:
        if self.sim.now < self.start_ns:
            return False
        if self.stop_ns is not None and self.sim.now >= self.stop_ns:
            return False
        return True

    def _targets_flow(self, observation: Observation) -> bool:
        hosts = {observation.source_host, observation.destination_host}
        if self.ta_host not in hosts:
            return False
        if self.victims is None:
            return True
        return bool(hosts & self.victims)

    def interfere(self, observation: Observation) -> Interference:
        if self._active() and self._targets_flow(observation):
            self.dropped_count += 1
            return Interference(drop=True)
        return PASS
