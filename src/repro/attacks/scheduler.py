"""Scheduling attacks: the OS decides when enclaves are interrupted.

The paper points out an asymmetry the original Triad design overlooked
(§III-A): the protocol treats AEXs as an attack vector to *add*, but every
refresh of a node's timestamp is AEX-driven, so an attacker can also
*remove* interruptions — isolating the monitoring core — and let a
miscalibrated clock free-run arbitrarily long. Low AEX rates are what
strengthen the F+ attack in Fig. 4 (Node 3 drifting at −91 ms/s without
ever being corrected by peers); they also *increase* availability, so the
victim sees no service degradation (§IV-B).

Conversely the attacker can flood a core with interrupts, forcing constant
peer contact — the mechanism that *spreads* the F− infection in Fig. 6
once honest nodes start experiencing AEXs.

Both are timeline events (``aex-suppress``, ``aex-flood``; see
:mod:`repro.attacks.timeline`); :func:`at` is the scheduled process every
timed event starts from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


def at(sim: "Simulator", time_ns: int, action: Callable[[], None], name: str = "scheduled-action"):
    """Run ``action`` at absolute simulated time ``time_ns``.

    The building block for scripted attack timelines (e.g. the paper's
    Fig. 6 environment switch at t = 104 s).
    """
    if time_ns < sim.now:
        raise ConfigurationError(f"cannot schedule at {time_ns}, now is {sim.now}")

    def runner():
        yield sim.timeout(time_ns - sim.now)
        action()

    return sim.process(runner(), name=name)

