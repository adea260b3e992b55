"""Attacks on the Triad protocol, as analysed in the paper.

* :class:`CalibrationDelayAttacker` — the F+ / F− delay attacks on the
  TSC-rate calibration (§III-C), the paper's main contribution.
* :class:`TscScaleAttack` / :class:`TscOffsetAttack` — hypervisor TSC
  manipulation, which the INC monitor detects (§IV-A1).
* :class:`TimedEvent` / :func:`apply_timeline` — the one attack timeline
  every timed input compiles to, including the OS scheduling attacks that
  control *when* nodes refresh (§III-A, Fig. 4/6), and :func:`at`, the
  scheduled process each timed event starts from.
"""

from repro.attacks.byzantine import ByzantineStats, ByzantineTriadNode, LIE_STRATEGIES
from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.attacks.scheduler import at
from repro.attacks.timeline import TimedEvent, apply_timeline
from repro.attacks.tscattack import TscOffsetAttack, TscScaleAttack

__all__ = [
    "AttackMode",
    "ByzantineStats",
    "ByzantineTriadNode",
    "CalibrationDelayAttacker",
    "LIE_STRATEGIES",
    "TaBlackholeAttack",
    "TimedEvent",
    "TscOffsetAttack",
    "TscScaleAttack",
    "apply_timeline",
    "at",
]
