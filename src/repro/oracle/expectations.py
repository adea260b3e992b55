"""Expected violation sets: what each canonical scenario *should* trip.

The oracle's strict mode fails a run on any violation that is not
expected. For benign scenarios the expected set is empty; for the paper's
attack scenarios the violations *are* the result — fig4's victim drifting
out of bound is the experiment working, not the oracle misfiring. This
registry names those expectations per canonical scenario, so ``repro
reproduce --oracle strict`` passes while still catching anything
off-script. Spec runs — the CLI presets and every sweep point included —
take theirs from their attack timeline instead
(:func:`repro.attacks.timeline.expected_violations`); a run's name never
widens them.

Entries are ``(node, invariant)`` pairs; ``"*"`` as the node matches any
node (used where an attack's blast radius is deliberately unbounded, e.g.
the F− propagation cascade). Expected sets are *allowances*, not
obligations: a run producing fewer violations than expected still passes
strict mode. Exact conformance — expected violations must actually occur —
is asserted by the golden-trace suite under ``tests/golden/``.
"""

from __future__ import annotations

from typing import Iterable

#: node wildcard accepted in expected pairs.
ANY_NODE = "*"

#: Violations the compromised node of a calibration-delay attack produces:
#: its clock free-runs on a skewed F_calib while reporting OK.
_VICTIM = frozenset({("node-3", "drift-bound"), ("node-3", "state-soundness")})

#: Violations of an unbounded propagation cascade: any node may end up
#: out of bound, serving while out of bound, or adopting an out-of-bound
#: peer's timestamp.
CASCADE = frozenset(
    {
        (ANY_NODE, "drift-bound"),
        (ANY_NODE, "state-soundness"),
        (ANY_NODE, "untaint-safety"),
    }
)

#: Canonical experiment name -> expected (node, invariant) pairs.
EXPECTED_VIOLATIONS: dict[str, frozenset[tuple[str, str]]] = {
    # Fault-free scenarios: the oracle must stay silent.
    "fig2-fault-free-triad-like": frozenset(),
    "fig3-fault-free-low-aex": frozenset(),
    # F+ (slow clock): only the victim breaks its bound.
    "fig4-fplus-low-aex": _VICTIM,
    "fig5-fplus-triad-like": _VICTIM,
    "baseline-fplus-suppressed-aex": _VICTIM,
    # F− with propagation: the cascade may infect every honest node.
    "fig6-fminus-propagation": CASCADE,
    # Hardened protocol under the same attacks: the victim may transiently
    # exceed the bound before the discipline loop repairs it, but honest
    # nodes must hold (no wildcard entries).
    "hardened-fminus-propagation": _VICTIM,
    "hardened-fplus-suppressed-aex": _VICTIM,
    # TA blackhole: refresh starves; freshness deadlines fire fleet-wide.
    "dos-ta-blackhole": frozenset({(ANY_NODE, "freshness")}),
}


def expected_for(name: str) -> frozenset[tuple[str, str]]:
    """Expected violation pairs for a canonical scenario name (empty default)."""
    return EXPECTED_VIOLATIONS.get(name, frozenset())


def is_expected(key: tuple[str, str], expected: Iterable[tuple[str, str]]) -> bool:
    """Whether a (node, invariant) pair is covered by ``expected``."""
    node, invariant = key
    expected = set(expected)
    return (node, invariant) in expected or (ANY_NODE, invariant) in expected


def unexpected_keys(
    keys: Iterable[tuple[str, str]], expected: Iterable[tuple[str, str]]
) -> set[tuple[str, str]]:
    """The subset of ``keys`` not covered by ``expected``."""
    expected = set(expected)
    return {key for key in keys if not is_expected(key, expected)}
