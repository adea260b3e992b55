"""Expected-violation sets are defined once.

The ``service`` and ``membership`` presets have no registry entries: each
preset spec's expected set comes from its attack wiring alone (every
adversary's ``expected_violations()``). The table pins those sets, built
without running anything, so a registry entry cannot quietly come back
and widen or narrow them.
"""

import pytest

from repro.cli import _PRESETS, _build_parser
from repro.experiments.spec import ExperimentSpec
from repro.oracle import EXPECTED_VIOLATIONS

VICTIM = {("node-3", "drift-bound"), ("node-3", "state-soundness")}
CASCADE = {("*", "drift-bound"), ("*", "state-soundness"), ("*", "untaint-safety")}
STARVED = {("*", "freshness")}

PRESET_EXPECTATIONS = {
    ("service", "benign"): set(),
    ("service", "fplus"): VICTIM,
    ("service", "fminus"): VICTIM | CASCADE,
    ("service", "fminus-propagation"): VICTIM | CASCADE,
    ("service", "ta-blackhole"): STARVED,
    ("membership", "benign"): set(),
    ("membership", "churn"): set(),
    ("membership", "fplus"): VICTIM,
    ("membership", "fminus-propagation"): VICTIM | CASCADE,
    ("membership", "ta-blackhole"): STARVED,
}


@pytest.mark.parametrize("command, attack", sorted(PRESET_EXPECTATIONS))
def test_preset_expected_set_comes_from_attack_wiring(command, attack):
    args = _build_parser().parse_args([command, "--attack", attack])
    spec = ExperimentSpec.from_dict(_PRESETS[command](args))
    assert spec.name not in EXPECTED_VIOLATIONS
    assert spec.build().expected_violations == PRESET_EXPECTATIONS[command, attack]


def test_every_preset_attack_is_pinned():
    parser = _build_parser()
    subcommands = parser._subparsers._group_actions[0].choices
    for command in ("service", "membership"):
        attacks = next(
            action.choices
            for action in subcommands[command]._actions
            if action.dest == "attack"
        )
        assert {(command, attack) for attack in attacks} <= set(PRESET_EXPECTATIONS)


@pytest.mark.parametrize("name", ["cluster-size/x", "attack-delay/x"])
def test_a_run_name_never_widens_the_expected_set(name):
    # Sweep points are specs: their allowances come from their attack
    # timeline alone, so a benign spec under a sweep's name allows nothing.
    spec = ExperimentSpec(name=name, duration_s=10, machine_wide_mean_s=None)
    assert spec.build().expected_violations == set()
